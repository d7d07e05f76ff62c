"""Isometry-group detection, rotation axes and vertex transitivity.

Symmetries are face-lattice automorphisms first; geometry only accepts or
rejects them.  Each flag with the base flag's signature (its face's size,
then the sizes of the faces across that face's edges, read from the flag's
edge in its direction) extends, by a walk over the faces, to at most one
automorphism: vertex and face permutations found with integers only.  Every
isometry of a convex polyhedron induces one, so they bound the group from
above (Mani 1971).  The filter, the same for exact and float meshes,
compares rows of the Gram matrix G_ij = <v_i, v_j> (vertices about their
centroid): pi is kept iff G_fj = G_pi(f)pi(j) for the three vertices f of a
frame and every j, decided by the mesh's kernel: exactly on Z[sqrt2]
lattice ints, or within tolerance on floats in units of the diameter (so
within tolerance x diameter^2 on raw Gram entries) on a well-conditioned frame.
The map M of the frame onto its image is then orthogonal and sends every
vertex onto its image (Alt, Mehlhorn, Wagener and Welzl 1988); nothing is
fitted.  As M v_i = v_pi(i) and the vertices span space, M^n = I exactly
when pi^n is the identity, so each element's order is read off pi, with no
matrix powers.  A float mesh that misses a lattice symmetry by more than
its tolerance but less than its square root raises rather than report a
smaller group.  The group is generated, not enumerated: only flags that no
element found so far maps the base flag onto are walked, each kept walk is
a generator, and a breadth-first search closes the generators under
composition, checking every product, which also proves the result a group
(Seress, Permutation Group Algorithms, 2003).  Each rotation's axis is
named by the two features (vertex, reversed edge, face) it fixes, the one
on the positive side of its canonical direction first, as the kernel
decides on its own coordinates.  A float group is snapped into Q(sqrt2)
only when every matrix snaps; otherwise the report is marked approximate.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from . import geom
from .geom import EXACT, Mat3, Vec3
from .solids import Polyhedron


class DegenerateGeometryError(ValueError):
    """Mesh has no faces or no three linearly independent vertices."""


class InternalGeometryError(ValueError):
    """A symmetry result failed its own verification.

    On an exact mesh this indicates a bug; on a float mesh, a tolerance
    under which the accepted maps do not form a group, or a face-lattice
    symmetry that the mesh misses by too little to call it broken.
    """


class Isometry(NamedTuple):
    """Orthogonal map (about the vertex centroid) permuting the mesh.

    ``kernel`` decides predicates on ``matrix``: ``EXACT`` for Q2 matrices,
    also those of a snapped float group, the mesh's tolerance kernel for an
    unsnapped one.  Every element of a group has the same kernel.
    """

    matrix: Mat3
    proper: bool
    vertex_perm: tuple[int, ...]
    face_perm: tuple[int, ...]
    kernel: object

    def order(self) -> int:
        """Smallest n with self^n = identity, via the vertex permutation.

        The matrix maps each vertex onto its image and the vertices span
        3-space, so the permutation determines the matrix and their orders
        agree.
        """
        n = len(self.vertex_perm)
        perm = self.vertex_perm
        cur = perm
        k = 1
        ident = tuple(range(n))
        while cur != ident:
            cur = tuple(perm[i] for i in cur)
            k += 1
        return k


class Feature(NamedTuple):
    """A surface feature met by an axis: face center, vertex or edge midpoint."""

    kind: str  # "face" | "vertex" | "edge"
    ref: object  # face/vertex index or (i, j) edge pair
    point: Vec3

    def to_dict(self) -> dict:
        return {"type": self.kind, "point": geom.json_vec(self.point)}


class RotationAxis(NamedTuple):
    direction: Vec3  # the kernel's canonical direction
    order: int
    features: tuple[Feature, Feature]  # the two the axis line meets

    def to_dict(self) -> dict:
        return {
            "direction": geom.json_vec(self.direction),
            "order": self.order,
            "features": [f.to_dict() for f in self.features],
        }


class SymmetryReport(NamedTuple):
    proper_order: int
    full_order: int
    axes: tuple[RotationAxis, ...]
    vertex_transitive: bool
    vertex_transitive_proper: bool
    orbit_sizes: tuple[int, ...]
    class_equation_ok: bool
    approximate: bool

    def axes_by_order(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for ax in self.axes:
            out[ax.order] = out.get(ax.order, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "proper_order": self.proper_order,
            "full_order": self.full_order,
            "axes": [ax.to_dict() for ax in self.axes],
            "vertex_transitive": self.vertex_transitive,
            "vertex_transitive_proper": self.vertex_transitive_proper,
            "orbits": {
                "count": len(self.orbit_sizes),
                "sizes": list(self.orbit_sizes),
            },
            "class_equation_ok": self.class_equation_ok,
            "approximate": self.approximate,
        }


# -- group search -------------------------------------------------------------


def _flags(p: Polyhedron):
    """Every flag as (a, b, fi, signature): vertex a, directed edge a->b, a
    face fi through that edge, and signature = (that face's size, the sizes
    of the faces across its edges, 0 for none, read from edge ab on in the
    direction a->b).  An automorphism keeps every flag's signature."""
    for fi, (f, across) in enumerate(zip(p.faces, _across(p))):
        sizes = [0 if g is None else len(p.faces[g]) for g in across]
        for t in range(len(f)):
            a, b = f[t], f[(t + 1) % len(f)]
            yield a, b, fi, (len(f), tuple(sizes[t:] + sizes[:t]))
            yield b, a, fi, (len(f), tuple(sizes[t::-1] + sizes[:t:-1]))


def _across(p: Polyhedron) -> list[list[int | None]]:
    """across[f][t]: the face across edge (f[t], f[t+1]) of face f."""
    return [[p.other_face(tuple(sorted((f[t], f[(t + 1) % len(f)]))), fi)
             for t in range(len(f))] for fi, f in enumerate(p.faces)]


def _automorphism(p: Polyhedron, across, base, image):
    """Extend the flag map base -> image to an automorphism of the face
    lattice, as (vertex_perm, face_perm); None if there is none.

    Integers only: a walk over the faces maps each face onto its image,
    aligned at an edge already mapped; the maps must be consistent and,
    at the end, bijections.
    """
    vmap: dict[int, int] = {}
    fmap: dict[int, int] = {}
    todo = [(base[2], base[0], base[1], image[2], image[0], image[1])]
    while todo:
        f, a, b, g, x, y = todo.pop()
        if f in fmap:
            if fmap[f] != g:
                return None
            continue
        fmap[f] = g
        src, dst = p.faces[f], p.faces[g]
        n = len(src)
        if len(dst) != n:
            return None
        i, j = src.index(a), dst.index(x)
        di = 1 if src[(i + 1) % n] == b else -1
        dj = 1 if dst[(j + 1) % n] == y else -1
        for t in range(n):
            # aligned vertices t, and the edge from them to aligned vertices
            # t + 1, which a backward walk finds one place earlier in the face
            u, w = src[(i + di * t) % n], dst[(j + dj * t) % n]
            if vmap.setdefault(u, w) != w:
                return None
            h = across[f][(i + di * t - (di < 0)) % n]
            h_img = across[g][(j + dj * t - (dj < 0)) % n]
            if h is None or h_img is None:
                return None
            todo.append((h, u, src[(i + di * (t + 1)) % n],
                         h_img, w, dst[(j + dj * (t + 1)) % n]))
    vperm = tuple(vmap.get(i, -1) for i in range(p.n_vertices))
    fperm = tuple(fmap.get(i, -1) for i in range(p.n_faces))
    if sorted(vperm) != list(range(p.n_vertices)) or sorted(fperm) != list(range(p.n_faces)):
        return None
    return vperm, fperm


def isometry_group(p: Polyhedron, proper_only: bool = False) -> tuple[Isometry, ...]:
    """All orthogonal maps (about the vertex centroid) sending the vertex
    set onto itself and preserving the face set, in canonical order.

    A float group is snapped back to Q(sqrt2) only if every matrix snaps.
    """
    if "isometry_group" not in p._cache:
        p._cache["isometry_group"] = _isometry_group(p)
    group = p._cache["isometry_group"]
    if proper_only:
        return tuple(iso for iso in group if iso.proper)
    return group


def _isometry_group(p: Polyhedron) -> tuple[Isometry, ...]:
    """The group generated by the face-lattice automorphisms that keep the
    frame's rows of the Gram matrix; each element's matrix maps the frame
    onto its image.  Only base-flag images that no element found so far
    reaches are walked; each walk that keeps the rows adds a generator."""
    k, verts = p.kernel, p.points
    flags = list(_flags(p))
    if not flags:
        raise DegenerateGeometryError("no faces or no three linearly independent vertices")
    gram = [[None] * len(verts) for _ in verts]
    for i, j in itertools.combinations_with_replacement(range(len(verts)), 2):
        gram[i][j] = gram[j][i] = k.dot(verts[i], verts[j])
    framed = k.frame(verts, gram)
    if framed is None:
        raise DegenerateGeometryError("no faces or no three linearly independent vertices")
    frame, frame_inv = framed
    base, across = flags[0], _across(p)
    candidates = {flag[:3] for flag in flags if flag[3] == base[3]}

    def keeps_gram_rows(kernel, vperm):  # G_fj = G_pi(f)pi(j), frame f, every j
        return all(all(map(kernel.equal, gram[f], map(gram[vperm[f]].__getitem__, vperm)))
                   for f in frame)

    def element(vperm, fperm):
        if ((vperm[base[0]], vperm[base[1]], fperm[base[2]]) not in candidates
                or not keeps_gram_rows(k, vperm)):
            raise InternalGeometryError("isometry group not closed under composition")
        m, proper = k.frame_map([verts[vperm[f]] for f in frame], frame_inv)
        return Isometry(m, proper, vperm, fperm, p.kernel)

    group = {base[:3]: element(tuple(range(p.n_vertices)), tuple(range(p.n_faces)))}
    gens: list = []
    for flag in flags:
        if flag[:3] not in candidates or flag[:3] in group:
            continue
        perms = _automorphism(p, across, base, flag)
        if perms is None:
            continue
        if keeps_gram_rows(k, perms[0]):
            gens.append(perms)
            _close(group, gens, base[:3], element)
        elif keeps_gram_rows(k.coarse, perms[0]):
            raise InternalGeometryError(
                "a symmetry of the face lattice misses an isometry by more than"
                " the tolerance but less than its square root")
    isos = list(group.values())
    snapped = []
    for iso in isos:  # all or nothing: stop at the first matrix that does not snap
        m = k.snap(iso.matrix)
        if m is None:
            break
        snapped.append(iso._replace(matrix=m, kernel=EXACT))
    else:
        isos = snapped
    isos.sort(key=lambda iso: iso.matrix)
    return tuple(isos)


def _close(group: dict, gens: Sequence, base, element) -> None:
    """Extend ``group`` ({image of the base flag: element}), closed under all
    but the last of ``gens`` ((vertex_perm, face_perm) pairs), to the group
    they generate, breadth first, multiplying each element on the right by
    each generator it has not met: the closure proof.  A product whose
    base-flag image is known must be that element; ``element(vperm, fperm)``
    makes a new one, raising InternalGeometryError unless it is a symmetry."""
    a, b, f = base
    todo = [(x, gens[-1:]) for x in group.values()]  # closed under the others
    for x, by in todo:  # the list grows as the search goes
        for gv, gf in by:
            vp = tuple(map(x.vertex_perm.__getitem__, gv))
            fp = tuple(map(x.face_perm.__getitem__, gf))
            y = group.get((vp[a], vp[b], fp[f]))
            if y is None:
                group[vp[a], vp[b], fp[f]] = y = element(vp, fp)
                todo.append((y, gens))
            elif (y.vertex_perm, y.face_perm) != (vp, fp):
                raise InternalGeometryError("isometry group not closed under composition")


# -- rotation axes -------------------------------------------------------------


def rotation_axes(p: Polyhedron, group: Iterable[Isometry]) -> tuple[RotationAxis, ...]:
    """One axis per pair of surface features fixed by a non-identity
    rotation; order = maximal rotation order about it.

    The features and orders are read off the permutations, so two
    rotations share an axis exactly when they fix the same pair.  The
    direction is the kernel's canonical direction of the first such
    rotation's fixed line.  Axes of equal order are sorted by direction,
    or, in a group that did not snap, by their pair of features: there the
    directions carry the input's noise.
    """
    k = p.kernel
    axes: dict[frozenset, RotationAxis] = {}
    exact = True
    for iso in group:
        exact = iso.kernel.exact
        order = iso.order()
        if not iso.proper or order == 1:
            continue
        features = _fixed_features(p, iso)
        key = frozenset((f.kind, f.ref) for f in features)
        ax = axes.get(key)
        if ax is None:
            d = _fixed_direction(iso)
            a, b = features  # the one on the positive side of d first
            if k.sign(k.dot(p.offset(p.feature_ids(a.kind, a.ref)), k.vec(d))) < 0:
                a, b = b, a
            axes[key] = RotationAxis(d, order, (a, b))
        elif order > ax.order:
            axes[key] = ax._replace(order=order)
    if exact:
        return tuple(sorted(axes.values(), key=lambda ax: (-ax.order, ax.direction)))
    return tuple(sorted(axes.values(), key=lambda ax: (
        -ax.order, sorted((f.kind, f.ref) for f in ax.features))))


def _feature(p: Polyhedron, kind: str, ref) -> Feature:
    return Feature(kind, ref, geom.centroid([p.vertices[i] for i in p.feature_ids(kind, ref)]))


def _fixed_features(p: Polyhedron, iso: Isometry) -> list[Feature]:
    """The vertices, reversed edges and faces a rotation maps to
    themselves: exactly the two features its axis meets."""
    vp, fp = iso.vertex_perm, iso.face_perm
    fixed = [("vertex", i) for i in range(p.n_vertices) if vp[i] == i]
    fixed += [("edge", (i, j)) for (i, j) in p.edges if vp[i] == j and vp[j] == i]
    fixed += [("face", f) for f in range(p.n_faces) if fp[f] == f]
    if len(fixed) != 2:
        raise InternalGeometryError(f"rotation fixes {len(fixed)} surface features, not 2")
    return [_feature(p, *f) for f in fixed]


def _fixed_direction(iso: Isometry) -> Vec3:
    """The rotation's axis in closed form: S = M + M^T - (tr M - 1) I equals
    2 (1 - cos t) u u^T, so its longest column, the one with the largest
    diagonal entry, lies along the axis u, half turns included."""
    k, m = iso.kernel, iso.matrix
    t = m[0][0] + m[1][1] + m[2][2] - 1
    i = max(range(3), key=lambda i: m[i][i])  # S_ii = 2 M_ii - t
    return k.canon_dir(k.vec(m[i][j] + m[j][i] - (t if i == j else 0) for j in range(3)))


# -- feature incidence ---------------------------------------------------------


def axis_feature_incidence(
    p: Polyhedron, axis: RotationAxis | Vec3
) -> tuple[Feature, Feature]:
    """The two antipodal surface features (face center, vertex, edge
    midpoint) met by the axis line through the centroid."""
    sides = p.on_axis(axis.direction if isinstance(axis, RotationAxis) else axis)
    for label, side in (("positive", sides[True]), ("negative", sides[False])):
        if len(side) != 1:
            raise InternalGeometryError(f"axis meets {len(side)} features on its {label} side")
    return _feature(p, *sides[True][0]), _feature(p, *sides[False][0])


# -- polar rotations and transitivity -----------------------------------------


def polar_axis_rotations(p: Polyhedron) -> tuple[int, ...]:
    """Non-identity rotation angles (degrees) about the z axis present in
    the proper group."""
    angles = set()
    for iso in isometry_group(p, proper_only=True):
        k, m = iso.kernel, iso.matrix
        if not all(k.is_zero(x) for x in (m[0][2], m[1][2], m[2][2] - 1)):
            continue
        deg = round(math.degrees(math.atan2(float(m[1][0]), float(m[0][0])))) % 360
        if deg:
            angles.add(deg)
    return tuple(sorted(angles))


def is_vertex_transitive(
    p: Polyhedron, group: Sequence[Isometry]
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Vertex orbits under a verified group: the orbit of v is {g(v)}."""
    orbits = {tuple(sorted({iso.vertex_perm[v] for iso in group}))
              for v in range(p.n_vertices)}
    ordered = sorted(orbits, key=lambda o: (-len(o), o))
    return len(ordered) == 1, tuple(ordered)


def symmetry_report(p: Polyhedron) -> SymmetryReport:
    """Full symmetry summary: group orders, axes with surface features,
    transitivity and the axis class equation."""
    if "symmetry_report" in p._cache:
        return p._cache["symmetry_report"]
    full = isometry_group(p)
    proper = tuple(iso for iso in full if iso.proper)
    axes = rotation_axes(p, proper)
    vt_full, orbits = is_vertex_transitive(p, full)
    vt_proper, _ = is_vertex_transitive(p, proper)
    class_eq = sum(ax.order - 1 for ax in axes) + 1 == len(proper)
    report = SymmetryReport(
        proper_order=len(proper),
        full_order=len(full),
        axes=axes,
        vertex_transitive=vt_full,
        vertex_transitive_proper=vt_proper,
        orbit_sizes=tuple(len(o) for o in orbits),
        class_equation_ok=class_eq,
        approximate=not full[0].kernel.exact,  # the group was not snapped
    )
    p._cache["symmetry_report"] = report
    return report
