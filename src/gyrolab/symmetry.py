"""Congruence, isometry groups, rotation axes and vertex transitivity.

A congruence of p onto q is a face-lattice isomorphism first; geometry only
accepts or rejects it.  Each flag of q with the signature of p's base flag
(its face's size, then the sizes of the faces across that face's edges,
read from the flag's edge in its direction) extends, by Weinberg's walk over
the faces (1966), to at most one isomorphism: vertex and face maps found
with integers only.  Every congruence of convex polyhedra induces one (Mani
1971).  The filter, the same for exact and float meshes, compares rows of
the Gram matrices G_ij = <v_i, v_j> (vertices about their centroid, both
meshes on one scale): pi is kept iff G_p[f][j] = G_q[pi f][pi j] for the
three vertices f of p's frame and every j, decided by p's kernel: exactly
on Z[sqrt2] lattice ints, or within tolerance on floats in units of p's
diameter on a well-conditioned frame.  The map M of the frame onto its image
is then orthogonal and sends every vertex onto its image (Alt, Mehlhorn,
Wagener and Welzl 1988); nothing is fitted.  The isometry group is the case
q = p.  As M v_i = v_pi(i) and the vertices span space, M^n = I exactly
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
    """Orthogonal map of one mesh onto another about their vertex centroids,
    vertex i to ``vertex_perm[i]`` and face f to ``face_perm[f]``: a symmetry
    when the two are one mesh.

    ``kernel`` decides predicates on ``matrix``: ``EXACT`` for Q2 matrices,
    also those of a snapped float group, the first mesh's tolerance kernel
    for an unsnapped one.  Every element of a group has the same kernel.
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


class RotationAxis(NamedTuple):
    direction: Vec3  # the kernel's canonical direction
    order: int
    features: tuple[Feature, Feature]  # the two the axis line meets


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


# -- group search -------------------------------------------------------------


def _flags(p: Polyhedron):
    """Every flag as (a, b, fi, signature): vertex a, directed edge a->b, a
    face fi through that edge, and signature = (that face's size, the sizes
    of the faces across its edges, 0 for none, read from edge ab on in the
    direction a->b).  An isomorphism keeps every flag's signature."""
    for fi, (f, across) in enumerate(zip(p.faces, p.across)):
        sizes = [0 if g is None else len(p.faces[g]) for g in across]
        for t in range(len(f)):
            a, b = f[t], f[(t + 1) % len(f)]
            yield a, b, fi, (len(f), tuple(sizes[t:] + sizes[:t]))
            yield b, a, fi, (len(f), tuple(sizes[t::-1] + sizes[:t:-1]))


def _isomorphism(p: Polyhedron, q: Polyhedron, base, image):
    """Extend the map of p's flag base onto q's flag image to an isomorphism
    of face lattices, (vertex_perm, face_perm) in q's indices; None if none.

    Integers only: a walk over p's faces maps each face onto its image,
    aligned at an edge already mapped; the maps must be consistent and,
    at the end, bijections.
    """
    vmap, fmap = {}, {}  # p's vertices and faces -> q's
    todo = [(base[2], base[0], base[1], image[2], image[0], image[1])]
    while todo:
        f, a, b, g, x, y = todo.pop()
        if f in fmap:
            if fmap[f] != g:
                return None
            continue
        fmap[f] = g
        src, dst = p.faces[f], q.faces[g]
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
            h = p.across[f][(i + di * t - (di < 0)) % n]
            h_img = q.across[g][(j + dj * t - (dj < 0)) % n]
            if h is None or h_img is None:
                return None
            todo.append((h, u, src[(i + di * (t + 1)) % n],
                         h_img, w, dst[(j + dj * (t + 1)) % n]))
    vperm = tuple(vmap.get(i, -1) for i in range(p.n_vertices))
    fperm = tuple(fmap.get(i, -1) for i in range(p.n_faces))
    if sorted(vperm) != list(range(q.n_vertices)) or sorted(fperm) != list(range(q.n_faces)):
        return None
    return vperm, fperm


def _acceptance(p: Polyhedron, pts, q_pts):
    """(p's flags, accept), p's points ``pts`` and q's ``q_pts`` on one scale
    of p's kernel k: accept(kernel, vperm, fperm) is the Isometry with M the
    k.frame_map of p's frame onto q's images if G_p[f][j] = G_q[pi f][pi j]
    for each frame vertex f and every j, as ``kernel`` decides, else None."""
    k, flags = p.kernel, list(_flags(p))

    def gram_of(vs):  # G_ij = G_ji, each computed once
        low = [[k.dot(u, v) for v in vs[:i + 1]] for i, u in enumerate(vs)]
        return [row + [low[j][i] for j in range(i + 1, len(vs))] for i, row in enumerate(low)]

    gram = gram_of(pts)
    q_gram = gram if q_pts is pts else gram_of(q_pts)
    framed = flags and k.frame(pts, gram)
    if not framed:
        raise DegenerateGeometryError("no faces or no three linearly independent vertices")
    frame, frame_inv = framed

    def accept(kernel, vperm, fperm):
        if all(all(map(kernel.equal, gram[f], map(q_gram[vperm[f]].__getitem__, vperm)))
               for f in frame):
            return Isometry(*k.frame_map([q_pts[vperm[f]] for f in frame], frame_inv),
                            vperm, fperm, k)
    return flags, accept


def isometry_group(p: Polyhedron) -> tuple[Isometry, ...]:
    """All orthogonal maps (about the vertex centroid) sending the vertex
    set onto itself and preserving the face set, in canonical order.

    The group generated by the face-lattice automorphisms that keep the
    frame's rows of the Gram matrix; each element's matrix maps the frame
    onto its image.  Only base-flag images that no element found so far
    reaches are walked; each walk that keeps the rows adds a generator.
    A float group is snapped back to Q(sqrt2) only if every matrix snaps.
    """
    k = p.kernel
    flags, accept = _acceptance(p, p.points, p.points)
    base = flags[0]
    candidates = {flag[:3] for flag in flags if flag[3] == base[3]}

    def element(vperm, fperm):
        iso = ((vperm[base[0]], vperm[base[1]], fperm[base[2]]) in candidates
               and accept(k, vperm, fperm))
        if not iso:
            raise InternalGeometryError("isometry group not closed under composition")
        return iso

    group = {base[:3]: element(tuple(range(p.n_vertices)), tuple(range(p.n_faces)))}
    gens: list = []
    for flag in flags:
        if flag[:3] not in candidates or flag[:3] in group:
            continue
        perms = _isomorphism(p, p, base, flag)
        if perms is None:
            continue
        if accept(k, *perms):
            gens.append(perms)
            _close(group, gens, base[:3], element)  # remade there: element checks face_perm
        elif accept(k.coarse, *perms):
            raise InternalGeometryError(
                "a symmetry of the face lattice misses an isometry by more than"
                " the tolerance but less than its square root")
    # all or nothing: stop at the first matrix that does not snap
    snapped = list(itertools.takewhile(lambda iso: iso.matrix is not None, (
        iso._replace(matrix=k.snap(iso.matrix), kernel=EXACT) for iso in group.values())))
    return tuple(sorted(snapped if len(snapped) == len(group) else group.values(),
                        key=lambda iso: iso.matrix))


def congruences(p: Polyhedron, q: Polyhedron) -> tuple[Isometry, ...]:
    """Every congruence of p onto q, sorted by matrix as the group is: each
    walk from p's base flag onto a flag of q that keeps the Gram rows, on one
    lattice for exact meshes, in units of p's diameter for float ones.  Empty
    if their V, E or F differ; ValueError for an exact mesh with a float one."""
    if p.exact != q.exact:
        raise ValueError("an exact mesh and a float mesh have no common scale")
    if (p.n_vertices, p.n_edges, p.n_faces) != (q.n_vertices, q.n_edges, q.n_faces):
        return ()
    pts = p.kernel.coordinates(p.vertices, q.vertices)
    flags, accept = _acceptance(p, pts[:p.n_vertices], pts[p.n_vertices:])
    maps = (_isomorphism(p, q, flags[0], f) for f in _flags(q) if f[3] == flags[0][3])
    isos = (accept(p.kernel, *perms) for perms in maps if perms)
    return tuple(sorted(filter(None, isos), key=lambda iso: iso.matrix))


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


def axis_feature_incidence(p: Polyhedron, direction: Vec3) -> tuple[Feature, Feature]:
    """The two antipodal surface features (face center, vertex, edge
    midpoint) met by the axis line through the centroid."""
    sides = p.on_axis(direction)
    for label, side in (("positive", sides[True]), ("negative", sides[False])):
        if len(side) != 1:
            raise InternalGeometryError(f"axis meets {len(side)} features on its {label} side")
    return _feature(p, *sides[True][0]), _feature(p, *sides[False][0])


# -- polar rotations and transitivity -----------------------------------------


def polar_axis_rotations(p: Polyhedron) -> tuple[int, ...]:
    """Non-identity rotation angles (degrees) about the z axis present in
    the proper group: 360 j / n to the nearest degree, j = 1 .. n - 1, for
    the order n of the axis the group's kernel finds parallel to z; () if
    there is none."""
    proper = [iso for iso in isometry_group(p) if iso.proper]
    k = proper[0].kernel
    polar = [ax.order for ax in rotation_axes(p, proper)
             if k.is_zero_vec(k.cross(k.vec(ax.direction), k.vec((0, 0, 1))))]
    return tuple((720 * j + n) // (2 * n) for n in polar for j in range(1, n))


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
    full = isometry_group(p)
    proper = tuple(iso for iso in full if iso.proper)
    axes = rotation_axes(p, proper)
    vt_full, orbits = is_vertex_transitive(p, full)
    vt_proper, _ = is_vertex_transitive(p, proper)
    class_eq = sum(ax.order - 1 for ax in axes) + 1 == len(proper)
    return SymmetryReport(
        proper_order=len(proper),
        full_order=len(full),
        axes=axes,
        vertex_transitive=vt_full,
        vertex_transitive_proper=vt_proper,
        orbit_sizes=tuple(len(o) for o in orbits),
        class_equation_ok=class_eq,
        approximate=not full[0].kernel.exact,  # the group was not snapped
    )
