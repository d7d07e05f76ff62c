"""Isometry-group detection, rotation axes and vertex transitivity.

Symmetries are face-lattice automorphisms first; geometry only accepts or
rejects them.  Each flag whose face and face across the edge have the base
flag's sizes extends, by a walk over the faces, to at most one automorphism:
vertex and face permutations found with integers only.  Every isometry of a
convex polyhedron induces one, so they bound the group from above (Mani
1971).  The filter, the same for exact and float meshes, compares rows of
the Gram matrix G_ij = <v_i, v_j> (vertices about their centroid): pi is
kept iff G_fj = G_pi(f)pi(j) for the three vertices f of a well-conditioned
frame and every j, decided by the mesh's kernel: exactly over Q(sqrt2), or
within tolerance x diameter^2.  The map of the frame onto its image is then
orthogonal and sends every vertex onto its image (Alt, Mehlhorn, Wagener
and Welzl 1988); nothing is fitted.  A float mesh that misses a lattice
symmetry by more than its tolerance but less than its square root raises
rather than report a smaller group.  The accepted maps are verified to be
a group; each rotation's axis is named by the two features (vertex,
reversed edge, face) it fixes.  A float group is snapped into Q(sqrt2) only
when every matrix snaps; otherwise the report is marked approximate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from . import geom
from .geom import (
    EXACT,
    LEAD_EPS,
    Mat3,
    Vec3,
    mat_mul,
    mat_transpose,
    vcross,
    vdot,
    vsub,
)
from .solids import Polyhedron


class DegenerateGeometryError(ValueError):
    """Mesh has no faces or no three linearly independent vertices."""


class InternalGeometryError(ValueError):
    """A symmetry result failed its own verification.

    On an exact mesh this indicates a bug; on a float mesh, a tolerance
    under which the accepted maps do not form a group, or a face-lattice
    symmetry that the mesh misses by too little to call it broken.
    """


@dataclass(frozen=True)
class Isometry:
    """Orthogonal map (about the vertex centroid) permuting the mesh.

    ``kernel`` decides predicates on ``matrix``: exact for Q2 matrices,
    the mesh's tolerance kernel for an unsnapped float group.
    """

    matrix: Mat3
    proper: bool
    vertex_perm: tuple[int, ...]
    face_perm: tuple[int, ...]
    kernel: object = field(compare=False, repr=False)

    def order(self) -> int:
        """Smallest n with self^n = identity, via the vertex permutation.

        The vertices span 3-space, so the permutation determines the
        matrix and their orders agree.
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


@dataclass(frozen=True)
class Feature:
    """A surface feature met by an axis: face center, vertex or edge midpoint."""

    kind: str  # "face" | "vertex" | "edge"
    ref: object  # face/vertex index or (i, j) edge pair
    point: Vec3

    def to_dict(self) -> dict:
        return {"type": self.kind, "point": geom.json_vec(self.point)}


@dataclass(frozen=True)
class RotationAxis:
    direction: Vec3  # the kernel's canonical direction
    order: int
    features: tuple[Feature, Feature]  # the two the axis line meets

    def to_dict(self) -> dict:
        return {
            "direction": geom.json_vec(self.direction),
            "order": self.order,
            "features": [f.to_dict() for f in self.features],
        }


@dataclass(frozen=True)
class SymmetryReport:
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
    """Every flag as (a, b, fi, sizes): vertex a, directed edge a->b, a face
    fi through that edge, and sizes = (that face's size, the size of the
    face across edge ab or 0)."""
    for (i, j) in p.edges:
        for fi in p.edge_faces[(i, j)]:
            other = p.other_face((i, j), fi)
            sizes = (len(p.faces[fi]), 0 if other is None else len(p.faces[other]))
            yield i, j, fi, sizes
            yield j, i, fi, sizes


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


def _verify_group(isos: Sequence[Isometry]) -> None:
    """The vertex permutations are nonempty and closed under composition:
    then each one's inverse and the identity are among its powers."""
    perms = {iso.vertex_perm for iso in isos}
    if not perms or any(tuple(map(a.__getitem__, b)) not in perms for a in perms for b in perms):
        raise InternalGeometryError("isometry group not closed under composition")


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
    """Face-lattice automorphisms of the base flag's images, kept iff they
    keep the frame's rows of the Gram matrix; a kept one's matrix maps the
    frame onto its image."""
    k = p.kernel
    c = p.vertex_centroid()
    verts = tuple(vsub(v, c) for v in p.vertices)
    flags = list(_flags(p))
    if not flags:
        raise DegenerateGeometryError("no faces or no three linearly independent vertices")
    gram = [[None] * len(verts) for _ in verts]
    for i, j in itertools.combinations_with_replacement(range(len(verts)), 2):
        gram[i][j] = gram[j][i] = vdot(verts[i], verts[j])
    scale = k.diameter(verts) ** 2  # the size of a Gram entry
    frame, frame_inv = _frame(k, verts, gram, scale)

    def keeps_gram_rows(kernel, vperm):  # G_fj = G_pi(f)pi(j), frame f, every j
        return all(kernel.equal(x, gram[vperm[f]][pj], scale)
                   for f in frame for x, pj in zip(gram[f], vperm))

    base, across = flags[0], _across(p)
    isos = []
    for flag in flags:
        if flag[3] != base[3]:  # an isometry maps faces to faces of equal size
            continue
        perms = _automorphism(p, across, base, flag)
        if perms is None:
            continue
        if keeps_gram_rows(k, perms[0]):
            m = mat_mul(mat_transpose([verts[perms[0][f]] for f in frame]), frame_inv)
            isos.append(Isometry(m, k.sign(geom.mat_det(m)) > 0, *perms, k))
        elif keeps_gram_rows(k.coarse, perms[0]):
            raise InternalGeometryError(
                "a symmetry of the face lattice misses an isometry by more than"
                " the tolerance but less than its square root")
    snapped = []
    for iso in isos:  # all or nothing: stop at the first matrix that does not snap
        m = k.snap(iso.matrix)
        if m is None:
            break
        snapped.append(replace(iso, matrix=m, kernel=EXACT))
    else:
        isos = snapped
    isos.sort(key=lambda iso: iso.matrix)
    _verify_group(isos)
    return tuple(isos)


def _frame(k, verts: Sequence[Vec3], gram, scale) -> tuple[tuple[int, int, int], Mat3]:
    """A well-conditioned frame (a, b, c) and the inverse of F = [v_a v_b v_c]:
    a has the largest norm, b maximises G_aa G_bb - G_ab^2 and c the Gram
    determinant of (a, b, c), which is (det F)^2 = (v_c . v_a x v_b)^2.
    F^-1 has rows v_b x v_c, v_c x v_a and v_a x v_b over det F."""
    n = range(len(verts))
    a = max(n, key=lambda i: gram[i][i])
    b = max(n, key=lambda j: gram[a][a] * gram[j][j] - gram[a][j] * gram[a][j])
    normal = vcross(verts[a], verts[b])
    heights = [vdot(normal, v) for v in verts]
    c = max(n, key=lambda j: heights[j] * heights[j])
    if k.equal(heights[c] * heights[c], 0, scale ** 3):
        raise DegenerateGeometryError("no faces or no three linearly independent vertices")
    rows = (vcross(verts[b], verts[c]), vcross(verts[c], verts[a]), normal)
    return (a, b, c), tuple(tuple(x / heights[c] for x in r) for r in rows)


def _is_identity(k, m: Mat3) -> bool:
    return all(k.is_zero(m[i][j] - (1 if i == j else 0)) for i in range(3) for j in range(3))


# -- rotation axes -------------------------------------------------------------


def rotation_axes(p: Polyhedron, group: Iterable[Isometry]) -> tuple[RotationAxis, ...]:
    """One axis per pair of surface features fixed by a non-identity
    rotation; order = maximal rotation order about it.

    The features are read off the permutations, so two rotations share
    an axis exactly when they fix the same pair.  The direction is the
    kernel's canonical direction of the first such rotation's fixed line.
    """
    k, c = p.kernel, p.vertex_centroid()
    axes: dict[frozenset, RotationAxis] = {}
    for iso in group:
        if not iso.proper or iso.order() == 1:
            continue
        order = _verify_rotation(iso)
        features = _fixed_features(p, iso)
        key = frozenset((f.kind, f.ref) for f in features)
        ax = axes.get(key)
        if ax is None:
            d = _fixed_direction(iso)
            a, b = features  # the one on the positive side of d first
            if k.sign(vdot(vsub(a.point, c), k.vec(d))) < 0:
                a, b = b, a
            axes[key] = RotationAxis(d, order, (a, b))
        elif order > ax.order:
            axes[key] = replace(ax, order=order)
    return tuple(sorted(axes.values(), key=lambda ax: (-ax.order, ax.direction)))


def _fixed_features(p: Polyhedron, iso: Isometry) -> list[Feature]:
    """The vertices, reversed edges and faces a rotation maps to
    themselves: exactly the two features its axis meets."""
    vp, fp = iso.vertex_perm, iso.face_perm
    fixed = [Feature("vertex", i, p.vertices[i]) for i in range(p.n_vertices) if vp[i] == i]
    fixed += [
        Feature("edge", (i, j), geom.centroid([p.vertices[i], p.vertices[j]]))
        for (i, j) in p.edges if vp[i] == j and vp[j] == i
    ]
    fixed += [Feature("face", f, p.face_center(f)) for f in range(p.n_faces) if fp[f] == f]
    if len(fixed) != 2:
        raise InternalGeometryError(f"rotation fixes {len(fixed)} surface features, not 2")
    return fixed


def _fixed_direction(iso: Isometry) -> Vec3:
    """The rotation's axis in closed form: S = M + M^T - (tr M - 1) I equals
    2 (1 - cos t) u u^T, so its longest column, the one with the largest
    diagonal entry, lies along the axis u, half turns included."""
    m = iso.matrix
    t = m[0][0] + m[1][1] + m[2][2] - 1
    i = max(range(3), key=lambda i: m[i][i])  # S_ii = 2 M_ii - t
    return iso.kernel.canon_dir(
        tuple(m[i][j] + m[j][i] - (t if i == j else 0) for j in range(3)))


def _verify_rotation(iso: Isometry) -> int:
    """The rotation's order n, checked as M^n = I with no smaller power.

    For an orthogonal M with det +1 this also fixes its trace to
    1 + 2cos(2 pi k/n), so no trace table is needed.
    """
    k, m = iso.kernel, iso.matrix
    order = iso.order()
    power = m
    for _ in range(1, order):
        if _is_identity(k, power):
            raise InternalGeometryError("rotation order overestimated")
        power = mat_mul(power, m)
    if not _is_identity(k, power):
        raise InternalGeometryError("rotation order underestimated")
    return order


# -- feature incidence ---------------------------------------------------------


def axis_feature_incidence(
    p: Polyhedron, axis: RotationAxis | Vec3
) -> tuple[Feature, Feature]:
    """The two antipodal surface features (face center, vertex, edge
    midpoint) met by the axis line through the centroid."""
    k = p.kernel
    d = k.vec(axis.direction if isinstance(axis, RotationAxis) else axis)
    c = p.vertex_centroid()
    features = [Feature("vertex", i, v) for i, v in enumerate(p.vertices)]
    features += [Feature("edge", (i, j), geom.centroid([p.vertices[i], p.vertices[j]]))
                 for (i, j) in p.edges]
    features += [Feature("face", fi, p.face_center(fi)) for fi in range(p.n_faces)]
    sides: dict[bool, list[Feature]] = {True: [], False: []}
    for f in features:
        rel = vsub(f.point, c)
        if k.on_line(rel, d):
            sides[k.sign(vdot(rel, d)) > 0].append(f)
    for label, side in (("positive", sides[True]), ("negative", sides[False])):
        if len(side) != 1:
            raise InternalGeometryError(f"axis meets {len(side)} features on its {label} side")
    return sides[True][0], sides[False][0]


# -- polar rotations and transitivity -----------------------------------------


def polar_axis_rotations(p: Polyhedron) -> tuple[int, ...]:
    """Non-identity rotation angles (degrees) about the z axis present in
    the proper group, each verified by matrix powers."""
    angles = set()
    for iso in isometry_group(p, proper_only=True):
        k, m = iso.kernel, iso.matrix
        if not all(k.is_zero(x, LEAD_EPS) for x in (m[0][2], m[1][2], m[2][2] - 1)):
            continue
        deg = round(math.degrees(math.atan2(float(m[1][0]), float(m[0][0])))) % 360
        if deg:
            _verify_rotation(iso)
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
