"""Isometry-group detection, rotation axes and vertex transitivity.

The group search is deliberately brute force: fix one flag (vertex,
incident edge, incident face), try every flag of the mesh whose face and
face across the edge have the base flag's sizes as its image,
solve the 3x3 linear system sending three independent base points to the
image points, and keep the matrix iff it is orthogonal with determinant
+-1 and permutes both the vertex set and the face set.  The result is
verified closed under composition and inverse.  No point-group tables:
the verification is the point.

There is one search, one axis extraction and one incidence test; every
decision in them goes through the mesh's predicate kernel (``geom``).
Exact meshes therefore run entirely over Q(sqrt2).  Float meshes (ingested
OFF) run the same code within their tolerance, and then snap the whole
group back into Q(sqrt2): when every matrix entry snaps, the group carries
the exact kernel from then on; otherwise no matrix is snapped and the
report is marked approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from . import geom
from .geom import (
    DET_EPS,
    EXACT,
    LEAD_EPS,
    ORIGIN_EPS,
    ORTHO_EPS,
    Mat3,
    Vec3,
    mat_mul,
    mat_transpose,
    mat_vec,
    vdot,
    vsub,
)
from .solids import Polyhedron


class DegenerateGeometryError(ValueError):
    """Mesh has no three linearly independent vertices."""


class InternalGeometryError(ValueError):
    """A symmetry result failed its own verification.

    On an exact mesh this indicates a bug; on a float mesh, a tolerance
    under which the accepted maps do not form a group.
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
    features: tuple[Feature, Feature] | None = None

    def to_dict(self) -> dict:
        return {
            "direction": geom.json_vec(self.direction),
            "order": self.order,
            "features": [f.to_dict() for f in self.features] if self.features else None,
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


def _translated_vertices(p: Polyhedron) -> tuple[Vec3, ...]:
    c = p.vertex_centroid()
    if all(p.kernel.is_zero(x, ORIGIN_EPS) for x in c):
        return p.vertices
    return tuple(vsub(v, c) for v in p.vertices)


def _flags(p: Polyhedron):
    """Every flag as (a, b, c, sizes): vertex a, directed edge a->b, the
    face through a, b and c (c the other neighbour of b in it), and sizes =
    (that face's size, the size of the face across edge ab or 0)."""
    for (i, j) in p.edges:
        for (a, b) in ((i, j), (j, i)):
            for fi in p.edge_faces[(i, j)]:
                face = p.faces[fi]
                k = face.index(b)
                prev, nxt = face[k - 1], face[(k + 1) % len(face)]
                c = nxt if prev == a else prev
                other = p.other_face((i, j), fi)
                yield a, b, c, (len(face), 0 if other is None else len(p.faces[other]))


def _base_flag(p: Polyhedron, verts: Sequence[Vec3]) -> tuple[Mat3, tuple[int, int]]:
    for a, b, c, sizes in _flags(p):
        cols = geom.mat_from_columns(verts[a], verts[b], verts[c])
        if not p.kernel.is_zero(geom.mat_det(cols), DET_EPS):
            return cols, sizes
    raise DegenerateGeometryError("no three linearly independent vertices")


def _is_identity(k, m: Mat3, eps: float | None = None) -> bool:
    return all(
        k.is_zero(m[i][j] - (1 if i == j else 0), eps) for i in range(3) for j in range(3)
    )


def _vertex_perm(verts: Sequence[Vec3], index, m: Mat3):
    perm = []
    for v in verts:
        k = index.get(mat_vec(m, v))
        if k is None:
            return None
        perm.append(k)
    return tuple(perm)


def _face_perm(p: Polyhedron, vperm: tuple[int, ...]):
    sets = p.face_index_sets()
    out = []
    for f in p.faces:
        g = sets.get(frozenset(vperm[i] for i in f))
        if g is None:
            return None
        out.append(g)
    return tuple(out)


def _verify_group(isos: Sequence[Isometry]) -> None:
    perms = {iso.vertex_perm for iso in isos}
    n = len(isos[0].vertex_perm)
    ident = tuple(range(n))
    if ident not in perms:
        raise InternalGeometryError("isometry group lacks the identity")
    for a in isos:
        inv = [0] * n
        for i, j in enumerate(a.vertex_perm):
            inv[j] = i
        if tuple(inv) not in perms:
            raise InternalGeometryError("isometry group not closed under inverse")
        for b in isos:
            comp = tuple(a.vertex_perm[j] for j in b.vertex_perm)
            if comp not in perms:
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
    k = p.kernel
    verts = _translated_vertices(p)
    index = k.index(verts)
    base, base_sizes = _base_flag(p, verts)
    base_inv = geom.mat_inverse(base, k.is_zero)
    found: dict[tuple, Isometry] = {}
    for wa, wb, wc, sizes in _flags(p):
        if sizes != base_sizes:  # an isometry maps faces to faces of equal size
            continue
        img_cols = geom.mat_from_columns(verts[wa], verts[wb], verts[wc])
        m = mat_mul(img_cols, base_inv)
        if not _is_identity(k, mat_mul(mat_transpose(m), m), ORTHO_EPS):
            continue
        det = geom.mat_det(m)
        if k.is_zero(det - 1, ORTHO_EPS):
            proper = True
        elif k.is_zero(det + 1, ORTHO_EPS):
            proper = False
        else:
            continue
        vperm = _vertex_perm(verts, index, m)
        if vperm is None:
            continue
        fperm = _face_perm(p, vperm)
        if fperm is None:
            continue
        found.setdefault(k.matrix_key(m), Isometry(m, proper, vperm, fperm, k))
    isos = list(found.values())
    snapped = [k.snap(iso.matrix) for iso in isos]
    if None not in snapped:
        isos = [replace(iso, matrix=s, kernel=EXACT) for iso, s in zip(isos, snapped)]
    isos.sort(key=lambda iso: iso.matrix)
    _verify_group(isos)
    return tuple(isos)


# -- rotation axes -------------------------------------------------------------


def rotation_axes(group: Iterable[Isometry]) -> tuple[RotationAxis, ...]:
    """Fixed lines of the non-identity rotations, deduplicated by
    canonical direction; order = maximal rotation order about the line."""
    axes: dict[tuple, int] = {}
    for iso in group:
        if not iso.proper or iso.order() == 1:
            continue
        order = _verify_rotation(iso)
        d = _fixed_direction(iso)
        axes[d] = max(axes.get(d, 0), order)
    out = [RotationAxis(d, n) for d, n in axes.items()]
    out.sort(key=lambda ax: (-ax.order, ax.direction))
    return tuple(out)


def _fixed_direction(iso: Isometry) -> Vec3:
    m = iso.matrix
    diff = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(3)) for i in range(3))
    v = geom.kernel_vector(diff, iso.kernel.is_zero)
    if v is None:
        raise ValueError("matrix has no fixed line (is it the identity?)")
    return iso.kernel.canon_dir(v)


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

    def on_line(pt: Vec3) -> bool:
        return k.on_line(vsub(pt, c), d)

    candidates: list[Feature] = []
    for i, v in enumerate(p.vertices):
        if on_line(v):
            candidates.append(Feature("vertex", i, v))
    for (i, j) in p.edges:
        mid = geom.centroid([p.vertices[i], p.vertices[j]])
        if on_line(mid):
            candidates.append(Feature("edge", (i, j), mid))
    for fi in range(p.n_faces):
        ctr = p.face_center(fi)
        if on_line(ctr):
            candidates.append(Feature("face", fi, ctr))

    pos: list[Feature] = []
    neg: list[Feature] = []
    for f in candidates:
        side = k.sign(vdot(vsub(f.point, c), d))
        (pos if side > 0 else neg).append(f)

    def pick(side: list[Feature], label: str) -> Feature:
        points = {tuple(f.point) for f in side}
        if len(points) != 1:
            raise InternalGeometryError(
                f"axis meets {len(points)} features on its {label} side"
            )
        rank = {"vertex": 0, "edge": 1, "face": 2}
        return min(side, key=lambda f: rank[f.kind])

    return pick(pos, "positive"), pick(neg, "negative")


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
    """Orbit closure of the vertex set under the group's permutations."""
    n = p.n_vertices
    seen = [False] * n
    orbits: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for iso in group:
                w = iso.vertex_perm[v]
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        for v in orbit:
            seen[v] = True
        orbits.append(tuple(sorted(orbit)))
    orbits.sort(key=lambda o: (-len(o), o))
    return len(orbits) == 1, tuple(orbits)


def symmetry_report(p: Polyhedron) -> SymmetryReport:
    """Full symmetry summary: group orders, axes with surface features,
    transitivity and the axis class equation."""
    if "symmetry_report" in p._cache:
        return p._cache["symmetry_report"]
    full = isometry_group(p)
    proper = tuple(iso for iso in full if iso.proper)
    axes = rotation_axes(proper)
    with_features = [
        replace(ax, features=axis_feature_incidence(p, ax)) for ax in axes
    ]
    vt_full, orbits = is_vertex_transitive(p, full)
    vt_proper, _ = is_vertex_transitive(p, proper)
    class_eq = sum(ax.order - 1 for ax in axes) + 1 == len(proper)
    report = SymmetryReport(
        proper_order=len(proper),
        full_order=len(full),
        axes=tuple(with_features),
        vertex_transitive=vt_full,
        vertex_transitive_proper=vt_proper,
        orbit_sizes=tuple(len(o) for o in orbits),
        class_equation_ok=class_eq,
        approximate=not full[0].kernel.exact,  # the group was not snapped
    )
    p._cache["symmetry_report"] = report
    return report
