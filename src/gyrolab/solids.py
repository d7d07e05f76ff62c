"""Polyhedron model, exact builders and mesh validation.

The vertices decide the faces: ``Polyhedron(vertices)`` with no faces
gift wraps their convex hull, face to adjacent face, with the plane tests
of its own kernel.  The two built-in solids share that one construction
path: generate the exact vertex set over Q(sqrt2), then let the hull find
the faces.  That keeps the gyrated builder honest: re-identification of
the octagonal ring after the 45-degree cap turn is positional (exact
coordinate coincidence), not index bookkeeping.

Each solid's hull runs once per process, at the canonical edge 2 where
every coordinate lies in Z[sqrt2]; a builder at any other edge scales those
vertices by edge/2 and keeps the faces, since a positive scaling changes
neither the vertex order nor the faces nor their winding.

Every ``Polyhedron`` carries one predicate kernel (``geom``), chosen from
its coordinate type when it is made: exact for Q2 coordinates, tolerance
based for floats read from OFF.  The hull, validation and every later
analysis make their decisions through it, on ``Polyhedron.points``, in
coordinates only the kernel knows, so one code path serves both kinds of
mesh.  Validation fails a face whose plane holds a vertex that is not on
it, such as one triangle of a triangulated square.

Canonical pose: vertex centroid at the origin, the polar axis along z,
the gyrated cap on top.  Vertices and faces are sorted canonically so
identical inputs produce byte-identical downstream artifacts.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import geom
from .geom import EXACT, ToleranceKernel, Vec3
from .qfield import ONE, SQRT2, Q2

if TYPE_CHECKING:
    from fractions import Fraction


class OffParseError(ValueError):
    """Malformed OFF input; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class FaceCensus(NamedTuple):
    triangles: int
    quads: int
    other: int


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    checks: tuple[Check, ...]
    open_edges: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "open_edges": [list(e) for e in self.open_edges],
        }


def check_tolerance(tolerance: float) -> float:
    """``tolerance`` itself if 0 < tolerance < 1; ValueError otherwise.  It is
    relative to the diameter, so at 1 or more every vector counts as zero,
    and at 0 or below (or NaN) none does."""
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be finite and positive and below 1,"
                         f" got {tolerance!r}")
    return tolerance


class Polyhedron:
    """Immutable vertex/face mesh; adjacency derived once at construction.
    It keeps no per-mesh cache: every analysis is a function of the mesh.

    Q2 coordinates get the exact kernel; float coordinates (ingested
    meshes) get a tolerance kernel with the given ``tolerance``, relative
    to the diameter, in (0, 1) (ValueError otherwise).  With no
    ``faces``, the vertices decide them: the faces of their convex hull,
    on that kernel.  Adjacency is purely combinatorial and never raises
    on malformed indices; ``validate`` reports those instead.
    """

    def __init__(self, vertices: Sequence[Vec3], faces: Sequence[Sequence[int]] | None = None,
                 tolerance: float = 1e-9) -> None:
        check_tolerance(tolerance)
        self.vertices: tuple[Vec3, ...] = tuple(tuple(v) for v in vertices)
        exact = bool(self.vertices) and isinstance(self.vertices[0][0], Q2)
        self.kernel = EXACT if exact else ToleranceKernel(tolerance)
        if faces is None:
            faces = convex_hull_faces(self)
        self.faces: tuple[tuple[int, ...], ...] = tuple(tuple(f) for f in faces)

        edge_faces: dict[tuple[int, int], list[int]] = {}
        vertex_faces: dict[int, list[int]] = {}
        keys = []  # each face's edge keys, edge k from face[k] to face[k + 1]
        for fi, face in enumerate(self.faces):
            keys.append([])
            for k in range(len(face)):
                i, j = face[k], face[(k + 1) % len(face)]
                keys[fi].append((i, j) if i < j else (j, i))
                edge_faces.setdefault(keys[fi][k], []).append(fi)
                vertex_faces.setdefault(i, []).append(fi)
        self.edge_faces: dict[tuple[int, int], tuple[int, ...]] = {
            e: tuple(fs) for e, fs in edge_faces.items()
        }
        # across[fi][k]: the face across edge k of face fi; None unless
        # exactly two faces hold that edge
        self.across: tuple[tuple[int | None, ...], ...] = tuple(
            tuple(None if len(fs) != 2 else fs[0] if fs[1] == fi else fs[1]
                  for fs in map(edge_faces.__getitem__, row))
            for fi, row in enumerate(keys))
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(self.edge_faces))
        self.vertex_faces: dict[int, tuple[int, ...]] = {
            i: tuple(fs) for i, fs in vertex_faces.items()
        }

    @property
    def exact(self) -> bool:
        return self.kernel.exact

    @functools.cached_property
    def points(self) -> list:
        """The vertices about their centroid in the kernel's coordinates."""
        return self.kernel.coordinates(self.vertices)

    # counts ---------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces

    def offset(self, ids) -> Vec3:
        """The centre of the vertices ``ids`` minus the vertex centroid, in
        ``points``' coordinates: for an exact mesh a positive multiple of it."""
        return self.kernel.centre([self.points[i] for i in ids])

    def feature_ids(self, kind: str, ref) -> tuple[int, ...]:
        """The vertices whose centroid is the point of the feature: a vertex
        index, an (i, j) edge or a face index."""
        return (ref,) if kind == "vertex" else ref if kind == "edge" else self.faces[ref]

    def on_axis(self, direction: Vec3, kinds=("vertex", "edge", "face")) -> dict[bool, list]:
        """The (kind, ref) of each feature of ``kinds`` whose point lies on the
        line through the vertex centroid along ``direction``, but not on the
        centroid, as the kernel decides on ``points``; keyed by whether it is
        on the positive side, in vertex, edge, face and index order."""
        k = self.kernel
        d = k.vec(direction)
        refs = {"vertex": range(self.n_vertices), "edge": self.edges, "face": range(self.n_faces)}
        sides: dict[bool, list] = {True: [], False: []}
        for kind in kinds:
            for ref in refs[kind]:
                rel = self.offset(self.feature_ids(kind, ref))
                if not k.is_zero_vec(rel) and k.is_zero_vec(k.cross(rel, d)):
                    sides[k.sign(k.dot(rel, d)) > 0].append((kind, ref))
        return sides


# -- convex hull -------------------------------------------------------------


def convex_hull_faces(p: Polyhedron) -> list[tuple[int, ...]]:
    """Faces of the convex hull of ``p.vertices``, points in general convex
    position, by gift wrapping (Chand and Kapur, JACM 17(1), 1970).

    It reads only ``p.vertices``, ``p.kernel`` and ``p.points``: a
    translation and a positive scaling change neither the faces nor their
    winding, and every decision is a plane test of the mesh's kernel, exact
    on Q2 points and within its tolerance on floats.  A wrap pivots a plane
    about an axis through point u in one pass over the points, switching to any point strictly outside it.  When every point
    lies in a closed half-space bounded by a plane through the axis, and no
    two points on that plane lie on opposite sides of the axis, the pass
    ends on a supporting plane; its normal, axis x (c - u) for the last
    point c taken, points outward, and the same pass collects the points on
    it.  The first face: through the lexicographically smallest point p0,
    wrap about the z direction, then within that plane about its normal for
    an edge from p0, then about that edge.  After that, each face edge whose
    reverse is in no face yet is wrapped about, giving the face across it.
    A face is the points on its plane, sorted counterclockwise around the
    normal from the edge's first point and started at its smallest index; a
    ring that does not turn strictly left at every point means a point on
    the hull that is not a vertex of it, and raises ValueError, as does a
    collinear, flat or empty point set.  About one pass over the points per
    face, plus sorting its ring.
    """
    if not p.vertices:
        raise ValueError("there are no points")
    k, pts = p.kernel, p.points
    sub, cross, side = k.sub, k.cross, k.plane_side
    everyone = range(len(pts))

    def wrap(u, axis, cands):
        """(last point taken, outward normal, points on the plane, and each
        candidate minus u)."""
        rel = {m: sub(pts[m], pts[u]) for m in cands}
        nrm, on_axis, on_plane = None, [], []
        for m, w in rel.items():
            if nrm is None or (s := side(nrm, w)) >= 0:
                x = cross(axis, w)
                if k.is_zero_vec(x):
                    on_axis.append(m)  # on every plane through the axis
                elif nrm is None or s > 0:
                    c, nrm, on_plane = m, x, [m]
                else:
                    on_plane.append(m)
        if nrm is None:
            raise ValueError("the points are collinear")
        return c, nrm, on_axis + on_plane, rel

    p0 = min(everyone, key=p.vertices.__getitem__)
    _, n1, plane, _ = wrap(p0, k.vec((0, 0, 1)), everyone)
    todo, edges, faces = [(p0, wrap(p0, n1, plane)[0])], set(), []
    while todo:
        u, v = todo.pop()
        if (u, v) in edges:
            continue
        _, nrm, members, rel = wrap(u, sub(pts[v], pts[u]), everyone)
        if len(members) == len(pts):
            raise ValueError("the points are coplanar")
        # b follows a around u iff (a - u) x (b - u) points along the normal
        ring = [u] + sorted((m for m in members if m != u), key=functools.cmp_to_key(
            lambda a, b: side(nrm, cross(rel[b], rel[a]))))
        if any(side(nrm, cross(sub(pts[b], pts[a]), sub(pts[c], pts[b]))) <= 0
               for a, b, c in zip(ring, ring[1:] + ring[:1], ring[2:] + ring[:2])):
            raise ValueError("a point lies on the hull but is not a vertex of it")
        edges.update(zip(ring, ring[1:] + ring[:1]))
        todo += zip(ring[1:] + ring[:1], ring)
        lo = ring.index(min(ring))
        faces.append(tuple(ring[lo:] + ring[:lo]))
    return sorted(faces, key=sorted)


# -- builders ---------------------------------------------------------------


def _rco_points() -> set:
    """All coordinate permutations of (±1, ±1, ±(1+sqrt2)): edge 2."""
    t = ONE + SQRT2
    pts = set()
    for axis in range(3):
        for sx in (ONE, -ONE):
            for sy in (ONE, -ONE):
                for st in (t, -t):
                    p = [sx, sy]
                    p.insert(axis, st)
                    pts.add(tuple(p))
    return pts


def _pseudo_points() -> set:
    """The rco points with the top cap turned 45 degrees about the z axis
    by ``geom.turn``, the turn the fold gives its north cap.

    The octagonal ring at z = 1 maps onto itself, so only the 4 polar
    vertices (z = 1+sqrt2) are turned.
    """
    m = geom.turn((0, 0, 1), 45)
    return {geom.mat_vec(m, v) if v[2] == ONE + SQRT2 else v for v in _rco_points()}


@functools.lru_cache(maxsize=None)
def _canonical(kind: str) -> Polyhedron:
    """The solid at edge 2 (every coordinate in Z[sqrt2]); the only hull
    each solid ever needs."""
    return Polyhedron(sorted(_rco_points() if kind == "rco" else _pseudo_points()))


def _scaled(kind: str, edge_len) -> Polyhedron:
    """The canonical solid scaled by edge_len/2, itself at edge 2.

    A positive factor keeps the sorted vertex order, the faces and their
    winding, so the hull at edge 2 serves every edge length.
    """
    k = _positive_half_edge(edge_len)
    base = _canonical(kind)
    if k == 1:
        return base
    verts = tuple((x * k, y * k, z * k) for x, y, z in base.vertices)
    return Polyhedron(verts, base.faces)


@functools.lru_cache(maxsize=None)
def build_rhombicuboctahedron(edge_len: Q2 | int | Fraction = 2) -> Polyhedron:
    """The 26-face solid with square edge ``edge_len``: all coordinate
    permutations of (±s, ±s, ±(1+sqrt2)s), s = edge_len/2.

    One hull at edge 2, then scaled.
    """
    return _scaled("rco", edge_len)


@functools.lru_cache(maxsize=None)
def build_pseudo_rhombicuboctahedron(edge_len: Q2 | int | Fraction = 2) -> Polyhedron:
    """The gyrate twin: the top cap turned 45 degrees about the polar axis.

    The cap is turned on the rco point set and the hull re-derives the
    cap faces from the new positions; one hull at edge 2, then scaled.
    """
    return _scaled("pseudo", edge_len)


def _positive_half_edge(edge_len) -> Q2:
    e = Q2.coerce(edge_len)
    if e.sign() <= 0:
        raise ValueError("edge length must be positive")
    return e / 2


# -- census and vertex figures ----------------------------------------------


def face_census(p: Polyhedron) -> FaceCensus:
    tri = sum(1 for f in p.faces if len(f) == 3)
    quad = sum(1 for f in p.faces if len(f) == 4)
    return FaceCensus(tri, quad, p.n_faces - tri - quad)


def vertex_figure(p: Polyhedron, v: int) -> tuple[int, ...]:
    """Cyclic face-degree sequence around vertex v in surface order,
    canonicalized up to rotation and reflection."""
    if v not in p.vertex_faces:
        raise KeyError(f"unknown vertex index {v}")
    star = {}  # each face at v -> the two faces across its edges at v
    for fi in p.vertex_faces[v]:
        k = p.faces[fi].index(v)
        star[fi] = p.across[fi][k - 1], p.across[fi][k]
        if None in star[fi]:
            raise ValueError(f"surface around vertex {v} is not closed")
    # when every face across lists its neighbour back, walk from the
    # smallest face, first across its edge into v; each step can be undone,
    # so the walk comes back to it
    linked = all(fi in star.get(g, ()) for fi, gs in star.items() for g in gs)
    start = min(star)
    ring, prev, cur = [start], start, star[start][0]
    while linked and cur != start:
        ring.append(cur)
        a, b = star[cur]
        prev, cur = cur, b if a == prev else a
    if not (linked and len(ring) == len(set(ring)) == len(star)):
        raise ValueError(f"faces around vertex {v} do not form a cycle")
    degs = [len(p.faces[fi]) for fi in ring]
    return min(tuple(s[r:] + s[:r]) for s in (degs, degs[::-1]) for r in range(len(s)))


# -- validation ---------------------------------------------------------------


def validate(p: Polyhedron) -> ValidationReport:
    """Structural and geometric checks; never raises on malformed input.

    Geometric checks decide through the mesh's kernel: exactly for Q2
    meshes, within the mesh tolerance x its diameter for float meshes.
    """
    checks: list[Check] = []
    n = p.n_vertices

    bad_idx = sorted(
        {i for f in p.faces for i in f if not (0 <= i < n)}
    )
    dup_faces = [f for f in p.faces if len(set(f)) != len(f)]
    small = [f for f in p.faces if len(f) < 3]
    structural_ok = not bad_idx and not dup_faces and not small
    unused = [i for i in range(n) if i not in p.vertex_faces]
    detail = []
    if bad_idx:
        detail.append(f"dangling vertex indices {bad_idx}")
    if dup_faces:
        detail.append(f"{len(dup_faces)} faces with repeated vertices")
    if small:
        detail.append(f"{len(small)} faces with fewer than 3 vertices")
    if unused:
        detail.append(f"vertices on no face {unused}")
    checks.append(Check("indices", structural_ok and not unused, "; ".join(detail)))

    open_edges = tuple(e for e, fs in sorted(p.edge_faces.items()) if len(fs) == 1)
    overfull = sum(len(fs) > 2 for fs in p.edge_faces.values())
    manifold_ok = not open_edges and not overfull
    checks.append(
        Check(
            "manifold",
            manifold_ok,
            f"{len(open_edges)} open edges, {overfull} edges on >2 faces"
            if not manifold_ok
            else "every edge shared by exactly 2 faces",
        )
    )

    directed: dict[tuple[int, int], int] = {}
    for f in p.faces:
        for k in range(len(f)):
            d = (f[k], f[(k + 1) % len(f)])
            directed[d] = directed.get(d, 0) + 1
    winding_ok = manifold_ok and all(
        directed.get((j, i), 0) == 1 for (i, j) in directed
    ) and all(c == 1 for c in directed.values())
    checks.append(
        Check(
            "winding",
            winding_ok,
            "shared edges traversed in opposite directions"
            if winding_ok
            else "inconsistent face orientations",
        )
    )

    if not structural_ok:
        return ValidationReport(tuple(checks), open_edges)
    if n:  # the geometric checks measure from the vertex centroid
        checks += _geometric_checks(p)
    euler = p.euler_characteristic
    checks.append(Check("euler", euler == 2, f"V - E + F = {euler}"))
    return ValidationReport(tuple(checks), open_edges)


def _geometric_checks(p: Polyhedron) -> list[Check]:
    """Planarity, outward normals and convexity, decided by the kernel on
    ``p.points``.  A face's normal is the centre of its fan's cross products
    about its first point, a positive multiple of the Newell normal: a short
    first edge does not tilt it, and a triangle's is its one cross product."""
    planar_bad: list[int] = []
    outward_bad: list[int] = []
    outside, on_plane = False, None
    k, pts = p.kernel, p.points
    for fi, f in enumerate(p.faces):
        base = pts[f[0]]
        nrm = k.centre([k.cross(k.sub(pts[a], base), k.sub(pts[b], base))
                        for a, b in zip(f[1:-1], f[2:])])
        if k.is_zero_vec(nrm) or any(k.plane_side(nrm, k.sub(pts[i], base)) for i in f):
            planar_bad.append(fi)
            continue
        if k.plane_side(nrm, base) <= 0:
            outward_bad.append(fi)
        for i, v in enumerate(pts):
            s = k.plane_side(nrm, k.sub(v, base))
            outside = outside or s > 0
            if s == 0 and on_plane is None and i not in f:
                on_plane = f"vertex {i} lies on the plane of face {fi} but not on the face"
    return [
        Check("planarity", not planar_bad,
              f"non-planar faces {planar_bad}" if planar_bad else "all faces planar"),
        Check("outward", not outward_bad,
              f"inward-facing faces {outward_bad}" if outward_bad else
              "all face normals point away from the centroid"),
        Check("convexity", not (outside or on_plane),
              "a vertex lies strictly outside a face plane" if outside else on_plane or
              "every vertex on the non-positive side of every face plane"),
    ]


# -- OFF and JSON interchange -------------------------------------------------


def write_off(p: Polyhedron) -> str:
    """ASCII OFF with 17-significant-digit floats.  ValueError if a nonzero
    coordinate becomes zero or subnormal; OverflowError if one is too large."""
    lines = ["OFF", f"{p.n_vertices} {p.n_faces} {p.n_edges}"]
    for v in p.vertices:
        xs = [float(c) for c in v]
        if any(c and not sys.float_info.min <= abs(x) < math.inf for c, x in zip(v, xs)):
            raise ValueError("a coordinate underflows a float")
        lines.append(" ".join(f"{x:.17g}" for x in xs))
    for f in p.faces:
        lines.append(" ".join(str(x) for x in (len(f), *f)))
    return "\n".join(lines) + "\n"


def read_off(text: str, tolerance: float = 1e-9) -> Polyhedron:
    """Parse ASCII OFF into a float polyhedron with the given tolerance
    (relative to its diameter, in (0, 1), as for ``Polyhedron``).

    Raises OffParseError with the offending line number; blank lines and
    ``#`` comments are skipped, trailing face color values are ignored.
    Negative counts and lines after the last face are errors.
    """
    numbered = [
        (ln, line.split("#", 1)[0].strip())
        for ln, line in enumerate(text.splitlines(), start=1)
    ]
    rows = [(ln, line) for ln, line in numbered if line]
    if not rows:
        raise OffParseError(1, "empty OFF document")
    pos = 0
    ln, header = rows[pos]
    if header != "OFF":
        raise OffParseError(ln, f"expected OFF header, got {header!r}")
    pos += 1
    if pos >= len(rows):
        raise OffParseError(ln, "missing counts line")
    ln, counts = rows[pos]
    parts = counts.split()
    if len(parts) != 3:
        raise OffParseError(ln, f"counts line must be 'V F E', got {counts!r}")
    try:
        nv, nf, _ = (int(x) for x in parts)
    except ValueError:
        raise OffParseError(ln, f"non-integer counts in {counts!r}") from None
    if nv < 0 or nf < 0:
        raise OffParseError(ln, f"negative counts in {counts!r}")
    pos += 1
    verts: list[Vec3] = []
    for _ in range(nv):
        if pos >= len(rows):
            raise OffParseError(rows[-1][0], f"expected {nv} vertex lines")
        ln, line = rows[pos]
        parts = line.split()
        if len(parts) != 3:
            raise OffParseError(ln, f"vertex line needs 3 coordinates: {line!r}")
        try:
            vertex = tuple(float(x) for x in parts)
        except ValueError:
            raise OffParseError(ln, f"bad coordinate in {line!r}") from None
        if not all(map(math.isfinite, vertex)):
            raise OffParseError(ln, f"non-finite coordinate in {line!r}")
        verts.append(vertex)
        pos += 1
    faces: list[tuple[int, ...]] = []
    for _ in range(nf):
        if pos >= len(rows):
            raise OffParseError(rows[-1][0], f"expected {nf} face lines")
        ln, line = rows[pos]
        parts = line.split()
        try:
            k = int(parts[0])
            idx = tuple(int(x) for x in parts[1 : 1 + k])
        except (ValueError, IndexError):
            raise OffParseError(ln, f"bad face line {line!r}") from None
        if len(idx) != k:
            raise OffParseError(ln, f"face promises {k} indices: {line!r}")
        faces.append(idx)
        pos += 1
    if pos < len(rows):
        ln, line = rows[pos]
        raise OffParseError(ln, f"unexpected line after the last face: {line!r}")
    return Polyhedron(verts, faces, tolerance)


def to_json_dict(p: Polyhedron, name: str = "") -> dict:
    """Exact model dump using the Q2 text serialization."""
    if not p.exact:
        raise ValueError("JSON model dump requires an exact polyhedron")
    return {
        "schema": "gyrolab/1",
        "kind": "polyhedron",
        "name": name,
        "vertices": [[str(c) for c in v] for v in p.vertices],
        "faces": [list(f) for f in p.faces],
    }


def to_json(p: Polyhedron, name: str = "") -> str:
    import json

    return json.dumps(to_json_dict(p, name), indent=2) + "\n"
