"""Polyhedron model, exact builders and mesh validation.

The two built-in solids share one construction path: generate the exact
vertex set over Q(sqrt2), then recover the faces as the supporting-plane
contact sets of the convex hull, on integers only.  That keeps the gyrated
builder honest: re-identification of the octagonal ring after the
45-degree cap turn is positional (exact coordinate coincidence), not index
bookkeeping.

Each solid's hull runs once per process, at the canonical edge 2 where
every coordinate lies in Z[sqrt2]; a builder at any other edge scales those
vertices by edge/2 and keeps the faces, since a positive scaling changes
neither the vertex order nor the faces nor their winding.

Every ``Polyhedron`` carries one predicate kernel (``geom``), chosen from
its coordinate type when it is made: exact for Q2 coordinates, tolerance
based for floats read from OFF.  Validation and every later analysis make
their decisions through it, so one code path serves both kinds of mesh.

Canonical pose: vertex centroid at the origin, the polar axis along z,
the gyrated cap on top.  Vertices and faces are sorted canonically so
identical inputs produce byte-identical downstream artifacts.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import geom
from .geom import EXACT, ToleranceKernel, Vec3, vcross, vsub
from .qfield import ONE, SQRT2, Q2, sign_z2


class OffParseError(ValueError):
    """Malformed OFF input; carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class FaceCensus:
    triangles: int
    quads: int
    other: int

    @property
    def total(self) -> int:
        return self.triangles + self.quads + self.other


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]
    open_edges: tuple[tuple[int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def passed(self, name: str) -> bool:
        return any(c.name == name and c.passed for c in self.checks)

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
    """``tolerance`` itself if it is finite and positive; ValueError
    otherwise, since no other value can separate zero from nonzero."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    return tolerance


class Polyhedron:
    """Immutable vertex/face mesh; adjacency derived once at construction.

    Q2 coordinates get the exact kernel; float coordinates (ingested
    meshes) get a tolerance kernel with the given ``tolerance``, which
    must be finite and positive (ValueError otherwise).
    Adjacency is purely combinatorial and never raises on malformed
    indices; ``validate`` reports those instead.
    """

    def __init__(self, vertices: Sequence[Vec3], faces: Sequence[Sequence[int]],
                 tolerance: float = 1e-9) -> None:
        check_tolerance(tolerance)
        self.vertices: tuple[Vec3, ...] = tuple(tuple(v) for v in vertices)
        self.faces: tuple[tuple[int, ...], ...] = tuple(tuple(f) for f in faces)
        exact = bool(self.vertices) and isinstance(self.vertices[0][0], Q2)
        self.kernel = EXACT if exact else ToleranceKernel(tolerance)

        edge_faces: dict[tuple[int, int], list[int]] = {}
        for fi, face in enumerate(self.faces):
            for k in range(len(face)):
                i, j = face[k], face[(k + 1) % len(face)]
                key = (i, j) if i < j else (j, i)
                edge_faces.setdefault(key, []).append(fi)
        self.edge_faces: dict[tuple[int, int], tuple[int, ...]] = {
            e: tuple(fs) for e, fs in edge_faces.items()
        }
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(self.edge_faces))
        vertex_faces: dict[int, list[int]] = {}
        for fi, face in enumerate(self.faces):
            for i in face:
                vertex_faces.setdefault(i, []).append(fi)
        self.vertex_faces: dict[int, tuple[int, ...]] = {
            i: tuple(fs) for i, fs in vertex_faces.items()
        }
        self._cache: dict = {}

    @property
    def exact(self) -> bool:
        return self.kernel.exact

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

    def vertex_centroid(self) -> Vec3:
        return geom.centroid(self.vertices)

    def face_center(self, fi: int) -> Vec3:
        return geom.centroid([self.vertices[i] for i in self.faces[fi]])

    def face_normal(self, fi: int) -> Vec3:
        """Cross product of the first two face edges (faces are convex)."""
        a, b, c = (self.vertices[i] for i in self.faces[fi][:3])
        return vcross(vsub(b, a), vsub(c, a))

    def other_face(self, edge: tuple[int, int], fi: int) -> int | None:
        fs = self.edge_faces.get(edge, ())
        if len(fs) != 2:
            return None
        return fs[0] if fs[1] == fi else fs[1]


# -- exact convex hull ------------------------------------------------------


def convex_hull_faces(vertices: Sequence[Vec3]) -> list[tuple[int, ...]]:
    """Faces of the convex hull of exact points in general convex position.

    Exact and tolerance-free: every plane test is integer arithmetic.  The
    coordinates are first brought to a common denominator L (the lcm of
    every coordinate's), so each vertex becomes six ints, the Z[sqrt2]
    components of its x, y and z; a positive scaling changes neither the
    faces nor their winding.  For each vertex triple (i, j, k) the plane
    normal is the Z[sqrt2] cross product of the vectors from vertex i, and
    the side of every other point is the exact sign (``qfield.sign_z2``)
    of its Z[sqrt2] dot product with that normal.  A plane with all points
    on one side contributes the face of every point it contains, wound
    counterclockwise around the outward normal with no further arithmetic:
    two points of a face are neighbours on it iff another face holds both,
    ``geom.cycle_order`` walks that ring from the smallest index, and the
    sign of the triple's normal says whether to reverse it.  A flat point
    set has no such rings and raises ValueError.

    Two shortcuts keep the O(n^4) scan cheap without changing its result:
    a triple whose three points lie in a face already found is skipped, as
    its plane is that face's; and points are tried in move-to-front order,
    each point that shows a plane its second side moving to the front, so
    a plane that does not support the hull is usually refuted after two or
    three tests.  Intended for small vertex sets (the built-ins have 24).
    """
    n = len(vertices)
    scale = math.lcm(*(c.d for v in vertices for c in v))
    pts = [tuple(x for c in v for x in (c.p * (scale // c.d), c.q * (scale // c.d)))
           for v in vertices]
    order = list(range(n))  # points in move-to-front order
    covered: set = set()  # triples lying in a face already found
    planes = []  # (sorted members, j, k, whether u x v points outward)
    for i in range(n):
        pi = pts[i]
        rel = [tuple(a - b for a, b in zip(p, pi)) for p in pts]
        for j in range(i + 1, n):
            uxp, uxq, uyp, uyq, uzp, uzq = rel[j]
            for k in range(j + 1, n):
                if (i, j, k) in covered:
                    continue
                vxp, vxq, vyp, vyq, vzp, vzq = rel[k]
                # normal u x v, each component (p, q) for p + q*sqrt2
                xp = uyp * vzp + 2 * uyq * vzq - uzp * vyp - 2 * uzq * vyq
                xq = uyp * vzq + uyq * vzp - uzp * vyq - uzq * vyp
                yp = uzp * vxp + 2 * uzq * vxq - uxp * vzp - 2 * uxq * vzq
                yq = uzp * vxq + uzq * vxp - uxp * vzq - uxq * vzp
                zp = uxp * vyp + 2 * uxq * vyq - uyp * vxp - 2 * uyq * vxq
                zq = uxp * vyq + uxq * vyp - uyp * vxq - uyq * vxp
                if not (xp or xq or yp or yq or zp or zq):
                    continue  # collinear
                xq2, yq2, zq2 = 2 * xq, 2 * yq, 2 * zq
                side = 0  # the sign seen off the plane so far
                members = []
                for m in order:
                    wxp, wxq, wyp, wyq, wzp, wzq = rel[m]
                    s = sign_z2(xp * wxp + xq2 * wxq + yp * wyp + yq2 * wyq
                                + zp * wzp + zq2 * wzq,
                                xp * wxq + xq * wxp + yp * wyq + yq * wyp
                                + zp * wzq + zq * wzp)
                    if not s:
                        members.append(m)
                    elif s != side:
                        if side:  # points on both sides: not a supporting plane
                            order.remove(m)
                            order.insert(0, m)
                            break
                        side = s
                else:
                    members.sort()
                    covered.update(itertools.combinations(members, 3))
                    planes.append((members, j, k, side < 0))
    # an edge of a convex polytope lies in exactly two facets, so two
    # members of a face are adjacent on it iff another face holds both
    shared = collections.Counter(
        pair for members, *_ in planes for pair in itertools.permutations(members, 2))
    faces = []
    for members, j, k, outward in planes:
        ring = geom.cycle_order({a: [b for b in members if shared[a, b] > 1]
                                 for a in members})
        # the ring starts at i, as the scan meets each face first at its
        # smallest point; u x v points outward iff j comes before k
        if (ring.index(j) < ring.index(k)) != outward:
            ring = ring[:1] + ring[:0:-1]
        faces.append(tuple(ring))
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
    """The rco points with the top cap turned 45 degrees about the z axis.

    The octagonal ring at z = 1 maps onto itself, so only the 4 polar
    vertices (z = 1+sqrt2) move.
    """
    t = ONE + SQRT2
    cos45, sin45 = geom.exact_cos_sin(45)
    pts = set()
    for v in _rco_points():
        x, y, z = v
        if z == t:
            pts.add((x * cos45 - y * sin45, x * sin45 + y * cos45, z))
        else:
            pts.add(v)
    return pts


@functools.lru_cache(maxsize=None)
def _canonical(kind: str) -> Polyhedron:
    """The solid at edge 2 (every coordinate in Z[sqrt2]); the only hull
    each solid ever needs."""
    verts = tuple(sorted(_rco_points() if kind == "rco" else _pseudo_points()))
    return Polyhedron(verts, convex_hull_faces(verts))


def _scaled(kind: str, edge_len) -> Polyhedron:
    """The canonical solid scaled by edge_len/2.

    A positive factor keeps the sorted vertex order, the faces and their
    winding, so the hull at edge 2 serves every edge length.
    """
    k = _positive_half_edge(edge_len)
    base = _canonical(kind)
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
    across = {}  # each face at v -> the two faces across its edges at v
    for fi in p.vertex_faces[v]:
        face = p.faces[fi]
        k = face.index(v)
        across[fi] = [p.other_face(tuple(sorted((v, w))), fi)
                      for w in (face[k - 1], face[(k + 1) % len(face)])]
        if None in across[fi]:
            raise ValueError(f"surface around vertex {v} is not closed")
    try:
        cycle = geom.cycle_order(across)
    except ValueError:
        raise ValueError(f"faces around vertex {v} do not form a cycle") from None
    degs = [len(p.faces[fi]) for fi in cycle]
    return min(tuple(s[r:] + s[:r]) for s in (degs, degs[::-1]) for r in range(len(s)))


# -- validation ---------------------------------------------------------------


def validate(p: Polyhedron) -> ValidationReport:
    """Structural and geometric checks; never raises on malformed input.

    Geometric checks decide through the mesh's kernel: exactly for Q2
    meshes, within the mesh tolerance for float meshes.
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
    """Planarity, outward normals and convexity, decided by the kernel."""
    planar_bad: list[int] = []
    outward_bad: list[int] = []
    convex_ok = True
    k = p.kernel
    c = p.vertex_centroid()
    for fi, f in enumerate(p.faces):
        nrm = p.face_normal(fi)
        base = p.vertices[f[0]]
        if k.is_zero_vec(nrm) or any(
            k.plane_side(nrm, vsub(p.vertices[i], base)) for i in f
        ):
            planar_bad.append(fi)
            continue
        if k.plane_side(nrm, vsub(base, c)) <= 0:
            outward_bad.append(fi)
        if any(k.plane_side(nrm, vsub(v, base)) > 0 for v in p.vertices):
            convex_ok = False
    return [
        Check("planarity", not planar_bad,
              f"non-planar faces {planar_bad}" if planar_bad else "all faces planar"),
        Check("outward", not outward_bad,
              f"inward-facing faces {outward_bad}" if outward_bad else
              "all face normals point away from the centroid"),
        Check("convexity", convex_ok,
              "every vertex on the non-positive side of every face plane"
              if convex_ok else "a vertex lies strictly outside a face plane"),
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
    (finite and positive, as for ``Polyhedron``).

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
    return json.dumps(to_json_dict(p, name), indent=2) + "\n"
