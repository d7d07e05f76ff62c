"""Vector/matrix helpers and the predicate kernel shared by the geometry modules.

The arithmetic helpers are generic: they work on triples of ``Q2`` (exact
meshes) and on triples of ``float`` (ingested meshes) alike, because both
support ``+ - * /``.  Every decision (is this zero, which sign, which
canonical direction) goes through a kernel instead: ``EXACT`` decides over
Q(sqrt2) with no tolerance, and a ``ToleranceKernel`` decides over floats
within the mesh's tolerance.  Both expose the same operations, so each
geometric algorithm is written once and a ``Polyhedron`` picks its kernel
once, from its coordinate type.

``cycle_order`` is the one cyclic walk: it orders a hull face's vertices,
the faces around a vertex and a net piece's outline from adjacency alone,
with no arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence, Tuple

from .qfield import ONE, ZERO, Q2

Vec3 = Tuple  # (x, y, z) of Q2 or float
Mat3 = Tuple  # 3 rows of Vec3


def vadd(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vsub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vneg(u: Vec3) -> Vec3:
    return (-u[0], -u[1], -u[2])


def vdot(u: Vec3, v: Vec3):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def vcross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def is_zero_vec(u: Vec3) -> bool:
    return all(not c for c in u)


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    return (vdot(m[0], v), vdot(m[1], v), vdot(m[2], v))


def mat_mul(m: Mat3, n: Mat3) -> Mat3:
    nt = mat_transpose(n)
    return tuple(tuple(vdot(row, col) for col in nt) for row in m)


def mat_transpose(m: Mat3) -> Mat3:
    return tuple(zip(*m))


def mat_det(m: Mat3):
    return vdot(m[0], vcross(m[1], m[2]))


def q2_identity() -> Mat3:
    return ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))


def exact_cos_sin(degrees: int) -> tuple[Q2, Q2]:
    """(cos, sin) of an angle that is a multiple of 45 degrees, in Q2."""
    d = degrees % 360
    if d % 45 != 0:
        raise ValueError(f"no exact Q(sqrt2) trigonometry for {degrees} degrees")
    h = Q2(0, Fraction(1, 2))  # sqrt(2)/2
    table = {
        0: (ONE, ZERO),
        45: (h, h),
        90: (ZERO, ONE),
        135: (-h, h),
        180: (-ONE, ZERO),
        225: (-h, -h),
        270: (ZERO, -ONE),
        315: (h, -h),
    }
    return table[d]


def rotation_about_axis_q2(u: Vec3, cos: Q2, sin: Q2) -> Mat3:
    """Rodrigues rotation matrix about the exact *unit* axis u."""
    if vdot(u, u) != ONE:
        raise ValueError("rotation axis must be an exact unit vector")
    ux, uy, uz = u
    one_c = ONE - cos
    return (
        (
            cos + ux * ux * one_c,
            ux * uy * one_c - uz * sin,
            ux * uz * one_c + uy * sin,
        ),
        (
            uy * ux * one_c + uz * sin,
            cos + uy * uy * one_c,
            uy * uz * one_c - ux * sin,
        ),
        (
            uz * ux * one_c - uy * sin,
            uz * uy * one_c + ux * sin,
            cos + uz * uz * one_c,
        ),
    )


def centroid(points: Sequence[Vec3]) -> Vec3:
    n = len(points)
    sx = points[0]
    for p in points[1:]:
        sx = vadd(sx, p)
    return (sx[0] / n, sx[1] / n, sx[2] / n)


def cycle_order(neighbours: dict) -> list:
    """Every node in cyclic order, given each node's two neighbours: the
    walk starts at the smallest node and steps first to its first-listed
    neighbour.  ValueError if the nodes do not form a single cycle."""
    if any(len(ns) != 2 or any(v not in neighbours.get(w, ()) for w in ns)
           for v, ns in neighbours.items()):
        raise ValueError("every node needs two neighbours that list it back")
    start = min(neighbours)
    ring, prev, cur = [start], start, neighbours[start][0]
    while cur != start:  # each step can be undone, so the walk comes back
        ring.append(cur)
        a, b = neighbours[cur]
        prev, cur = cur, b if a == prev else a
    if not len(ring) == len(set(ring)) == len(neighbours):
        raise ValueError("the nodes do not form a single cycle")
    return ring


def json_vec(v: Vec3) -> list:
    """Exact scalars as their text form, floats as JSON numbers."""
    return [str(c) if isinstance(c, Q2) else float(c) for c in v]


# -- float -> Q2 snapping ------------------------------------------------------


_SQRT2_F = math.sqrt(2.0)


def snap_scalar_to_q2(x: float, tol: float = 1e-9, max_den: int = 64) -> Q2 | None:
    """Nearest representable a + b*sqrt2 within tol, small denominators.

    Pure rationals and pure sqrt2 multiples are searched up to
    ``max_den``; mixed values only over small coefficients (denominator
    up to 8, magnitude up to 2), which covers every entry an orthogonal
    matrix over Q(sqrt2) at this scale can have.
    """
    r = Fraction(x).limit_denominator(max_den)
    if abs(x - float(r)) <= tol:
        return Q2(r)
    s = Fraction(x / _SQRT2_F).limit_denominator(max_den)
    if abs(x - float(s) * _SQRT2_F) <= tol:
        return Q2(0, s)
    for q in range(1, 9):
        for num in range(-2 * q, 2 * q + 1):
            a = Fraction(num, q)
            b = Fraction((x - float(a)) / _SQRT2_F).limit_denominator(8)
            if abs(b) <= 2 and abs(x - float(a) - float(b) * _SQRT2_F) <= tol:
                return Q2(a, b)
    return None


def snap_matrix_to_q2(m: Mat3, tol: float = 1e-9) -> Mat3 | None:
    rows = []
    for row in m:
        out = []
        for x in row:
            q = snap_scalar_to_q2(x, tol)
            if q is None:
                return None
            out.append(q)
        rows.append(tuple(out))
    return tuple(rows)


# -- predicate kernels ---------------------------------------------------------

# Fixed thresholds of the float kernel; the exact kernel ignores them.
LEAD_EPS = 1e-6  # leading component of a unit direction; fixed z axis
SNAP_EPS = 1e-9  # matrix entries snapped into Q(sqrt2)
SCALAR_DIGITS = 9  # rounding of directions


class ExactKernel:
    """Decisions over Q(sqrt2): zero means exactly zero."""

    exact = True

    @property
    def coarse(self) -> "ExactKernel":
        """Itself: an exact decision is never a near miss."""
        return self

    def is_zero(self, x, eps: float | None = None) -> bool:
        return not x

    def sign(self, x) -> int:
        return x.sign()

    def equal(self, x, y, scale: float = 1.0) -> bool:
        """x = y; ``scale`` (the size x and y are measured against) is ignored."""
        return x == y

    def is_zero_vec(self, v: Vec3) -> bool:
        return is_zero_vec(v)

    def diameter(self, points: Sequence[Vec3]) -> float:
        """1.0, measuring nothing: ``equal`` ignores the scale."""
        return 1.0

    def on_line(self, rel: Vec3, d: Vec3) -> bool:
        """rel is a nonzero multiple of d."""
        return not is_zero_vec(rel) and is_zero_vec(vcross(rel, d))

    def plane_side(self, n: Vec3, w: Vec3) -> int:
        """Side of w relative to the plane through 0 with normal n."""
        return vdot(n, w).sign()

    def canon_dir(self, v: Vec3) -> Vec3:
        """Scale so the first nonzero component is +1; identifies v with -v."""
        lead = next((c for c in v if c), None)
        if lead is None:
            raise ValueError("zero vector has no direction")
        inv = ONE / lead
        return (v[0] * inv, v[1] * inv, v[2] * inv)

    def snap(self, m: Mat3) -> Mat3:
        """The Q(sqrt2) matrix m stands for (None if there is none)."""
        return m

    def vec(self, v: Sequence) -> tuple:
        """v in this kernel's number type."""
        return tuple(Q2.coerce(x) for x in v)


class ToleranceKernel:
    """Decisions over floats: values within ``tol`` of zero count as zero."""

    exact = False

    def __init__(self, tol: float) -> None:
        self.tol = tol

    @property
    def coarse(self) -> "ToleranceKernel":
        """The kernel at tolerance sqrt(tol), midway between tol and 1 on a
        log scale: a value it calls zero but this kernel does not is a near
        miss, which cannot be told apart from noise in the input."""
        return ToleranceKernel(math.sqrt(self.tol))

    def is_zero(self, x, eps: float | None = None) -> bool:
        return abs(x) <= (self.tol if eps is None else eps)

    def sign(self, x) -> int:
        return 0 if self.is_zero(x) else (1 if x > 0 else -1)

    def equal(self, x, y, scale: float = 1.0) -> bool:
        """|x - y| within tolerance x ``scale``."""
        return abs(x - y) <= self.tol * scale

    def is_zero_vec(self, v: Vec3) -> bool:
        return _norm(v) <= self.tol

    def diameter(self, points: Sequence[Vec3]) -> float:
        """The largest distance between two points, a scale for ``equal``."""
        pts = [tuple(map(float, v)) for v in points]
        return max(math.dist(u, w) for u, w in itertools.combinations(pts, 2))

    def on_line(self, rel: Vec3, d: Vec3) -> bool:
        rel_n = _norm(rel)
        return rel_n > self.tol and _norm(vcross(rel, d)) <= self.tol * max(1.0, rel_n)

    def plane_side(self, n: Vec3, w: Vec3) -> int:
        return self.sign(float(vdot(n, w)) / _norm(n))

    def canon_dir(self, v: Vec3) -> Vec3:
        """Unit vector, first clearly nonzero component positive, rounded."""
        nrm = _norm(v)
        v = tuple(x / nrm for x in v)
        if next(x for x in v if abs(x) > LEAD_EPS) < 0:
            v = vneg(v)
        return tuple(round(x, SCALAR_DIGITS) for x in v)

    def snap(self, m: Mat3) -> Mat3 | None:
        return snap_matrix_to_q2(m, SNAP_EPS)

    def vec(self, v: Sequence) -> tuple:
        return tuple(float(x) for x in v)


def _norm(v: Vec3) -> float:
    return math.sqrt(float(vdot(v, v)))


EXACT = ExactKernel()
