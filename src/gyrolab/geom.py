"""Vector/matrix helpers and the predicate kernel shared by the geometry modules.

The arithmetic helpers are generic: they work on triples of ``Q2`` (exact
meshes) and on triples of ``float`` (ingested meshes) alike, because both
support ``+ - * /``.  Every decision (is this zero, which sign, which
canonical direction) goes through a kernel instead, on the vertices about
their centroid as ``kernel.coordinates`` hands them out, once per mesh.
``EXACT`` decides on Z[sqrt2] lattice ints with no tolerance: signs and
equalities do not change under a positive scaling, so each vertex becomes
six ints, n L (v - c), whose signs ``qfield.sign_z2`` decides; ``Q2`` stays
the type of storage, matrix entries and output.  Only ``ExactKernel``
knows that lattice format: other modules reach it through ``coordinates``
and ``vec``, and decide with the kernel's operations.  A ``ToleranceKernel``
decides on (v - c) / D, D the mesh's diameter, within its tolerance, so no
verdict depends on the mesh's scale.  Both expose the same operations, so
each geometric algorithm is written once and a ``Polyhedron`` picks its
kernel once, from its coordinate type.

``turn`` is the one exact rotation: by a multiple of 45 degrees about a
signed coordinate axis, which is every turn the pseudo twin's cap and the
fold's gyration make.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Tuple

from .qfield import ONE, SQRT2, ZERO, Q2, _reduced, sign_z2, z2_quotient

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


def exact_cos_sin(degrees: int) -> tuple[Q2, Q2]:
    """(cos, sin) of an angle that is a multiple of 45 degrees, in Q2."""
    d = degrees % 360
    if d % 45 != 0:
        raise ValueError(f"no exact Q(sqrt2) trigonometry for {degrees} degrees")
    h = SQRT2 / 2
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


def turn(axis: Vec3, degrees: int) -> Mat3:
    """The exact rotation by ``degrees`` (a multiple of 45) about ``axis``,
    a signed coordinate unit vector such as (0, 0, -1), counterclockwise
    seen from its tip; ValueError for any other axis or angle."""
    cos, sin = exact_cos_sin(degrees)
    signed = [(k, c) for k, c in enumerate(axis) if c]
    if len(signed) != 1 or signed[0][1] not in (1, -1):
        raise ValueError(f"no exact turn about {axis}: not a signed coordinate unit vector")
    [(k, s)] = signed
    i, j = (k + 1) % 3, (k + 2) % 3
    m = [[ZERO] * 3 for _ in range(3)]
    m[k][k], m[i][i], m[j][j] = ONE, cos, cos
    m[j][i], m[i][j] = (sin, -sin) if s == 1 else (-sin, sin)
    return tuple(map(tuple, m))


def centroid(points: Sequence[Vec3]) -> Vec3:
    """The mean of the points; floats are summed as ``_unit_scaled`` scales
    them, so the sum is finite whenever the points are."""
    if not isinstance(points[0][0], float):
        return _mean(points)
    e, pts = _unit_scaled(points)
    return tuple(math.ldexp(x, e) for x in _mean(pts))


def _mean(points: Sequence[Vec3]) -> Vec3:
    n = len(points)
    sx = points[0]
    for p in points[1:]:
        sx = vadd(sx, p)
    return (sx[0] / n, sx[1] / n, sx[2] / n)


def _unit_scaled(points: Sequence[Vec3]) -> tuple[int, list]:
    """(e, the float points times 2^-e), e the binary exponent of the largest
    |coordinate| (0 if there is none): exact, with every coordinate in [-1, 1]."""
    e = math.frexp(max((abs(x) for v in points for x in v), default=0.0))[1]
    return e, [tuple(math.ldexp(x, -e) for x in v) for v in points]


# -- float -> Q2 snapping ------------------------------------------------------


_SQRT2_F = math.sqrt(2.0)


def snap_scalar_to_q2(x: float) -> Q2 | None:
    """Nearest representable a + b*sqrt2 within ``SNAP_EPS``, small denominators.

    Pure rationals and pure sqrt2 multiples are searched up to
    ``SNAP_MAX_DEN`` (``_snap_one_term``); mixed values only over small
    coefficients (denominator up to 8, magnitude up to 2), which covers
    every entry an orthogonal matrix over Q(sqrt2) at this scale can have.
    For each a, b takes the nearest numerator for each denominator up to 8,
    as ``_snap_one_term`` does: ``SNAP_EPS`` is far below 1/56, so at most
    one b is within it, the one ``limit_denominator(8)`` would find.
    """
    one_term = _snap_one_term(x)
    if one_term is not None:
        return one_term
    for q in range(1, 9):
        for num in range(-2 * q, 2 * q + 1):
            y = (x - num / q) / _SQRT2_F
            for r in range(1, 9):
                s = round(y * r)
                if abs(s) <= 2 * r and abs(x - num / q - s / r * _SQRT2_F) <= SNAP_EPS:
                    return _reduced(num * r, s * q, q * r)
    return None


def _snap_one_term(x: float) -> Q2 | None:
    """p/q, else p/q*sqrt2, within ``SNAP_EPS`` of x with q <= ``SNAP_MAX_DEN``;
    None if neither.

    Each denominator q is tried with its nearest numerator, p = round(x*q)
    (of x/sqrt2 for the second).  Two distinct fractions with denominators
    up to N lie at least 1/(N(N-1)) apart (1/4032 for N = 64), and
    ``SNAP_EPS`` is below half that, so at most one of them is within it of
    x: the first q that passes finds the fraction
    ``Fraction(x).limit_denominator(SNAP_MAX_DEN)`` finds, with ints only.
    """
    for q in range(1, SNAP_MAX_DEN + 1):
        p = round(x * q)
        if abs(x - p / q) <= SNAP_EPS:
            return _reduced(p, 0, q)
    y = x / _SQRT2_F
    for q in range(1, SNAP_MAX_DEN + 1):
        p = round(y * q)
        if abs(x - p / q * _SQRT2_F) <= SNAP_EPS:
            return _reduced(0, p, q)
    return None


# -- predicate kernels ---------------------------------------------------------

# Fixed thresholds of the float kernel; the exact kernel ignores them.
LEAD_EPS = 1e-6  # leading component of a unit direction
SNAP_EPS = 1e-9  # matrix entries snapped into Q(sqrt2); under 1/8064, so a snap is unique
SNAP_MAX_DEN = 64  # the largest denominator of a one-term snap; 1/8064 = 1/(2 * 64 * 63)
SCALAR_DIGITS = 9  # rounding of directions


class ExactKernel:
    """Exact decisions on Z[sqrt2] lattice ints: a vector is six ints as from
    ``_lattice``, a scalar the pair (p, q) for p + q*sqrt2.  Signs and
    equalities survive a positive scaling, and equal values have equal ints,
    so zero means exactly zero.  ``vec`` carries an exact vector onto the
    lattice, ``canon_dir`` a lattice vector back to a Q2 direction."""

    exact = True

    @property
    def coarse(self) -> "ExactKernel":
        """Itself: an exact decision is never a near miss."""
        return self

    @staticmethod
    def _lattice(points: Sequence) -> list[tuple[int, ...]]:
        """L v for each exact point v as six ints (xp, xq, yp, yq, zp, zq), for
        xp + xq*sqrt2 and so on; L is the lcm of every coordinate's denominator."""
        points = [tuple(map(Q2.coerce, v)) for v in points]
        scale = math.lcm(*(c.d for v in points for c in v))
        return [tuple(x for c in v for x in (c.p * (scale // c.d), c.q * (scale // c.d)))
                for v in points]

    def coordinates(self, *meshes) -> list[tuple[int, ...]]:
        """The vertices of each mesh in turn about its centroid c as lattice ints:
        n L (v - c), n its vertex count and L as in ``_lattice`` over all meshes."""
        pts, out = self._lattice([v for m in meshes for v in m]), []
        for m in meshes:
            own, pts = pts[:len(m)], pts[len(m):]
            total = [sum(col) for col in zip(*own)]
            out += [tuple(len(own) * x - t for x, t in zip(v, total)) for v in own]
        return out

    @staticmethod
    def sub(u, v) -> tuple:
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3], u[4] - v[4], u[5] - v[5])

    @staticmethod
    def dot(u, v) -> tuple[int, int]:
        uxp, uxq, uyp, uyq, uzp, uzq = u
        vxp, vxq, vyp, vyq, vzp, vzq = v
        return (uxp * vxp + uyp * vyp + uzp * vzp + 2 * (uxq * vxq + uyq * vyq + uzq * vzq),
                uxp * vxq + uxq * vxp + uyp * vyq + uyq * vyp + uzp * vzq + uzq * vzp)

    @staticmethod
    def cross(u, v) -> tuple:
        uxp, uxq, uyp, uyq, uzp, uzq = u
        vxp, vxq, vyp, vyq, vzp, vzq = v
        return (uyp * vzp + 2 * uyq * vzq - uzp * vyp - 2 * uzq * vyq,
                uyp * vzq + uyq * vzp - uzp * vyq - uzq * vyp,
                uzp * vxp + 2 * uzq * vxq - uxp * vzp - 2 * uxq * vzq,
                uzp * vxq + uzq * vxp - uxp * vzq - uxq * vzp,
                uxp * vyp + 2 * uxq * vyq - uyp * vxp - 2 * uyq * vxq,
                uxp * vyq + uxq * vyp - uyp * vxq - uyq * vxp)

    @staticmethod
    def transpose(vs) -> tuple:
        """The x, y and z components of three vectors, each as a vector."""
        return tuple(vs[0][r:r + 2] + vs[1][r:r + 2] + vs[2][r:r + 2] for r in (0, 2, 4))

    @staticmethod
    def centre(points) -> tuple:
        """Their sum: a positive multiple of their centroid, the origin being
        the vertex centroid."""
        return tuple(map(sum, zip(*points)))

    def is_zero(self, x) -> bool:
        """The Q2 matrix entry x is 0."""
        return not x

    def sign(self, x) -> int:
        return sign_z2(*x)

    def equal(self, x, y) -> bool:
        return x == y

    def all_equal(self, xs) -> bool:
        return len(set(xs)) <= 1

    is_zero_vec = staticmethod(is_zero_vec)

    def plane_side(self, n, w) -> int:
        """Side of w relative to the plane through 0 with normal n."""
        return sign_z2(*self.dot(n, w))

    def canon_dir(self, v) -> Vec3:
        """The Q2 direction of v whose first nonzero component is 1;
        identifies v with -v."""
        lead = next((v[r:r + 2] for r in (0, 2, 4) if any(v[r:r + 2])), None)
        if lead is None:
            raise ValueError("zero vector has no direction")
        return tuple(z2_quotient(*v[r:r + 2], *lead) for r in (0, 2, 4))

    def frame(self, verts, gram) -> tuple | None:
        """The first independent vertices (a, b, c), then the columns of adj F
        and det F for F = [v_a v_b v_c]: an exact map needs no conditioning.
        None if there are none."""
        n, dot, cross = range(len(verts)), self.dot, self.cross
        a = next((i for i in n if any(gram[i][i])), 0)
        b = next((j for j in n if any(cross(verts[a], verts[j]))), 0)
        normal = cross(verts[a], verts[b])
        c = next((j for j in n if any(dot(normal, verts[j]))), None)
        if c is None:
            return None
        adj = (cross(verts[b], verts[c]), cross(verts[c], verts[a]), normal)
        return (a, b, c), (self.transpose(adj), dot(normal, verts[c]))

    def frame_map(self, images, inv) -> tuple[Mat3, bool]:
        """(M, det M > 0) for the map of the frame onto its images:
        M = F' adj F / det F, summed in ints, one Q2 per entry."""
        adj, det = inv
        m = tuple(tuple(z2_quotient(*self.dot(row, col), *det) for col in adj)
                  for row in self.transpose(images))
        det_images = self.dot(images[0], self.cross(images[1], images[2]))
        return m, self.sign(det_images) == self.sign(det)

    def snap(self, m: Mat3) -> Mat3:
        """The Q(sqrt2) matrix m stands for (None if there is none)."""
        return m

    def vec(self, v: Sequence) -> tuple:
        """The exact vector v in lattice ints, up to a positive factor."""
        return self._lattice([v])[0]


class ToleranceKernel:
    """Decisions over floats: values within ``tol`` of zero count as zero."""

    exact = False
    sub, dot, cross = staticmethod(vsub), staticmethod(vdot), staticmethod(vcross)
    centre = staticmethod(_mean)  # of ``points``, each within 1 of 0: no overflow

    def __init__(self, tol: float) -> None:
        self.tol = tol

    @property
    def coarse(self) -> "ToleranceKernel":
        """The kernel at tolerance sqrt(tol), midway between tol and 1 on a
        log scale: a value it calls zero but this kernel does not is a near
        miss, which cannot be told apart from noise in the input."""
        return ToleranceKernel(math.sqrt(self.tol))

    def coordinates(self, *meshes) -> list[Vec3]:
        """(v - c) / D for each vertex v of each mesh in turn, c its centroid
        and D the largest distance between two vertices of the first mesh (1
        if that is 0), computed on the vertices as ``_unit_scaled`` scales them
        all: the same values, with no sum or distance that overflows."""
        pts, out = _unit_scaled([tuple(map(float, v)) for m in meshes for v in m])[1], []
        first = itertools.combinations(pts[:len(meshes[0])], 2)
        d = max(itertools.starmap(math.dist, first), default=0.0) or 1.0
        for m in meshes:
            own, pts = pts[:len(m)], pts[len(m):]
            c = _mean(own)
            out += [tuple((x - a) / d for x, a in zip(v, c)) for v in own]
        return out

    def is_zero(self, x) -> bool:
        return abs(x) <= self.tol

    def sign(self, x) -> int:
        return 0 if self.is_zero(x) else (1 if x > 0 else -1)

    def equal(self, x, y) -> bool:
        return self.is_zero(x - y)

    def all_equal(self, xs) -> bool:
        return self.is_zero(max(xs, default=0) - min(xs, default=0))

    def is_zero_vec(self, v: Vec3) -> bool:
        return _norm(v) <= self.tol

    def plane_side(self, n: Vec3, w: Vec3) -> int:
        return self.sign(float(vdot(n, w)) / _norm(n))

    def canon_dir(self, v: Vec3) -> Vec3:
        """Unit vector, first clearly nonzero component positive, rounded."""
        nrm = _norm(v)
        v = tuple(x / nrm for x in v)
        if next(x for x in v if abs(x) > LEAD_EPS) < 0:
            v = vneg(v)
        return tuple(round(x, SCALAR_DIGITS) for x in v)

    def frame(self, verts, gram) -> tuple | None:
        """A well-conditioned frame (a, b, c) and the inverse of F = [v_a v_b v_c]:
        a has the largest norm, b maximises G_aa G_bb - G_ab^2 and c the Gram
        determinant of (a, b, c), which is (det F)^2 = (v_c . v_a x v_b)^2.
        F^-1 has rows v_b x v_c, v_c x v_a and v_a x v_b over det F.  None
        if that determinant is within tolerance of 0."""
        n = range(len(verts))
        a = max(n, key=lambda i: gram[i][i])
        b = max(n, key=lambda j: gram[a][a] * gram[j][j] - gram[a][j] * gram[a][j])
        normal = vcross(verts[a], verts[b])
        heights = [vdot(normal, v) for v in verts]
        c = max(n, key=lambda j: heights[j] * heights[j])
        if self.is_zero(heights[c] * heights[c]):
            return None
        rows = (vcross(verts[b], verts[c]), vcross(verts[c], verts[a]), normal)
        return (a, b, c), tuple(tuple(x / heights[c] for x in r) for r in rows)

    def frame_map(self, images, inv) -> tuple[Mat3, bool]:
        """(M, det M > 0) for M = F' F^-1, the map of the frame onto its images."""
        m = mat_mul(mat_transpose(images), inv)
        return m, self.sign(mat_det(m)) > 0

    def snap(self, m: Mat3) -> Mat3 | None:
        """m with each entry snapped into Q(sqrt2) within ``SNAP_EPS``; None if
        an entry does not snap, found at the first such entry."""
        snapped = list(itertools.takewhile(lambda q: q is not None, (
            snap_scalar_to_q2(x) for row in m for x in row)))
        rows = tuple(tuple(snapped[i:i + 3]) for i in (0, 3, 6))
        return rows if len(snapped) == 9 else None

    def vec(self, v: Sequence) -> tuple:
        return tuple(float(x) for x in v)


def _norm(v: Vec3) -> float:
    return math.sqrt(float(vdot(v, v)))


EXACT = ExactKernel()
