"""Rigid fold verification: assemble any net in exact arithmetic.

Every piece folds in its own flat grid (``netgen.square_corners``), in the
plane z = 0 with outward normal +z, by one walk over its creases as a tree
from square (0, 0).  The first piece keeps the builders' canonical pose, each
later piece takes the first of its ``poses`` that its gluings allow, and the
gyration turns the second piece about the belt axis z.  Every crease line
runs along a grid axis and every target is a multiple of 45 degrees, so each
crease, like the gyration, is one ``geom.turn``: every placed corner stays in
Q(sqrt2)^3 and every placed square is an exact L x L square.

Congruent squares overlap flat only by coinciding, so closure is decided by
exact lookups, never by a distance search, with one rule for every
``netgen.Gluing``: the glued square's corners, or the edge it shares with a
neighbour, coincide with a host square or one of that square's edges.
Each face square must also coincide with a face of the target solid.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from .geom import Mat3, Vec3, mat_mul, mat_transpose, mat_vec, turn, vadd, vcross, vdot, vsub
from .netgen import CHECKS, NetSpec, shared_edge, square_corners
from .qfield import ONE, SQRT2, ZERO, Q2
from .solids import build_pseudo_rhombicuboctahedron, build_rhombicuboctahedron


class PlacedSquare(NamedTuple):
    piece: str
    pos: tuple[int, int]
    role: str
    corners: tuple[Vec3, Vec3, Vec3, Vec3]  # cyclic

    def corner_set(self) -> frozenset:
        return frozenset(self.corners)


class ClosureCheck(NamedTuple):
    name: str
    piece: str
    pos: tuple[int, int]
    passed: bool
    detail: str = ""
    witness: Optional[tuple[Vec3, ...]] = None
    deviation_sq: Q2 = ZERO  # exact squared distance of the witness

    @property
    def distance(self) -> float:
        return math.sqrt(float(self.deviation_sq))


class ClosureReport(NamedTuple):
    checks: tuple[ClosureCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ClosureCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


class AssemblyResult:
    """The folded pieces and their match; the closure checks run when it is made."""

    def __init__(self, net: NetSpec, gyration: int, target_name: str, squares: dict,
                 matched: bool, correspondence: dict) -> None:
        self.net = net
        self.gyration = gyration
        self.target_name = target_name
        self.squares = squares
        self.matched = matched
        self.correspondence = correspondence
        self.closure = check_closure(self)

    @property
    def closure_residual(self) -> Q2:
        """The largest squared deviation among the closure checks."""
        return max((c.deviation_sq for c in self.closure.checks), default=ZERO)

    def to_json_dict(self) -> dict:
        return {
            "schema": "gyrolab/1",
            "kind": "assembly",
            "gyration": self.gyration,
            "target": self.target_name,
            "matched": self.matched,
            "closure_ok": self.closure.ok,
            "closure_residual": str(self.closure_residual),
            "squares": {
                piece: [
                    {
                        "pos": list(sq.pos),
                        "role": sq.role,
                        "corners": [[str(c) for c in pt] for pt in sq.corners],
                    }
                    for sq in sqs
                ]
                for piece, sqs in self.squares.items()
            },
            "correspondence": {
                f"{piece}:{pos[0]},{pos[1]}": face
                for (piece, pos), face in sorted(self.correspondence.items())
            },
            "closure": [
                {
                    "check": c.name,
                    "piece": c.piece,
                    "pos": list(c.pos),
                    "passed": c.passed,
                    "detail": c.detail,
                    "distance": c.distance,
                }
                for c in self.closure.checks
            ],
        }


def text_report(result: AssemblyResult) -> str:
    """Human-readable fold-check summary: the closure count, the match, and
    each failed check with its witness."""
    n_pass = sum(1 for c in result.closure.checks if c.passed)
    lines = [f"fold-check: gyration {result.gyration}",
             f"closure: {n_pass}/{len(result.closure.checks)} checks passed,"
             f" residual {result.closure_residual}"]
    if result.matched:
        lines.append(f"matched: {result.target_name}")
    else:
        lines.append(f"matched: NO (target {result.target_name})")
        for c in result.closure.failures():
            wit = ""
            if c.witness:
                wit = " witness " + "; ".join(
                    "(" + ", ".join(str(x) for x in p) + ")" for p in c.witness
                )
            lines.append(f"  {c.name} {c.piece}{c.pos}: {c.detail}"
                         f" (distance {c.distance:.6g}){wit}")
    return "\n".join(lines) + "\n"


# -- affine transforms over Q2 ---------------------------------------------------


class _Affine(NamedTuple):
    m: Mat3
    b: Vec3

    def apply(self, p: Vec3) -> Vec3:
        return vadd(mat_vec(self.m, p), self.b)

    def then_inner(self, inner: "_Affine") -> "_Affine":
        # self(inner(x))
        return _Affine(mat_mul(self.m, inner.m), vadd(mat_vec(self.m, inner.b), self.b))


# -- folding ---------------------------------------------------------------------


def _fold_piece(net: NetSpec, piece: str, root: _Affine) -> list[PlacedSquare]:
    """Fold one piece by walking its creases as a tree from square (0, 0).

    The flat piece is its grid scaled by L in the plane z = 0, outward
    normal +z.  Each crease turns the child side by 180 degrees minus its
    target about the edge ``netgen.shared_edge`` gives, whose axis is e_z
    crossed with the grid step away from the root: T(child) = T(parent) o R,
    with T(0, 0) = ``root``.  R fixes the crease, so the child takes the
    crease's two corners from its parent and places only its other two.
    """
    L = Q2(net.edge_len)
    squares = {sq.pos: sq for sq in net.squares_of(piece)}
    links: dict[tuple, list] = {}
    for c in net.creases_of(piece):
        if c.a not in squares or c.b not in squares:
            raise ValueError(
                f"inconsistent gluing instruction: {piece} crease {c.a}-{c.b}"
                " leaves the piece"
            )
        if c.fold_target % 45 != 0 or not 0 <= c.fold_target <= 180:
            raise ValueError(f"crease target {c.fold_target} has no exact Q(sqrt2) trigonometry")
        edge = shared_edge(squares[c.a], squares[c.b])
        links.setdefault(c.a, []).append((c.b, edge, c.fold_target))
        links.setdefault(c.b, []).append((c.a, edge, c.fold_target))

    points: dict[tuple, dict] = {}  # square -> grid corner -> placed point
    stack = [((0, 0), root, {})] if (0, 0) in squares else []
    while stack:  # each entry: a square, its motion and the corners its parent placed
        pos, move, kept = stack.pop()
        points[pos] = {g: kept[g] if g in kept else move.apply((L * g[0], L * g[1], ZERO))
                       for g in square_corners(squares[pos])}
        for child, edge, target in links.get(pos, ()):
            if child not in points:
                m = turn((pos[1] - child[1], child[0] - pos[0], 0), 180 - target)  # e_z x step
                anchor = (L * edge[0][0], L * edge[0][1], ZERO)
                stack.append((child, move.then_inner(_Affine(m, vsub(anchor, mat_vec(m, anchor)))),
                              {g: points[pos][g] for g in edge}))
    if set(points) != set(squares) or len(net.creases_of(piece)) != len(squares) - 1:
        raise ValueError(
            f"inconsistent gluing instruction: {piece} creases do not join"
            " every square to (0, 0) by exactly one path"
        )

    return [PlacedSquare(piece, sq.pos, sq.role,
                         tuple(points[sq.pos][g] for g in square_corners(sq)))
            for sq in net.squares_of(piece)]


# the first piece's pose, the builders' canonical one: grid x, grid y and the
# outward normal go to -y, -z and +x, and ``fold`` centres square 1 on the +x face
_FIRST_FRAME = ((ZERO, ZERO, ONE), (-ONE, ZERO, ZERO), (ZERO, -ONE, ZERO))
_IDENTITY = _Affine(turn((0, 0, 1), 0), (ZERO,) * 3)


def _moved(squares, move: _Affine) -> list[PlacedSquare]:
    image = {c: move.apply(c) for c in {c for sq in squares for c in sq.corners}}
    return [sq._replace(corners=tuple(image[c] for c in sq.corners)) for sq in squares]


def poses(net: NetSpec, piece: str, placed: dict):
    """Each way to lay a glue square of the piece, folded at the identity
    root, on a square its gluing may land on in the ``placed`` pieces (piece
    -> placed squares), with the number of its gluings onto them it misses.
    The motion x -> M x + b takes the glue square's corners c onto the host's
    h, walked forwards from each corner, then backwards: M = Y T^-1, with T's
    columns c1 - c0, c3 - c0 and their cross product and Y's the same of h,
    is exact and proper.  Glue squares come first, then host squares, then
    corner orders; ValueError if no glue square has a placed host."""
    def frame(c):
        a, b = vsub(c[1], c[0]), vsub(c[3], c[0])
        return a, b, vcross(a, b)

    flat, targets_of = _fold_piece(net, piece, _IDENTITY), {}
    squares = {(sq.piece, sq.pos): sq for sqs in (*placed.values(), flat) for sq in sqs}
    mine = [g for g in net.gluing if g.piece == piece and g.host in placed]
    tabs = [_land(net, squares, targets_of, g)[:2] for g in mine if g.edge_with is None]
    if not tabs:
        raise ValueError(f"inconsistent gluing instruction: {piece} lays no glue square"
                         " on a placed piece")
    for c, targets in tabs:
        # T's columns are orthogonal: T^-1 is T's transpose, each row over its squared length
        t_inv = tuple(tuple(x / vdot(col, col) for x in col) for col in frame(c))
        # four corners have one target per host square, the last one first
        for host, step, k in itertools.product(reversed(targets.values()), (1, -1), range(4)):
            m = mat_mul(mat_transpose(frame([host.corners[(k + step * j) % 4]
                                             for j in range(4)])), t_inv)
            moved = _moved(flat, _Affine(m, vsub(host.corners[k], mat_vec(m, c[0]))))
            squares.update(((piece, sq.pos), sq) for sq in moved)
            yield moved, sum(_land(net, squares, targets_of, g)[2] is None for g in mine)


def _solve(net: NetSpec, piece: str, placed: dict) -> list[PlacedSquare]:
    """The first pose passing every gluing and laying no face square on a
    placed one; else the first missing the fewest, so a broken net reports."""
    faces = {sq.corner_set() for sqs in placed.values() for sq in sqs if sq.role != "glue"}
    best = None
    for squares, misses in poses(net, piece, placed):
        if not misses and faces.isdisjoint(sq.corner_set() for sq in squares
                                           if sq.role != "glue"):
            return squares
        best = best if best and best[1] <= misses else (squares, misses)
    return best[0]


def fold(net: NetSpec, gyration: int = 0) -> AssemblyResult:
    """Fold and pose every piece of the net, and match them against the target solid.

    ``gyration`` (degrees, any multiple of 45) turns the second piece about
    the belt axis z once every piece is posed: for the three-piece net,
    multiples of 90 reproduce the rhombicuboctahedron, odd multiples of 45
    the pseudo twin.
    """
    if gyration % 45 != 0:
        raise ValueError(f"gyration {gyration} has no exact Q(sqrt2) trigonometry")
    if not net.pieces:
        raise ValueError("inconsistent gluing instruction: the net has no square")
    s = Q2(net.edge_len) / 2
    first, *later = net.pieces
    placed = {first: _fold_piece(net, first, _Affine(_FIRST_FRAME, (s + s * SQRT2, s, s)))}
    for piece in later:
        placed[piece] = _solve(net, piece, placed)
    if later:
        placed[later[0]] = _moved(placed[later[0]],
                                  _Affine(turn((0, 0, 1), gyration), (ZERO,) * 3))
    if gyration % 90 == 0:
        target, target_name = build_rhombicuboctahedron(net.edge_len), "rhombicuboctahedron"
    else:
        target = build_pseudo_rhombicuboctahedron(net.edge_len)
        target_name = "pseudo-rhombicuboctahedron"

    face_sets = {frozenset(target.vertices[i] for i in f): fi
                 for fi, f in enumerate(target.faces)}
    faces = [sq for sqs in placed.values() for sq in sqs if sq.role in ("face", "pole")]
    correspondence = {(sq.piece, sq.pos): face_sets[sq.corner_set()]
                      for sq in faces if sq.corner_set() in face_sets}
    matched = (len(correspondence) == len(faces)
               and {c for sq in faces for c in sq.corners} == set(target.vertices))
    return AssemblyResult(net, gyration, target_name, placed, matched, correspondence)


# -- closure checks ----------------------------------------------------------------


def _witness(points, candidates) -> tuple[Vec3, Q2]:
    """The point of ``points`` farthest from its nearest point of the
    closest candidate point set, and that exact squared distance: zero
    iff ``points`` coincides with a candidate of its own size."""
    def farthest(targets):
        return max(((p, min(vdot(vsub(p, q), vsub(p, q)) for q in targets))
                    for p in points), key=lambda pd: pd[1])

    return min(map(farthest, candidates), key=lambda pd: pd[1])


def _land(net: NetSpec, squares: dict, targets_of: dict, glue) -> tuple:
    """The one coincidence rule of every ``netgen.Gluing`` on ``squares``
    ((piece, pos) -> placed square): the glued points, their target point
    sets, cached in ``targets_of``, and the host square they coincide with."""
    def square(piece, pos) -> PlacedSquare:
        if (piece, pos) not in squares:
            raise ValueError(f"inconsistent gluing instruction: no square {piece}{pos}")
        return squares[(piece, pos)]

    sq = square(glue.piece, glue.pos)
    points = sq.corners
    if glue.edge_with is not None:
        # decided on the flat grid: a tab folded back onto its side
        # square shares all four corners with it in space
        edge = shared_edge(sq, square(glue.piece, glue.edge_with))
        points = sorted(points[square_corners(sq).index(q)] for q in edge)
    key = (glue.host, glue.host_pos, len(points))
    if key not in targets_of:
        hosts = [square(glue.host, pos) for pos in (
            [glue.host_pos] if glue.host_pos is not None else
            [s.pos for s in net.squares_of(glue.host) if s.role == "face"])]
        if not hosts:
            raise ValueError(f"inconsistent gluing instruction: {glue.host} has no face square")
        # a host's corner set, or its four edges
        targets_of[key] = {frozenset(h.corners[k - j] for j in range(len(points))): h
                           for h in reversed(hosts) for k in range(4)}
    targets = targets_of[key]
    return points, targets, targets.get(frozenset(points))


def check_closure(result: AssemblyResult) -> ClosureReport:
    """Verify the gluing instructions on the folded result.

    Each ``netgen.Gluing`` passes when the glued square's corners, or the
    edge it shares with its ``edge_with`` neighbour on the flat grid, coincide
    with its host square or one of that square's edges; with no host square
    named, any face square of the host piece, the first in net order winning.
    Placed squares are congruent, so a tab flat inside a host square is that
    square, and each check is one exact lookup.  A failed check is a report
    entry, not an exception: its witness is the point farthest from its
    nearest target point, and ``deviation_sq`` that squared distance, zero
    exactly when the point set coincides.  An instruction naming an unknown
    check, or a square the fold did not place, is a ValueError.
    """
    net = result.net
    placed = {(sq.piece, sq.pos): sq for sqs in result.squares.values() for sq in sqs}
    targets_of: dict[tuple, dict] = {}
    checks: list[ClosureCheck] = []
    for glue in net.gluing:
        if glue.check not in CHECKS:
            raise ValueError(f"inconsistent gluing instruction: unknown check {glue.check!r}")
        passed, failed = CHECKS[glue.check]
        points, targets, host = _land(net, placed, targets_of, glue)
        if host is not None:
            n = [s.pos for s in net.squares_of(host.piece)].index(host.pos) + 1
            checks.append(ClosureCheck(glue.check, glue.piece, glue.pos, True,
                                       passed.format(n=n)))
        else:
            point, dev = _witness(points, targets)
            checks.append(ClosureCheck(glue.check, glue.piece, glue.pos, False, failed,
                                       witness=(point,), deviation_sq=dev))
    return ClosureReport(tuple(checks))
