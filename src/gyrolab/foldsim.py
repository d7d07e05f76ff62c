"""Rigid fold verification: assemble any net in exact arithmetic.

One primitive places paper: ``_fold_piece`` lays one square of a piece on
four corners and hinges the rest outwards, crease by crease, as a tree from
that square; a crease is a hinge that turns the far square inwards by 180
degrees minus its target.  The first piece is laid from the builders' +x
face, each later piece from a glue square laid same side out on a host
square, the first of its ``poses`` its gluings allow, and the gyration
refolds the second piece from its first square turned about z by ``turn``.
Every target and turn is a multiple of 45 degrees, so every placed corner
stays in Q(sqrt2)^3 and every placed square is an exact L x L square.

Congruent squares overlap flat only by coinciding, so the closure of any
assembly is decided by exact lookups, never by a distance search, with one
rule for every ``netgen.Gluing``: the glued square's corners, or the edge it
shares with a neighbour, coincide with a host square or one of its edges.
Each face square must also coincide with a face of the target solid.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional

from .geom import Vec3, exact_cos_sin, mat_vec, turn, vadd, vcross, vdot, vsub
from .netgen import CHECKS, NetSpec, shared_edge, square_corners
from .qfield import SQRT2, ZERO, Q2
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


class AssemblyResult(NamedTuple):
    """The folded pieces (piece -> placed squares), their match and closure checks."""
    net: NetSpec
    gyration: int
    target_name: str
    squares: dict
    matched: bool
    correspondence: dict
    closure: ClosureReport

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


# -- folding ---------------------------------------------------------------------


def _fold_piece(net: NetSpec, piece: str, root: tuple[int, int], corners) -> list[PlacedSquare]:
    """Fold one piece: lay square ``root`` on the four ``corners`` (in
    ``netgen.square_corners`` order), then hinge outwards along the creases,
    walked as a tree from it.

    The root's outward normal n is its two sides from the first corner
    crossed, over L, so |n| = L.  Across each crease a child keeps its
    parent's two crease corners, the same objects, and lays its other two at
    the crease corners plus w cos t - n sin t: w is the parent's side across
    the crease, t is 180 degrees minus the crease's target, and the paper
    turns towards -n, inwards.  The child's normal is n cos t + w sin t.
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
        hinge = (shared_edge(squares[c.a], squares[c.b]), *exact_cos_sin(180 - c.fold_target))
        links.setdefault(c.a, []).append((c.b, *hinge))
        links.setdefault(c.b, []).append((c.a, *hinge))

    points: dict[tuple, dict] = {}  # square -> grid corner -> placed point
    normal = tuple(x / L for x in vcross(vsub(corners[1], corners[0]), vsub(corners[3], corners[0])))
    stack = ([(root, dict(zip(square_corners(squares[root]), corners)), normal)]
             if root in squares else [])
    while stack:  # each entry: a square, its placed corners and its normal
        pos, at, n = stack.pop()
        points[pos] = at
        for child, edge, cos, sin in links.get(pos, ()):
            if child not in points:
                dx, dy = child[0] - pos[0], child[1] - pos[1]
                w = vsub(at[edge[0]], at[(edge[0][0] - dx, edge[0][1] - dy)])
                out = tuple(wi * cos - ni * sin for wi, ni in zip(w, n))
                child_at = {g: at[g] for g in edge}
                child_at.update({(g[0] + dx, g[1] + dy): vadd(at[g], out) for g in edge})
                stack.append((child, child_at,
                              tuple(ni * cos + wi * sin for ni, wi in zip(n, w))))
    if set(points) != set(squares) or len(net.creases_of(piece)) != len(squares) - 1:
        raise ValueError(
            f"inconsistent gluing instruction: {piece} creases do not join"
            f" every square to {root} by exactly one path"
        )

    return [PlacedSquare(piece, sq.pos, sq.role,
                         tuple(points[sq.pos][g] for g in square_corners(sq)))
            for sq in net.squares_of(piece)]


def poses(net: NetSpec, piece: str, placed: dict):
    """Each way to lay a glue square of the piece on a square its gluing may
    land on in the ``placed`` pieces (piece -> placed squares), with the
    number of its gluings onto them it misses: the piece refolded from that
    glue square, laid on the four turns of the host's corner cycle, same side
    out: walked backwards, the piece would turn over and every crease bend it
    away from the solid.  Glue squares come first, in gluing order, then host
    squares, in net order, then turns; ValueError if no glue square has a
    placed host."""
    # the piece's own squares stand unplaced until its first pose replaces
    # them, so a missing glue square is refused before a refold from it
    squares = {(sq.piece, sq.pos): sq
               for sqs in (*placed.values(), net.squares_of(piece)) for sq in sqs}
    mine = [g for g in net.gluing if g.piece == piece and g.host in placed]
    tabs = [(_square(squares, piece, g.pos).pos, _hosts(net, squares, g))
            for g in mine if g.edge_with is None]
    if not tabs:
        raise ValueError(f"inconsistent gluing instruction: {piece} lays no glue square"
                         " on a placed piece")
    targets_of: dict[tuple, dict] = {}
    for pos, hosts in tabs:
        for host, k in itertools.product(hosts, range(4)):
            moved = _fold_piece(net, piece, pos, host.corners[k:] + host.corners[:k])
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
    t = s + s * SQRT2
    first, *later = net.pieces
    # the builders' canonical pose: the first piece's square (0, 0) on the +x face
    placed = {first: _fold_piece(net, first, (0, 0), ((t, s, s), (t, -s, s),
                                                      (t, -s, -s), (t, s, -s)))}
    for piece in later:
        placed[piece] = _solve(net, piece, placed)
    if later:
        m, root = turn((0, 0, 1), gyration), placed[later[0]][0]
        placed[later[0]] = _fold_piece(net, later[0], root.pos,
                                       [mat_vec(m, c) for c in root.corners])
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
    return AssemblyResult(net, gyration, target_name, placed, matched, correspondence,
                          check_closure(net, placed))


# -- closure checks ----------------------------------------------------------------


def _witness(points, candidates) -> tuple[Vec3, Q2]:
    """The point of ``points`` farthest from its nearest point of the
    closest candidate point set, and that exact squared distance: zero
    iff ``points`` coincides with a candidate of its own size."""
    def farthest(targets):
        return max(((p, min(vdot(vsub(p, q), vsub(p, q)) for q in targets))
                    for p in points), key=lambda pd: pd[1])

    return min(map(farthest, candidates), key=lambda pd: pd[1])


def _square(squares: dict, piece: str, pos) -> PlacedSquare:
    if (piece, pos) not in squares:
        raise ValueError(f"inconsistent gluing instruction: no square {piece}{pos}")
    return squares[(piece, pos)]


def _hosts(net: NetSpec, squares: dict, glue) -> list[PlacedSquare]:
    """The squares a gluing may land on, in net order: its host square, or
    with none named every face square of the host piece."""
    hosts = [_square(squares, glue.host, pos) for pos in (
        [glue.host_pos] if glue.host_pos is not None else
        [s.pos for s in net.squares_of(glue.host) if s.role == "face"])]
    if not hosts:
        raise ValueError(f"inconsistent gluing instruction: {glue.host} has no face square")
    return hosts


def _land(net: NetSpec, squares: dict, targets_of: dict, glue) -> tuple:
    """The one coincidence rule of every ``netgen.Gluing`` on ``squares``
    ((piece, pos) -> placed square): the glued points, their target point
    sets, cached in ``targets_of``, and the host square they coincide with."""
    sq = _square(squares, glue.piece, glue.pos)
    points = sq.corners
    if glue.edge_with is not None:
        # decided on the flat grid: a tab folded back onto its side
        # square shares all four corners with it in space
        edge = shared_edge(sq, _square(squares, glue.piece, glue.edge_with))
        points = sorted(points[square_corners(sq).index(q)] for q in edge)
    key = (glue.host, glue.host_pos, len(points))
    if key not in targets_of:
        # a host's corner set, or its four edges
        targets_of[key] = {frozenset(h.corners[k - j] for j in range(len(points))): h
                           for h in reversed(_hosts(net, squares, glue)) for k in range(4)}
    targets = targets_of[key]
    return points, targets, targets.get(frozenset(points))


def check_closure(net: NetSpec, squares: dict) -> ClosureReport:
    """Verify the net's gluing on any assembly's ``squares`` (piece -> placed squares).

    Each ``netgen.Gluing`` passes when the glued square's corners, or the
    edge it shares with its ``edge_with`` neighbour on the flat grid, coincide
    with its host square or one of that square's edges; with no host square
    named, any face square of the host piece, the first in net order winning.
    Placed squares are congruent, so a tab flat inside a host square is that
    square, and each check is one exact lookup.  A failed check is a report
    entry, not an exception: its witness is the point farthest from its
    nearest target point, and ``deviation_sq`` that squared distance, zero
    exactly when the point set coincides.  An instruction naming an unknown
    check, or a square not placed, is a ValueError.
    """
    placed = {(sq.piece, sq.pos): sq for sqs in squares.values() for sq in sqs}
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
