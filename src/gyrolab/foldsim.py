"""Rigid fold verification: assemble the nets in exact arithmetic.

Every piece folds by one walk over its creases as a tree from square
(0, 0).  Each square's flat corners come from ``netgen.square_corners`` and
each crease's edge from ``netgen.shared_edge``, the layout the SVG prints,
mapped into space by a per-piece embedding; a crease rotates its child side
by 180 degrees minus the target dihedral about that edge.  Every crease
line runs along a coordinate axis and every target is a multiple of 45
degrees, so each crease, like the north cap's gyration, is one
``geom.turn``: every placed corner stays in Q(sqrt2)^3 and every placed
square is an exact L x L square.  Congruent squares overlap flat only by
coinciding, so closure is decided by exact corner-set lookups, never by a
distance search: square 9 on square 1, each glue tab on a belt square, each
cap side edge on a belt square edge, and each face square on a face of the
target solid.

Pose convention: strip square 1 starts on the belt face whose outward
normal is +x, in the builders' canonical pose; the north cap is the one
rotated by the gyration parameter.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .geom import Mat3, Vec3, mat_mul, mat_vec, turn, vadd, vcross, vdot, vsub
from .netgen import NetSpec, NetSquare, shared_edge, square_cell, square_corners
from .qfield import ONE, ZERO, Q2
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


def _rotation_about_line(anchor: Vec3, axis: Vec3, degrees: int) -> _Affine:
    """``turn(axis, degrees)`` about the line through ``anchor``."""
    m = turn(axis, degrees)
    return _Affine(m, vsub(anchor, mat_vec(m, anchor)))


def _fold_rotation_degrees(dihedral_target: int) -> int:
    if dihedral_target % 45 != 0 or not (0 <= dihedral_target <= 180):
        raise ValueError(
            f"crease target {dihedral_target} has no exact Q(sqrt2) trigonometry"
        )
    return 180 - dihedral_target


# -- folding ---------------------------------------------------------------------


def _fold_piece(net: NetSpec, piece: str, embed: Callable[[int, int], Vec3],
                n_out: Vec3, root: _Affine) -> list[PlacedSquare]:
    """Fold one piece by walking its creases as a tree from square (0, 0).

    ``embed`` maps a layout corner (``netgen.square_corners``, in edge
    lengths) into space and ``n_out`` is the flat piece's outward normal
    there.  Each crease turns the child side by 180 degrees minus its target
    about the edge ``netgen.shared_edge`` gives, whose axis is ``n_out``
    crossed with the unit step away from the root:
    T(child) = T(parent) o R, with T(0, 0) = ``root``.
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
        anchor = shared_edge(squares[c.a], squares[c.b])[0]
        links.setdefault(c.a, []).append((c.b, anchor, c.fold_target))
        links.setdefault(c.b, []).append((c.a, anchor, c.fold_target))

    transforms = {(0, 0): root}
    stack = [(0, 0)] if (0, 0) in squares else []
    while stack:
        pos = stack.pop()
        for child, anchor, target in links.get(pos, ()):
            if child in transforms:
                continue
            step = vsub(embed(*square_cell(squares[child])),
                        embed(*square_cell(squares[pos])))
            axis = tuple(v / L for v in vcross(n_out, step))
            crease = _rotation_about_line(embed(*anchor), axis,
                                          _fold_rotation_degrees(target))
            transforms[child] = transforms[pos].then_inner(crease)
            stack.append(child)
    if set(transforms) != set(squares) or len(net.creases_of(piece)) != len(squares) - 1:
        raise ValueError(
            f"inconsistent gluing instruction: {piece} creases do not join"
            " every square to (0, 0) by exactly one path"
        )

    return [PlacedSquare(piece, sq.pos, sq.role,
                         tuple(transforms[sq.pos].apply(embed(u, v))
                               for u, v in square_corners(sq)))
            for sq in net.squares_of(piece)]


def fold(net: NetSpec, gyration: int = 0) -> AssemblyResult:
    """Fold the three pieces and match them against the target solid.

    ``gyration`` (degrees, any multiple of 45) rotates the north cap
    about the polar axis before gluing: multiples of 90 reproduce the
    rhombicuboctahedron, odd multiples of 45 the pseudo twin.
    """
    if gyration % 45 != 0:
        raise ValueError(
            f"gyration {gyration} has no exact Q(sqrt2) trigonometry"
        )
    L = Q2(net.edge_len)
    s = L / 2
    t = (ONE + Q2(0, 1)) * s
    # each cap's pole square, the root of its fold, is centred on the polar axis
    cx, cy = (L * v + s for v in square_cell(NetSquare("cap_north", (0, 0), "pole")))

    def root(degrees: int) -> _Affine:  # a turn about the polar axis
        return _rotation_about_line((ZERO, ZERO, ZERO), (0, 0, 1), degrees)

    placed = {
        "strip": _fold_piece(net, "strip", lambda x, y: (t, s - L * x, s - L * y),
                             (ONE, ZERO, ZERO), root(0)),
        "cap_north": _fold_piece(net, "cap_north",
                                 lambda x, y: (L * x - cx, L * y - cy, t),
                                 (ZERO, ZERO, ONE), root(gyration)),
        "cap_south": _fold_piece(net, "cap_south",
                                 lambda x, y: (L * x - cx, L * y - cy, -t),
                                 (ZERO, ZERO, -ONE), root(0)),
    }
    if gyration % 90 == 0:
        target = build_rhombicuboctahedron(net.edge_len)
        target_name = "rhombicuboctahedron"
    else:
        target = build_pseudo_rhombicuboctahedron(net.edge_len)
        target_name = "pseudo-rhombicuboctahedron"

    face_sets = {frozenset(target.vertices[i] for i in f): fi
                 for fi, f in enumerate(target.faces)}
    correspondence = {}
    matched = True
    corner_union = set()
    for piece, sqs in placed.items():
        for sq in sqs:
            if sq.role not in ("face", "pole"):
                continue
            corner_union.update(sq.corners)
            fi = face_sets.get(sq.corner_set())
            if fi is None:
                matched = False
            else:
                correspondence[(piece, sq.pos)] = fi
    if corner_union != set(target.vertices):
        matched = False

    return AssemblyResult(
        net=net,
        gyration=gyration,
        target_name=target_name,
        squares=placed,
        matched=matched,
        correspondence=correspondence,
    )


# -- closure checks ----------------------------------------------------------------


def _witness(points, candidates) -> tuple[Vec3, Q2]:
    """The point of ``points`` farthest from its nearest point of the
    closest candidate point set, and that exact squared distance: zero
    iff ``points`` coincides with a candidate of its own size."""
    def farthest(targets):
        return max(((p, min(vdot(vsub(p, q), vsub(p, q)) for q in targets))
                    for p in points), key=lambda pd: pd[1])

    return min(map(farthest, candidates), key=lambda pd: pd[1])


def check_closure(result: AssemblyResult) -> ClosureReport:
    """Verify the gluing instructions on the folded result.

    (a) the strip's glue square coincides with its target square; (b) every
    cap glue tab coincides with a belt square; (c) the edge each cap side
    square shares with its tab in the net coincides with a belt square edge.
    Placed squares are congruent, so a tab flat inside a belt square is that
    square, and each check is one exact lookup.  A failed check is a report
    entry, not an exception: its witness is the point farthest from its
    nearest target point, and ``deviation_sq`` that squared distance, zero
    exactly when the point set coincides.
    """
    net = result.net
    strip = {sq.pos: sq for sq in result.squares["strip"]}
    belt_squares = [strip.get((i, 0)) for i in range(8)]
    if None in belt_squares:
        raise ValueError("inconsistent gluing instruction: missing belt square")
    hosts = {sq.corner_set(): sq for sq in reversed(belt_squares)}
    host_edges = {frozenset((sq.corners[k - 1], sq.corners[k])): sq
                  for sq in reversed(belt_squares) for k in range(4)}
    caps = {piece: {sq.pos: sq for sq in result.squares[piece]}
            for piece in ("cap_north", "cap_south")}
    checks: list[ClosureCheck] = []

    for glue in net.gluing:
        if glue.kind == "overlap" and glue.piece == "strip":
            a, b = strip.get(glue.pos), strip.get(glue.target_pos)
            if a is None or b is None:
                raise ValueError("inconsistent gluing instruction: missing strip square")
            name, points, targets = "lap_joint", a.corners, {b.corner_set(): b}
            passed = "glue square exactly overlaps the first square"
            failed = "strip does not close into the octagonal belt"
        elif glue.kind == "overlap":
            tab = caps.get(glue.piece, {}).get(glue.pos)
            if tab is None:
                raise ValueError("inconsistent gluing instruction: missing tab")
            name, points, targets = "tab_in_belt_square", tab.corners, hosts
            passed = "tab coplanar with and inside strip square {}"
            failed = "glue tab lies flat in no belt square"
        elif glue.kind == "edge":
            cap = caps.get(glue.piece, {})
            side = cap.get(glue.pos)
            tab = cap.get((2 * glue.pos[0], 2 * glue.pos[1]))
            if side is None or tab is None:
                raise ValueError("inconsistent gluing instruction: missing cap square")
            # decided on the flat layout: a tab folded back onto its side
            # square shares all four corners with it in space
            flat = square_corners(side)
            name = "cap_edge_on_belt"
            points = sorted(side.corners[flat.index(q)] for q in shared_edge(side, tab))
            targets = host_edges
            passed = "outer edge coincides with an edge of strip square {}"
            failed = "outer edge matches no belt square edge"
        else:
            raise ValueError(f"inconsistent gluing instruction: unknown kind {glue.kind!r}")
        host = targets.get(frozenset(points))
        if host is not None:
            checks.append(ClosureCheck(name, glue.piece, glue.pos, True,
                                       passed.format(host.pos[0] + 1)))
        else:
            point, dev = _witness(points, targets)
            checks.append(ClosureCheck(name, glue.piece, glue.pos, False, failed,
                                       witness=(point,), deviation_sq=dev))
    return ClosureReport(tuple(checks))
