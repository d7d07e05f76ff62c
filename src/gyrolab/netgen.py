"""Papercraft net generation: three pieces of 9 unit squares each.

One strip of 9 squares folds into the octagonal equatorial belt (8 walls
plus one lap-joint square glued under the first), and two cap pieces
close the poles.  A cap is a plus-pentomino - pole square in the middle,
four side squares on its edges - with a glue tab on the outer edge of
each side square, so the tabs land inside belt squares after folding.
Triangular faces are deliberately absent: they stay open on the model.

This module alone decides the flat layout: ``square_cell`` puts each square
on an integer grid in edge lengths, ``square_corners`` gives its corners and
``shared_edge`` the edge two squares share.  The piece boxes, outlines and
SVG, and ``foldsim``'s fold and closure checks, all read those, so the pieces
that are folded are the pieces that are printed.

Fold targets are interior dihedral angles derived from the built solid,
not hard-coded; every crease of these nets comes out at the square-square
dihedral (135 degrees), whose trigonometry is exact over Q(sqrt2).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import belts as belts_mod
from .geom import cycle_order, vdot
from .qfield import Q2
from .solids import Polyhedron, build_rhombicuboctahedron

PAPER_SIZES = {
    "A4": (Fraction(210), Fraction(297)),
    "A3": (Fraction(297), Fraction(420)),
    "A2": (Fraction(420), Fraction(594)),
    "A1": (Fraction(594), Fraction(841)),
    "A0": (Fraction(841), Fraction(1189)),
}
_STANDARD_ORDER = ("A4", "A3", "A2", "A1", "A0")

MARGIN_MM = Fraction(10)
GAP_MM = Fraction(5)
MIN_SVG_EDGE = Fraction(1, 100)  # the SVG's 4 decimals move a corner by <= 1/200 of it

PIECES = ("strip", "cap_north", "cap_south")
_CAP_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class DoesNotFitError(ValueError):
    def __init__(self, paper_name: str, size, suggestion: Optional[str]) -> None:
        w, h = size
        hint = (
            f"; smallest standard sheet that fits: {suggestion}"
            if suggestion
            else "; no standard sheet up to A0 fits"
        )
        super().__init__(
            f"pieces do not fit {paper_name} ({float(w):g}x{float(h):g} mm){hint}"
        )
        self.paper_name = paper_name
        self.suggestion = suggestion


@dataclass(frozen=True)
class NetSquare:
    piece: str
    pos: tuple[int, int]
    role: str  # "face" | "glue" | "pole"


@dataclass(frozen=True)
class Crease:
    piece: str
    a: tuple[int, int]
    b: tuple[int, int]
    fold_target: int  # interior dihedral, degrees


@dataclass(frozen=True)
class Gluing:
    kind: str  # "overlap" | "edge"
    piece: str
    pos: tuple[int, int]
    target_pos: Optional[tuple[int, int]]  # None: any belt square, resolved at assembly


@dataclass(frozen=True)
class NetSpec:
    edge_len: Fraction  # mm
    squares: tuple[NetSquare, ...]
    creases: tuple[Crease, ...]
    gluing: tuple[Gluing, ...]

    def squares_of(self, piece: str) -> tuple[NetSquare, ...]:
        return tuple(s for s in self.squares if s.piece == piece)

    def creases_of(self, piece: str) -> tuple[Crease, ...]:
        return tuple(c for c in self.creases if c.piece == piece)


# -- fold-target derivation ----------------------------------------------------


def _interior_dihedral_degrees(p: Polyhedron, f1: int, f2: int) -> int:
    """Interior dihedral between two adjacent faces, matched against the
    exactly representable angles {0, 45, 90, 135, 180}."""
    n1, n2 = p.face_normal(f1), p.face_normal(f2)
    dot = vdot(n1, n2)
    lhs = dot * dot
    nn = vdot(n1, n1) * vdot(n2, n2)
    from .geom import exact_cos_sin

    for deg in (0, 45, 90, 135, 180):
        cos_d, _ = exact_cos_sin(deg)
        # cos(interior) = -dot/|n1||n2|  =>  compare squares plus the sign
        if lhs == cos_d * cos_d * nn and (-dot).sign() == cos_d.sign():
            return deg
    raise ValueError("dihedral angle has no exact Q(sqrt2) trigonometry")


def _derive_fold_targets() -> dict[str, int]:
    """Measure crease targets on the built solid: belt-to-belt for the
    strip, pole-to-side for the caps, and the angle that lays a tab into
    its host belt square (side-to-belt, since coplanar-with-host means
    equal dihedrals).  Scale-free, so the unit build suffices."""
    p = build_rhombicuboctahedron(2)
    zbelt = next(
        b
        for b in belts_mod.find_belts(p)
        if b.plane_normal == (Q2(0), Q2(0), Q2(1))
    )
    strip_target = _interior_dihedral_degrees(p, zbelt.faces[0], zbelt.faces[1])
    north_pole = zbelt.pole_faces[0]
    assert p.face_center(north_pole)[2].sign() > 0
    pole_face = p.faces[north_pole]
    side = None
    for k in range(4):
        e = tuple(sorted((pole_face[k], pole_face[(k + 1) % 4])))
        g = p.other_face(e, north_pole)
        if len(p.faces[g]) == 4:
            side = (e, g)
            break
    cap_side_target = _interior_dihedral_degrees(p, north_pole, side[1])
    # the tab continues past the side square's outer edge into the belt face
    outer = belts_mod._opposite_edge(p.faces[side[1]], side[0])
    host = p.other_face(outer, side[1])
    tab_target = _interior_dihedral_degrees(p, side[1], host)
    return {"strip": strip_target, "cap_side": cap_side_target, "cap_tab": tab_target}


# -- net construction ------------------------------------------------------------


def generate_nets(edge_len: Fraction | int = 50) -> NetSpec:
    """The three-piece net for a model with square side ``edge_len`` mm."""
    edge = Fraction(edge_len)
    if edge <= 0:
        raise ValueError("edge length must be positive")
    targets = _derive_fold_targets()

    squares: list[NetSquare] = []
    creases: list[Crease] = []
    gluing: list[Gluing] = []

    for i in range(9):
        role = "glue" if i == 8 else "face"
        squares.append(NetSquare("strip", (i, 0), role))
    for i in range(1, 9):
        creases.append(Crease("strip", (i - 1, 0), (i, 0), targets["strip"]))
    gluing.append(Gluing("overlap", "strip", (8, 0), (0, 0)))

    for piece in ("cap_north", "cap_south"):
        squares.append(NetSquare(piece, (0, 0), "pole"))
        for dx, dy in _CAP_DIRS:
            squares.append(NetSquare(piece, (dx, dy), "face"))
            squares.append(NetSquare(piece, (2 * dx, 2 * dy), "glue"))
            creases.append(Crease(piece, (0, 0), (dx, dy), targets["cap_side"]))
            creases.append(
                Crease(piece, (dx, dy), (2 * dx, 2 * dy), targets["cap_tab"])
            )
            gluing.append(Gluing("overlap", piece, (2 * dx, 2 * dy), None))
            gluing.append(Gluing("edge", piece, (dx, dy), None))

    return NetSpec(edge, tuple(squares), tuple(creases), tuple(gluing))


# -- 2D piece layout (edge lengths, y down) ------------------------------------


def square_cell(sq) -> tuple[int, int]:
    """The cell of a square (anything with ``piece`` and ``pos``) in its
    piece's layout, in edge lengths from the layout corner: strip cells run
    along x, and a cap's pole sits at (2, 2)."""
    x, y = sq.pos
    return (x, y) if sq.piece == "strip" else (x + 2, y + 2)


def square_corners(sq) -> tuple[tuple[int, int], ...]:
    """The square's four layout corners, in the order ``PlacedSquare`` keeps."""
    x, y = square_cell(sq)
    return ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))


def shared_edge(a, b) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two layout corners squares a and b share, sorted; an inconsistent
    gluing instruction unless they share exactly one edge."""
    common = sorted(set(square_corners(a)).intersection(square_corners(b)))
    if len(common) != 2:
        raise ValueError(
            f"inconsistent gluing instruction: {a.piece} squares {a.pos} and"
            f" {b.pos} share no single edge"
        )
    return common[0], common[1]


def piece_bbox(net: NetSpec, piece: str) -> tuple[Fraction, Fraction]:
    """The piece's layout box in mm: its largest cell corner."""
    w, h = map(max, zip(*(square_corners(sq)[2] for sq in net.squares_of(piece))))
    return w * net.edge_len, h * net.edge_len


def _piece_outline_local(net: NetSpec, piece: str) -> list[tuple]:
    """Closed boundary polygon of the piece in mm: the square sides that
    occur exactly once, walked in cyclic order, collinear runs merged."""
    sides = Counter()
    for sq in net.squares_of(piece):
        c = square_corners(sq)
        sides.update(tuple(sorted((c[k - 1], c[k]))) for k in range(4))
    adj: dict[tuple, list[tuple]] = {}
    for (a, b), n in sides.items():
        if n == 1:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    loop = cycle_order({pt: sorted(ns) for pt, ns in adj.items()})
    L, m = net.edge_len, len(loop)
    corners: list[tuple] = []
    for k in range(m):
        a, b, c = loop[k - 1], loop[k], loop[(k + 1) % m]
        if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0]):
            corners.append((b[0] * L, b[1] * L))
    return corners


# -- packing ----------------------------------------------------------------------


# the three boxes, in order, cut into consecutive shelves
_SHELVES = (((0, 1, 2),), ((0,), (1, 2)), ((0, 1), (2,)), ((0,), (1,), (2,)))


def _pack(sizes, avail_w: Fraction, avail_h: Fraction):
    """Deterministic shelf packing of three boxes with optional
    90-degree rotation; returns (x, y, rotated) per box or None.  Columns
    are tried first; rows are columns on the transposed sheet."""
    n = len(sizes)
    for rows in (False, True):
        if rows:
            sizes = [(h, w) for w, h in sizes]
            avail_w, avail_h = avail_h, avail_w
        for groups in _SHELVES:
            for mask in range(2 ** n):
                dims = [
                    (sizes[i][1], sizes[i][0]) if (mask >> i) & 1 else sizes[i]
                    for i in range(n)
                ]
                widths = [max(dims[i][0] for i in g) for g in groups]
                heights = [
                    sum(dims[i][1] for i in g) + GAP_MM * (len(g) - 1)
                    for g in groups
                ]
                total_w = sum(widths) + GAP_MM * (len(groups) - 1)
                if total_w > avail_w or any(h > avail_h for h in heights):
                    continue
                out = [None] * n
                x = Fraction(0)
                for gi, g in enumerate(groups):
                    y = Fraction(0)
                    for i in g:
                        xy = (y, x) if rows else (x, y)
                        out[i] = (*xy, bool((mask >> i) & 1))
                        y += dims[i][1] + GAP_MM
                    x += widths[gi] + GAP_MM
                return out
    return None


def resolve_paper(paper) -> tuple[str, tuple[Fraction, Fraction]]:
    if isinstance(paper, str):
        name = paper.strip()
        if name.upper() in PAPER_SIZES:
            return name.upper(), PAPER_SIZES[name.upper()]
        if "x" in name.lower():
            try:  # a size too large for a float cannot name the sheet
                w, h = map(Fraction, name.lower().split("x", 1))
                if w > 0 and h > 0:
                    return f"{float(w):g}x{float(h):g}", (w, h)
            except (ValueError, ZeroDivisionError, OverflowError):
                pass
            raise ValueError(f"bad paper size {paper!r}")
        raise ValueError(
            f"unknown paper {paper!r}; use A2, A3, A4 or WIDTHxHEIGHT in mm"
        )
    w, h = paper
    return f"{float(w):g}x{float(h):g}", (Fraction(w), Fraction(h))


def plan_layout(net: NetSpec, paper="A2"):
    """Placements (piece -> (x, y, rotated)) on the sheet, or a
    DoesNotFitError naming the smallest standard sheet that would fit."""
    name, (pw, ph) = resolve_paper(paper)
    sizes = [piece_bbox(net, piece) for piece in PIECES]
    placed = _pack(sizes, pw - 2 * MARGIN_MM, ph - 2 * MARGIN_MM)
    if placed is None:
        suggestion = None
        for cand in _STANDARD_ORDER:
            cw, ch = PAPER_SIZES[cand]
            if _pack(sizes, cw - 2 * MARGIN_MM, ch - 2 * MARGIN_MM) is not None:
                suggestion = cand
                break
        raise DoesNotFitError(name, (pw, ph), suggestion)
    return name, (pw, ph), {
        piece: (MARGIN_MM + x, MARGIN_MM + y, rot)
        for piece, (x, y, rot) in zip(PIECES, placed)
    }


# -- SVG ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return f"{float(v):.4f}".rstrip("0").rstrip(".")


def render_svg(net: NetSpec, paper="A2") -> str:
    """One printable SVG: solid 0.5 mm cut lines, dashed 0.35 mm creases,
    grey glue squares, 6 mm pole crosses; millimetre units, document size
    equal to the sheet; ValueError under ``MIN_SVG_EDGE``.  Byte-identical
    across runs for equal inputs."""
    L = net.edge_len
    if L < MIN_SVG_EDGE:
        raise ValueError(f"edge {L} mm is below the SVG's smallest edge, {MIN_SVG_EDGE} mm")
    name, (pw, ph), layout = plan_layout(net, paper)
    rects: list[str] = []
    creases: list[str] = []
    cuts: list[str] = []
    poles: list[tuple] = []
    for piece in PIECES:
        ox, oy, rot = layout[piece]
        if rot:  # a clockwise quarter turn, then the translation
            ox += piece_bbox(net, piece)[1]

            def place(x, y):
                return ox - y, oy + x
        else:
            def place(x, y):
                return ox + x, oy + y

        squares = {sq.pos: sq for sq in net.squares_of(piece)}
        for pos in sorted(squares):
            sq = squares[pos]
            # the turn carries the bottom-left corner to the top-left
            u, v = square_corners(sq)[3 if rot else 0]
            rx, ry = place(u * L, v * L)
            fill = "#cccccc" if sq.role == "glue" else "none"
            rects.append(
                f'    <rect class="square {sq.role}" x="{_fmt(rx)}" y="{_fmt(ry)}"'
                f' width="{_fmt(L)}" height="{_fmt(L)}" fill="{fill}" stroke="none"/>'
            )
            if sq.role == "pole":
                poles.append((rx + L / 2, ry + L / 2))
        for cr in sorted(net.creases_of(piece), key=lambda c: (c.a, c.b)):
            a, b = (place(x * L, y * L)
                    for x, y in shared_edge(squares[cr.a], squares[cr.b]))
            creases.append(
                f'    <line class="crease" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}"'
                f' x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" data-fold="{cr.fold_target}"/>'
            )
        d = " L ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in
                       (place(*pt) for pt in _piece_outline_local(net, piece)))
        cuts.append(f'    <path class="cut" d="M {d} Z"/>')

    body = ["  <g class=\"squares\">", *rects, "  </g>",
            "  <g class=\"creases\" stroke=\"#000000\" stroke-width=\"0.35\""
            " stroke-dasharray=\"2 1\">", *creases, "  </g>",
            "  <g class=\"cuts\" stroke=\"#000000\" stroke-width=\"0.5\""
            " fill=\"none\">", *cuts, "  </g>"]
    k = 3 / math.sqrt(2.0)  # two 6 mm strokes
    for cx, cy in poles:
        body += [
            "  <g class=\"pole-cross\" stroke=\"#000000\" stroke-width=\"0.5\">",
            f'    <line x1="{_fmt(cx - k)}" y1="{_fmt(cy - k)}"'
            f' x2="{_fmt(cx + k)}" y2="{_fmt(cy + k)}"/>',
            f'    <line x1="{_fmt(cx - k)}" y1="{_fmt(cy + k)}"'
            f' x2="{_fmt(cx + k)}" y2="{_fmt(cy - k)}"/>',
            "  </g>",
        ]

    desc_lines = [
        "gyrolab 0.1.0 papercraft net",
        f"square edge {float(L):g} mm; 3 pieces, 27 squares, 9 glue squares",
        "strip: 9 squares (8 belt walls + 1 lap-joint square glued under square 1)",
        "caps: pole square + 4 side squares + 4 glue tabs on the side squares'"
        " outer edges (layout interpretation: tabs fold inside the belt)",
        "assembly: caps aligned (gyration 0) -> rhombicuboctahedron;"
        " one cap turned 45 degrees -> pseudo-rhombicuboctahedron",
        "triangular faces intentionally open",
    ]
    desc = "\n".join(desc_lines)
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(pw)}mm"'
        f' height="{_fmt(ph)}mm" viewBox="0 0 {_fmt(pw)} {_fmt(ph)}">\n'
        f"  <title>gyrolab net ({name})</title>\n"
        f"  <desc>{desc}</desc>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"
