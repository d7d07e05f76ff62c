"""Papercraft net generation: three pieces of 9 unit squares each.

One strip of 9 squares folds into the octagonal equatorial belt (8 walls
plus one lap-joint square glued under the first), and two cap pieces
close the poles.  A cap is a plus-pentomino - pole square in the middle,
four side squares on its edges - with a glue tab on the outer edge of
each side square, so the tabs land inside belt squares after folding.
Triangular faces are deliberately absent: they stay open on the model.

A net is data, and ``foldsim`` folds any net from it alone.  A square's
``pos`` is its cell on its piece's integer grid, in edge lengths, and a
piece's creases make a tree from square (0, 0).  ``square_corners`` and
``shared_edge`` read that grid, and the boxes, outlines and SVG draw it with
each piece's box moved to (0, 0), so the pieces that are folded are the
pieces that are printed.  A net carries no pose in space: ``foldsim`` poses
each piece from the gluing, and at turn 0 each cap lays its tab at cell
(2, 0) in strip square 1, the north cap's pole on +z and the south cap's on
-z.  A ``Gluing`` names its check (a key of ``CHECKS``, which holds the
detail texts), the glued square, its host and, for an edge, the neighbour
sharing it.

Every crease lies on a square-square edge of the rhombicuboctahedron: the
strip's join belt squares, a cap's join its pole to its sides, and a tab's
joins a side to the belt square the tab lands in.  So all creases share one
fold target, and the strip's ring gives it: its ``WALLS`` = 8 equal walls
close into a ring only if each crease turns 360 / 8 degrees, so the interior
dihedral is 180 - 45 = 135 degrees.  ``foldsim`` verifies it: it folds
every crease to that target in exact Q(sqrt2) and matches each face square
against the hull-built target solid, so a wrong angle fails ``fold-check``.

The module imports no module that builds a solid: a net, its layout and its
SVG are made from the squares and the edge alone.  An int edge stays an int,
so folding the default net loads no ``fractions``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from fractions import Fraction

PAPER_SIZES = {  # smallest first: a misfit suggests the first that fits
    "A4": (210, 297),
    "A3": (297, 420),
    "A2": (420, 594),
    "A1": (594, 841),
    "A0": (841, 1189),
}

MARGIN_MM = 10
GAP_MM = 5

PIECES = ("strip", "cap_north", "cap_south")
WALLS = 8  # the strip's belt squares; one more square laps under the first
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


class NetSquare(NamedTuple):
    piece: str
    pos: tuple[int, int]
    role: str  # "face" | "glue" | "pole"


class Crease(NamedTuple):
    piece: str
    a: tuple[int, int]
    b: tuple[int, int]
    fold_target: int  # interior dihedral, degrees


class Gluing(NamedTuple):
    check: str  # a key of CHECKS
    piece: str
    pos: tuple[int, int]  # the glued square
    host: str  # the host piece
    host_pos: Optional[tuple[int, int]]  # the host square; None: any face square of the host
    edge_with: Optional[tuple[int, int]]  # None: all corners glued; else the edge shared with it


class NetSpec(NamedTuple):
    edge_len: int | Fraction  # mm
    squares: tuple[NetSquare, ...]
    creases: tuple[Crease, ...]
    gluing: tuple[Gluing, ...]

    @property
    def pieces(self) -> tuple[str, ...]:
        """Each piece once, in the order of its first square."""
        return tuple(dict.fromkeys(sq.piece for sq in self.squares))

    def squares_of(self, piece: str) -> tuple[NetSquare, ...]:
        return tuple(s for s in self.squares if s.piece == piece)

    def creases_of(self, piece: str) -> tuple[Crease, ...]:
        return tuple(c for c in self.creases if c.piece == piece)


# each check's detail when it passes ({n}: the host square's number in its
# piece, in net order) and when it fails
CHECKS = {
    "lap_joint": ("glue square exactly overlaps the first square",
                  "strip does not close into the octagonal belt"),
    "tab_in_belt_square": ("tab coplanar with and inside strip square {n}",
                           "glue tab lies flat in no belt square"),
    "cap_edge_on_belt": ("outer edge coincides with an edge of strip square {n}",
                         "outer edge matches no belt square edge"),
}


# -- net construction ------------------------------------------------------------


def generate_nets(edge_len: int | Fraction = 50) -> NetSpec:
    """The three-piece net for a model with square side ``edge_len`` mm; an
    int edge stays an int, and any other becomes a ``Fraction``."""
    edge = edge_len
    if not isinstance(edge, int):
        from fractions import Fraction

        edge = Fraction(edge)
    if edge <= 0:
        raise ValueError("edge length must be positive")
    fold = 180 - 360 // WALLS  # the strip's walls close into a ring
    strip, *caps = PIECES
    squares: list[NetSquare] = []
    creases: list[Crease] = []
    gluing: list[Gluing] = []

    for i in range(WALLS + 1):
        role = "glue" if i == WALLS else "face"
        squares.append(NetSquare(strip, (i, 0), role))
    for i in range(1, WALLS + 1):
        creases.append(Crease(strip, (i - 1, 0), (i, 0), fold))
    gluing.append(Gluing("lap_joint", strip, (WALLS, 0), strip, (0, 0), None))

    for piece in caps:
        squares.append(NetSquare(piece, (0, 0), "pole"))
        for dx, dy in _CAP_DIRS:
            tab = (2 * dx, 2 * dy)
            squares.append(NetSquare(piece, (dx, dy), "face"))
            squares.append(NetSquare(piece, tab, "glue"))
            creases.append(Crease(piece, (0, 0), (dx, dy), fold))
            creases.append(Crease(piece, (dx, dy), tab, fold))
            gluing.append(Gluing("tab_in_belt_square", piece, tab, strip, None, None))
            gluing.append(Gluing("cap_edge_on_belt", piece, (dx, dy), strip, None, tab))

    return NetSpec(edge, tuple(squares), tuple(creases), tuple(gluing))


# -- 2D piece layout (edge lengths, y down) ------------------------------------


def square_corners(sq) -> tuple[tuple[int, int], ...]:
    """The four corners of a square (anything with a ``pos``) on its piece's
    grid, in the order ``PlacedSquare`` keeps: pos (x, y) is the cell
    [x, x + 1] x [y, y + 1], in edge lengths."""
    x, y = sq.pos
    return ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))


def shared_edge(a, b) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two grid corners squares a and b share, sorted; an inconsistent
    gluing instruction unless they share exactly one edge."""
    common = sorted(set(square_corners(a)).intersection(square_corners(b)))
    if len(common) != 2:
        raise ValueError(
            f"inconsistent gluing instruction: {a.piece} squares {a.pos} and"
            f" {b.pos} share no single edge"
        )
    return common[0], common[1]


def _piece_box(net: NetSpec, piece: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """The smallest and the largest grid corner of the piece."""
    xs, ys = zip(*(sq.pos for sq in net.squares_of(piece)))
    return (min(xs), min(ys)), (max(xs) + 1, max(ys) + 1)


def piece_bbox(net: NetSpec, piece: str) -> tuple[int | Fraction, int | Fraction]:
    """The width and height of the piece's layout box in mm."""
    (x0, y0), (x1, y1) = _piece_box(net, piece)
    return (x1 - x0) * net.edge_len, (y1 - y0) * net.edge_len


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


def _piece_outline_local(net: NetSpec, piece: str) -> list[tuple]:
    """Closed boundary polygon of the piece in mm from its box corner: the
    square sides that occur exactly once, walked in cyclic order, collinear
    runs merged."""
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
    (x0, y0), _ = _piece_box(net, piece)
    corners: list[tuple] = []
    for k in range(m):
        a, b, c = loop[k - 1], loop[k], loop[(k + 1) % m]
        if (b[0] - a[0]) * (c[1] - b[1]) != (b[1] - a[1]) * (c[0] - b[0]):
            corners.append(((b[0] - x0) * L, (b[1] - y0) * L))
    return corners


# -- packing ----------------------------------------------------------------------


def _pack(sizes, avail_w, avail_h):
    """Deterministic shelf packing of any number of boxes with optional
    90-degree rotation; returns (x, y, rotated) per box or None.  Columns
    are tried first; rows are columns on the transposed sheet.  A square
    box is never turned: that gives the dims of a smaller mask, tried first."""
    n = len(sizes)
    square = sum(1 << i for i, (w, h) in enumerate(sizes) if w == h)
    masks = [mask for mask in range(2 ** n) if not mask & square]
    for rows in (False, True):
        if rows:
            sizes = [(h, w) for w, h in sizes]
            avail_w, avail_h = avail_h, avail_w
        # consecutive shelves: one first, then fewer before more, earlier cuts first
        for cuts in (c for k in range(n) for c in itertools.combinations(range(1, n), k)):
            groups = [range(a, b) for a, b in zip((0, *cuts), (*cuts, n))]
            for mask in masks:
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
                x = 0
                for gi, g in enumerate(groups):
                    y = 0
                    for i in g:
                        xy = (y, x) if rows else (x, y)
                        out[i] = (*xy, bool((mask >> i) & 1))
                        y += dims[i][1] + GAP_MM
                    x += widths[gi] + GAP_MM
                return out
    return None


def resolve_paper(paper) -> tuple[str, tuple]:
    """(name, (width, height) in mm) of a standard sheet name or a
    WIDTHxHEIGHT text; ValueError for anything else."""
    name = str(paper).strip()
    if name.upper() in PAPER_SIZES:
        return name.upper(), PAPER_SIZES[name.upper()]
    if "x" in name.lower():
        from fractions import Fraction

        try:  # a side a float cannot hold, or holds as 0, cannot name the sheet
            w, h = map(Fraction, name.lower().split("x", 1))
            if float(w) > 0 and float(h) > 0:
                return f"{float(w):g}x{float(h):g}", (w, h)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        raise ValueError(f"bad paper size {paper!r}")
    raise ValueError(
        f"unknown paper {paper!r}; use A2, A3, A4 or WIDTHxHEIGHT in mm"
    )


def plan_layout(net: NetSpec, paper="A2"):
    """Where each piece lies on the sheet (piece -> (x, y, rotated)), or a
    DoesNotFitError naming the smallest standard sheet that would fit."""
    name, (pw, ph) = resolve_paper(paper)
    sizes = [piece_bbox(net, piece) for piece in net.pieces]
    placed = _pack(sizes, pw - 2 * MARGIN_MM, ph - 2 * MARGIN_MM)
    if placed is None:
        suggestion = None
        for cand, (cw, ch) in PAPER_SIZES.items():
            if _pack(sizes, cw - 2 * MARGIN_MM, ch - 2 * MARGIN_MM) is not None:
                suggestion = cand
                break
        raise DoesNotFitError(name, (pw, ph), suggestion)
    return name, (pw, ph), {
        piece: (MARGIN_MM + x, MARGIN_MM + y, rot)
        for piece, (x, y, rot) in zip(net.pieces, placed)
    }


# -- SVG ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return f"{float(v):.4f}".rstrip("0").rstrip(".")


def render_svg(net: NetSpec, paper="A2") -> str:
    """One printable SVG: solid 0.5 mm cut lines, dashed 0.35 mm creases,
    grey glue squares, 6 mm pole crosses, all scaled by L / 10 mm under a
    10 mm edge L; millimetre units, document size equal to the sheet;
    ValueError under 1/100 mm, which the SVG's 4 decimals move a corner by
    at most 1/200 of.  Byte-identical across runs for equal inputs."""
    from fractions import Fraction

    from . import __version__

    L = Fraction(net.edge_len)  # so L / 2 stays exact
    if L < Fraction(1, 100):
        raise ValueError(f"edge {L} mm is below the SVG's smallest edge, 1/100 mm")
    name, (pw, ph), layout = plan_layout(net, paper)
    rects: list[str] = []
    creases: list[str] = []
    cuts: list[str] = []
    poles: list[tuple] = []
    for piece in net.pieces:
        ox, oy, rot = layout[piece]
        (x0, y0), _ = _piece_box(net, piece)
        if rot:  # a clockwise quarter turn, then the translation
            ox += piece_bbox(net, piece)[1]

            def place(x, y):
                return ox - y, oy + x
        else:
            def place(x, y):
                return ox + x, oy + y

        def grid(u, v):  # a grid corner on the sheet
            return place((u - x0) * L, (v - y0) * L)

        squares = {sq.pos: sq for sq in net.squares_of(piece)}
        for pos in sorted(squares):
            sq = squares[pos]
            # the turn carries the bottom-left corner to the top-left
            u, v = square_corners(sq)[3 if rot else 0]
            rx, ry = grid(u, v)
            fill = "#cccccc" if sq.role == "glue" else "none"
            rects.append(
                f'    <rect class="square {sq.role}" x="{_fmt(rx)}" y="{_fmt(ry)}"'
                f' width="{_fmt(L)}" height="{_fmt(L)}" fill="{fill}" stroke="none"/>'
            )
            if sq.role == "pole":
                poles.append((rx + L / 2, ry + L / 2))
        for cr in sorted(net.creases_of(piece), key=lambda c: (c.a, c.b)):
            a, b = (grid(*pt) for pt in shared_edge(squares[cr.a], squares[cr.b]))
            creases.append(
                f'    <line class="crease" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}"'
                f' x2="{_fmt(b[0])}" y2="{_fmt(b[1])}" data-fold="{cr.fold_target}"/>'
            )
        d = " L ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in
                       (place(*pt) for pt in _piece_outline_local(net, piece)))
        cuts.append(f'    <path class="cut" d="M {d} Z"/>')

    w = min(1.0, float(L) / 10)  # marks shrink with squares under 10 mm
    body = ["  <g class=\"squares\">", *rects, "  </g>",
            f"  <g class=\"creases\" stroke=\"#000000\" stroke-width=\"{_fmt(0.35 * w)}\""
            f" stroke-dasharray=\"{_fmt(2 * w)} {_fmt(w)}\">", *creases, "  </g>",
            f"  <g class=\"cuts\" stroke=\"#000000\" stroke-width=\"{_fmt(0.5 * w)}\""
            " fill=\"none\">", *cuts, "  </g>"]
    k = 3 / math.sqrt(2.0) * w  # two 6 mm strokes
    for cx, cy in poles:
        body += [
            f"  <g class=\"pole-cross\" stroke=\"#000000\" stroke-width=\"{_fmt(0.5 * w)}\">",
            f'    <line x1="{_fmt(cx - k)}" y1="{_fmt(cy - k)}"'
            f' x2="{_fmt(cx + k)}" y2="{_fmt(cy + k)}"/>',
            f'    <line x1="{_fmt(cx - k)}" y1="{_fmt(cy + k)}"'
            f' x2="{_fmt(cx + k)}" y2="{_fmt(cy - k)}"/>',
            "  </g>",
        ]

    desc_lines = [
        f"gyrolab {__version__} papercraft net",
        f"square edge {float(L):g} mm; {len(net.pieces)} pieces, {len(net.squares)} squares,"
        f" {sum(sq.role == 'glue' for sq in net.squares)} glue squares",
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
