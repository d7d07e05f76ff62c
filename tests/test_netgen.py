import hashlib
import itertools
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import gyrolab
from gyrolab import netgen
from gyrolab.geom import centroid, exact_cos_sin, vcross, vdot, vsub
from gyrolab.netgen import (
    CHECKS,
    PIECES,
    DoesNotFitError,
    Gluing,
    generate_nets,
    piece_bbox,
    plan_layout,
    render_svg,
    resolve_paper,
    shared_edge,
)
from gyrolab.solids import (
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def float_dihedral_oracle(p) -> list[float]:
    """Independent check of the fold target: the interior dihedral on every
    square-square edge of the built solid p, in plain floating point, each
    face's normal taken from its vertex coordinates and turned outward."""
    pts = [tuple(float(c) for c in v) for v in p.vertices]
    centre = [sum(c) / len(pts) for c in zip(*pts)]

    def outward_unit_normal(fi):
        a, b, c = (pts[i] for i in p.faces[fi][:3])
        u, w = [y - x for x, y in zip(a, b)], [y - x for x, y in zip(a, c)]
        n = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        out = sum(n[k] * (sum(pts[i][k] for i in p.faces[fi]) / len(p.faces[fi]) - centre[k])
                  for k in range(3))
        scale = math.copysign(math.sqrt(sum(x * x for x in n)), out)
        return [x / scale for x in n]

    quads = {fi for fi, f in enumerate(p.faces) if len(f) == 4}
    dihedrals = []
    for fs in p.edge_faces.values():
        if len(fs) == 2 and quads.issuperset(fs):
            n1, n2 = map(outward_unit_normal, fs)
            cos = sum(a * b for a, b in zip(n1, n2))
            dihedrals.append(math.degrees(math.pi - math.acos(max(-1.0, min(1.0, cos)))))
    return dihedrals


def test_piece_inventory(net50):
    assert len(net50.squares) == 27
    roles = {}
    for s in net50.squares:
        roles[s.role] = roles.get(s.role, 0) + 1
    assert roles == {"face": 16, "glue": 9, "pole": 2}
    # face-role squares (including poles) cover exactly the 18 quads
    assert roles["face"] + roles["pole"] == 18
    for piece in ("strip", "cap_north", "cap_south"):
        assert len(net50.squares_of(piece)) == 9


def test_strip_structure(net50):
    strip = net50.squares_of("strip")
    assert [s.pos for s in sorted(strip, key=lambda s: s.pos)] == [
        (i, 0) for i in range(9)
    ]
    assert [s.role for s in sorted(strip, key=lambda s: s.pos)] == ["face"] * 8 + ["glue"]


def test_cap_structure(net50):
    for piece in ("cap_north", "cap_south"):
        cap = {s.pos: s.role for s in net50.squares_of(piece)}
        assert cap[(0, 0)] == "pole"
        assert sum(1 for r in cap.values() if r == "face") == 4
        assert sum(1 for r in cap.values() if r == "glue") == 4
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert cap[(dx, dy)] == "face"
            assert cap[(2 * dx, 2 * dy)] == "glue"


def test_creases_join_adjacent_squares_of_one_piece(net50):
    assert len(net50.creases) == 24
    squares = {(s.piece, s.pos) for s in net50.squares}
    for c in net50.creases:
        assert (c.piece, c.a) in squares and (c.piece, c.b) in squares
        assert abs(c.a[0] - c.b[0]) + abs(c.a[1] - c.b[1]) == 1


def test_shared_edge_is_the_crease_line(net50):
    squares = {(s.piece, s.pos): s for s in net50.squares}
    assert shared_edge(squares[("strip", (1, 0))], squares[("strip", (0, 0))]) == (
        (1, 0), (1, 1))
    pole, side = squares[("cap_north", (0, 0))], squares[("cap_north", (0, -1))]
    assert shared_edge(pole, side) == ((0, 0), (1, 0))
    for other in (squares[("cap_north", (2, 0))], pole):
        with pytest.raises(ValueError, match="inconsistent gluing instruction"):
            shared_edge(pole, other)


def test_fold_targets_derived_not_hardcoded(net50):
    # the net takes 135 from the strip's ring; both built solids measure it
    for build in (build_rhombicuboctahedron, build_pseudo_rhombicuboctahedron):
        dihedrals = float_dihedral_oracle(build(2))
        assert len(dihedrals) == 24
        assert all(abs(d - 135.0) < 1e-9 for d in dihedrals)
        assert {c.fold_target for c in net50.creases} == {round(d) for d in dihedrals}


def exact_square_square_cosines(p) -> set:
    """Exact counterpart of ``float_dihedral_oracle``: on every
    square-square edge of p, the sign and the square of the interior
    dihedral's cosine in Q(sqrt2), from outward normals n1, n2 as
    cos = -(n1 . n2) / (|n1| |n2|)."""
    centre = centroid(p.vertices)

    def outward_normal(fi):
        a, b, c = (p.vertices[i] for i in p.faces[fi][:3])
        n = vcross(vsub(b, a), vsub(c, a))
        face_centre = centroid([p.vertices[i] for i in p.faces[fi]])
        return n if vdot(n, vsub(face_centre, centre)).sign() > 0 else tuple(-x for x in n)

    quads = {fi for fi, f in enumerate(p.faces) if len(f) == 4}
    cosines = set()
    for fs in p.edge_faces.values():
        if len(fs) == 2 and quads.issuperset(fs):
            n1, n2 = map(outward_normal, fs)
            dot = vdot(n1, n2)
            cosines.add((-dot.sign(), dot * dot / (vdot(n1, n1) * vdot(n2, n2))))
    return cosines


@pytest.mark.parametrize("build", [build_rhombicuboctahedron, build_pseudo_rhombicuboctahedron],
                         ids=["rco", "pseudo"])
def test_fold_target_is_the_one_square_square_dihedral(build, net50):
    # the net's one crease angle, checked exactly against the built solid
    (target,) = {c.fold_target for c in net50.creases}
    cos, _ = exact_cos_sin(target)
    assert exact_square_square_cosines(build(2)) == {(cos.sign(), cos * cos)}


def test_gluing_instructions(net50):
    lap = [g for g in net50.gluing if g.check == "lap_joint"]
    assert lap == [Gluing("lap_joint", "strip", (8, 0), "strip", (0, 0), None)]
    tabs = [g for g in net50.gluing if g.check == "tab_in_belt_square"]
    assert len(tabs) == 8 and all(g.piece != "strip" and g.host == "strip" for g in tabs)
    assert all(g.host_pos is None and g.edge_with is None for g in tabs)
    edges = [g for g in net50.gluing if g.check == "cap_edge_on_belt"]
    assert len(edges) == 8 and all(g.host == "strip" and g.host_pos is None for g in edges)
    assert {(g.piece, g.edge_with) for g in edges} == {(g.piece, g.pos) for g in tabs}
    assert set(CHECKS) == {g.check for g in net50.gluing}


def test_generate_nets_deterministic(net50):
    assert generate_nets(50) == net50


def test_invalid_edge_rejected():
    with pytest.raises(ValueError):
        generate_nets(0)
    with pytest.raises(ValueError):
        generate_nets(Fraction(-3, 2))


def test_a2_layout_places_strip_along_long_axis(net50):
    name, (w, h), layout = plan_layout(net50, "A2")
    assert name == "A2" and (w, h) == (Fraction(420), Fraction(594))
    x, y, rotated = layout["strip"]
    assert rotated  # 450 mm strip only fits the 594 mm direction
    assert piece_bbox(net50, "strip") == (Fraction(450), Fraction(50))
    assert piece_bbox(net50, "cap_north") == (Fraction(250), Fraction(250))


def test_svg_element_counts(net50):
    svg = render_svg(net50, "A2")
    root = ET.fromstring(svg)
    rects = root.findall(f".//{SVG_NS}rect")
    assert len(rects) == 27
    assert sum(1 for r in rects if r.get("fill") == "#cccccc") == 9
    crosses = [g for g in root.findall(f".//{SVG_NS}g") if g.get("class") == "pole-cross"]
    assert len(crosses) == 2
    assert all(len(c.findall(f"{SVG_NS}line")) == 2 for c in crosses)
    cuts = [p for p in root.findall(f".//{SVG_NS}path") if p.get("class") == "cut"]
    assert len(cuts) == 3
    creases = [
        l for l in root.findall(f".//{SVG_NS}line")
        if l.get("class") == "crease"
    ]
    assert len(creases) == 24
    assert root.get("width") == "420mm" and root.get("height") == "594mm"


def test_svg_styles(net50):
    svg = render_svg(net50, "A2")
    assert 'stroke-width="0.5"' in svg
    assert 'stroke-width="0.35"' in svg
    assert "stroke-dasharray" in svg
    assert "#cccccc" in svg


@pytest.mark.parametrize("edge", ["1/100", "5"])
def test_svg_marks_fit_small_squares(edge):
    """Under a 10 mm edge L the marks shrink with the squares: each pole-cross
    stroke spans at most 0.6 L and every stroke is at most L/20 wide, up to
    the SVG's 4-decimal rounding."""
    L, slack = float(Fraction(edge)), 5e-5
    root = ET.fromstring(render_svg(generate_nets(Fraction(edge)), "A2"))
    groups = list(root.iter(f"{SVG_NS}g"))
    widths = [float(g.get("stroke-width")) for g in groups if g.get("stroke-width")]
    assert len(widths) == 4 and max(widths) <= L / 20 + slack
    strokes = [line for g in groups if g.get("class") == "pole-cross"
               for line in g.iter(f"{SVG_NS}line")]
    assert len(strokes) == 4
    for line in strokes:
        x1, y1, x2, y2 = (float(line.get(a)) for a in ("x1", "y1", "x2", "y2"))
        assert math.hypot(x2 - x1, y2 - y1) <= 0.6 * L + 2 * math.sqrt(2) * slack


def test_svg_coordinates_round_trip(net50):
    svg = render_svg(net50, "A2")
    root = ET.fromstring(svg)
    _, _, layout = plan_layout(net50, "A2")
    parsed = [
        (float(r.get("x")), float(r.get("y")),
         float(r.get("width")), float(r.get("height")))
        for r in root.findall(f".//{SVG_NS}rect")
    ]
    # a square at cell (u, v) of its piece's box (strip cells (i, 0), cap
    # cells centred on (2, 2)) sits at (u L, v L); a rotated piece is turned
    # a quarter clockwise, (x, y) -> (h - y, x), inside its h x w box
    L = Fraction(50)
    expected = []
    for piece in ("strip", "cap_north", "cap_south"):
        ox, oy, rot = layout[piece]
        h = L if piece == "strip" else 5 * L
        for sq in sorted(net50.squares_of(piece), key=lambda s: s.pos):
            u, v = sq.pos if piece == "strip" else (sq.pos[0] + 2, sq.pos[1] + 2)
            x, y = u * L, v * L
            rect = (ox + h - y - L, oy + x) if rot else (ox + x, oy + y)
            expected.append((float(rect[0]), float(rect[1]), 50.0, 50.0))
    assert len(parsed) == len(expected)
    for got, want in zip(parsed, expected):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-3


def test_svg_desc_counts_the_net(net50):
    def desc(net):
        return ET.fromstring(render_svg(net, "A2")).find(f"{SVG_NS}desc").text.splitlines()[1]

    assert desc(net50) == "square edge 50 mm; 3 pieces, 27 squares, 9 glue squares"
    squares = tuple(s for s in net50.squares if (s.piece, s.pos) != ("cap_north", (2, 0)))
    creases = tuple(c for c in net50.creases if (c.piece, c.b) != ("cap_north", (2, 0)))
    assert desc(net50._replace(squares=squares, creases=creases)) == (
        "square edge 50 mm; 3 pieces, 26 squares, 8 glue squares")


def test_svg_desc_names_the_running_version(net50, monkeypatch):
    monkeypatch.setattr(gyrolab, "__version__", "9.8.7")
    desc = ET.fromstring(render_svg(net50, "A2")).find(f"{SVG_NS}desc").text
    assert desc.splitlines()[0] == "gyrolab 9.8.7 papercraft net"


def test_svg_byte_identical_across_runs(net50):
    assert render_svg(net50, "A2") == render_svg(generate_nets(50), "A2")


def test_a4_at_50_suggests_a2(net50):
    with pytest.raises(DoesNotFitError) as exc:
        render_svg(net50, "A4")
    assert exc.value.suggestion == "A2"
    assert "A2" in str(exc.value)


def test_a4_at_30_suggests_a3():
    # the 150 mm strip-free dimension fits, but two 150 mm caps plus the
    # strip cannot share a 190 x 277 area; A3 is the smallest that works
    net = generate_nets(30)
    with pytest.raises(DoesNotFitError) as exc:
        render_svg(net, "A4")
    assert exc.value.suggestion == "A3"
    render_svg(net, "A3")  # fits


def test_custom_paper(net50):
    name, size = resolve_paper("600x600")
    assert size == (Fraction(600), Fraction(600))
    svg = render_svg(net50, "600x600")
    assert 'width="600mm"' in svg
    with pytest.raises(ValueError):
        resolve_paper("letter")
    with pytest.raises(ValueError):
        resolve_paper("0x100")
    with pytest.raises(ValueError, match="bad paper size"):  # a float would read it as 0
        resolve_paper("1e-400x100")


def test_a_paper_is_a_name_or_a_size_text(net50):
    # a (width, height) pair is no paper: a sheet that cannot exist is a
    # ValueError of its own, not a net that does not fit it
    for paper in ((-5, 100), (600, 600)):
        with pytest.raises(ValueError, match="unknown paper") as exc:
            render_svg(net50, paper)
        assert not isinstance(exc.value, DoesNotFitError)


def test_huge_edge_fits_nothing():
    net = generate_nets(300)
    with pytest.raises(DoesNotFitError) as exc:
        render_svg(net, "A2")
    assert exc.value.suggestion is None


def test_cap_outline_is_a_cross(net50):
    from gyrolab.netgen import _piece_outline_local

    pts = _piece_outline_local(net50, "cap_north")
    assert len(pts) == 12  # cross polygon has 12 corners
    xs = {float(x) for x, _ in pts}
    assert min(xs) == 0.0 and max(xs) == 250.0


# (edge, paper) -> each piece's "x,y" in PIECES order, ",R" when rotated; or
# the suggestion of the DoesNotFitError (None: no standard sheet fits).  Edge
# 10 on 125x85, 150x100 at 25/2 and 225x145 at 20 fit only as rows.
_PINNED_LAYOUTS = {
    ("10", "A4"): "10,10 10,25 10,80",
    ("10", "A3"): "10,10 10,25 10,80",
    ("10", "A2"): "10,10 10,25 10,80",
    ("10", "125x85"): "10,10 10,25 65,25",
    ("10", "85x125"): "10,10,R 25,10 25,65",
    ("10", "150x100"): "10,10 10,25 65,25",
    ("10", "225x145"): "10,10 10,25 10,80",
    ("10", "300x120"): "10,10 10,25 105,10",
    ("10", "120x300"): "10,10 10,25 10,80",
    ("10", "600x600"): "10,10 10,25 10,80",
    ("25/2", "A4"): "10,10 10,55/2 10,95",
    ("25/2", "A3"): "10,10 10,55/2 10,95",
    ("25/2", "A2"): "10,10 10,55/2 10,95",
    ("25/2", "125x85"): "A4",
    ("25/2", "85x125"): "A4",
    ("25/2", "150x100"): "10,10 10,55/2 155/2,55/2",
    ("25/2", "225x145"): "10,10 10,55/2 255/2,10",
    ("25/2", "300x120"): "10,10 10,55/2 255/2,10",
    ("25/2", "120x300"): "10,10,R 10,255/2 10,195",
    ("25/2", "600x600"): "10,10 10,55/2 10,95",
    ("20", "A4"): "10,10 10,35 10,140",
    ("20", "A3"): "10,10 10,35 10,140",
    ("20", "A2"): "10,10 10,35 10,140",
    ("20", "125x85"): "A4",
    ("20", "85x125"): "A4",
    ("20", "150x100"): "A4",
    ("20", "225x145"): "10,10 10,35 115,35",
    ("20", "300x120"): "A4",
    ("20", "120x300"): "A4",
    ("20", "600x600"): "10,10 10,35 10,140",
    ("30", "A4"): "A3",
    ("30", "A3"): "10,10 10,45 10,200",
    ("30", "A2"): "10,10 10,45 10,200",
    ("30", "125x85"): "A3",
    ("30", "85x125"): "A3",
    ("30", "150x100"): "A3",
    ("30", "225x145"): "A3",
    ("30", "300x120"): "A3",
    ("30", "120x300"): "A3",
    ("30", "600x600"): "10,10 10,45 10,200",
    ("50", "A4"): "A2",
    ("50", "A3"): "A2",
    ("50", "A2"): "10,10,R 65,10 65,265",
    ("50", "125x85"): "A2",
    ("50", "85x125"): "A2",
    ("50", "150x100"): "A2",
    ("50", "225x145"): "A2",
    ("50", "300x120"): "A2",
    ("50", "120x300"): "A2",
    ("50", "600x600"): "10,10 10,65 10,320",
    ("300", "A4"): None,
    ("300", "A3"): None,
    ("300", "A2"): None,
    ("300", "125x85"): None,
    ("300", "85x125"): None,
    ("300", "150x100"): None,
    ("300", "225x145"): None,
    ("300", "300x120"): None,
    ("300", "120x300"): None,
    ("300", "600x600"): None,
}


# sha256 of render_svg for each fitting case above: a change of layout or SVG
# code must reproduce these bytes exactly
_PINNED_SVG_SHA256 = {
    ("10", "120x300"):
        "d63bcdcdf76dee2ab7442d76d81fc9404a14e1014080aad9302d03f614da64e9",
    ("10", "125x85"):
        "e2fcae78c27098dd764adbe6cb98d20a8515c07bf6a89390a926889162565239",
    ("10", "150x100"):
        "27b7e85d6a21149e99993934adbdfb4845698fb0fba2f4dbd67fbaffb42ae445",
    ("10", "225x145"):
        "7538bd31e38d00b4d021ae21b733758e1edee38a14899f4bd1cb5f550d6bfdcd",
    ("10", "300x120"):
        "031d55cf802c86751e189e0f01721b09db4e589236bbb2e873d465ec3346df14",
    ("10", "600x600"):
        "77cbf1cbb96e228239e2d293e63f10163569b0238c7280659b7e6ba816725458",
    ("10", "85x125"):
        "de178945c81a5a5b44ff702fe497da860ddd17d156fc0a83b2cd0176c66ced15",
    ("10", "A2"):
        "e4c9da408d5ffff2268b3b7c8d93e2d5d218a4663b1019a64907e5532ca6d4bd",
    ("10", "A3"):
        "703e48c1bbd27e519044a14c8526730f314c66fb1e2e75e183fbdfee482756af",
    ("10", "A4"):
        "3137f0890b0224e26e0e897d7d297ca200826d9ebb21291d07ee4b31a410d162",
    ("20", "225x145"):
        "99f365d3561ffad9426675bb854b31029ffeb08d3a3654471dc31cd84878a84c",
    ("20", "600x600"):
        "aba747a83b9557a8bc514c2c0d7d2d3dde96c3215607479142db48f1d8aad898",
    ("20", "A2"):
        "04cc059cce8a7a13feee165e040d5f9c62502e13efb357e79a11dda92980cf25",
    ("20", "A3"):
        "f39eea0dc974ce2db8f239b684db3697a229d6db3135d3ab7762dabdbcbeffd5",
    ("20", "A4"):
        "71e217e55b28ee5e6dcf89cbd3dd699162e7fa6c085936920d883077129ef53d",
    ("25/2", "120x300"):
        "1376491a5ccc2034f783a7ba4a21693c303b6468db5ff77f377c68a6f7c8f25d",
    ("25/2", "150x100"):
        "0d58be96efd7aba74464aba9b0c33fe83017eab2728952fe34e6035cfe9e0794",
    ("25/2", "225x145"):
        "8ff0ae3f71eda5ad62190811ada91582f145508133f34710248ee95f36442d9d",
    ("25/2", "300x120"):
        "019045e3091378ac6dff6014533a598ad6aae3083b7b4e199a5610f6a86ce69d",
    ("25/2", "600x600"):
        "3a834151ec7939aa141578474b88c47ddd0fe53e32912f2c832c4bf42325791a",
    ("25/2", "A2"):
        "b8089329268fd454e925695527f92dcf5380815210f53c55de642aff43220e9f",
    ("25/2", "A3"):
        "1339009cae4ecc71d161bc8e82aba11586d867ff43bbcf6cfb974cbfc65b0ccf",
    ("25/2", "A4"):
        "de92966b377ad1b0c8c257c464e7519e07f9d0b9203b20d208a5bc74283f949e",
    ("30", "600x600"):
        "9e3ceb936b714c7048ca180916e516bcd25eb73d122370abe7278972b6fd9c42",
    ("30", "A2"):
        "ae9213165f0a7926c38dee83c952a111b4f335d7fc8893b710649b65736608e9",
    ("30", "A3"):
        "46556d6cfaecf815c2317a8a825de721c90bf10842d5ff3494e208cb57b0e6a6",
    ("50", "600x600"):
        "62a3b9da52e4e1a57f9c174797116804bb4afa9f2886c29ad9a0089bf334f039",
    ("50", "A2"):
        "2aab61372f36f8aca817b46d3abd9b066d9a58b11eed4dd6e79c41b905d6a4c9",
}

@pytest.mark.parametrize("edge,paper", sorted(_PINNED_LAYOUTS))
def test_plan_layout_is_pinned(edge, paper):
    net = generate_nets(Fraction(edge))
    want = _PINNED_LAYOUTS[(edge, paper)]
    if want is None or "," not in want:
        with pytest.raises(DoesNotFitError) as exc:
            plan_layout(net, paper)
        assert exc.value.suggestion == want
        return
    _, _, layout = plan_layout(net, paper)
    got = " ".join(
        f"{layout[piece][0]},{layout[piece][1]}" + (",R" if layout[piece][2] else "")
        for piece in PIECES
    )
    assert got == want
    svg = render_svg(net, paper).encode()
    assert hashlib.sha256(svg).hexdigest() == _PINNED_SVG_SHA256[(edge, paper)]


# -- the sheet packer against its full search -------------------------------------


# the three boxes, in order, cut into consecutive shelves
_SHELVES = (((0, 1, 2),), ((0,), (1, 2)), ((0, 1), (2,)), ((0,), (1,), (2,)))


def full_pack(sizes, avail_w, avail_h):
    """``netgen._pack`` of three boxes as it was: every rotation mask, square
    boxes too."""
    n = len(sizes)
    for rows in (False, True):
        if rows:
            sizes = [(h, w) for w, h in sizes]
            avail_w, avail_h = avail_h, avail_w
        for groups in _SHELVES:
            for mask in range(2 ** n):
                dims = [(sizes[i][1], sizes[i][0]) if (mask >> i) & 1 else sizes[i]
                        for i in range(n)]
                widths = [max(dims[i][0] for i in g) for g in groups]
                heights = [sum(dims[i][1] for i in g) + netgen.GAP_MM * (len(g) - 1)
                           for g in groups]
                total_w = sum(widths) + netgen.GAP_MM * (len(groups) - 1)
                if total_w > avail_w or any(h > avail_h for h in heights):
                    continue
                out = [None] * n
                x = Fraction(0)
                for gi, g in enumerate(groups):
                    y = Fraction(0)
                    for i in g:
                        xy = (y, x) if rows else (x, y)
                        out[i] = (*xy, bool((mask >> i) & 1))
                        y += dims[i][1] + netgen.GAP_MM
                    x += widths[gi] + netgen.GAP_MM
                return out
    return None


def _layout_or_error(net, paper):
    try:
        return plan_layout(net, paper)
    except DoesNotFitError as e:
        return str(e)


def test_packing_skips_only_turns_of_square_boxes(monkeypatch):
    # seeded edges with denominators 1, 2, 3 and 7 on standard and custom sheets
    rng = random.Random(29)
    edges = [Fraction(rng.randint(1, 140 * den), den) for den in (1, 2, 3, 7) for _ in range(8)]
    papers = ["A4", "A3", "A2", "200x500", "500x200", "90x1000", "333.3x444.4", "1500x260"]
    nets = [generate_nets(edge) for edge in edges]
    got = [_layout_or_error(net, paper) for net in nets for paper in papers]
    monkeypatch.setattr(netgen, "_pack", full_pack)
    assert got == [_layout_or_error(net, paper) for net in nets for paper in papers]
    misfits = sum(isinstance(g, str) for g in got)
    assert 0 < misfits < len(got)
    assert any("no standard sheet" in g for g in got if isinstance(g, str))


def test_two_piece_net_renders():
    from test_foldsim import two_piece_net
    root = ET.fromstring(render_svg(two_piece_net(generate_nets(30)), "A2"))
    assert len(root.findall(f".//{SVG_NS}rect")) == 26
    assert len([p for p in root.findall(f".//{SVG_NS}path") if p.get("class") == "cut"]) == 2
    # at edge 50 the 550 x 250 mm belt piece and a 250 mm cap need more than A2
    with pytest.raises(DoesNotFitError, match="A1"):
        render_svg(two_piece_net(generate_nets(50)), "A2")


@pytest.mark.parametrize("n", [1, 2, 4])
def test_pack_places_any_number_of_boxes_inside_the_sheet(n):
    rng = random.Random(n)
    placed = 0
    for _ in range(200):
        sizes = [(Fraction(rng.randint(10, 300)), Fraction(rng.randint(10, 300))) for _ in range(n)]
        sheet = (Fraction(rng.randint(100, 600)), Fraction(rng.randint(100, 600)))
        out = netgen._pack(sizes, *sheet)
        if out is None:
            continue
        placed += 1
        boxes = []
        for (w, h), (x, y, turned) in zip(sizes, out):
            w, h = (h, w) if turned else (w, h)
            assert 0 <= x and x + w <= sheet[0] and 0 <= y and y + h <= sheet[1]
            boxes.append((x, y, x + w, y + h))
        for a, b in itertools.combinations(boxes, 2):
            assert a[2] <= b[0] or b[2] <= a[0] or a[3] <= b[1] or b[3] <= a[1]
    assert placed >= 20
