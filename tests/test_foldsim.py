import ast
import hashlib
import inspect
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gyrolab import foldsim, geom, solids
from gyrolab.cli import main
from gyrolab.foldsim import check_closure, fold
from gyrolab.geom import mat_vec, vadd, vcross, vdot, vsub
from gyrolab.netgen import (
    Crease,
    Gluing,
    NetSquare,
    generate_nets,
    shared_edge,
    square_corners,
)
from gyrolab.qfield import ONE, ZERO, Q2
from gyrolab.solids import (
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
)
from gyrolab.symmetry import congruences, isometry_group


def perturb_strip_creases(net, targets):
    """Replace strip crease dihedrals; targets maps crease index -> degrees."""
    creases = []
    for c in net.creases:
        if c.piece == "strip" and max(c.a[0], c.b[0]) in targets:
            creases.append(c._replace(fold_target=targets[max(c.a[0], c.b[0])]))
        else:
            creases.append(c)
    return net._replace(creases=tuple(creases))


def test_fold_zero_matches_rhombicuboctahedron(net50):
    result = fold(net50, 0)
    assert result.matched
    assert result.target_name == "rhombicuboctahedron"
    assert result.closure.ok
    assert result.closure_residual == Q2(0)


def test_fold_45_matches_pseudo(net50):
    result = fold(net50, 45)
    assert result.matched
    assert result.target_name == "pseudo-rhombicuboctahedron"
    assert result.closure.ok
    assert result.closure_residual == Q2(0)


def test_fold_corner_sets_equal_target_vertex_sets(net50):
    for gyration, builder in ((0, build_rhombicuboctahedron),
                              (45, build_pseudo_rhombicuboctahedron)):
        result = fold(net50, gyration)
        corners = set()
        for sq in (sq for sqs in result.squares.values() for sq in sqs
                   if sq.role in ("face", "pole")):
            corners.update(sq.corners)
        assert corners == set(builder(Fraction(50)).vertices)


def test_fold_90_still_matches_rco(net50):
    # the cap has 4-fold symmetry, so a quarter-turn gyration is the same assembly
    result = fold(net50, 90)
    assert result.matched
    assert result.target_name == "rhombicuboctahedron"
    assert result.closure.ok


def test_correspondence_covers_all_18_face_squares(net50):
    result = fold(net50, 0)
    assert len(result.correspondence) == 18
    target = build_rhombicuboctahedron(Fraction(50))
    assert len(set(result.correspondence.values())) == 18  # all distinct quads
    for (piece, pos), fi in result.correspondence.items():
        placed = next(
            sq for sq in result.squares[piece] if sq.pos == pos
        )
        assert placed.corner_set() == frozenset(
            target.vertices[i] for i in target.faces[fi]
        )


def test_placed_squares_are_exact_unit_squares(net50):
    L = Q2(50)
    for gyration in (0, 45):
        result = fold(net50, gyration)
        for sq in (sq for sqs in result.squares.values() for sq in sqs):
            c = sq.corners
            for k in range(4):
                side = vsub(c[(k + 1) % 4], c[k])
                assert vdot(side, side) == L * L
            for a, b in ((0, 2), (1, 3)):
                d = vsub(c[b], c[a])
                assert vdot(d, d) == L * L * Q2(2)


@pytest.mark.parametrize("turn", [0, 45])
def test_each_crease_corner_is_folded_once(net50, turn):
    # a child takes the crease's two corners from its parent, the same objects
    placed = {(sq.piece, sq.pos): sq for sqs in fold(net50, turn).squares.values() for sq in sqs}
    for c in net50.creases:
        a, b = placed[(c.piece, c.a)], placed[(c.piece, c.b)]
        for g in shared_edge(a, b):
            assert a.corners[square_corners(a).index(g)] is b.corners[square_corners(b).index(g)]


def test_closure_check_details(net50):
    report = check_closure(fold(net50, 0))
    names = [c.name for c in report.checks]
    assert names.count("lap_joint") == 1
    assert names.count("tab_in_belt_square") == 8
    assert names.count("cap_edge_on_belt") == 8
    assert report.ok


def test_single_bad_crease_breaks_the_lap_joint(net50):
    bad = perturb_strip_creases(net50, {4: 90})
    result = fold(bad, 0)
    lap = next(c for c in result.closure.checks if c.name == "lap_joint")
    assert not lap.passed
    assert lap.distance > 1.0
    assert lap.witness
    assert not result.matched
    assert result.closure_residual > Q2(0)


def test_all_right_angle_creases_cannot_build_the_octagon(net50):
    # eight 90-degree folds wrap a 1x1 square tube twice: the lap square
    # coincides again, but nothing matches the target solid and the tabs
    # find no belt square
    bad = perturb_strip_creases(net50, {i: 90 for i in range(1, 9)})
    result = fold(bad, 0)
    assert not result.matched
    assert not result.closure.ok
    assert any(
        not c.passed and c.name == "tab_in_belt_square" for c in result.closure.checks
    )


def test_gyration_must_have_exact_trigonometry(net50):
    with pytest.raises(ValueError):
        fold(net50, 30)
    with pytest.raises(ValueError):
        fold(net50, 1)


def test_crease_target_must_have_exact_trigonometry(net50):
    bad = perturb_strip_creases(net50, {3: 60})
    with pytest.raises(ValueError):
        fold(bad, 0)


def test_missing_crease_is_an_inconsistent_instruction(net50):
    creases = tuple(
        c for c in net50.creases if not (c.piece == "strip" and max(c.a[0], c.b[0]) == 5)
    )
    with pytest.raises(ValueError, match="inconsistent gluing"):
        fold(net50._replace(creases=creases), 0)


def test_unknown_check_rejected(net50):
    bad = net50._replace(
        gluing=net50.gluing + (Gluing("staple", "strip", (0, 0), "strip", (1, 0), None),),
    )
    with pytest.raises(ValueError, match="inconsistent gluing"):
        fold(bad, 0)


def test_matching_is_stable_under_target_symmetries(net50):
    # composing the assembly with a symmetry of the target yields another
    # exact matching of face squares onto faces
    result = fold(net50, 0)
    target = build_rhombicuboctahedron(Fraction(50))
    face_sets = {
        frozenset(target.vertices[i] for i in f) for f in target.faces
    }
    group = isometry_group(target)
    rng = random.Random(23)
    for iso in rng.sample(list(group), 3):
        for sq in (sq for sqs in result.squares.values() for sq in sqs
                   if sq.role in ("face", "pole")):
            from gyrolab.geom import mat_vec

            mapped = frozenset(mat_vec(iso.matrix, c) for c in sq.corners)
            assert mapped in face_sets


def test_assembly_json(net50):
    doc = fold(net50, 45).to_json_dict()
    assert doc["schema"] == "gyrolab/1"
    assert doc["matched"] is True
    assert doc["target"] == "pseudo-rhombicuboctahedron"
    assert doc["closure_ok"] is True
    assert len(doc["squares"]["strip"]) == 9
    assert len(doc["correspondence"]) == 18
    from gyrolab.qfield import parse

    corner = doc["squares"]["cap_north"][0]["corners"][0]
    assert len(corner) == 3 and all(isinstance(parse(c), Q2) for c in corner)


# -- one crease-tree walk over netgen's layout ----------------------------------


def test_straight_creases_keep_every_square_where_the_svg_draws_it(net50):
    # the first piece at its frame, the strip in the plane x = t, and every
    # later piece at the identity root, in the plane z = 0
    straight = tuple(c._replace(fold_target=180) for c in net50.creases)
    flat_net = net50._replace(creases=straight)
    L = Q2(net50.edge_len)
    s = L / 2
    t = (Q2(1) + Q2(0, 1)) * s
    embed = {"strip": lambda x, y: (t, s - x, s - y)}
    folded = {"strip": fold(flat_net, 0).squares["strip"]}
    for piece in net50.pieces[1:]:
        embed[piece] = lambda x, y: (x, y, Q2(0))
        folded[piece] = foldsim._fold_piece(flat_net, piece, (0, 0), [
            (L * u, L * v, Q2(0)) for u, v in ((0, 0), (1, 0), (1, 1), (0, 1))])
    assert sum(len(sqs) for sqs in folded.values()) == 27
    squares = {(s.piece, s.pos): s for s in net50.squares}
    for piece, sqs in folded.items():
        for sq in sqs:
            flat = square_corners(squares[(piece, sq.pos)])
            assert sq.corners == tuple(embed[piece](L * u, L * v) for u, v in flat)


@pytest.mark.parametrize("step", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_a_hinge_turns_the_flat_continuation_about_the_crease_line(net50, step):
    # square (0, 0) laid on every square face of the rco, both ways round:
    # axis-aligned faces, and tilted ones whose side (sqrt2/2, -sqrt2/2, 0)
    # is an exact unit vector; the child folds towards -n by 180 - target
    rco = build_rhombicuboctahedron(50)
    L = Q2(50)
    faces = [[rco.vertices[i] for i in f] for f in rco.faces if len(f) == 4]
    assert len(faces) == 18
    for face, target in itertools.product(faces, range(0, 181, 45)):
        net = net50._replace(squares=(NetSquare("p", (0, 0), "face"), NetSquare("p", step, "face")),
                             creases=(Crease("p", (0, 0), step, target),), gluing=())
        for c in (face, face[::-1]):
            x, y = vsub(c[1], c[0]), vsub(c[3], c[0])
            n = vcross(x, y)

            def flat(g):  # the root's plane, continued past its edges
                return vadd(c[0], vadd(tuple(g[0] * v for v in x), tuple(g[1] * v for v in y)))

            root, child = foldsim._fold_piece(net, "p", (0, 0), c)
            assert root.corners == tuple(c)
            crease = [g for g in square_corners(child) if g in square_corners(root)]
            u = tuple(v / L for v in vsub(flat(crease[1]), flat(crease[0])))
            w = vsub(flat(crease[0]), flat((crease[0][0] - step[0], crease[0][1] - step[1])))
            if vdot(vcross(n, w), u) < 0:  # a turn about n x w takes w towards -n
                u = tuple(-v for v in u)
            m = rodrigues(u, *geom.exact_cos_sin(180 - target))
            for g, corner in zip(square_corners(child), child.corners):
                if g not in crease:
                    a = flat((g[0] - step[0], g[1] - step[1]))
                    assert corner == vadd(a, mat_vec(m, vsub(flat(g), a)))


@pytest.mark.parametrize("pieces,turn", [(3, 0), (3, 45), (2, 0), (2, 45)])
def test_a_piece_refolds_the_same_from_any_of_its_squares(net50, pieces, turn):
    net = net50 if pieces == 3 else two_piece_net(net50)
    for piece, squares in fold(net, turn).squares.items():
        for sq in squares:
            assert foldsim._fold_piece(net, piece, sq.pos, sq.corners) == squares


def test_cap_missing_a_tab_still_folds_onto_the_solid(net50):
    # the pole square stays on the polar axis whatever the cap's outline
    def kept(piece, pos):
        return (piece, pos) != ("cap_north", (2, 0))

    net = net50._replace(
        squares=tuple(s for s in net50.squares if kept(s.piece, s.pos)),
        creases=tuple(c for c in net50.creases if kept(c.piece, c.b)),
        gluing=tuple(g for g in net50.gluing
                     if kept(g.piece, g.pos) and kept(g.piece, (2 * g.pos[0], 2 * g.pos[1]))),
    )
    result = fold(net, 0)
    assert result.matched and result.closure.ok and len(result.closure.checks) == 15


def _without_crease(net, piece, a, b):
    return tuple(c for c in net.creases if (c.piece, {c.a, c.b}) != (piece, {a, b}))


def test_crease_between_non_adjacent_squares_is_inconsistent(net50):
    creases = _without_crease(net50, "cap_north", (0, 0), (1, 0)) + (
        Crease("cap_north", (0, 0), (2, 0), 135),
    )
    with pytest.raises(ValueError, match="inconsistent gluing"):
        fold(net50._replace(creases=creases), 0)


def test_crease_closing_a_loop_is_inconsistent(net50):
    # a second crease between strip squares 3 and 4 would be ignored by the walk
    creases = net50.creases + (Crease("strip", (3, 0), (4, 0), 90),)
    with pytest.raises(ValueError, match="inconsistent gluing"):
        fold(net50._replace(creases=creases), 0)


def test_cap_square_without_a_crease_path_is_inconsistent(net50):
    creases = _without_crease(net50, "cap_south", (0, 1), (0, 2))
    with pytest.raises(ValueError, match="inconsistent gluing"):
        fold(net50._replace(creases=creases), 45)


def test_strip_missing_a_square_is_inconsistent(net50):
    squares = tuple(s for s in net50.squares if (s.piece, s.pos) != ("strip", (3, 0)))
    with pytest.raises(ValueError, match="inconsistent gluing"):
        fold(net50._replace(squares=squares), 0)
    result = fold(net50, 0)
    result.squares = dict(
        result.squares, strip=[sq for sq in result.squares["strip"] if sq.pos != (3, 0)]
    )
    with pytest.raises(ValueError, match="inconsistent gluing"):
        check_closure(result)


@pytest.mark.parametrize("glue,match", [
    (Gluing("cap_edge_on_belt", "strip", (1, 0), "strip", None, (1, 1)), ""),
    (Gluing("tab_in_belt_square", "cap_east", (1, 0), "strip", None, None), ""),
    (Gluing("cap_edge_on_belt", "cap_east", (1, 0), "strip", None, (2, 0)), ""),
    (Gluing("cap_edge_on_belt", "cap_north", (0, 0), "strip", None, (2, 0)), ""),
    (Gluing("tab_in_belt_square", "cap_north", (2, 0), "cap_east", None, None), ""),
    (Gluing("lap_joint", "strip", (8, 0), "strip", (9, 0), None), ""),
    # looked up before the piece is refolded from it
    (Gluing("tab_in_belt_square", "cap_north", (5, 5), "strip", None, None),
     r": no square cap_north\(5, 5\)"),
], ids=["edge-to-a-square-the-piece-lacks", "tab-on-unknown-piece", "edge-on-unknown-piece",
        "edge-sharing-no-single-edge", "host-piece-unknown", "host-square-missing",
        "tab-square-the-piece-lacks"])
def test_gluing_on_a_wrong_piece_is_inconsistent(net50, glue, match):
    # a KeyError, TypeError or AttributeError would escape pytest.raises(ValueError)
    bad = net50._replace(gluing=net50.gluing + (glue,))
    with pytest.raises(ValueError, match="inconsistent gluing instruction" + match):
        fold(bad, 0)
    result = fold(net50, 0)
    result.net = bad
    with pytest.raises(ValueError, match="inconsistent gluing instruction" + match):
        check_closure(result)


# -- any net: pieces and gluings are data, and the gluing places every piece -----


def test_foldsim_names_no_piece_and_no_check():
    tree = ast.parse(inspect.getsource(foldsim))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and ast.get_docstring(node) is not None}
    net = generate_nets(50)
    names = set(net.pieces) | {g.check for g in net.gluing}
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and id(node) not in docstrings}
    assert len(names) == 6 and not any(name in text for name in names for text in strings)


def two_piece_net(net):
    """The strip and the south cap as one piece, "belt": the cap's pole moves
    to (0, 2), below strip square 1, and the crease that held the cap's tab
    (0, -2) joins its side square to strip square 1 in place of the tab.  The
    north cap is the second piece."""
    def move(piece, pos):
        if piece == "cap_south":
            return "belt", (pos[0], pos[1] + 2)
        return ("belt" if piece == "strip" else piece), pos

    def kept(piece, *positions):
        return ("cap_south", (0, -2)) not in ((piece, pos) for pos in positions)

    return net._replace(
        squares=tuple(NetSquare(*move(s.piece, s.pos), s.role)
                      for s in net.squares if kept(s.piece, s.pos)),
        creases=tuple(Crease(*move(c.piece, c.a), move(c.piece, c.b)[1], c.fold_target)
                      for c in net.creases),
        gluing=tuple(Gluing(g.check, *move(g.piece, g.pos), "belt", g.host_pos,
                            g.edge_with and move(g.piece, g.edge_with)[1])
                     for g in net.gluing if kept(g.piece, g.pos, g.edge_with)),
    )


@pytest.mark.parametrize("turn,target", [(0, "rhombicuboctahedron"), (90, "rhombicuboctahedron"),
                                         (45, "pseudo-rhombicuboctahedron"),
                                         (135, "pseudo-rhombicuboctahedron")])
def test_two_pieces_fold_into_either_solid(net50, turn, target):
    net = two_piece_net(net50)
    assert net.pieces == ("belt", "cap_north")
    assert (len(net.squares_of("belt")), len(net.creases_of("belt"))) == (17, 16)
    result = fold(net, turn)
    assert result.matched and result.target_name == target
    assert len(result.closure.checks) == 15 and result.closure.ok
    assert len(result.correspondence) == 18
    assert len(set(result.correspondence.values())) == 18


def test_a_later_piece_with_no_glue_square_on_a_placed_piece_is_inconsistent(net50):
    gluing = tuple(g for g in net50.gluing if g.piece != "cap_north")
    with pytest.raises(ValueError, match="inconsistent gluing instruction: cap_north"):
        fold(net50._replace(gluing=gluing), 0)


def test_a_net_without_squares_is_inconsistent(net50):
    with pytest.raises(ValueError, match="inconsistent gluing instruction"):
        fold(net50._replace(squares=(), creases=(), gluing=()), 0)


def test_each_cap_has_16_poses_and_the_caps_turn_chooses_the_solid(net50):
    # every pose the gluing allows on the strip: 2 ends of the belt x 8 turns
    placed = {"strip": fold(net50, 0).squares["strip"]}
    caps = [list({tuple(sq.corners for sq in squares): squares
                  for squares, misses in foldsim.poses(net50, piece, placed)
                  if not misses}.values())
            for piece in ("cap_north", "cap_south")]
    assert [len(cap) for cap in caps] == [16, 16]

    def pole(squares):
        return next(sq.corners for sq in squares if sq.role == "pole")

    faces = [sq for sq in placed["strip"] if sq.role == "face"]
    found, named = {"opposite": [], "same": []}, {}
    for north in caps[0]:
        for south in caps[1]:
            corners = frozenset(c for sq in faces + north + south if sq.role != "glue"
                                for c in sq.corners)
            if corners not in named:
                folded = solids.Polyhedron(sorted(corners))
                named[corners] = [name for name, build in _BUILDERS.items()
                                  if congruences(folded, build(50))]
            ends = "same" if pole(north)[0][2] == pole(south)[0][2] else "opposite"
            # the caps' relative turn is a multiple of 90 iff their poles' shadows agree
            square_turn = {c[:2] for c in pole(north)} == {c[:2] for c in pole(south)}
            found[ends].append((square_turn, named[corners]))
    assert len(found["opposite"]) == len(found["same"]) == 128
    assert sorted(found["opposite"]) == ([(False, ["pseudo-rhombicuboctahedron"])] * 64
                                         + [(True, ["rhombicuboctahedron"])] * 64)
    assert all(names == [] for _, names in found["same"])


_BUILDERS = {"rhombicuboctahedron": build_rhombicuboctahedron,
             "pseudo-rhombicuboctahedron": build_pseudo_rhombicuboctahedron}


@pytest.mark.parametrize("pieces,turn", [(3, turn) for turn in range(0, 360, 45)]
                         + [(2, 0), (2, 45)])
def test_folded_solid_is_congruent_to_its_target_only(net50, pieces, turn):
    # whatever frame the builders use: the hull of the folded face corners
    # is the named solid, moved, and not the other one
    result = fold(net50 if pieces == 3 else two_piece_net(net50), turn)
    folded = solids.Polyhedron(sorted({c for sqs in result.squares.values() for sq in sqs
                                       if sq.role in ("face", "pole") for c in sq.corners}))
    assert result.matched
    for name, build in _BUILDERS.items():
        want = len(isometry_group(build(50))) if name == result.target_name else 0
        assert len(congruences(folded, build(50))) == want


# -- closure by exact coincidence ----------------------------------------------


def _host_deviation(host, tab):
    """Geometric oracle, independent of corner-set lookups: exact squared
    distance witnessing how far the tab is from lying flat inside the host
    square by plane distance and containment, zero iff coplanar and
    contained."""
    c = host.corners
    normal = vcross(vsub(c[1], c[0]), vsub(c[3], c[0]))
    nn = vdot(normal, normal)
    worst = Q2(0)
    for p in tab.corners:
        off = vdot(normal, vsub(p, c[0]))
        plane_sq = off * off / nn
        if plane_sq > worst:
            worst = plane_sq
        signs = []
        excess = Q2(0)
        for k in range(4):
            edge = vsub(c[(k + 1) % 4], c[k])
            cr = vdot(vcross(edge, vsub(p, c[k])), normal)
            signs.append(cr.sign())
        if not (all(s >= 0 for s in signs) or all(s <= 0 for s in signs)):
            for k in range(4):
                edge = vsub(c[(k + 1) % 4], c[k])
                cr = vdot(vcross(edge, vsub(p, c[k])), normal)
                d_sq = cr * cr / (vdot(edge, edge) * nn)
                excess = max(excess, d_sq)
            worst = max(worst, excess)
    return worst


_CAP_TARGETS = [c.fold_target for c in generate_nets(50).creases if c.piece != "strip"]


# no shrinking, like the hull oracle: each step reruns the Q2 host search
@settings(max_examples=30, deadline=None,
          phases=[ph for ph in Phase if ph is not Phase.shrink])
@given(st.lists(st.sampled_from((0, 45, 90, 135, 180)),
                min_size=len(_CAP_TARGETS), max_size=len(_CAP_TARGETS)),
       st.sampled_from(range(0, 360, 45)))
@example(_CAP_TARGETS, 0)
@example(_CAP_TARGETS, 45)
@example([0] * 16, 0)  # every candidate pose lays a face square on the strip
def test_tab_lookup_agrees_with_the_geometric_host_search(net50, targets, gyration):
    drawn = iter(targets)
    creases = tuple(c if c.piece == "strip" else c._replace(fold_target=next(drawn))
                    for c in net50.creases)
    result = fold(net50._replace(creases=creases), gyration)
    belt = [sq for sq in result.squares["strip"] if sq.role == "face"]
    edges = {(c.piece, c.pos): c.passed for c in result.closure.checks
             if c.name == "cap_edge_on_belt"}
    for c in result.closure.checks:
        if c.name == "tab_in_belt_square":
            tab = next(sq for sq in result.squares[c.piece] if sq.pos == c.pos)
            assert c.passed == any(_host_deviation(h, tab).is_zero() for h in belt)
            # a tab turns about the edge it shares with its side square, so a
            # tab inside a belt square puts that edge on the square's edge
            assert not c.passed or edges[(c.piece, (c.pos[0] // 2, c.pos[1] // 2))]
        if not c.passed:
            assert c.deviation_sq > Q2(0)
    assert (result.closure_residual > Q2(0)) == (not result.closure.ok)


def test_one_flat_tab_crease_fails_only_that_tab(net50):
    creases = tuple(c._replace(fold_target=180)
                    if (c.piece, c.b) == ("cap_north", (2, 0)) else c
                    for c in net50.creases)
    result = fold(net50._replace(creases=creases), 0)
    failed = result.closure.failures()
    assert len(result.closure.checks) == 17
    assert [(c.name, c.piece, c.pos) for c in failed] == [
        ("tab_in_belt_square", "cap_north", (2, 0))
    ]
    assert result.matched
    assert result.closure_residual == failed[0].deviation_sq > Q2(0)


def test_text_report_lists_the_failed_checks_of_a_missed_match(net50, monkeypatch):
    real = foldsim._fold_piece

    def bent(*args):  # one corner of the strip's square 3 moved off the square
        return [sq._replace(corners=(vadd(sq.corners[0], (ONE, ZERO, ZERO)), *sq.corners[1:]))
                if (sq.piece, sq.pos) == ("strip", (3, 0)) else sq for sq in real(*args)]

    monkeypatch.setattr(foldsim, "_fold_piece", bent)
    result = fold(net50, 45)
    failed = result.closure.failures()
    lines = foldsim.text_report(result).splitlines()
    assert lines[:3] == ["fold-check: gyration 45",
                         f"closure: {17 - len(failed)}/17 checks passed,"
                         f" residual {result.closure_residual}",
                         "matched: NO (target pseudo-rhombicuboctahedron)"]
    assert len(lines) == 3 + len(failed) > 3
    for line, c in zip(lines[3:], failed):
        assert line.startswith(f"  {c.name} {c.piece}{c.pos}: {c.detail} (distance ")


@pytest.mark.parametrize("moved", [("strip", (3, 0)), ("cap_north", (2, 0))])
def test_a_bent_square_fails_a_lookup_without_raising(net50, monkeypatch, capsys, moved):
    # one corner of a placed face square, or of a glue tab, moved off the
    # square: the corner-set lookups behind the match and the closure catch it
    real = foldsim._fold_piece

    def bent(*args):
        return [sq._replace(corners=(vadd(sq.corners[0], (ONE, ZERO, ZERO)), *sq.corners[1:]))
                if (sq.piece, sq.pos) == moved else sq for sq in real(*args)]

    monkeypatch.setattr(foldsim, "_fold_piece", bent)
    for gyration in (0, 45):
        result = fold(net50, gyration)
        failed = result.closure.failures()
        assert not result.matched or (failed and all(c.deviation_sq > 0 for c in failed))
        assert main(["fold-check", "--gyration", str(gyration)]) == 1
    assert "Traceback" not in capsys.readouterr().err


# sha256 of the fold-check JSON at every turn: a change of layout or fold code
# must reproduce these bytes exactly
_PINNED_FOLD_SHA256 = {
    ("50", 0): "2a16709879badab0d4806eec66936933468f58feb3bc2fa91d5de9a3973845a3",
    ("50", 45): "f68e0445b6e0fa54fe25bd40f7290518c4913214f09b553c59bbf492a8604d0e",
    ("50", 90): "de7d02a5672d7836d7f1b434d188ad5176002c9c02678bc9ec59a1f97065ec2f",
    ("50", 135): "ab6d771cb0b34169e93527925e289d3c3a9e1cc9622c97a1dafefe7e5bc5146b",
    ("50", 180): "fe761aee06931f669a9b389b7bc232c7a42d69382c79da06eab52904c4bcb35d",
    ("50", 225): "d727022f0c713262471a8b1adede93ab95ce32ad957a021ac016b63e0d0dc289",
    ("50", 270): "ef5202b7dd8100795aeda6bb4ee89db34cb42c66940c312bf84509f693e3892f",
    ("50", 315): "105a670e03b206401ab0c679f2f4a37269efedcaa99865671f3a113e9a18bdd5",
    ("7/3", 0): "27a3e5dc6a568552ebcaf233253c7918efcaffcfd3be9b2b246d694e7de2c57a",
    ("7/3", 45): "667369c19700059844af4906130edc972d96154b5fc9ae15a8978e79fcffa3cb",
    ("7/3", 90): "b49e5ddcb925430d9160478568234f4f85268513ecc13e4370068ddbe92885a4",
    ("7/3", 135): "b4ed56c66885bc2af39a9c44e5de767f505a04396bbec7e3c062fd5ed176125a",
    ("7/3", 180): "207f9aab628df80599b93a8a02e9b5bbae1dc83585ccfd7e38087ac32cfff8d2",
    ("7/3", 225): "7369460621e075c6f9aa9205db563427bfc6abd563470e04fbf1d9c71e26d5ec",
    ("7/3", 270): "a015337e70a83e69717983c5d66b4c8e1e6e813672510376bf2757956a374113",
    ("7/3", 315): "1b8005f5a123d420e8701de88be4e79b400b588c01b271c7aad9e42ee28437e2",
}


@pytest.mark.parametrize("edge,turn", sorted(_PINNED_FOLD_SHA256))
def test_fold_json_is_pinned(edge, turn):
    doc = json.dumps(fold(generate_nets(Fraction(edge)), turn).to_json_dict(), indent=2)
    digest = hashlib.sha256((doc + "\n").encode()).hexdigest()
    assert digest == _PINNED_FOLD_SHA256[(edge, turn)]


# -- geom.turn against the Rodrigues rotation it replaced ------------------------


def rodrigues(u, cos, sin):
    """The rotation by (cos, sin) about the exact unit axis u: the general
    formula every crease and cap turn went through before ``geom.turn``."""
    ux, uy, uz = u
    one_c = ONE - cos
    return (
        (cos + ux * ux * one_c, ux * uy * one_c - uz * sin, ux * uz * one_c + uy * sin),
        (uy * ux * one_c + uz * sin, cos + uy * uy * one_c, uy * uz * one_c - ux * sin),
        (uz * ux * one_c - uy * sin, uz * uy * one_c + ux * sin, cos + uz * uz * one_c),
    )


@pytest.mark.parametrize("axis", [tuple(s * ONE if i == k else ZERO for i in range(3))
                                  for k in range(3) for s in (1, -1)], ids=str)
def test_turn_is_the_rodrigues_rotation(axis):
    for degrees in range(0, 360, 45):
        m = geom.turn(axis, degrees)
        assert m == rodrigues(axis, *geom.exact_cos_sin(degrees))
        assert all(type(x) is Q2 for row in m for x in row)


@pytest.mark.parametrize("axis,degrees", [((1, 1, 0), 45), ((0, 0, 2), 45), ((0, 0, 1), 30)])
def test_turn_refuses_what_has_no_exact_turn(axis, degrees):
    with pytest.raises(ValueError):
        geom.turn(axis, degrees)


def test_pseudo_points_are_the_rco_with_its_cap_turned_by_the_reference():
    m = rodrigues((ZERO, ZERO, ONE), *geom.exact_cos_sin(45))
    top = ONE + Q2(0, 1)
    want = {mat_vec(m, v) if v[2] == top else v for v in solids._rco_points()}
    assert solids._pseudo_points() == want
    assert len(want - solids._rco_points()) == 4
