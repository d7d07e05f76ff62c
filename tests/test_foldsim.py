import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gyrolab import foldsim
from gyrolab.cli import main
from gyrolab.foldsim import check_closure, fold
from gyrolab.geom import vadd, vcross, vdot, vsub
from gyrolab.netgen import Crease, Gluing, generate_nets, square_corners
from gyrolab.qfield import ONE, ZERO, Q2
from gyrolab.solids import (
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
)
from gyrolab.symmetry import isometry_group


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
        for sq in result.face_squares():
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
        for sq in result.placed():
            c = sq.corners
            for k in range(4):
                side = vsub(c[(k + 1) % 4], c[k])
                assert vdot(side, side) == L * L
            for a, b in ((0, 2), (1, 3)):
                d = vsub(c[b], c[a])
                assert vdot(d, d) == L * L * Q2(2)


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


def test_unknown_glue_kind_rejected(net50):
    bad = net50._replace(
        gluing=net50.gluing + (Gluing("staple", "strip", (0, 0), (1, 0)),),
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
        for sq in result.face_squares():
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


def _flat_embeddings(net):
    """Each piece's flat layout in space: the strip in the plane x = t, the
    caps in z = +-t, centred on the polar axis."""
    L = Q2(net.edge_len)
    s = L / 2
    t = (Q2(1) + Q2(0, 1)) * s
    c = L * Q2(Fraction(5, 2))
    return {
        "strip": lambda x, y: (t, s - x, s - y),
        "cap_north": lambda x, y: (x - c, y - c, t),
        "cap_south": lambda x, y: (x - c, y - c, -t),
    }


def test_straight_creases_keep_every_square_where_the_svg_draws_it(net50):
    straight = tuple(c._replace(fold_target=180) for c in net50.creases)
    flat_net = net50._replace(creases=straight)
    result = fold(flat_net, 0)
    embed = _flat_embeddings(net50)
    assert sum(len(sqs) for sqs in result.squares.values()) == 27
    squares = {(s.piece, s.pos): s for s in net50.squares}
    L = net50.edge_len
    for piece, sqs in result.squares.items():
        for sq in sqs:
            flat = square_corners(squares[(piece, sq.pos)])
            assert sq.corners == tuple(embed[piece](Q2(u * L), Q2(v * L)) for u, v in flat)


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


@pytest.mark.parametrize("glue", [
    Gluing("edge", "strip", (1, 0), None),
    Gluing("overlap", "cap_east", (1, 0), None),
    Gluing("edge", "cap_east", (1, 0), None),
    Gluing("edge", "cap_north", (0, 0), None),
], ids=["edge-on-strip", "overlap-on-unknown-piece", "edge-on-unknown-piece",
        "edge-sharing-no-single-edge"])
def test_gluing_on_a_wrong_piece_is_inconsistent(net50, glue):
    bad = net50._replace(gluing=net50.gluing + (glue,))
    with pytest.raises(ValueError, match="inconsistent gluing instruction"):
        fold(bad, 0)
    result = fold(net50, 0)
    result.net = bad
    with pytest.raises(ValueError, match="inconsistent gluing instruction"):
        check_closure(result)


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
def test_tab_lookup_agrees_with_the_geometric_host_search(net50, targets, gyration):
    drawn = iter(targets)
    creases = tuple(c if c.piece == "strip" else c._replace(fold_target=next(drawn))
                    for c in net50.creases)
    result = fold(net50._replace(creases=creases), gyration)
    belt = [sq for sq in result.squares["strip"] if sq.role == "face"]
    for c in result.closure.checks:
        if c.name == "tab_in_belt_square":
            tab = next(sq for sq in result.squares[c.piece] if sq.pos == c.pos)
            assert c.passed == any(_host_deviation(h, tab).is_zero() for h in belt)
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
    ("50", 0): "e15d4c6e38779e99d1c255889946ea7daff95e77298865ec6986d81fd507af73",
    ("50", 45): "17545af6eacf85966f51789c2bf2a029c9b103ec43f31d0b27f048d40ee53c43",
    ("50", 90): "3b2619abf5c23997e15d7b175a80ab8b1adaef92a568bd00b89d317bfc2bf6ee",
    ("50", 135): "6fae3f90a8a2f948968d8098d74c82b398a516cbf7e9f4eed945344a090bd9a6",
    ("50", 180): "f8b93ebbd04c8642aa78d9f245b73a2e9154e2ae96b7faf8ad98e248b305b610",
    ("50", 225): "ffe5bc535d2dce0aa9064a741cbca114ebc6cef73ff43b7284fb97ebedc2f70f",
    ("50", 270): "6b6ec5cd0a24702a074d2904b982236f147f5761ebc43fbd96cbc791debdeb44",
    ("50", 315): "0240ed17de038882beeba28a3ff49272106ad7e3271470e9b65108c0f28984b1",
    ("7/3", 0): "9d5eba3bb3c3ac0cabcc9fd57595d3649edf9e11d822793a5c0596a348e9b4e9",
    ("7/3", 45): "336f93829764a186777e046b6dfd20db2d554fa0b12deb6aa3265adbe2848f89",
    ("7/3", 90): "0f0e2dbba9054ac4d0ba68f3d31151b43df8fd23d5bcad97ff5cb149ad8cf3c6",
    ("7/3", 135): "609e4dc6f77134737a3838aad5c3a4daea995bc81dd021a544ee4128d9e148ad",
    ("7/3", 180): "47a8bf93324964e48e6897645010cd75cbe900294dcda047ff0bbad2509a41d1",
    ("7/3", 225): "feda67e7033e5fc35a97c6b33464b29ff820755921a64ac3c96ff4fa7b19d662",
    ("7/3", 270): "1a59cf09871a3aaa938371569396dbc2817904b1540374c693da55dae63289be",
    ("7/3", 315): "606aa985f8e97bd437216ef80083fe1dd540e32395220a679c26ebe0e1d761a2",
}


@pytest.mark.parametrize("edge,turn", sorted(_PINNED_FOLD_SHA256))
def test_fold_json_is_pinned(edge, turn):
    doc = json.dumps(fold(generate_nets(Fraction(edge)), turn).to_json_dict(), indent=2)
    digest = hashlib.sha256((doc + "\n").encode()).hexdigest()
    assert digest == _PINNED_FOLD_SHA256[(edge, turn)]
