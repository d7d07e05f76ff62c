import itertools
import json
import random

import pytest
from conftest import (
    OCTAGONAL_PRISM,
    RHOMBOHEDRON,
    TRUNCATED_CUBE,
    TRUNCATED_CUBOCTAHEDRON,
    make_box,
    noisy_off,
)

from gyrolab.analysis import (
    _faces_regular,
    analyze,
    compare,
    comparison_json,
    report_json,
    text_report,
)
from gyrolab.qfield import Q2
from gyrolab.solids import Polyhedron, convex_hull_faces, read_off, write_off


def test_rco_is_archimedean_candidate(rco):
    r = analyze(rco, name="rco")
    assert not r.partial
    assert r.uniform_vertex_figure
    assert r.vertex_figures == ((3, 4, 4, 4),)
    assert r.faces_regular
    assert r.archimedean_candidate
    assert not r.pseudo_uniform


def test_pseudo_is_uniform_but_not_transitive(pseudo):
    r = analyze(pseudo, name="pseudo")
    assert r.uniform_vertex_figure
    assert r.vertex_figures == ((3, 4, 4, 4),)
    assert r.faces_regular
    assert not r.archimedean_candidate
    assert r.pseudo_uniform


def test_flags_mutually_exclusive(rco, pseudo, cube):
    for p in (rco, pseudo, cube):
        r = analyze(p)
        assert not (r.archimedean_candidate and r.pseudo_uniform)


def test_cube_is_candidate(cube):
    r = analyze(cube, name="cube")
    assert r.archimedean_candidate
    assert r.vertex_figures == ((4, 4, 4),)


def test_irregular_faces_are_neither_candidate_nor_pseudo():
    # the box is vertex-transitive, the corner tetrahedron has one vertex
    # figure and is not; neither has regular faces
    corner = [(Q2(x), Q2(y), Q2(z)) for x, y, z in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for p in (make_box(), Polyhedron(corner, convex_hull_faces(corner))):
        r = analyze(p)
        assert not r.partial and r.uniform_vertex_figure and not r.faces_regular
        assert not r.archimedean_candidate
        assert not r.pseudo_uniform


def _equilateral_solids():
    """Two solids with every edge of length 2 whose faces are still not
    regular: a rhombohedron, whose rhombi have corners of 60 and 120 degrees
    (equal cos^2, opposite sides of 90), and a prism over a hexagon with
    corners of 135 and 90 degrees (unequal cos^2)."""
    r = Q2(0, 1)  # sqrt2
    steps = [(2, 0), (r, r), (-r, r), (-2, 0), (-r, -r), (r, -r)]
    ring = list(itertools.accumulate(steps, lambda p, d: (p[0] + d[0], p[1] + d[1]),
                                     initial=(Q2(0), Q2(0))))[:-1]
    prism = [(x, y, Q2(z)) for x, y in ring for z in (0, 2)]
    return [Polyhedron(sorted(pts), convex_hull_faces(sorted(pts)))
            for pts in (RHOMBOHEDRON, prism)]


def test_equal_edges_with_unequal_corners_are_not_regular():
    for p in _equilateral_solids():
        assert {len(f) for f in p.faces} in ({4}, {4, 6})
        for q in (p, read_off(write_off(p))):
            assert not analyze(q).partial
            assert not _faces_regular(q)


_REGULAR_FACED = {"truncated cube": TRUNCATED_CUBE,
                  "truncated cuboctahedron": TRUNCATED_CUBOCTAHEDRON,
                  "octagonal prism": OCTAGONAL_PRISM}


@pytest.mark.parametrize("solid,regular", [
    *((name, True) for name in _REGULAR_FACED), ("rhombohedron", False), ("hexagonal prism", False),
])
def test_faces_regular_on_equilateral_solids(solid, regular):
    # hexagons and octagons as well as rhombi: exact, and read back from
    # OFF with noise 1e-10 at tolerance 1e-9
    if regular:
        p = Polyhedron(_REGULAR_FACED[solid], convex_hull_faces(_REGULAR_FACED[solid]))
    else:
        p = dict(zip(("rhombohedron", "hexagonal prism"), _equilateral_solids()))[solid]
    noisy = [read_off(noisy_off(write_off(p), 1e-10, random.Random(seed)), 1e-9)
             for seed in range(5)]
    for q in [p, *noisy]:
        r = analyze(q)
        assert not r.partial
        assert (r.faces_regular, r.archimedean_candidate) == (regular, regular)


def test_text_report_ends_with_axis_count(rco, pseudo):
    assert text_report(analyze(rco, name="rco")).splitlines()[-1] == "rotation axes: 13"
    assert text_report(analyze(pseudo, name="p")).splitlines()[-1] == "rotation axes: 5"


def test_report_json_schema(rco):
    doc = json.loads(report_json(analyze(rco, name="rco")))
    assert doc["schema"] == "gyrolab/1"
    assert doc["census"] == {"triangles": 8, "quads": 18, "other": 0}
    assert doc["counts"] == {"vertices": 24, "edges": 48, "faces": 26, "euler": 2}
    assert doc["symmetry"]["proper_order"] == 24
    assert len(doc["belts"]) == 3
    assert doc["flags"] == {"archimedean_candidate": True, "pseudo_uniform": False}


def test_partial_report_on_broken_mesh(cube):
    broken = Polyhedron(cube.vertices, cube.faces[:-1])
    r = analyze(broken, name="broken")
    assert r.partial
    assert not r.validation.ok
    assert r.symmetry is None and r.belts == ()
    text = text_report(r)
    assert "FAILED" in text and "open edges" in text


def test_analysis_invariant_under_vertex_relabeling(rco):
    rng = random.Random(5)
    perm = list(range(24))
    rng.shuffle(perm)
    # perm[i] = new index of old vertex i
    verts = [None] * 24
    for old, new in enumerate(perm):
        verts[new] = rco.vertices[old]
    faces = [tuple(perm[i] for i in f) for f in rco.faces]
    shuffled = Polyhedron(verts, faces)
    a = analyze(rco, name="x")
    b = analyze(shuffled, name="x")
    assert a.to_dict() == b.to_dict()


def test_analyze_deterministic(pseudo):
    assert analyze(pseudo, name="p").to_dict() == analyze(pseudo, name="p").to_dict()


def test_compare_table(rco, pseudo):
    table = compare(analyze(rco, name="rco"), analyze(pseudo, name="pseudo"))
    rows = {r.label: r for r in table.rows}
    assert rows["faces"].equal
    assert rows["triangles"].equal and rows["quads"].equal
    assert rows["vertex figure"].equal
    assert (rows["axes"].left, rows["axes"].right) == ("13", "5")
    assert (rows["belts"].left, rows["belts"].right) == ("3", "1")
    assert (rows["pole pairs"].left, rows["pole pairs"].right) == ("3", "1")
    assert (rows["vertex transitive"].left, rows["vertex transitive"].right) == ("yes", "no")
    assert not rows["proper group order"].equal
    text = table.to_text()
    assert "axes: 13 | 5" in text


def test_compare_equal_inputs_all_equal(rco):
    table = compare(analyze(rco, name="a"), analyze(rco, name="b"))
    assert all(r.equal for r in table.rows)


def test_comparison_json(rco, pseudo):
    doc = json.loads(
        comparison_json(compare(analyze(rco, name="rco"), analyze(pseudo, name="pseudo")))
    )
    assert doc["schema"] == "gyrolab/1"
    by_label = {r["label"]: r for r in doc["rows"]}
    assert by_label["axes"] == {"label": "axes", "left": "13", "right": "5", "equal": False}
