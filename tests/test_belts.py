import random
from fractions import Fraction

import pytest
from conftest import FRUSTUM
from gyrolab import belts as belts_mod
from gyrolab.analysis import analyze
from gyrolab.belts import belt_square_overlap, find_belts, pole_pairs
from gyrolab.geom import centroid, is_zero_vec, vcross, vdot, vsub
from gyrolab.qfield import Q2
from gyrolab.solids import (
    Polyhedron,
    build_rhombicuboctahedron,
    face_census,
    read_off,
    write_off,
)
from gyrolab.symmetry import isometry_group, rotation_axes


def test_cube_has_three_belts_of_four(cube):
    belts = find_belts(cube)
    assert len(belts) == 3
    assert all(b.length == 4 for b in belts)
    for b in belts:
        inside = set(b.faces)
        outside = set(range(6)) - inside
        assert set(b.pole_faces) == outside  # the two faces not in the belt


def test_rco_three_belts_of_eight(rco):
    belts = find_belts(rco)
    assert len(belts) == 3
    assert all(b.length == 8 for b in belts)
    assert all(len(rco.faces[f]) == 4 for b in belts for f in b.faces)


def test_rco_pole_pairs_disjoint_and_square(rco):
    belts = find_belts(rco)
    pairs = [b.pole_faces for b in belts]
    assert all(p is not None for p in pairs)
    flat = [f for p in pairs for f in p]
    assert len(flat) == len(set(flat)) == 6  # 3 disjoint pairs of polar squares
    assert all(len(rco.faces[f]) == 4 for f in flat)


def test_pseudo_single_belt_single_pole_pair(pseudo):
    belts = find_belts(pseudo)
    assert len(belts) == 1
    assert belts[0].length == 8
    assert belts[0].pole_faces is not None
    f1, f2 = belts[0].pole_faces
    assert len(pseudo.faces[f1]) == len(pseudo.faces[f2]) == 4


def test_belt_overlap_counts(rco, pseudo):
    ov = belt_square_overlap(rco, find_belts(rco))
    assert all(n == 2 for n in ov.pairwise.values())
    assert len(ov.pairwise) == 3
    assert ov.union_size == ov.quad_count == 18
    assert 3 * 8 - 3 * 2 == 18 == face_census(rco).quads
    ov_p = belt_square_overlap(pseudo, find_belts(pseudo))
    assert ov_p.pairwise == {}  # single belt: vacuous
    assert ov_p.union_size == 8


def test_belt_structure_invariants(rco):
    for belt in find_belts(rco):
        n = belt.length
        # the crossing edges: the one edge each consecutive pair of faces shares
        crossing = []
        for k in range(n):
            pair = {belt.faces[k - 1], belt.faces[k]}
            shared = [e for e, fs in rco.edge_faces.items() if set(fs) == pair]
            assert len(shared) == 1
            crossing.append(shared[0])
        for k in range(n):
            # entry and exit are opposite edges of the current quad
            entry, exit_edge = crossing[k], crossing[(k + 1) % n]
            assert not (set(entry) & set(exit_edge))
            assert set(entry) | set(exit_edge) == set(rco.faces[belt.faces[k]])
        for e in crossing:
            d = vsub(rco.vertices[e[1]], rco.vertices[e[0]])
            assert is_zero_vec(vcross(d, belt.plane_normal))


def test_belt_normals_are_the_order4_axes(rco):
    proper = [g for g in isometry_group(rco) if g.proper]
    four_fold = {ax.direction for ax in rotation_axes(rco, proper) if ax.order == 4}
    normals = {b.plane_normal for b in find_belts(rco)}
    assert normals == four_fold


def test_pole_pair_ordering_is_geometric(rco):
    for belt in find_belts(rco):
        pos, neg = belt.pole_faces
        # first face sits on the +normal side
        def center(fi):
            return centroid([rco.vertices[i] for i in rco.faces[fi]])

        assert vdot(center(pos), belt.plane_normal).sign() > 0
        assert vdot(center(neg), belt.plane_normal).sign() < 0


def test_symmetry_maps_belts_to_belts(pseudo):
    belts = {frozenset(b.faces) for b in find_belts(pseudo)}
    rng = random.Random(3)
    group = isometry_group(pseudo)
    for _ in range(3):
        iso = rng.choice(group)
        assert {frozenset(iso.face_perm[f] for f in b) for b in belts} == belts


def test_belt_count_scale_invariant(rco):
    p = build_rhombicuboctahedron(Fraction(7, 3))
    belts = find_belts(p)
    assert len(belts) == 3
    assert [b.faces for b in belts] == [b.faces for b in find_belts(rco)]


def test_belt_json_shape(rco):
    doc = find_belts(rco)[0].to_dict()
    assert set(doc) == {"faces", "length", "normal", "poles"}
    assert doc["length"] == 8
    assert len(doc["poles"]) == 2
    assert all(isinstance(c, str) for c in doc["normal"])


def test_pole_pairs_none_when_axis_misses(cube):
    belts = find_belts(cube)
    shifted_belt = belts[0]
    # a belt normal that points at an edge has no face centers on it
    fake = shifted_belt._replace(plane_normal=(Q2(1), Q2(1), Q2(0)))
    assert pole_pairs(cube, fake) is None


def test_belts_are_walked_once_per_mesh(rco, monkeypatch):
    p = Polyhedron(rco.vertices, rco.faces)
    calls = {"find_belts": 0, "pole_pairs": 0}

    def counted(name):
        real = getattr(belts_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(belts_mod, name, wrapper)

    counted("find_belts")
    counted("pole_pairs")
    analyze(p)  # belt_square_overlap takes the belts analyze found
    assert calls == {"find_belts": 1, "pole_pairs": 3}  # a pole pair per belt, once


def test_a_band_of_trapezoids_is_no_belt():
    # a square frustum: the band of four lateral trapezoids closes, but its
    # crossing edges are not parallel; each band through both squares is a
    # belt, with the other two trapezoids as its poles
    frustum = Polyhedron(FRUSTUM)
    for p in (frustum, read_off(write_off(frustum))):
        belts = find_belts(p)
        assert [b.length for b in belts] == [4, 4]
        for b in belts:
            assert {len(p.faces[f]) for f in b.faces} == {4}
            poles = set(b.pole_faces)
            assert len(poles) == 2 and not poles & set(b.faces)
            assert all(0 < sum(p.vertices[i][2] for i in p.faces[f]) < 4 for f in poles)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_coordinates_are_computed_once_per_mesh(rco, monkeypatch, mode):
    # validation, the symmetry search, the belts, their poles and overlap and
    # face regularity all decide on the mesh's one set of kernel coordinates
    p = Polyhedron(rco.vertices, rco.faces) if mode == "exact" else read_off(write_off(rco))
    calls = []
    real = type(p.kernel).coordinates
    monkeypatch.setattr(type(p.kernel), "coordinates",
                        lambda k, vertices: calls.append(1) or real(k, vertices))
    analyze(p)
    assert len(find_belts(p)) == 3 and len(calls) == 1
