import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import make_box, make_cube, make_icosahedron

from gyrolab import geom
from gyrolab.geom import mat_mul, mat_vec, snap_scalar_to_q2, vdot, vsub
from gyrolab.qfield import ONE, SQRT2, ZERO, Q2
from gyrolab.solids import Polyhedron, read_off, write_off
from gyrolab.symmetry import (
    DegenerateGeometryError,
    axis_feature_incidence,
    is_vertex_transitive,
    isometry_group,
    polar_axis_rotations,
    rotation_axes,
    symmetry_report,
)


def signed_permutation_matrices():
    """All 48 signed 3x3 permutation matrices: the full symmetry group of
    anything with the cube's coordinate symmetry."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((ONE, -ONE), repeat=3):
            m = [[ZERO] * 3 for _ in range(3)]
            for r in range(3):
                m[r][perm[r]] = signs[r]
            out.append(tuple(tuple(row) for row in m))
    return out


def mulclose(generators, limit=100):
    """Independent group closure: multiply until stable."""
    elems = {g for g in generators}
    frontier = list(elems)
    while frontier:
        new = []
        for a in frontier:
            for b in list(elems):
                for c in (mat_mul(a, b), mat_mul(b, a)):
                    if c not in elems:
                        elems.add(c)
                        new.append(c)
        frontier = new
        assert len(elems) <= limit
    return elems


def c2_about(v):
    """Half turn about an arbitrary exact axis: 2 v v^T / (v.v) - I."""
    nn = vdot(v, v)
    inv = nn.inverse()
    rows = []
    for i in range(3):
        rows.append(tuple(
            v[i] * v[j] * inv * Q2(2) - (ONE if i == j else ZERO) for j in range(3)
        ))
    return tuple(rows)


def rot_z(deg):
    c, s = geom.exact_cos_sin(deg)
    return ((c, -s, ZERO), (s, c, ZERO), (ZERO, ZERO, ONE))


def test_rco_group_is_the_signed_permutations(rco):
    found = {iso.matrix for iso in isometry_group(rco)}
    assert found == set(signed_permutation_matrices())
    proper = isometry_group(rco, proper_only=True)
    assert len(proper) == 24
    assert all(geom.mat_det(iso.matrix) == ONE for iso in proper)


def test_pseudo_group_matches_constructed_dihedral_group(pseudo):
    # generators: the quarter turn about the polar axis, a half turn about
    # the axis through opposite vertical belt-edge midpoints, and the
    # 45-degree rotoreflection
    flip = c2_about((ONE, SQRT2 - ONE, ZERO))
    mirror_z = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, -ONE))
    s8 = mat_mul(rot_z(45), mirror_z)
    expected = mulclose([rot_z(90), flip, s8])
    assert len(expected) == 16
    found = {iso.matrix for iso in isometry_group(pseudo)}
    assert found == expected
    assert len(isometry_group(pseudo, proper_only=True)) == 8


def test_group_orders(rco, pseudo, cube):
    for p, proper, full in ((rco, 24, 48), (pseudo, 8, 16), (cube, 24, 48)):
        g = isometry_group(p)
        assert len(g) == full
        assert sum(1 for iso in g if iso.proper) == proper


def test_group_contains_identity_and_inverses(rco):
    group = isometry_group(rco)
    mats = {iso.matrix for iso in group}
    ident = geom.q2_identity()
    assert ident in mats
    for iso in group:
        assert geom.mat_transpose(iso.matrix) in mats  # orthogonal inverse


def test_group_closed_under_composition(pseudo):
    group = isometry_group(pseudo)
    mats = {iso.matrix for iso in group}
    for a in group:
        for b in group:
            assert mat_mul(a.matrix, b.matrix) in mats


def test_isometries_preserve_distances(rco):
    rng = random.Random(7)
    group = isometry_group(rco)
    for _ in range(25):
        iso = rng.choice(group)
        i, j = rng.randrange(24), rng.randrange(24)
        u, v = rco.vertices[i], rco.vertices[j]
        d = vsub(u, v)
        mu, mv = mat_vec(iso.matrix, u), mat_vec(iso.matrix, v)
        md = vsub(mu, mv)
        assert vdot(d, d) == vdot(md, md)


def test_axis_counts_and_orders(rco_sym, pseudo_sym):
    assert len(rco_sym.axes) == 13
    assert rco_sym.axes_by_order() == {4: 3, 3: 4, 2: 6}
    assert len(pseudo_sym.axes) == 5
    assert pseudo_sym.axes_by_order() == {4: 1, 2: 4}


def test_axis_breakdown_against_trace_classification(rco):
    # independent cross-check: classify the 23 non-identity rotations by
    # exact trace; 1 + 2cos(theta) separates 90/270, 120/240 and 180
    proper = isometry_group(rco, proper_only=True)
    traces = Counter()
    for iso in proper:
        m = iso.matrix
        if m == geom.q2_identity():
            continue
        traces[m[0][0] + m[1][1] + m[2][2]] += 1
    assert traces[Q2(1)] == 6  # quarter turns: 3 axes x 2
    assert traces[Q2(0)] == 8  # third turns: 4 axes x 2
    assert traces[Q2(-1)] == 9  # half turns: 3 + 6 axes
    assert sum(traces.values()) == 23
    assert 3 * 3 + 4 * 2 + 6 * 1 == 23


def test_class_equation(rco_sym, pseudo_sym, cube):
    assert rco_sym.class_equation_ok
    assert pseudo_sym.class_equation_ok
    assert symmetry_report(cube).class_equation_ok


def test_rotation_powers_are_exact(rco):
    ident = geom.q2_identity()
    for iso in isometry_group(rco, proper_only=True):
        n = iso.order()
        power = ident
        for k in range(1, n):
            power = mat_mul(power, iso.matrix)
            assert power != ident
        assert mat_mul(power, iso.matrix) == ident


def test_all_rco_axes_pass_through_opposite_face_centers(rco, rco_sym):
    for ax in rco_sym.axes:
        kinds = {f.kind for f in ax.features}
        assert kinds == {"face"}
        a, b = ax.features
        # antipodal: centers sum to zero (centroid at origin)
        assert all((x + y).is_zero() for x, y in zip(a.point, b.point))


def test_pseudo_axis_features(pseudo, pseudo_sym):
    polar = [ax for ax in pseudo_sym.axes if ax.order == 4]
    assert len(polar) == 1
    assert {f.kind for f in polar[0].features} == {"face"}
    for f in polar[0].features:
        assert len(pseudo.faces[f.ref]) == 4  # polar squares
    half_turns = [ax for ax in pseudo_sym.axes if ax.order == 2]
    assert len(half_turns) == 4
    for ax in half_turns:
        assert {f.kind for f in ax.features} == {"edge"}
    # the paper's face-center characterization fails for the gyrated solid
    assert any({f.kind for f in ax.features} != {"face"} for ax in pseudo_sym.axes)


def test_axis_feature_incidence_detects_given_direction(cube):
    feats = axis_feature_incidence(cube, (ONE, ZERO, ZERO))
    assert {f.kind for f in feats} == {"face"}
    feats = axis_feature_incidence(cube, (ONE, ONE, ONE))
    assert {f.kind for f in feats} == {"vertex"}
    feats = axis_feature_incidence(cube, (ONE, ONE, ZERO))
    assert {f.kind for f in feats} == {"edge"}


def test_polar_axis_rotations(rco, pseudo, cube):
    assert polar_axis_rotations(rco) == (90, 180, 270)
    assert polar_axis_rotations(pseudo) == (90, 180, 270)
    assert polar_axis_rotations(cube) == (90, 180, 270)


def test_vertex_transitivity_split(rco, pseudo, cube):
    ok, orbits = is_vertex_transitive(rco, isometry_group(rco))
    assert ok and len(orbits) == 1 and len(orbits[0]) == 24
    ok, orbits = is_vertex_transitive(pseudo, isometry_group(pseudo))
    assert not ok
    assert sorted(len(o) for o in orbits) == [8, 16]
    ok, _ = is_vertex_transitive(cube, isometry_group(cube))
    assert ok


def test_rotation_only_transitivity_flag(rco_sym, pseudo_sym):
    assert rco_sym.vertex_transitive_proper
    assert not pseudo_sym.vertex_transitive_proper


def test_symmetry_group_permutes_belt_set(rco):
    from gyrolab.belts import find_belts

    belts = {frozenset(b.faces) for b in find_belts(rco)}
    rng = random.Random(11)
    group = isometry_group(rco)
    for _ in range(3):
        iso = rng.choice(group)
        mapped = {frozenset(iso.face_perm[f] for f in b) for b in belts}
        assert mapped == belts


def test_degenerate_geometry_error():
    verts = [(Q2(0), Q2(0), Q2(0)), (Q2(1), Q2(0), Q2(0)), (Q2(2), Q2(0), Q2(0))]
    flat = Polyhedron(verts, [(0, 1, 2), (2, 1, 0)])
    faceless = Polyhedron(verts + [(Q2(0), Q2(1), Q2(0)), (Q2(0), Q2(0), Q2(1))], [])
    for p in (flat, faceless):
        with pytest.raises(DegenerateGeometryError):
            isometry_group(p)


def test_rotation_axes_empty_for_identity_only(cube):
    assert rotation_axes(cube, []) == ()


def test_snap_scalar_to_q2():
    import math

    assert snap_scalar_to_q2(0.5) == Q2(Fraction(1, 2))
    assert snap_scalar_to_q2(-1.0) == Q2(-1)
    assert snap_scalar_to_q2(math.sqrt(2) / 2) == Q2(0, Fraction(1, 2))
    assert snap_scalar_to_q2(1 + math.sqrt(2)) == Q2(1, 1)
    assert snap_scalar_to_q2(0.1234567891) is None
    assert snap_scalar_to_q2(math.pi) is None


def test_float_mode_reproduces_exact_results(rco, pseudo, rco_sym, pseudo_sym):
    from gyrolab.belts import find_belts

    for p, exact_rep in ((rco, rco_sym), (pseudo, pseudo_sym)):
        q = read_off(write_off(p))
        rep = symmetry_report(q)
        assert rep.proper_order == exact_rep.proper_order
        assert rep.full_order == exact_rep.full_order
        assert len(rep.axes) == len(exact_rep.axes)
        assert rep.axes_by_order() == exact_rep.axes_by_order()
        assert not rep.approximate  # every matrix snapped back into Q(sqrt2)
        assert len(find_belts(q)) == len(find_belts(p))


def test_group_outside_q2_stays_float_and_approximate():
    # the icosahedron's golden-ratio matrices cannot snap into Q(sqrt2)
    rep = symmetry_report(make_icosahedron())
    assert rep.approximate
    assert (rep.full_order, rep.proper_order) == (120, 60)
    assert rep.axes_by_order() == {5: 6, 3: 10, 2: 15}
    assert all(isinstance(x, float) for ax in rep.axes for x in ax.direction)


def test_report_json_shape(rco_sym):
    doc = rco_sym.to_dict()
    assert set(doc) == {
        "proper_order", "full_order", "axes", "vertex_transitive",
        "vertex_transitive_proper", "orbits", "class_equation_ok", "approximate",
    }
    assert doc["orbits"] == {"count": 1, "sizes": [24]}
    assert len(doc["axes"]) == 13
    ax = doc["axes"][0]
    assert set(ax) == {"direction", "order", "features"}
    assert len(ax["features"]) == 2


@pytest.mark.parametrize("name", ["rco", "pseudo", "cube", "icosahedron", "box"])
def test_axis_features_match_the_geometric_incidence(name, rco, pseudo):
    # the features read off each rotation's permutations are the ones the
    # axis line meets
    p = {"rco": rco, "pseudo": pseudo, "cube": make_cube(),
         "icosahedron": make_icosahedron(), "box": make_box()}[name]
    axes = symmetry_report(p).axes
    assert axes
    for ax in axes:
        assert ax.features == axis_feature_incidence(p, ax.direction)


def test_box_group_is_a_known_answer():
    # every symmetry of the cube's face lattice that swaps two axes of the
    # box has an exact linear map, which is not orthogonal
    box = make_box()
    for p in (box, read_off(write_off(box))):
        rep = symmetry_report(p)
        assert (rep.full_order, rep.proper_order) == (8, 4)
        assert rep.axes_by_order() == {2: 3}
        assert {f.kind for ax in rep.axes for f in ax.features} == {"face"}
        assert rep.orbit_sizes == (8,)
        assert not rep.approximate
