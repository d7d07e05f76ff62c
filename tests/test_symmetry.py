import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    OCTAGONAL_PRISM,
    TRUNCATED_CUBE,
    make_box,
    make_cube,
    make_icosahedron,
    noisy_off,
)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gyrolab import geom, symmetry
from gyrolab.geom import mat_mul, mat_transpose, mat_vec, snap_scalar_to_q2, vcross, vdot, vsub
from gyrolab.qfield import ONE, SQRT2, ZERO, Q2, parse
from gyrolab.solids import (
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
    convex_hull_faces,
    read_off,
    write_off,
)
from gyrolab.symmetry import (
    DegenerateGeometryError,
    Isometry,
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


# -- the least-squares oracle ---------------------------------------------------
# An independent filter of the same lattice automorphisms: fit M = H G^-1
# with H = sum v_pi(i) v_i^T and G = sum v_i v_i^T over the centred vertices,
# and keep pi iff M^T M = I and M v_i = v_pi(i) for every i, decided by the
# mesh's kernel (within tolerance x diameter on a float mesh).


def _moments(ws, vs):
    """The 3x3 matrix sum of w_i v_i^T."""
    return tuple(tuple(sum(w[r] * v[s] for w, v in zip(ws, vs)) for s in range(3))
                 for r in range(3))


def _inverse(m):
    """m^-1: its columns are the cross products of m's rows over det m."""
    det = geom.mat_det(m)
    cols = (vcross(m[1], m[2]), vcross(m[2], m[0]), vcross(m[0], m[1]))
    return mat_transpose(tuple(tuple(x / det for x in col) for col in cols))


def _is_small(k, v, diameter) -> bool:
    """v = 0 on an exact mesh, |v| <= tolerance x diameter on a float one."""
    if k.exact:
        return not any(v)
    return math.sqrt(sum(float(x) ** 2 for x in v)) <= k.tol * diameter


def least_squares_group(p) -> dict:
    """{(vertex_perm, face_perm): M} for every lattice automorphism the
    least-squares filter keeps; float matrices stay unsnapped."""
    k = p.kernel
    c = p.vertex_centroid()
    verts = [vsub(v, c) for v in p.vertices]
    gram_inv = _inverse(_moments(verts, verts))
    diameter = k.diameter(verts)
    flags = list(symmetry._flags(p))
    base, across = flags[0], symmetry._across(p)
    kept = {}
    for flag in flags:
        if flag[3] != base[3]:
            continue
        perms = symmetry._automorphism(p, across, base, flag)
        if perms is None:
            continue
        images = [verts[j] for j in perms[0]]
        m = mat_mul(_moments(images, verts), gram_inv)
        mtm = mat_mul(mat_transpose(m), m)
        if all(k.is_zero(mtm[i][j] - (1 if i == j else 0)) for i in range(3) for j in range(3)) \
                and all(_is_small(k, vsub(mat_vec(m, v), w), diameter)
                        for v, w in zip(verts, images)):
            kept[perms] = m
    return kept


def _elements(group) -> set:
    return {(iso.matrix, iso.vertex_perm, iso.face_perm) for iso in group}


def _oracle_elements(p) -> set:
    return {(m, *perms) for perms, m in least_squares_group(p).items()}


def _hull_mesh(points) -> Polyhedron:
    return Polyhedron(points, convex_hull_faces(points))


_EDGES = {"2": 2, "5": 5, "7/3+1/5*sqrt2": parse("7/3+1/5*sqrt2")}
_ORACLE_MESHES = {
    **{f"rco edge {e}": (build_rhombicuboctahedron, x) for e, x in _EDGES.items()},
    **{f"pseudo edge {e}": (build_pseudo_rhombicuboctahedron, x) for e, x in _EDGES.items()},
    "cube": (make_cube, 1),
    "box": (lambda _: make_box(), None),
    "truncated cube": (_hull_mesh, TRUNCATED_CUBE),
    "octagonal prism": (_hull_mesh, OCTAGONAL_PRISM),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MESHES))
def test_search_keeps_what_the_least_squares_oracle_keeps(name):
    make, arg = _ORACLE_MESHES[name]
    p = make(arg)
    group = isometry_group(p)
    assert len(group) == len(_elements(group))
    assert _elements(group) == _oracle_elements(p)


def _cayley(a, b, c):
    """The rotation (I - S)(I + S)^-1 of the skew matrix S of (a, b, c):
    rational, and orthogonal with determinant 1."""
    s = ((ZERO, -c, b), (c, ZERO, -a), (-b, a, ZERO))
    ident = geom.q2_identity()
    minus = tuple(tuple(ident[i][j] - s[i][j] for j in range(3)) for i in range(3))
    plus = tuple(tuple(ident[i][j] + s[i][j] for j in range(3)) for i in range(3))
    return mat_mul(minus, _inverse(plus))


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7).map(Q2)


# no shrinking: each shrink step reruns the oracle, as in the hull test
@settings(max_examples=15, deadline=None,
          phases=[ph for ph in Phase if ph is not Phase.shrink])
@given(_rationals, _rationals, _rationals, st.tuples(_rationals, _rationals, _rationals))
def test_search_matches_the_oracle_on_rotated_rco(a, b, c, shift):
    rot = _cayley(a, b, c)
    rco = build_rhombicuboctahedron(2)
    moved = [tuple(x + t for x, t in zip(mat_vec(rot, v), shift)) for v in rco.vertices]
    p = Polyhedron(moved, rco.faces)
    group = isometry_group(p)
    assert len(group) == 48
    assert _elements(group) == _oracle_elements(p)


def _float_mesh(p, factor: float) -> Polyhedron:
    return Polyhedron([tuple(float(x) * factor for x in v) for v in p.vertices], p.faces)


@pytest.mark.parametrize("k", [-6, -3, 0, 3, 6])
@pytest.mark.parametrize("solid,full", [("rco", 48), ("pseudo", 16), ("cube", 48)])
def test_float_search_is_scale_free(rco, pseudo, cube, solid, full, k):
    p = _float_mesh({"rco": rco, "pseudo": pseudo, "cube": cube}[solid], 10.0 ** k)
    group = isometry_group(p)
    assert len(group) == full
    assert all(iso.kernel.exact for iso in group)  # every matrix snapped


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("solid", ["rco", "pseudo", "cube"])
def test_unsnapped_directions_stay_near_the_least_squares_ones(rco, pseudo, cube, solid, seed):
    # noise 1e-7 at tolerance 1e-5: the group stays float, and each axis
    # direction comes from the frame's map instead of the least-squares fit
    tol = 1e-5
    text = write_off({"rco": rco, "pseudo": pseudo, "cube": cube}[solid])
    p = read_off(noisy_off(text, 1e-7, random.Random(f"{solid}/{seed}")), tol)
    assert symmetry_report(p).approximate
    oracle = least_squares_group(p)
    rotations = [iso for iso in isometry_group(p) if iso.proper and iso.order() > 1]
    assert rotations
    for iso in rotations:
        fit = Isometry(oracle[iso.vertex_perm, iso.face_perm], True,
                       iso.vertex_perm, iso.face_perm, iso.kernel)
        d, d_fit = symmetry._fixed_direction(iso), symmetry._fixed_direction(fit)
        assert math.dist(d, d_fit) <= tol
