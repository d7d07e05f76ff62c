import functools
import inspect
import itertools
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    CUBE,
    OCTAGONAL_PRISM,
    TRUNCATED_CUBE,
    TRUNCATED_CUBOCTAHEDRON,
    make_box,
    make_cube,
    make_icosahedron,
    noisy_off,
    q2_identity,
)
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gyrolab import geom, solids, symmetry
from gyrolab.analysis import analyze
from gyrolab.geom import mat_mul, mat_transpose, mat_vec, snap_scalar_to_q2, vcross, vdot, vsub
from gyrolab.qfield import ONE, SQRT2, ZERO, Q2, parse
from gyrolab.solids import (
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
    read_off,
    write_off,
)
from gyrolab.symmetry import (
    DegenerateGeometryError,
    InternalGeometryError,
    Isometry,
    axis_feature_incidence,
    congruences,
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
    proper = [g for g in isometry_group(rco) if g.proper]
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
    assert len([g for g in isometry_group(pseudo) if g.proper]) == 8


def test_group_orders(rco, pseudo, cube):
    for p, proper, full in ((rco, 24, 48), (pseudo, 8, 16), (cube, 24, 48)):
        g = isometry_group(p)
        assert len(g) == full
        assert sum(1 for iso in g if iso.proper) == proper


def test_group_contains_identity_and_inverses(rco):
    group = isometry_group(rco)
    mats = {iso.matrix for iso in group}
    ident = q2_identity()
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
    proper = [g for g in isometry_group(rco) if g.proper]
    traces = Counter()
    for iso in proper:
        m = iso.matrix
        if m == q2_identity():
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


# -- snapping against the Fraction reference ---------------------------------------
# The snap as it was before it found its candidates with ints: the nearest
# fraction of denominator <= max_den by Fraction.limit_denominator.


def _one_term_by_fractions(x, tol, max_den=64):
    r = Fraction(x).limit_denominator(max_den)
    if abs(x - float(r)) <= tol:
        return Q2(r)
    s = Fraction(x / math.sqrt(2)).limit_denominator(max_den)
    if abs(x - float(s) * math.sqrt(2)) <= tol:
        return Q2(0, s)
    return None


def _snap_by_fractions(x, tol, max_den=64):
    one_term = _one_term_by_fractions(x, tol, max_den)
    if one_term is not None:
        return one_term
    for q in range(1, 9):
        for num in range(-2 * q, 2 * q + 1):
            a = Fraction(num, q)
            b = Fraction((x - float(a)) / math.sqrt(2)).limit_denominator(8)
            if abs(b) <= 2 and abs(x - float(a) - float(b) * math.sqrt(2)) <= tol:
                return Q2(a, b)
    return None


def _snap_inputs(rng, per_kind, tol):
    """Seeded values of each kind (rationals and sqrt2 multiples with
    denominators up to 64, mixed a + b*sqrt2 with denominators up to 8,
    uniform values), each at offsets 0, +-1e-12, +-0.99 tol and +-1.01 tol."""
    def fraction(max_den, size):
        q = rng.randint(1, max_den)
        return rng.randint(-size * q, size * q) / q

    kinds = (lambda: fraction(64, 3), lambda: fraction(64, 3) * math.sqrt(2),
             lambda: fraction(8, 2) + fraction(8, 2) * math.sqrt(2), lambda: rng.uniform(-4, 4))
    offsets = (0.0, 1e-12, -1e-12, 0.99 * tol, -0.99 * tol, 1.01 * tol, -1.01 * tol)
    return [x + dx for kind in kinds for x in [kind() for _ in range(per_kind)]
            for dx in offsets]


def _parts(x):
    return None if x is None else (x.p, x.q, x.d)


def test_one_term_snap_equals_the_fraction_reference():
    # 21,000 values; the mixed search after it is the reference's own code
    tol = geom.SNAP_EPS
    values = _snap_inputs(random.Random(20261019), 750, tol)
    got = [_parts(geom._snap_one_term(x)) for x in values]
    assert got == [_parts(_one_term_by_fractions(x, tol)) for x in values]
    # every rational and sqrt2 multiple within tol snaps, at 5 of the 7 offsets
    assert sum(g is not None for g in got) >= 2 * 750 * 5


def test_snap_equals_the_fraction_reference():
    tol = geom.SNAP_EPS
    values = _snap_inputs(random.Random(20261020), 15, tol)
    got = [_parts(snap_scalar_to_q2(x)) for x in values]
    assert got == [_parts(_snap_by_fractions(x, tol)) for x in values]
    assert sum(q2[1] and q2[0] for q2 in got if q2) > 0  # some mixed a + b*sqrt2


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


def test_report_json_shape(rco):
    doc = analyze(rco).to_dict()["symmetry"]
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
# and keep pi iff M^T M = I and M v_i = v_pi(i) for every i: exactly on an
# exact mesh, within tolerance x diameter on a float one, the diameter measured
# here rather than by the kernel under test.


def _moments(ws, vs):
    """The 3x3 matrix sum of w_i v_i^T."""
    return tuple(tuple(sum(w[r] * v[s] for w, v in zip(ws, vs)) for s in range(3))
                 for r in range(3))


def _inverse(m):
    """m^-1: its columns are the cross products of m's rows over det m."""
    det = geom.mat_det(m)
    cols = (vcross(m[1], m[2]), vcross(m[2], m[0]), vcross(m[0], m[1]))
    return mat_transpose(tuple(tuple(x / det for x in col) for col in cols))


def _diameter(k, verts) -> float:
    """The largest distance between two vertices of a float mesh; 1.0 for an
    exact one, whose decisions need no size."""
    if k.exact:
        return 1.0
    return max(math.dist(u, w) for u, w in itertools.combinations(verts, 2))


def _is_small(k, v, diameter) -> bool:
    """v = 0 on an exact mesh, |v| <= tolerance x diameter on a float one."""
    if k.exact:
        return not any(v)
    return math.sqrt(sum(float(x) ** 2 for x in v)) <= k.tol * diameter


def _near(k, x, y, size) -> bool:
    """x = y on an exact mesh, |x - y| <= tolerance x size on a float one."""
    return x == y if k.exact else abs(x - y) <= k.tol * size


def least_squares_group(p) -> dict:
    """{(vertex_perm, face_perm): M} for every lattice automorphism the
    least-squares filter keeps; float matrices stay unsnapped."""
    k = p.kernel
    c = geom.centroid(p.vertices)
    verts = [vsub(v, c) for v in p.vertices]
    gram_inv = _inverse(_moments(verts, verts))
    diameter = _diameter(k, verts)
    flags = list(symmetry._flags(p))
    base = flags[0]
    kept = {}
    for flag in flags:
        if flag[3] != base[3]:
            continue
        perms = symmetry._isomorphism(p, p, base, flag)
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
    return Polyhedron(points)


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
    ident = q2_identity()
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


def test_unsnapped_axis_order_does_not_depend_on_the_noise():
    # equal-order axes of a float group are listed by their features, which
    # the noise does not move, not by their noise-level direction components
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "rco_0.off")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    orders = set()
    for seed in range(6):
        rep = symmetry_report(read_off(noisy_off(text, 1e-7, random.Random(seed)), 1e-5))
        assert rep.approximate and len(rep.axes) == 13
        orders.add(tuple((ax.order, tuple((f.kind, f.ref) for f in ax.features)) for ax in rep.axes))
    assert len(orders) == 1


# -- the enumerating oracle ------------------------------------------------------
# The search as it was before the group was generated: every candidate flag of
# the (face size, size across the edge) signature is walked, kept iff it keeps
# the frame's Gram rows (Gram table and frame in the mesh's own numbers, Q2 or
# float), and the kept set is checked to be closed with all |G|^2 products.


def _enumerating_flags(p):
    for (i, j) in p.edges:
        for fi in p.edge_faces[(i, j)]:
            fs = p.edge_faces[(i, j)]
            other = None if len(fs) != 2 else fs[0] if fs[1] == fi else fs[1]
            sizes = (len(p.faces[fi]), 0 if other is None else len(p.faces[other]))
            yield i, j, fi, sizes
            yield j, i, fi, sizes


def _enumerating_frame(k, verts, gram, scale):
    n = range(len(verts))
    a = max(n, key=lambda i: gram[i][i])
    b = max(n, key=lambda j: gram[a][a] * gram[j][j] - gram[a][j] * gram[a][j])
    normal = vcross(verts[a], verts[b])
    heights = [vdot(normal, v) for v in verts]
    c = max(n, key=lambda j: heights[j] * heights[j])
    assert not _near(k, heights[c] * heights[c], 0, scale ** 3)
    rows = (vcross(verts[b], verts[c]), vcross(verts[c], verts[a]), normal)
    return (a, b, c), tuple(tuple(x / heights[c] for x in r) for r in rows)


def enumerated_group(p) -> tuple:
    k = p.kernel
    c = geom.centroid(p.vertices)
    verts = tuple(vsub(v, c) for v in p.vertices)
    gram = [[vdot(u, v) for v in verts] for u in verts]
    scale = _diameter(k, verts) ** 2
    frame, frame_inv = _enumerating_frame(k, verts, gram, scale)

    def keeps_gram_rows(vperm):
        return all(_near(k, x, gram[vperm[f]][pj], scale)
                   for f in frame for x, pj in zip(gram[f], vperm))

    flags = list(_enumerating_flags(p))
    base = flags[0]
    isos = []
    for flag in flags:
        perms = flag[3] == base[3] and symmetry._isomorphism(p, p, base, flag)
        if perms and keeps_gram_rows(perms[0]):
            m = mat_mul(mat_transpose([verts[perms[0][f]] for f in frame]), frame_inv)
            isos.append(Isometry(m, geom.mat_det(m) > 0, *perms, k))  # by Q2 or float order, not the kernel
    snapped = [iso._replace(matrix=k.snap(iso.matrix), kernel=geom.EXACT) for iso in isos]
    if all(iso.matrix is not None for iso in snapped):
        isos = snapped
    isos.sort(key=lambda iso: iso.matrix)
    perms = {iso.vertex_perm for iso in isos}
    assert all(tuple(map(a.__getitem__, b)) in perms for a in perms for b in perms)
    return tuple(isos)


_CORPUS = {
    "cube": CUBE,
    "octagonal prism": OCTAGONAL_PRISM,
    "truncated cube": TRUNCATED_CUBE,
    "truncated cuboctahedron": TRUNCATED_CUBOCTAHEDRON,
    "rco": sorted(solids._rco_points()),
    "pseudo": sorted(solids._pseudo_points()),
    # six triangles on an isosceles base: a mirror in the base and one across it
    "isosceles bipyramid": sorted((Q2(x), Q2(y), Q2(z)) for x, y, z in (
        (0, 0, 2), (0, 0, -2), (2, 0, 0), (-1, 1, 0), (-1, -1, 0))),
}
_SCALES = ["2", "7/3", "1+1*sqrt2", "10^400", "10^-400"]

# the square cupola J4 (octagon and top square), closed by a bottom square in
# line with the top one (J28, orthobicupola) or turned 45 degrees (J29,
# gyrobicupola): the same faces, the same vertex figures, two solids
_J4 = ([(x, y, ZERO) for a, b in ((ONE, ONE + SQRT2), (ONE + SQRT2, ONE))
        for x in (a, -a) for y in (b, -b)]
       + [(x, y, SQRT2) for x in (ONE, -ONE) for y in (ONE, -ONE)])
_JOHNSON = {
    "J28": sorted(_J4 + [(x, y, -SQRT2) for x in (ONE, -ONE) for y in (ONE, -ONE)]),
    "J29": sorted(_J4 + [(x, y, -SQRT2) for x, y in ((SQRT2, ZERO), (-SQRT2, ZERO),
                                                      (ZERO, SQRT2), (ZERO, -SQRT2))]),
}
_SOLIDS = {**_CORPUS, **_JOHNSON}


@functools.lru_cache(maxsize=None)
def _corpus_faces(name):
    return Polyhedron(_SOLIDS[name]).faces


def _corpus_mesh(name, edge) -> Polyhedron:
    """The corpus solid scaled by edge/2: the sets have edge 2, the truncated
    cube 2 sqrt2 - 2, the bipyramid's base a short side of 2."""
    base, power = edge.split("^") if "^" in edge else (edge, "1")
    s = parse(base) ** int(power) / 2
    return Polyhedron([tuple(x * s for x in v) for v in _SOLIDS[name]], _corpus_faces(name))


@pytest.mark.parametrize("edge", _SCALES)
@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_generated_group_equals_the_enumerated_one(name, edge):
    p = _corpus_mesh(name, edge)
    group = isometry_group(p)
    assert group == enumerated_group(p)  # elements, matrices, permutations, order
    orders = {"octagonal prism": 32, "pseudo": 16, "isosceles bipyramid": 4}
    assert len(group) == orders.get(name, 48)


@pytest.mark.parametrize("noise", [0.0, 1e-10])
@pytest.mark.parametrize("edge", _SCALES[:3])
@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_generated_group_equals_the_enumerated_one_after_off(name, edge, noise):
    text = write_off(_corpus_mesh(name, edge))
    p = read_off(noisy_off(text, noise, random.Random(f"{name}/{edge}")))
    group = isometry_group(p)
    assert group == enumerated_group(p)
    assert all(iso.kernel.exact for iso in group)  # every matrix snapped


@pytest.mark.parametrize("name,noise,tol", [(name, 0.0, None) for name in sorted(_SOLIDS)] + [
    (name, *rung) for name in ("pseudo", "rco") for rung in ((1e-10, 1e-9), (1e-7, 1e-5))])
def test_polar_axis_rotations(name, noise, tol):
    # every solid's polar axis has order 4 but the octagonal prism's, of
    # order 8, and the bipyramid's, which is no axis (a step of 360); at noise
    # 1e-7 and tolerance 1e-5 the group does not snap and its directions carry
    # the noise
    p = _corpus_mesh(name, "2")
    if tol:
        p = read_off(noisy_off(write_off(p), noise, random.Random(name)), tol)
        assert isometry_group(p)[0].kernel.exact == (noise < 1e-9)
    step = {"octagonal prism": 45, "isosceles bipyramid": 360}.get(name, 90)
    assert polar_axis_rotations(p) == tuple(range(step, 360, step))


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_rotation_powers_are_exact(name):
    # the order read off the vertex permutation against Q2 matrix powers
    ident = q2_identity()
    for iso in [g for g in isometry_group(_corpus_mesh(name, "2")) if g.proper]:
        power = iso.matrix
        for _ in range(1, iso.order()):
            assert power != ident
            power = mat_mul(power, iso.matrix)
        assert power == ident


def test_walks_only_the_flags_no_element_reaches(rco, pseudo, monkeypatch):
    # with the across-size signature every candidate is an automorphism, and
    # each walk adds a generator
    walks = []
    real = symmetry._isomorphism
    monkeypatch.setattr(symmetry, "_isomorphism", lambda *a: walks.append(a) or real(*a))
    for p, order in ((rco, 48), (pseudo, 16)):
        fresh = Polyhedron(p.vertices, p.faces)
        flags = list(symmetry._flags(fresh))
        assert sum(f[3] == flags[0][3] for f in flags) == order
        walks.clear()
        assert len(isometry_group(fresh)) == order
        assert 1 <= len(walks) <= 4


def _walk_exit(p, q, base, image):
    """The check that ends the walk of p's flag ``base`` onto q's flag
    ``image``, as its source line; None if the walk returns a map."""
    code, lines = symmetry._isomorphism.__code__, []

    def tracer(frame, event, arg):
        if frame.f_code is code:
            if event == "line":
                lines.append(frame.f_lineno)
            return tracer
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        perms = symmetry._isomorphism(p, q, base, image)
    finally:
        sys.settrace(previous)
    source, first = inspect.getsourcelines(code)
    return None if perms else source[lines[-2] - first].strip()  # the line before "return None"


@pytest.mark.parametrize("through_off", [False, True], ids=["exact", "off"])
def test_the_isosceles_bipyramid_clashes_at_a_vertex(through_off):
    # all six faces and their neighbours are triangles, so every flag is a
    # candidate; the walks that are no automorphism map a vertex twice
    p = _corpus_mesh("isosceles bipyramid", "2")
    if through_off:
        p = read_off(write_off(p))
    rep = symmetry_report(p)
    assert (rep.full_order, rep.proper_order, rep.axes_by_order(), rep.orbit_sizes) == (
        4, 2, {2: 1}, (2, 2, 1))
    assert not rep.approximate
    flags = list(symmetry._flags(p))
    exits = Counter(_walk_exit(p, p, flags[0], flag) for flag in flags)
    assert exits == {None: 12, "if vmap.setdefault(u, w) != w:": 24}


def test_a_walk_onto_an_open_edge_stops(cube):
    # the cube without its first face: the walk meets an edge of one face
    p = Polyhedron(cube.vertices, cube.faces[1:])
    base = next(symmetry._flags(p))
    assert _walk_exit(p, p, base, base) == "if h is None or h_img is None:"


def test_a_walk_onto_a_quotient_is_no_bijection(cube):
    # the hemicube, the cube with opposite vertices and faces as one: each
    # walk of the cube onto it is consistent everywhere and two to one
    anti = [cube.points.index(tuple(-x for x in v)) for v in cube.points]  # opposite vertex
    keep = sorted({min(i, j) for i, j in enumerate(anti)})
    cls = [keep.index(min(i, j)) for i, j in enumerate(anti)]
    sets = [frozenset(f) for f in cube.faces]
    faces = [tuple(map(cls.__getitem__, f)) for fi, f in enumerate(cube.faces)
             if fi < sets.index(frozenset(anti[i] for i in f))]
    hemicube = Polyhedron([cube.vertices[i] for i in keep], faces)
    assert (hemicube.n_vertices, hemicube.n_edges, hemicube.n_faces) == (4, 6, 3)
    base = next(symmetry._flags(cube))
    exits = {_walk_exit(cube, hemicube, base, flag) for flag in symmetry._flags(hemicube)}
    assert exits == {"if sorted(vperm) != list(range(q.n_vertices))"
                     " or sorted(fperm) != list(range(q.n_faces)):"}


# -- the closure proof ------------------------------------------------------------


def _feed(monkeypatch, perms):
    """Make the walk of the first candidate flag return perms, and no later one."""
    fed = [perms]
    monkeypatch.setattr(symmetry, "_isomorphism", lambda *a: fed.pop() if fed else None)


def test_closure_rejects_a_product_that_maps_the_base_flag_off_the_candidates(rco, monkeypatch):
    # a genuine vertex permutation, so the walk keeps it, with the identity
    # face permutation: its base-flag image is no flag of that signature
    quarter = next(iso for iso in isometry_group(rco) if iso.proper and iso.order() == 4)
    _feed(monkeypatch, (quarter.vertex_perm, tuple(range(rco.n_faces))))
    with pytest.raises(InternalGeometryError, match="not closed"):
        isometry_group(Polyhedron(rco.vertices, rco.faces))


def test_closure_rejects_mismatched_permutations(pseudo, monkeypatch):
    # the vertex permutation of one symmetry with the face permutation of another
    group = isometry_group(pseudo)
    a, b = [iso for iso in group if iso.order() == 2 and not iso.proper][:2]
    _feed(monkeypatch, (a.vertex_perm, b.face_perm))
    with pytest.raises(InternalGeometryError, match="not closed"):
        isometry_group(Polyhedron(pseudo.vertices, pseudo.faces))


def test_closure_rejects_two_products_with_one_base_flag_image(cube):
    # the identity, and a generator that fixes every vertex but swaps two
    # faces away from the base flag: the product has the identity's image
    ident = next(iso for iso in isometry_group(cube) if iso.order() == 1)
    base = next(symmetry._flags(cube))[:3]
    swap = list(range(cube.n_faces))
    i, j = [f for f in swap if f != base[2]][:2]
    swap[i], swap[j] = j, i
    with pytest.raises(InternalGeometryError, match="not closed"):
        symmetry._close({base: ident}, [(ident.vertex_perm, tuple(swap))], base, None)


# -- congruence of two meshes ------------------------------------------------------


def test_no_congruence_between_different_solids(rco, pseudo, cube):
    j28, j29 = _corpus_mesh("J28", "2"), _corpus_mesh("J29", "2")
    assert len(congruences(j28, j28)) == len(congruences(j29, j29)) == 16
    assert (j28.n_vertices, j28.n_edges, j28.n_faces) == (j29.n_vertices, j29.n_edges, j29.n_faces)
    for p, q in ((rco, pseudo), (pseudo, rco), (j28, j29), (j29, j28),
                 (build_rhombicuboctahedron(2), build_rhombicuboctahedron(3)), (rco, cube)):
        assert congruences(p, q) == ()


def test_self_congruences_are_the_group(rco, pseudo):
    for p in (rco, pseudo, _corpus_mesh("J29", "7/3")):
        assert congruences(p, p) == isometry_group(p)


@functools.lru_cache(maxsize=None)
def _corpus_group(name, edge) -> frozenset:
    return frozenset(iso.matrix for iso in isometry_group(_corpus_mesh(name, edge)))


# no shrinking: each shrink step reruns the exact search
@settings(max_examples=40, deadline=None,
          phases=[ph for ph in Phase if ph is not Phase.shrink])
@given(st.sampled_from(sorted(_SOLIDS)), st.sampled_from(["2", "7/3", "1+1*sqrt2"]),
       _rationals, _rationals, _rationals, st.tuples(_rationals, _rationals, _rationals),
       st.booleans(), st.randoms(use_true_random=False))
def test_congruences_recover_a_moved_shuffled_copy(name, edge, a, b, c, shift, invert, rng):
    p = _corpus_mesh(name, edge)
    rot = _cayley(a, b, c)
    if invert:
        rot = tuple(tuple(-x for x in row) for row in rot)
    order = list(range(p.n_vertices))
    rng.shuffle(order)  # vertex i of p is vertex order[i] of q
    moved = [None] * p.n_vertices
    for i, v in enumerate(p.vertices):
        moved[order[i]] = tuple(x + t for x, t in zip(mat_vec(rot, v), shift))
    faces = [tuple(order[i] for i in f) for f in p.faces]
    rng.shuffle(faces)
    q = Polyhedron(moved, faces)
    found = congruences(p, q)
    assert {iso.matrix for iso in found} == {mat_mul(rot, g) for g in _corpus_group(name, edge)}
    assert len(found) == len(_corpus_group(name, edge))
    cp, cq = geom.centroid(p.vertices), geom.centroid(q.vertices)
    for iso in found:
        for i, v in enumerate(p.vertices):
            assert mat_vec(iso.matrix, vsub(v, cp)) == vsub(q.vertices[iso.vertex_perm[i]], cq)
        for f, face in enumerate(p.faces):
            assert set(q.faces[iso.face_perm[f]]) == {iso.vertex_perm[i] for i in face}


def test_float_congruences_are_in_units_of_the_first_diameter(rco, pseudo):
    text, twin = write_off(rco), write_off(pseudo)
    a, b = (read_off(noisy_off(text, 1e-12, random.Random(seed))) for seed in (1, 2))
    assert len(congruences(a, b)) == 48
    assert congruences(a, read_off(noisy_off(twin, 1e-12, random.Random(3)))) == ()
    grown = Polyhedron([tuple(x * (1 + 1e-6) for x in v) for v in a.vertices], a.faces, 1e-9)
    assert len(isometry_group(grown)) == 48 and congruences(a, grown) == ()


def test_an_exact_and_a_float_mesh_have_no_common_scale(rco):
    with pytest.raises(ValueError, match="exact"):
        congruences(rco, _float_mesh(rco, 1.0))
    with pytest.raises(ValueError, match="exact"):
        congruences(_float_mesh(rco, 1.0), rco)


# -- lattice coordinates against Q2 ------------------------------------------------

_small_q2 = st.builds(Q2, st.fractions(min_value=-3, max_value=3, max_denominator=6),
                      st.fractions(min_value=-3, max_value=3, max_denominator=6))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_small_q2, _small_q2, _small_q2), min_size=4, max_size=7),
       st.randoms(use_true_random=False))
def test_lattice_decides_like_q2(points, rng):
    p = Polyhedron(points, [])
    k, verts = p.kernel, p.points
    c = geom.centroid(p.vertices)
    q2 = [vsub(v, c) for v in points]
    gram = [[k.dot(u, v) for v in verts] for u in verts]
    for i, j in itertools.product(range(len(points)), repeat=2):
        assert k.sign(gram[i][j]) == vdot(q2[i], q2[j]).sign()
        cross = k.cross(verts[i], verts[j])
        assert [k.sign(cross[t:t + 2]) for t in (0, 2, 4)] == [
            x.sign() for x in vcross(q2[i], q2[j])]
    for v in points + q2:  # back from the lattice: divided by its first nonzero entry
        lead = next((x for x in v if x), None)
        if lead is not None:
            assert k.canon_dir(k.vec(v)) == tuple(x / lead for x in v)
    framed = k.frame(verts, gram)
    if framed is None:  # every triple is dependent
        assert all(not geom.mat_det((q2[a], q2[b], q2[e]))
                   for a, b, e in itertools.combinations(range(len(points)), 3))
        return
    frame, inv = framed
    perm = list(range(len(points)))
    rng.shuffle(perm)
    m, proper = k.frame_map([verts[perm[f]] for f in frame], inv)
    expected = mat_mul(mat_transpose([q2[perm[f]] for f in frame]),
                       _inverse(mat_transpose([q2[f] for f in frame])))
    assert m == expected
    assert proper == (geom.mat_det(expected).sign() > 0)
