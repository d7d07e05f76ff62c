import collections
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from conftest import (
    CUBE,
    FRUSTUM,
    OCTAGONAL_PRISM,
    RHOMBOHEDRON,
    TRUNCATED_CUBE,
    TRUNCATED_CUBOCTAHEDRON,
)
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from gyrolab import solids
from gyrolab.cli import main
from gyrolab.foldsim import fold
from gyrolab.geom import (
    centroid,
    cycle_order,
    is_zero_vec,
    vcross,
    vdot,
    vneg,
    vsub,
    z2_scaled,
)
from gyrolab.netgen import generate_nets
from gyrolab.qfield import ONE, SQRT2, Q2, parse, sign_z2
from gyrolab.solids import (
    OffParseError,
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
    convex_hull_faces,
    face_census,
    read_off,
    to_json,
    validate,
    vertex_figure,
    write_off,
)

def brute_force_vertex_set(edge) -> set:
    """Independent oracle: distinct coordinate permutations of
    (+-s, +-s, +-(1+sqrt2)s)."""
    s = Q2.coerce(edge) * Q2(Fraction(1, 2))
    t = (ONE + SQRT2) * s
    out = set()
    for signs in itertools.product((1, -1), repeat=3):
        base = (signs[0] * s, signs[1] * s, signs[2] * t)
        for perm in itertools.permutations(range(3)):
            out.add(tuple(base[perm.index(k)] for k in range(3)))
    return out


def brute_force_pseudo_vertex_set(edge) -> set:
    """The rco oracle set with its 4 top vertices turned 45 degrees about z."""
    top = (ONE + SQRT2) * Q2.coerce(edge) * Q2(Fraction(1, 2))
    h = Q2(0, Fraction(1, 2))  # cos 45 = sin 45
    return {(h * (x - y), h * (x + y), z) if z == top else (x, y, z)
            for x, y, z in brute_force_vertex_set(edge)}


def test_vertex_count_against_brute_force(rco):
    expected = brute_force_vertex_set(2)
    assert set(rco.vertices) == expected
    assert rco.n_vertices == len(expected) == 24


def test_edge_count_against_min_distance_pairs(rco):
    # independent oracle: for this solid, vertex pairs at distance == edge
    # are exactly the edges (the next-smallest gap is the square diagonal)
    L2 = Q2(4)
    pairs = {
        (i, j)
        for i in range(24)
        for j in range(i + 1, 24)
        if vdot(vsub(rco.vertices[i], rco.vertices[j]),
                vsub(rco.vertices[i], rco.vertices[j])) == L2
    }
    assert len(pairs) == 48
    assert set(rco.edges) == pairs
    assert rco.n_vertices - rco.n_edges + rco.n_faces == 2


def test_face_census_both_solids(rco, pseudo):
    for p in (rco, pseudo):
        c = face_census(p)
        assert p.n_faces == 26
        assert (c.triangles, c.quads, c.other) == (8, 18, 0)


def test_every_edge_has_exact_build_length(rco):
    for (i, j) in rco.edges:
        d = vsub(rco.vertices[i], rco.vertices[j])
        assert vdot(d, d) == Q2(4)


def test_pseudo_counts(pseudo):
    assert (pseudo.n_vertices, pseudo.n_edges, pseudo.n_faces) == (24, 48, 26)
    assert pseudo.euler_characteristic == 2


def test_pseudo_vertex_set_differs_in_exactly_four_points(rco, pseudo):
    assert len(set(pseudo.vertices) - set(rco.vertices)) == 4
    assert len(set(rco.vertices) - set(pseudo.vertices)) == 4


def test_canonical_pose(rco, pseudo):
    t = ONE + SQRT2  # edge 2 -> s = 1
    for p in (rco, pseudo):
        assert all(c.is_zero() for c in p.vertex_centroid())
        polar_centers = {
            tuple(p.face_center(fi))
            for fi in range(p.n_faces)
            if len(p.faces[fi]) == 4
        }
        assert (Q2(0), Q2(0), t) in polar_centers
        assert (Q2(0), Q2(0), -t) in polar_centers


def test_builders_pass_validation(rco, pseudo, cube):
    for p in (rco, pseudo, cube):
        report = validate(p)
        assert report.ok, [c for c in report.checks if not c.passed]


@pytest.mark.parametrize("edge", [Fraction(5), Fraction(7, 3), Q2(1, 1)])
def test_scaling_changes_no_combinatorics(edge, rco):
    p = build_rhombicuboctahedron(edge)
    scale = Q2.coerce(edge) * Q2(Fraction(1, 2))
    assert p.vertices == tuple(
        tuple(c * scale for c in v) for v in rco.vertices
    )
    assert p.faces == rco.faces
    assert face_census(p) == face_census(rco)
    assert validate(p).ok


@pytest.mark.parametrize("edge", [1, Fraction(3, 2), Q2(1, 1), 50])
@pytest.mark.parametrize("builder,oracle", [
    (build_rhombicuboctahedron, brute_force_vertex_set),
    (build_pseudo_rhombicuboctahedron, brute_force_pseudo_vertex_set),
])
def test_scaled_build_equals_a_fresh_hull(edge, builder, oracle):
    p = builder(edge)
    verts = tuple(sorted(oracle(edge)))
    assert p.vertices == verts
    assert p.faces == tuple(convex_hull_faces(verts))  # same faces, same winding
    assert validate(p).ok


def _clear_build_caches():
    build_rhombicuboctahedron.cache_clear()
    build_pseudo_rhombicuboctahedron.cache_clear()
    solids._canonical.cache_clear()


def test_one_hull_per_solid_whatever_the_edge(monkeypatch):
    calls = []
    hull = solids.convex_hull_faces

    def counting_hull(verts):
        calls.append(len(verts))
        return hull(verts)

    monkeypatch.setattr(solids, "convex_hull_faces", counting_hull)
    _clear_build_caches()
    for edge in (1, Fraction(3, 2), Q2(1, 1)):
        build_pseudo_rhombicuboctahedron(edge)
    assert calls == [24]
    calls.clear()
    _clear_build_caches()
    fold(generate_nets(50), 45)
    assert len(calls) <= 2


def test_a_net_that_cannot_fit_its_sheet_runs_no_hull(monkeypatch, tmp_path, capsys):
    calls = []
    hull = solids.convex_hull_faces

    def counting_hull(verts):
        calls.append(len(verts))
        return hull(verts)

    monkeypatch.setattr(solids, "convex_hull_faces", counting_hull)
    _clear_build_caches()
    assert main(["net", "--edge", "100", "--paper", "A4", "-o", str(tmp_path / "a4.svg")]) == 1
    assert "error: pieces do not fit A4" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "a4.svg").exists()
    assert main(["net", "--edge", "40", "--paper", "A2", "-o", str(tmp_path / "a2.svg")]) == 0
    assert calls == [24]  # the counter sees the hull of a net that fits


def test_positive_edge_required():
    with pytest.raises(ValueError):
        build_rhombicuboctahedron(0)
    with pytest.raises(ValueError):
        build_pseudo_rhombicuboctahedron(Fraction(-1, 2))


def test_vertex_figures_all_3444(rco, pseudo):
    for p in (rco, pseudo):
        figures = {vertex_figure(p, v) for v in range(p.n_vertices)}
        assert figures == {(3, 4, 4, 4)}


def test_vertex_figure_cube(cube):
    assert vertex_figure(cube, 0) == (4, 4, 4)
    with pytest.raises(KeyError):
        vertex_figure(cube, 99)


_TETRAHEDRON = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))


@pytest.mark.parametrize("faces,v,message", [
    # two tetrahedra sharing vertex 0: two rings of three faces there
    (_TETRAHEDRON + tuple(tuple(4 * (x > 0) + x for x in f) for f in _TETRAHEDRON),
     0, "faces around vertex 0 do not form a cycle"),
    (_TETRAHEDRON[:3], 1, "surface around vertex 1 is not closed"),
], ids=["two rings", "open surface"])
def test_vertex_figure_rejects_a_broken_vertex_star(faces, v, message):
    verts = [(float(i), float(i * i), float(i ** 3)) for i in range(8)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        vertex_figure(Polyhedron(verts, faces), v)


def test_cycle_order_walks_from_the_smallest_node():
    assert cycle_order({2: [1, 3], 0: [3, 1], 3: [2, 0], 1: [0, 2]}) == [0, 3, 2, 1]


@pytest.mark.parametrize("neighbours", [
    {0: [1, 2], 1: [2, 0], 2: [0, 1], 3: [4, 5], 4: [5, 3], 5: [3, 4]},
    {0: [1, 2, 3], 1: [0, 2], 2: [1, 0], 3: [0, 1]},
], ids=["two triangles", "three neighbours"])
def test_cycle_order_rejects_anything_but_one_cycle(neighbours):
    with pytest.raises(ValueError):
        cycle_order(neighbours)


def test_vertex_on_no_face_fails_the_index_check(cube):
    p = Polyhedron(cube.vertices + ((Q2(0), Q2(0), Q2(0)),), cube.faces)
    check = next(c for c in validate(p).checks if c.name == "indices")
    assert not check.passed and check.detail == "vertices on no face [8]"


def test_cube_fixture_passes_validation(cube_off_text):
    p = read_off(cube_off_text)
    assert not p.exact
    assert validate(p).ok


def test_open_edge_detection(cube):
    broken = Polyhedron(cube.vertices, cube.faces[:-1])
    report = validate(broken)
    assert not report.ok
    assert not report.passed("manifold")
    assert len(report.open_edges) == 4


def test_dangling_index_reported_not_raised(cube):
    bad = Polyhedron(cube.vertices, list(cube.faces) + [(0, 1, 99)])
    report = validate(bad)
    assert not report.ok
    assert not report.passed("indices")


def test_flipped_face_breaks_winding(cube):
    faces = list(cube.faces)
    faces[0] = tuple(reversed(faces[0]))
    report = validate(Polyhedron(cube.vertices, faces))
    assert not report.passed("winding")


def test_off_round_trip(rco):
    p = read_off(write_off(rco))
    assert (p.n_vertices, p.n_faces, p.n_edges) == (24, 26, 48)
    assert p.faces == rco.faces
    for u, v in zip(p.vertices, rco.vertices):
        assert max(abs(a - float(b)) for a, b in zip(u, v)) < 1e-12
    assert validate(p).ok


def test_off_counts_line_matches_contents(rco):
    header = write_off(rco).splitlines()[1]
    assert header == "24 26 48"


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("FOO\n3 1 0\n", 1),
        ("OFF\n1 2\n", 2),
        ("OFF\n1 0 0\n0.0 0.0\n", 3),
        ("OFF\n1 1 0\n0 0 0\n4 0 0 0\n", 4),
        ("OFF\n-3 -1 0\n", 2),
        ("OFF\n1 0 0\n0 0 0\n# comment\n3 0 0 0\n", 5),
        ("OFF\n1 0 0\nnan 0 0\n", 3),
        ("OFF\n2 0 0\n0 0 0\n0 inf 0\n", 4),
        ("OFF\n1 0 0\n# comment\n0 0 -inf\n", 4),
    ],
)
def test_off_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(OffParseError) as exc:
        read_off(text)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


def test_off_skips_comments_and_blank_lines(cube_off_text):
    text = "# comment\n\n" + cube_off_text.replace("OFF\n", "OFF\n# inner\n\n")
    assert read_off(text).n_faces == 6


def test_json_dump_round_trips_exactly(pseudo):
    doc = json.loads(to_json(pseudo, "pseudo"))
    assert doc["schema"] == "gyrolab/1"
    verts = [tuple(parse(c) for c in v) for v in doc["vertices"]]
    assert tuple(verts) == pseudo.vertices
    assert [tuple(f) for f in doc["faces"]] == list(pseudo.faces)


def test_json_dump_requires_exact_mesh(rco):
    with pytest.raises(ValueError):
        to_json(read_off(write_off(rco)))


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value="1/10", max_value=20, max_denominator=40))
def test_off_floats_have_full_precision(edge):
    base = build_rhombicuboctahedron(2)
    scale = Q2(edge) * Q2(Fraction(1, 2))
    p = Polyhedron(
        [tuple(c * scale for c in v) for v in base.vertices], base.faces
    )
    q = read_off(write_off(p))
    for u, v in zip(q.vertices, p.vertices):
        assert max(abs(a - float(b)) for a, b in zip(u, v)) <= 1e-13 * float(edge)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, 0.0])
def test_meaningless_tolerance_rejected(cube, cube_off_text, tol):
    with pytest.raises(ValueError, match="finite and positive"):
        read_off(cube_off_text, tol)
    with pytest.raises(ValueError, match="finite and positive"):
        Polyhedron(cube.vertices, cube.faces, tol)


# -- the hull against the Q2 triple scan it replaced --------------------------


def _ccw_sort_in_plane(indices, vertices, normal):
    """Order coplanar points counterclockwise around their centroid, as
    seen from the tip of ``normal``: an exact angular comparator, so the
    oracle orders each face by geometry, not by the hull's edge lattice."""
    c = centroid([vertices[i] for i in indices])
    e1 = vsub(vertices[indices[0]], c)
    e2 = vcross(normal, e1)
    pts = {i: (vdot(vsub(vertices[i], c), e1), vdot(vsub(vertices[i], c), e2))
           for i in indices}

    def half(i):  # 0 on the half-plane from angle 0 up to, not including, 180
        u, w = pts[i]
        return 0 if w.sign() > 0 or (w.is_zero() and u.sign() > 0) else 1

    def cmp(i, j):
        if half(i) != half(j):
            return -1 if half(i) < half(j) else 1
        (ui, wi), (uj, wj) = pts[i], pts[j]
        return -(ui * wj - wi * uj).sign()  # positive cross: i before j

    return sorted(indices, key=functools.cmp_to_key(cmp))


def _oracle_hull(vertices):
    """The Q2 triple scan: every supporting plane through a vertex triple,
    deduplicated by canonical direction and offset, each face ordered by
    its angles around the centroid."""
    n = len(vertices)
    seen_planes: set = set()
    faces = {}
    for i in range(n):
        for j in range(i + 1, n):
            eij = vsub(vertices[j], vertices[i])
            for k in range(j + 1, n):
                nrm = vcross(eij, vsub(vertices[k], vertices[i]))
                if is_zero_vec(nrm):
                    continue
                lead = next(x for x in nrm if x)
                d = tuple(x / lead for x in nrm)  # first nonzero component 1
                key = (d, vdot(d, vertices[i]))
                if key in seen_planes:
                    continue
                seen_planes.add(key)
                h = vdot(nrm, vertices[i])
                side = 0
                members = []
                for m, v in enumerate(vertices):
                    s = (vdot(nrm, v) - h).sign()
                    if not s:
                        members.append(m)
                    elif s != side:
                        if side:
                            break
                        side = s
                else:
                    outward = nrm if side < 0 else vneg(nrm)
                    ordered = _ccw_sort_in_plane(members, vertices, outward)
                    lo = ordered.index(min(ordered))
                    face = tuple(ordered[lo:] + ordered[:lo])
                    faces[frozenset(face)] = face
    return sorted(faces.values(), key=lambda f: tuple(sorted(f)))


_HULL_POINT_SETS = {
    "rco": tuple(sorted(solids._rco_points())),
    "pseudo": tuple(sorted(solids._pseudo_points())),
    "truncated cube": tuple(TRUNCATED_CUBE),
    "truncated cuboctahedron": tuple(TRUNCATED_CUBOCTAHEDRON),
}

_ORIGIN = (Q2(0), Q2(0), Q2(0))
_small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
_q2s = st.builds(Q2, _small_rationals, _small_rationals)


@functools.lru_cache(maxsize=None)
def _full_set_oracle(name: str):
    """The oracle's faces of a full point set plus the origin.  A positive
    scaling and a translation change no face, so this O(n^4) Q2 scan, over
    a second for the 48 points, runs once per set, untransformed."""
    return _oracle_hull(list(_HULL_POINT_SETS[name]) + [_ORIGIN])


@st.composite
def _hull_inputs(draw):
    """(points, name of the full set or None): a subset of 5 to 24 points
    of one solid, or its full set plus the origin (the last point, strictly
    interior), under a random positive scale and translation."""
    name = draw(st.sampled_from(sorted(_HULL_POINT_SETS)))
    points = _HULL_POINT_SETS[name]
    if draw(st.booleans()):
        picked = list(points) + [_ORIGIN]
    else:
        name = None
        idx = draw(st.lists(st.integers(0, len(points) - 1), min_size=5,
                            max_size=24, unique=True))
        picked = [points[i] for i in idx]
        a, b, c = picked[:3]
        nrm = vcross(vsub(b, a), vsub(c, a))
        assume(any(vdot(nrm, vsub(v, a)) for v in picked[3:]))  # not all coplanar
    scale = draw(_q2s.filter(lambda x: x.sign() > 0))
    shift = (draw(_q2s), draw(_q2s), draw(_q2s))
    return [tuple(c * scale + t for c, t in zip(v, shift)) for v in picked], name


# no shrinking: each shrink step reruns the O(n^4) oracle, so a failure
# took minutes to report
@settings(max_examples=30, deadline=None,
          phases=[ph for ph in Phase if ph is not Phase.shrink])
@given(_hull_inputs())
def test_hull_equals_the_q2_triple_scan(case):
    points, full_set = case
    faces = convex_hull_faces(points)
    if full_set is None:
        assert faces == _oracle_hull(points)  # same faces, winding and order
    else:
        assert faces == _full_set_oracle(full_set)
        assert all(len(points) - 1 not in f for f in faces)  # the origin


# -- the gift wrap against the integer triple scan it replaced -----------------


def _triple_scan_hull(vertices):
    """The integer triple scan, with its own Z[sqrt2] algebra: for every
    vertex triple, the plane normal and the exact side (``sign_z2``) of
    every point, on the lattice ints of ``geom.z2_scaled``.  A plane with
    every point on one side contributes the points on it; two of them are
    neighbours iff another such plane holds both, ``cycle_order`` walks the
    ring from the smallest, and the sign of the triple's normal sets the
    winding.  O(n^4), with covered triples skipped and points tried in
    move-to-front order."""
    n = len(vertices)
    pts = z2_scaled(vertices)
    order = list(range(n))
    covered: set = set()
    planes = []  # (sorted members, j, k, whether u x v points outward)
    for i in range(n):
        rel = [tuple(a - b for a, b in zip(p, pts[i])) for p in pts]
        for j in range(i + 1, n):
            uxp, uxq, uyp, uyq, uzp, uzq = rel[j]
            for k in range(j + 1, n):
                if (i, j, k) in covered:
                    continue
                vxp, vxq, vyp, vyq, vzp, vzq = rel[k]
                # normal u x v, each component (p, q) for p + q*sqrt2
                xp = uyp * vzp + 2 * uyq * vzq - uzp * vyp - 2 * uzq * vyq
                xq = uyp * vzq + uyq * vzp - uzp * vyq - uzq * vyp
                yp = uzp * vxp + 2 * uzq * vxq - uxp * vzp - 2 * uxq * vzq
                yq = uzp * vxq + uzq * vxp - uxp * vzq - uxq * vzp
                zp = uxp * vyp + 2 * uxq * vyq - uyp * vxp - 2 * uyq * vxq
                zq = uxp * vyq + uxq * vyp - uyp * vxq - uyq * vxp
                if not (xp or xq or yp or yq or zp or zq):
                    continue  # collinear
                side, members = 0, []
                for m in order:
                    wxp, wxq, wyp, wyq, wzp, wzq = rel[m]
                    s = sign_z2(xp * wxp + 2 * xq * wxq + yp * wyp + 2 * yq * wyq
                                + zp * wzp + 2 * zq * wzq,
                                xp * wxq + xq * wxp + yp * wyq + yq * wyp
                                + zp * wzq + zq * wzp)
                    if not s:
                        members.append(m)
                    elif s != side:
                        if side:
                            order.remove(m)
                            order.insert(0, m)
                            break
                        side = s
                else:
                    members.sort()
                    covered.update(itertools.combinations(members, 3))
                    planes.append((members, j, k, side < 0))
    shared = collections.Counter(
        pair for members, *_ in planes for pair in itertools.permutations(members, 2))
    faces = []
    for members, j, k, outward in planes:
        ring = cycle_order({a: [b for b in members if shared[a, b] > 1] for a in members})
        if (ring.index(j) < ring.index(k)) != outward:
            ring = ring[:1] + ring[:0:-1]
        faces.append(tuple(ring))
    return sorted(faces, key=sorted)


_WRAP_POINT_SETS = {
    "cube": CUBE,
    "octagonal prism": OCTAGONAL_PRISM,
    "truncated cube": TRUNCATED_CUBE,
    "truncated cuboctahedron": TRUNCATED_CUBOCTAHEDRON,
    "rco": sorted(solids._rco_points()),
    "pseudo": sorted(solids._pseudo_points()),
    "frustum": FRUSTUM,
    "rhombohedron": RHOMBOHEDRON,
}


def _scaled_and_shuffled(points, seed):
    """The points times 7/3 - sqrt2 (positive, irrational), in a seeded
    random order."""
    k = Q2(Fraction(7, 3), -1)
    order = list(range(len(points)))
    random.Random(seed).shuffle(order)
    return [tuple(c * k for c in points[i]) for i in order]


@pytest.mark.parametrize("name", sorted(_WRAP_POINT_SETS))
def test_gift_wrap_equals_the_triple_scan(name):
    points = list(_WRAP_POINT_SETS[name])
    for pts in (points, _scaled_and_shuffled(points, name)):
        assert convex_hull_faces(pts) == _triple_scan_hull(pts)  # faces, winding, order


@pytest.mark.parametrize("name", sorted(_WRAP_POINT_SETS))
def test_an_interior_point_is_on_no_face(name):
    points = list(_WRAP_POINT_SETS[name])
    for pts in (points, _scaled_and_shuffled(points, name)):
        faces = convex_hull_faces(pts + [centroid(pts)])
        assert faces == convex_hull_faces(pts)  # so the centroid, last, is on none


_FLAT_OCTAGON = [v for v in solids._rco_points() if v[2] == ONE]


@pytest.mark.parametrize("points", [
    [], CUBE[:1], CUBE[:2], CUBE[:3], CUBE[:4], _FLAT_OCTAGON,
    [(Q2(k), Q2(2 * k), Q2(-k)) for k in range(5)],
    [(ONE, ONE, Q2(k)) for k in range(5)],
    CUBE + [(Q2(0), Q2(0), ONE)], CUBE + [(Q2(0), ONE, ONE)],
], ids=["none", "one", "two", "three", "flat square", "flat octagon", "collinear",
        "collinear along z", "face centre", "edge midpoint"])
def test_degenerate_point_sets_raise(points):
    """Fewer than 4 points, a flat or collinear set, or a point on the hull
    that is not a vertex of it."""
    with pytest.raises(ValueError):
        convex_hull_faces(points)


@pytest.mark.parametrize("points,census", [
    (CUBE, {4: 6}),
    (OCTAGONAL_PRISM, {4: 8, 8: 2}),
    (TRUNCATED_CUBE, {3: 8, 8: 6}),
    (TRUNCATED_CUBOCTAHEDRON, {4: 12, 6: 8, 8: 6}),
], ids=["cube", "octagonal prism", "truncated cube", "truncated cuboctahedron"])
def test_known_answer_hulls(points, census):
    p = Polyhedron(points, convex_hull_faces(points))
    assert validate(p).ok, [c for c in validate(p).checks if not c.passed]
    assert p.euler_characteristic == 2
    assert collections.Counter(len(f) for f in p.faces) == census
