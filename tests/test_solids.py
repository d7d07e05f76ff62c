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
    fan_triangulated,
)
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from gyrolab import solids
from gyrolab.cli import main
from gyrolab.foldsim import fold
from gyrolab.geom import (
    EXACT,
    centroid,
    is_zero_vec,
    vcross,
    vdot,
    vneg,
    vsub,
)
from gyrolab.netgen import cycle_order, generate_nets
from gyrolab.qfield import ONE, SQRT2, Q2, parse, sign_z2
from gyrolab.solids import (
    OffParseError,
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
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
        assert all(c.is_zero() for c in centroid(p.vertices))
        polar_centers = {
            centroid([p.vertices[i] for i in p.faces[fi]])
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
    assert p.faces == Polyhedron(verts).faces  # same faces, same winding
    assert validate(p).ok


@pytest.mark.parametrize("builder,kind", [(build_rhombicuboctahedron, "rco"),
                                          (build_pseudo_rhombicuboctahedron, "pseudo")],
                         ids=["rco", "pseudo"])
def test_edge_2_is_the_canonical_solid(builder, kind):
    # no copy at edge 2: the lattice points of the hull's solid are kept
    assert builder(2) is solids._canonical(kind)


def _clear_build_caches():
    build_rhombicuboctahedron.cache_clear()
    build_pseudo_rhombicuboctahedron.cache_clear()
    solids._canonical.cache_clear()


def test_one_hull_per_solid_whatever_the_edge(monkeypatch):
    calls = []
    hull = solids.convex_hull_faces

    def counting_hull(p):
        calls.append(p.n_vertices)
        return hull(p)

    monkeypatch.setattr(solids, "convex_hull_faces", counting_hull)
    _clear_build_caches()
    for edge in (1, Fraction(3, 2), Q2(1, 1)):
        build_pseudo_rhombicuboctahedron(edge)
    assert calls == [24]
    calls.clear()
    _clear_build_caches()
    fold(generate_nets(50), 45)
    assert calls == [24]  # the target solid's; the net builds none


def test_a_net_that_cannot_fit_its_sheet_runs_no_hull(monkeypatch, tmp_path, capsys):
    calls = []
    hull = solids.convex_hull_faces

    def counting_hull(p):
        calls.append(p.n_vertices)
        return hull(p)

    monkeypatch.setattr(solids, "convex_hull_faces", counting_hull)
    _clear_build_caches()
    assert main(["net", "--edge", "100", "--paper", "A4", "-o", str(tmp_path / "a4.svg")]) == 1
    assert "error: pieces do not fit A4" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "a4.svg").exists()
    assert main(["net", "--edge", "40", "--paper", "A2", "-o", str(tmp_path / "a2.svg")]) == 0
    assert calls == [] and (tmp_path / "a2.svg").exists()  # nor does a net that fits


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


def reference_vertex_figure(p, v):
    """``vertex_figure`` as a neighbour dict that ``cycle_order`` walks."""
    if v not in p.vertex_faces:
        raise KeyError(f"unknown vertex index {v}")
    across = {}  # each face at v -> the two faces across its edges at v
    for fi in p.vertex_faces[v]:
        k = p.faces[fi].index(v)
        across[fi] = [p.across[fi][k - 1], p.across[fi][k]]
        if None in across[fi]:
            raise ValueError(f"surface around vertex {v} is not closed")
    try:
        cycle = cycle_order(across)
    except ValueError:
        raise ValueError(f"faces around vertex {v} do not form a cycle") from None
    degs = [len(p.faces[fi]) for fi in cycle]
    return min(tuple(s[r:] + s[:r]) for s in (degs, degs[::-1]) for r in range(len(s)))


def _figure_or_error(figure, p, v):
    try:
        return figure(p, v)
    except (KeyError, ValueError) as e:
        return type(e), str(e)


def _mangled_faces(rng, closed):
    """A closed face list with a few seeded breaks: dropped faces (open
    stars), fins, repeated vertices, reversed or doubled faces, a second
    copy glued at one vertex, or random faces."""
    faces = [list(f) for f in closed]
    n = 1 + max(map(max, faces))
    for _ in range(rng.randint(0, 3)):
        f = rng.choice([g for g in faces if len(g) > 1] or [[0, 0]])
        kind = rng.randrange(7)
        if kind == 0 and len(faces) > 1:
            faces.remove(f)
        elif kind == 1:  # a third face on the edge f[0] f[1]
            faces.append([f[1], f[0], rng.randrange(n)])
        elif kind == 2:
            f.insert(rng.randrange(len(f) + 1), rng.choice(f))
        elif kind == 3:
            f[rng.randrange(len(f))] = rng.randrange(n)
        elif kind == 4:
            faces.append(f[::-1] if rng.random() < 0.5 else list(f))
        elif kind == 5:  # vertex 0 shared, every other vertex new
            faces += [[x and x + n for x in g] for g in closed]
        else:
            faces.append([rng.randrange(n) for _ in range(rng.randint(0, 5))])
    rng.shuffle(faces)
    return faces


def test_vertex_figure_walks_across_as_cycle_order_did(rco, pseudo, cube):
    # values and error texts, vertex by vertex, on closed and broken stars,
    # and on random faces over four vertices: in the first two listed, a
    # walk over every face at a vertex closes, but one face across does not
    # list its neighbour back
    rng = random.Random(30)
    closed = [rco.faces, pseudo.faces, cube.faces, _TETRAHEDRON]
    meshes = [[[2, 2, 1, 3], [2, 1, 0, 2], [3, 3, 3, 0, 2]],
              [[2, 0, 0, 0, 3], [3], [1, 1, 0, 3, 2], [1, 2, 3, 2, 0]]]
    meshes += [_mangled_faces(rng, rng.choice(closed)) for _ in range(1500)]
    meshes += [[[rng.randrange(4) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 4))] for _ in range(3000)]
    outcomes = collections.Counter()
    for faces in meshes:
        n = 2 + max((i for f in faces for i in f), default=0)
        p = Polyhedron([(float(i), float(i * i), float(i ** 3)) for i in range(n)], faces)
        for v in range(n):
            got = _figure_or_error(vertex_figure, p, v)
            assert got == _figure_or_error(reference_vertex_figure, p, v), (faces, v)
            outcomes[got[1].strip("'").split(" vertex")[0] if isinstance(got[0], type)
                     else "figure"] += 1
    assert set(outcomes) == {"figure", "unknown", "surface around", "faces around"}


def _across_cases(cube):
    hole = cube.faces[:-1]  # the last face's four edges are open
    a, b = cube.faces[0][:2]
    fin = cube.faces + ((b, a, 7),)  # edge ab on three faces
    return {"open": Polyhedron(cube.vertices, hole), "fin": Polyhedron(cube.vertices, fin)}


def test_across_agrees_with_edge_faces(rco, pseudo, cube):
    # across[f][t] is the other face on edge (f[t], f[t+1]) when exactly two
    # faces hold it, None at a hole or on an edge held by three faces
    meshes = {"rco": rco, "pseudo": pseudo, "cube": cube, **_across_cases(cube)}
    nones = collections.Counter()
    for name, p in meshes.items():
        assert [len(row) for row in p.across] == [len(f) for f in p.faces]
        for fi, f in enumerate(p.faces):
            for t in range(len(f)):
                fs = p.edge_faces[tuple(sorted((f[t], f[(t + 1) % len(f)])))]
                g = p.across[fi][t]
                if len(fs) == 2:
                    assert {fi, g} == set(fs)
                    assert fi in p.across[g]  # symmetric
                else:
                    assert g is None
                    nones[name, len(fs)] += 1
    assert nones == {("open", 1): 4, ("fin", 3): 3, ("fin", 1): 2}  # the fin's free edges


def test_across_never_raises_on_a_malformed_mesh():
    verts = [(float(i), float(i * i), float(i ** 3)) for i in range(4)]
    # (0, 1, 0) holds edge 01 twice, and edge 00 with the face (0,)
    p = Polyhedron(verts, [(), (0,), (0, 1, 0), (1, 2, 9)])
    assert p.across == ((), (2,), (2, 2, 1), (None, None, None))


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


def _failed(report) -> set:
    return {c.name for c in report.checks if not c.passed}


def test_open_edge_detection(cube):
    broken = Polyhedron(cube.vertices, cube.faces[:-1])
    report = validate(broken)
    assert not report.ok
    assert "manifold" in _failed(report)
    assert len(report.open_edges) == 4


def test_dangling_index_reported_not_raised(cube):
    bad = Polyhedron(cube.vertices, list(cube.faces) + [(0, 1, 99)])
    report = validate(bad)
    assert not report.ok
    assert "indices" in _failed(report)


def test_flipped_face_breaks_winding(cube):
    faces = list(cube.faces)
    faces[0] = tuple(reversed(faces[0]))
    report = validate(Polyhedron(cube.vertices, faces))
    assert "winding" in _failed(report)


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


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, 0.0, 1.0, 1e300])
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
    faces = list(Polyhedron(points).faces)
    if full_set is None:
        assert faces == _oracle_hull(points)  # same faces, winding and order
    else:
        assert faces == _full_set_oracle(full_set)
        assert all(len(points) - 1 not in f for f in faces)  # the origin


# -- the gift wrap against the integer triple scan it replaced -----------------


def _triple_scan_hull(vertices):
    """The integer triple scan, with its own Z[sqrt2] algebra: for every
    vertex triple, the plane normal and the exact side (``sign_z2``) of
    every point, on the lattice ints of ``EXACT.coordinates``.  A plane with
    every point on one side contributes the points on it; two of them are
    neighbours iff another such plane holds both, ``cycle_order`` walks the
    ring from the smallest, and the sign of the triple's normal sets the
    winding.  O(n^4), with covered triples skipped and points tried in
    move-to-front order."""
    n = len(vertices)
    pts = EXACT.coordinates(vertices)
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


def _as_floats(points, noise=0.0, seed=0):
    """The points as floats, each coordinate moved by uniform noise in
    [-noise, noise]."""
    rng = random.Random(seed)
    return [tuple(float(c) + rng.uniform(-noise, noise) for c in v) for v in points]


def _on_both_kernels(names):
    """(name, kernel) for each name, exact and float; an exact case's id is
    the name alone."""
    return [pytest.param(name, kernel, id=name if kernel == "exact" else f"{name}, float")
            for name in names for kernel in ("exact", "float")]


@pytest.mark.parametrize("name,kernel", _on_both_kernels(sorted(_WRAP_POINT_SETS)))
def test_gift_wrap_equals_the_triple_scan(name, kernel):
    # floats at noise 0, 1e-12 and 1e-10, tolerance 1e-9: the same as exact
    points = list(_WRAP_POINT_SETS[name])
    for pts in (points, _scaled_and_shuffled(points, name)):
        expected = _triple_scan_hull(pts)  # faces, winding, order
        if kernel == "exact":
            assert list(Polyhedron(pts).faces) == expected
        else:
            for noise in (0.0, 1e-12, 1e-10):
                floats = _as_floats(pts, noise, f"{name}/{noise}")
                assert list(Polyhedron(floats, tolerance=1e-9).faces) == expected


@pytest.mark.parametrize("name", sorted(_WRAP_POINT_SETS))
def test_an_interior_point_is_on_no_face(name):
    points = list(_WRAP_POINT_SETS[name])
    for pts in (points, _scaled_and_shuffled(points, name)):
        faces = Polyhedron(pts + [centroid(pts)]).faces
        assert faces == Polyhedron(pts).faces  # so the centroid, last, is on none


_FLAT_OCTAGON = [v for v in solids._rco_points() if v[2] == ONE]


_DEGENERATE_POINT_SETS = {
    "none": [], "one": CUBE[:1], "two": CUBE[:2], "three": CUBE[:3],
    "flat square": CUBE[:4], "flat octagon": _FLAT_OCTAGON,
    "collinear": [(Q2(k), Q2(2 * k), Q2(-k)) for k in range(5)],
    "collinear along z": [(ONE, ONE, Q2(k)) for k in range(5)],
    "face centre": CUBE + [(Q2(0), Q2(0), ONE)],
    "edge midpoint": CUBE + [(Q2(0), ONE, ONE)],
}


@pytest.mark.parametrize("name,kernel", _on_both_kernels(_DEGENERATE_POINT_SETS))
def test_degenerate_point_sets_raise(name, kernel):
    """Fewer than 4 points, a flat or collinear set, or a point on the hull
    that is not a vertex of it."""
    points = _DEGENERATE_POINT_SETS[name]
    with pytest.raises(ValueError):
        Polyhedron(points if kernel == "exact" else _as_floats(points))


def test_the_float_hull_merges_a_triangulation(rco):
    # the vertices decide the faces, not the triangles a mesh was given as
    triangulated = read_off(fan_triangulated(write_off(rco)))
    assert (triangulated.n_faces, rco.n_faces) == (44, 26)
    assert Polyhedron(triangulated.vertices, tolerance=1e-9).faces == rco.faces


@pytest.mark.parametrize("points,census", [
    (CUBE, {4: 6}),
    (OCTAGONAL_PRISM, {4: 8, 8: 2}),
    (TRUNCATED_CUBE, {3: 8, 8: 6}),
    (TRUNCATED_CUBOCTAHEDRON, {4: 12, 6: 8, 8: 6}),
], ids=["cube", "octagonal prism", "truncated cube", "truncated cuboctahedron"])
def test_known_answer_hulls(points, census):
    p = Polyhedron(points)
    assert validate(p).ok, [c for c in validate(p).checks if not c.passed]
    assert p.euler_characteristic == 2
    assert collections.Counter(len(f) for f in p.faces) == census
