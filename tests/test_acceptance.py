"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output).  Everything here is exact unless a criterion states
a tolerance; the only toleranced path is OFF ingestion at 1e-9.
"""

import random
from fractions import Fraction

from conftest import q2_identity

from gyrolab import geom
from gyrolab.belts import belt_square_overlap, find_belts
from gyrolab.foldsim import fold
from gyrolab.geom import mat_mul, mat_vec
from gyrolab.netgen import generate_nets, render_svg
from gyrolab.qfield import ONE, ZERO, Q2
from gyrolab.solids import (
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
    face_census,
    read_off,
    validate,
    vertex_figure,
    write_off,
)
from gyrolab.symmetry import isometry_group, symmetry_report


def _verdict(num: int, label: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"{'FAIL' if exc_type else 'PASS'} criterion {num}: {label}")
            return False

    return _Ctx()


def test_criterion_1_face_census(rco, pseudo):
    with _verdict(1, "both builders: 26 faces = 8 triangles + 18 quads (exact)"):
        for p in (rco, pseudo):
            c = face_census(p)
            assert p.n_faces == 26
            assert c.triangles == 8
            assert c.quads == 18
            assert c.other == 0


def test_criterion_2_axis_counts(rco_sym, pseudo_sym):
    with _verdict(2, "rotation axes: exactly 13 and exactly 5"):
        assert len(rco_sym.axes) == 13
        assert len(pseudo_sym.axes) == 5


def test_criterion_3_axis_incidence(rco_sym):
    with _verdict(3, "all 13 axes pass through two opposite face centers (exact)"):
        for ax in rco_sym.axes:
            assert ax.features is not None
            a, b = ax.features
            assert a.kind == "face" and b.kind == "face"
            assert all((x + y).is_zero() for x, y in zip(a.point, b.point))


def test_criterion_4_polar_rotations(rco, pseudo):
    with _verdict(4, "polar rotations are exactly {90, 180, 270}, exact powers"):
        from gyrolab.symmetry import polar_axis_rotations

        ez = (ZERO, ZERO, ONE)
        ident = q2_identity()
        for p in (rco, pseudo):
            assert polar_axis_rotations(p) == (90, 180, 270)
            polar = [
                iso.matrix
                for iso in isometry_group(p)
                if iso.proper and mat_vec(iso.matrix, ez) == ez and iso.matrix != ident
            ]
            assert len(polar) == 3
            for m in polar:
                p4 = mat_mul(mat_mul(m, m), mat_mul(m, m))
                assert p4 == ident  # 90/180/270 all satisfy M^4 = I exactly
            # exactly one half turn; the two quarter turns have M^2 != I
            assert sum(1 for m in polar if mat_mul(m, m) == ident) == 1


def test_criterion_5_group_orders(rco, pseudo, rco_sym, pseudo_sym):
    with _verdict(5, "group orders 24/48 and 8/16, axis class equation holds"):
        assert rco_sym.proper_order == 24 and rco_sym.full_order == 48
        assert pseudo_sym.proper_order == 8 and pseudo_sym.full_order == 16
        for rep in (rco_sym, pseudo_sym):
            assert sum(ax.order - 1 for ax in rep.axes) + 1 == rep.proper_order


def test_criterion_6_belts_and_poles(rco, pseudo):
    with _verdict(6, "3 belts of 8 with 3 pole pairs vs 1 belt with 1 pole pair"):
        belts = find_belts(rco)
        assert len(belts) == 3 and all(b.length == 8 for b in belts)
        pole_faces = [f for b in belts for f in b.pole_faces]
        assert len(set(pole_faces)) == 6
        ov = belt_square_overlap(rco, belts)
        assert all(n == 2 for n in ov.pairwise.values()) and len(ov.pairwise) == 3
        assert ov.union_size == 18
        p_belts = find_belts(pseudo)
        assert len(p_belts) == 1 and p_belts[0].length == 8
        assert p_belts[0].pole_faces is not None


def test_criterion_7_transitivity_split(rco, pseudo, rco_sym, pseudo_sym):
    with _verdict(7, "vertex-transitive vs not, both with uniform (3,4,4,4) figures"):
        assert rco_sym.vertex_transitive
        assert not pseudo_sym.vertex_transitive
        for p in (rco, pseudo):
            figures = {vertex_figure(p, v) for v in range(p.n_vertices)}
            assert figures == {(3, 4, 4, 4)}


def test_criterion_8_fold_round_trip(net50):
    with _verdict(8, "fold reproduces both vertex sets exactly (zero residual)"):
        for gyration, builder, name in (
            (0, build_rhombicuboctahedron, "rhombicuboctahedron"),
            (45, build_pseudo_rhombicuboctahedron, "pseudo-rhombicuboctahedron"),
        ):
            result = fold(net50, gyration)
            assert result.matched and result.target_name == name
            assert result.closure.ok
            assert result.closure_residual == Q2(0)
            corners = set()
            for sq in (sq for sqs in result.squares.values() for sq in sqs
                       if sq.role in ("face", "pole")):
                corners.update(sq.corners)
            assert corners == set(builder(Fraction(50)).vertices)


def test_criterion_9_net_output(net50):
    with _verdict(9, "SVG: 27 squares, 9 grey, 2 pole crosses, fits A2, reproducible"):
        import xml.etree.ElementTree as ET

        svg = render_svg(net50, "A2")
        assert svg == render_svg(generate_nets(50), "A2")
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f".//{ns}rect")
        assert len(rects) == 27
        assert sum(1 for r in rects if r.get("fill") == "#cccccc") == 9
        crosses = [
            g for g in root.findall(f".//{ns}g") if g.get("class") == "pole-cross"
        ]
        assert len(crosses) == 2
        assert root.get("width") == "420mm" and root.get("height") == "594mm"


def test_criterion_10_ingestion_robustness(rco, pseudo, rco_sym, pseudo_sym):
    with _verdict(10, "OFF round trip at 1e-9 reproduces group/axis/belt counts"):
        for p, rep in ((rco, rco_sym), (pseudo, pseudo_sym)):
            q = read_off(write_off(p))
            float_rep = symmetry_report(q)
            assert float_rep.proper_order == rep.proper_order
            assert float_rep.full_order == rep.full_order
            assert len(float_rep.axes) == len(rep.axes)
            assert len(find_belts(q)) == len(find_belts(p))


def test_criterion_11_property_suites(rco, cube):
    with _verdict(11, "field axioms, group closure/inverses, seeded-defect detection"):
        rng = random.Random(99)

        def rand_q2():
            return Q2(
                Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
                Fraction(rng.randint(-999, 999), rng.randint(1, 99)),
            )

        for _ in range(300):
            x, y, z = rand_q2(), rand_q2(), rand_q2()
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == ONE
        group = isometry_group(rco)
        mats = {iso.matrix for iso in group}
        for _ in range(100):
            a, b = rng.choice(group), rng.choice(group)
            assert mat_mul(a.matrix, b.matrix) in mats
            assert geom.mat_transpose(a.matrix) in mats
        broken = Polyhedron(cube.vertices, cube.faces[:-1])
        report = validate(broken)
        assert not report.ok
        assert len(report.open_edges) == 4
