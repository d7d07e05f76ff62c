import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import DATA_DIR, fan_triangulated, make_cube, make_icosahedron, noisy_off
from test_foldsim import _PINNED_FOLD_SHA256

import gyrolab
from gyrolab.analysis import analyze, compare, text_report
from gyrolab.cli import main
from gyrolab.qfield import Q2
from gyrolab.qfield import parse as q2_parse
from gyrolab.solids import (
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
    read_off,
    write_off,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_off(capsys):
    code, out, _ = run(capsys, "build", "--solid", "rco", "--format", "off")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "24 26 48"
    p = read_off(out)
    assert p.n_faces == 26


def test_build_json_exact_coordinates(capsys):
    code, out, _ = run(capsys, "build", "--solid", "pseudo-rco", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "gyrolab/1"
    assert len(doc["vertices"]) == 24
    q2_parse(doc["vertices"][0][0])  # exact text form


def test_build_unknown_solid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--solid", "cube"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "pseudo-rco" in err and "rco" in err  # lists the valid names


@pytest.mark.parametrize("argv", [
    ["build", "--solid", "rco", "--edge", "1e3"],
    ["analyze", "--solid", "rco", "--edge", "0"],
    ["compare", "--edge", "-3"],
    ["net", "--edge", "abc"],
    pytest.param(["build", "--solid", "rco", "--edge", "9/7\n"], id="build-newline"),
], ids=lambda argv: argv[0])
def test_build_bad_edge_is_usage_error(tmp_path, capsys, argv):
    """A bad edge is a usage error of its own subcommand: that subcommand's
    usage line, then its error line."""
    sub = argv[0]
    if sub == "net":
        argv = [*argv, "-o", str(tmp_path / "net.svg")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: gyrolab {sub} ")
    assert any(line.startswith(f"gyrolab {sub}: error: ") for line in err)


@pytest.mark.parametrize("argv", [
    ["build", "--solid", "rco", "--edge", "1/0"],
    ["compare", "--edge", "3/0"],
])
def test_zero_denominator_edge_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: invalid Q2 literal: '{argv[-1]}'" in capsys.readouterr().err


def test_build_to_file(tmp_path, capsys):
    out_file = tmp_path / "rco.off"
    code, _, _ = run(capsys, "build", "--solid", "rco", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("OFF\n24 26 48")


def test_analyze_rco_text_ends_with_axes(capsys):
    code, out, _ = run(capsys, "analyze", "--solid", "rco")
    assert code == 0
    assert out.splitlines()[-1] == "rotation axes: 13"


def test_analyze_pseudo_axes(capsys):
    code, out, _ = run(capsys, "analyze", "--solid", "pseudo-rco")
    assert code == 0
    assert out.splitlines()[-1] == "rotation axes: 5"


def test_analyze_requires_a_source(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_analyze_ingested_off_matches_exact(tmp_path, capsys):
    out_file = tmp_path / "rco.off"
    run(capsys, "build", "--solid", "rco", "-o", str(out_file))
    code, out, _ = run(capsys, "analyze", "--input", str(out_file), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "float"
    assert doc["symmetry"]["proper_order"] == 24
    assert doc["symmetry"]["full_order"] == 48
    assert len(doc["symmetry"]["axes"]) == 13
    assert len(doc["belts"]) == 3


@pytest.mark.parametrize("edge", ["2/1000", "2/10000", "2/100000"])
@pytest.mark.parametrize("solid,group,axes,belts", [("rco", "48 (proper 24)", 13, 3),
                                                    ("pseudo-rco", "16 (proper 8)", 5, 1)])
def test_analyze_small_float_mesh(tmp_path, capsys, solid, group, axes, belts, edge):
    # every float decision is measured against the mesh's size
    mesh = tmp_path / "small.off"
    run(capsys, "build", "--solid", solid, "--edge", edge, "-o", str(mesh))
    code, out, err = run(capsys, "analyze", "--input", str(mesh))
    assert (code, err) == (0, "")
    assert f"symmetry group: {group}\n" in out
    assert f"\nrotation axes: {axes}\n" in out
    assert f"\nequatorial belts: {belts} " in out


_TEN_TO_400 = "1" + "0" * 400


@pytest.mark.parametrize("edge", [f"1/{_TEN_TO_400}", _TEN_TO_400],
                         ids=["underflow", "overflow"])
def test_off_refuses_an_edge_floats_cannot_hold(capsys, edge):
    code, out, err = run(capsys, "build", "--solid", "rco", "--edge", edge, "--format", "off")
    assert code == 1 and not out
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: edge {edge} ")
    code, out, _ = run(capsys, "build", "--solid", "rco", "--edge", edge, "--format", "json")
    assert code == 0 and json.loads(out)["vertices"]


@pytest.mark.parametrize("mesh", ["rco", "cube"], ids=["rco at edge 10^308", "cube at 1.5e308"])
def test_analyze_mesh_near_the_float_limit(tmp_path, capsys, cube_off_text, mesh):
    # sums and distances are taken at a power-of-two scale, so a mesh whose
    # coordinates are near the largest float reads back like any other
    path = tmp_path / "huge.off"
    if mesh == "rco":
        code, _, _ = run(capsys, "build", "--solid", "rco", "--edge", str(10**308), "-o", str(path))
        assert code == 0
    else:
        lines = cube_off_text.splitlines()
        lines[2:10] = [" ".join(f"{float(x) * 1.5e308:.17g}" for x in line.split())
                       for line in lines[2:10]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert (code, err) == (0, "")
    assert "symmetry group: 48 (proper 24)\n" in out
    assert "\nrotation axes: 13\n" in out
    assert "\nequatorial belts: 3 " in out
    code, out, err = run(capsys, "analyze", "--input", str(path), "--json")
    assert (code, err) == (0, "")
    assert "Infinity" not in out and "NaN" not in out


def test_net_refuses_an_edge_the_svg_cannot_draw(tmp_path, capsys):
    svg = tmp_path / "net.svg"
    code, out, err = run(capsys, "net", "--edge", "1/1000000", "-o", str(svg))
    assert code == 1 and not out and not svg.exists()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: edge 1/1000000 mm ")
    code, _, _ = run(capsys, "net", "--edge", "1/100", "-o", str(svg))
    assert code == 0 and 'width="0.01"' in svg.read_text()


@pytest.mark.parametrize("mesh", [
    "open square",
    *(f"{solid}_{noise}" for solid in ("rco", "pseudo", "cube") for noise in ("0", "1e-10")),
    "cube split around a face centre",
])
def test_analyze_broken_mesh_partial_exit_1(tmp_path, capsys, cube_off_text, mesh):
    # an open surface, or faces that do not fill their planes (a fan
    # triangulation of a golden input, or one cube face split into 4
    # triangles around its centre): a partial report and exit 1, never a
    # group read off the wrong faces
    if mesh == "open square":
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    elif mesh == "cube split around a face centre":
        text = fan_triangulated(cube_off_text, centre_split=0)
    else:
        path = os.path.join(os.path.dirname(__file__), "golden", "inputs", f"{mesh}.off")
        with open(path, encoding="utf-8") as fh:
            text = fan_triangulated(fh.read())
    bad = tmp_path / "mesh.off"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(bad))
    assert (code, err) == (1, "")
    assert "FAILED" in out and "symmetry group" not in out
    if mesh != "open square":
        assert "\n  convexity: vertex " in out


def test_a_partial_report_prints_no_verdict_it_did_not_compute(tmp_path, capsys, rco):
    # a fan-triangulated rco stops at validation: the JSON carries null, and
    # compare "-", for every verdict after it, never a default
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "rco_0.off")
    with open(path, encoding="utf-8") as fh:
        text = fan_triangulated(fh.read())
    bad = tmp_path / "fan.off"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(bad), "--json")
    doc = json.loads(out)
    assert (code, err, doc["partial"]) == (1, "", True)
    assert doc["vertex_figures"]["uniform"] is doc["faces_regular"] is None
    assert doc["flags"] == {"archimedean_candidate": None, "pseudo_uniform": None}
    rows = {r.label: (r.left, r.right) for r in compare(analyze(read_off(text)), analyze(rco)).rows}
    for label in ("vertex transitive", "archimedean candidate", "pseudo uniform"):
        assert rows[label] == ("-", "yes" if label != "pseudo uniform" else "no")


def test_noisy_input_fails_cleanly(tmp_path, capsys, rco, pseudo, cube_off_text):
    # noise 1e-7 at tolerance 1e-5 reads back right: full order, axes, belts
    rng = random.Random(3)
    for name, text, answer in (("rco", write_off(rco), (48, 13, 3)),
                               ("pseudo", write_off(pseudo), (16, 5, 1)),
                               ("cube", cube_off_text, (48, 13, 3))):
        mesh = tmp_path / f"{name}.off"
        mesh.write_text(noisy_off(text, 1e-7, rng), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(mesh), "--tolerance", "1e-5",
                             "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        sym = doc["symmetry"]
        assert (sym["full_order"], len(sym["axes"]), len(doc["belts"])) == answer


def _corner_cut_cube(h: Fraction) -> tuple[Polyhedron, str]:
    """The cube [-1, 1]^3 with its corner (1, 1, 1) cut at depth h, and its
    OFF text with each face ring started at its shortest edge."""
    one = Q2(1)
    pts = [tuple(map(Q2, v)) for v in itertools.product((-1, 1), repeat=3) if v != (1, 1, 1)]
    pts += [tuple(one - h if i == k else one for i in range(3)) for k in range(3)]
    p = Polyhedron(sorted(pts))
    lines = write_off(p).splitlines()

    def length_sq(f, t):
        d = [x - y for x, y in zip(p.vertices[f[t]], p.vertices[f[(t + 1) % len(f)]])]
        return sum((x * x for x in d), Q2(0))

    for fi, f in enumerate(p.faces):
        t = min(range(len(f)), key=lambda t: length_sq(f, t))
        lines[2 + p.n_vertices + fi] = " ".join(map(str, (len(f), *f[t:], *f[:t])))
    return p, "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_a_face_ring_may_start_at_a_short_edge(tmp_path, capsys, seed):
    # a face's normal is its Newell normal, so the short first edge of a cut
    # corner's faces does not tilt it out of the noise's reach
    p, text = _corner_cut_cube(Fraction(1, 32))
    assert (p.n_vertices, p.n_faces) == (10, 7)
    mesh = tmp_path / "corner.off"
    mesh.write_text(noisy_off(text, 1e-10, random.Random(seed)), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(mesh))
    assert (code, err) == (0, "")
    assert "validation: ok\n" in out
    exact = text_report(analyze(p))
    assert out.split("\n", 1)[1] == exact.split("\n", 1)[1]  # all but the name line


# full order, axes, vertex orbit sizes, equatorial belts
LADDER_ANSWERS = {
    "rco": (48, 13, [24], 3),
    "pseudo": (16, 5, [16, 8], 1),
    "cube": (48, 13, [8], 3),
    "icosahedron": (120, 31, [12], 0),
}


def _ladder_off(solid: str, scale) -> str:
    """OFF text of the solid at edge 2 x scale: exact solids scaled exactly,
    then written as floats."""
    if solid == "icosahedron":
        return write_off(make_icosahedron(float(scale)))
    base = {"rco": build_rhombicuboctahedron, "pseudo": build_pseudo_rhombicuboctahedron,
            "cube": lambda _: make_cube()}[solid](2)
    factor = Q2(scale)
    return write_off(Polyhedron([tuple(x * factor for x in v) for v in base.vertices],
                                base.faces))


@pytest.fixture(scope="module")
def ladder_off():
    return {(solid, edge): _ladder_off(solid, edge // 2)
            for solid in LADDER_ANSWERS for edge in (2, 50)}


@pytest.mark.parametrize("tol", [1e-9, 1e-5, 1e-3])
@pytest.mark.parametrize("eps", [0, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("edge", [2, 50])
@pytest.mark.parametrize("solid", sorted(LADDER_ANSWERS))
def test_noise_ladder(tmp_path, capsys, ladder_off, solid, edge, eps, tol):
    # noise well under the tolerance gives the right answer; above it, the
    # right answer or a clean exit 1, never other counts
    mesh = tmp_path / "mesh.off"
    rng = random.Random(f"{solid}/{eps}/{tol}")
    mesh.write_text(noisy_off(ladder_off[solid, edge], eps, rng), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(mesh),
                         "--tolerance", f"{tol:g}", "--json")
    if eps <= tol / 10:
        assert code == 0
        assert json.loads(out)["faces_regular"]
    if code == 0:
        doc = json.loads(out)
        sym = doc["symmetry"]
        full, axes, orbits, belts = LADDER_ANSWERS[solid]
        assert (sym["full_order"], len(sym["axes"])) == (full, axes)
        assert sym["orbits"]["sizes"] == orbits
        assert len(doc["belts"]) == belts
        assert not err
    else:
        assert code == 1
        if out:
            assert json.loads(out)["partial"] and not err
        else:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("tol", [1e-9, 1e-5])
@pytest.mark.parametrize("noisy", [False, True], ids=["noise 0", "noise tol/10"])
@pytest.mark.parametrize("solid", sorted(LADDER_ANSWERS))
def test_scale_ladder(tmp_path, capsys, solid, noisy, tol):
    # the solid at edge 2 x 10^k, with the same noise relative to its size:
    # every verdict is the one at k = 0, apart from the name line
    mesh = tmp_path / "mesh.off"
    reports = {}
    for k in (-12, -6, 0, 6, 12):
        eps = tol / 10 * 10.0 ** k if noisy else 0
        text = noisy_off(_ladder_off(solid, Fraction(10) ** k), eps, random.Random(solid))
        mesh.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--input", str(mesh), "--tolerance", f"{tol:g}")
        reports[k] = (code, out.split("\n", 1)[1], err)
    assert reports[0][0] == 0
    assert all(r == reports[0] for r in reports.values())


def test_empty_off_is_a_partial_report(tmp_path, capsys):
    mesh = tmp_path / "empty.off"
    mesh.write_text("OFF\n0 0 0\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(mesh))
    assert code == 1
    assert "validation: FAILED" in out and "analysis stopped" in out
    assert not err


@st.composite
def _small_off_documents(draw):
    """OFF text: 0-8 vertices on a few coordinates, 0-6 faces of 3-4
    in-range indices."""
    nv = draw(st.integers(0, 8))
    coords = st.sampled_from((-1, 0, 1, 2))
    verts = draw(st.lists(st.tuples(coords, coords, coords), min_size=nv, max_size=nv))
    faces = draw(st.lists(st.lists(st.integers(0, max(nv - 1, 0)), min_size=3, max_size=4),
                          max_size=6 if nv else 0))
    rows = ["OFF", f"{nv} {len(faces)} 0"]
    rows += [" ".join(map(str, v)) for v in verts]
    rows += [" ".join(map(str, [len(f), *f])) for f in faces]
    return "\n".join(rows) + "\n"


@settings(max_examples=60, derandomize=True, deadline=None)
@example("OFF\n2 0 0\n0 0 0\n1 0 0\n")  # passes Euler, has no vertex figure
@given(_small_off_documents())
def test_analyze_any_small_mesh_without_a_traceback(tmp_path_factory, text):
    mesh = tmp_path_factory.getbasetemp() / "fuzz.off"
    mesh.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--input", str(mesh)])
    assert code in (0, 1)
    err = err.getvalue()
    assert not err or (err.startswith("error: ") and err.count("\n") == 1
                       and err.endswith("\n")), err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0", "1", "1e300"])
def test_meaningless_tolerance_is_usage_error(tmp_path, capsys, cube_off_text, tol):
    mesh = tmp_path / "cube.off"
    mesh.write_text(cube_off_text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--input", str(mesh), f"--tolerance={tol}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert not out.out
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "finite and positive" in errors[0]


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "--input", "/nonexistent/x.off")
    assert code == 1
    assert "cannot read" in err


def test_analyze_non_utf8_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "latin1.off"
    bad.write_bytes(b"\xffOFF\n")
    code, out, err = run(capsys, "analyze", "--input", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_analyze_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\nnot counts\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--input", str(bad))
    assert code == 1
    assert "line 2" in err


def test_net_default_a2(tmp_path, capsys):
    out_file = tmp_path / "nets.svg"
    code, _, _ = run(capsys, "net", "-o", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert 'width="420mm"' in svg
    assert svg.count('class="square ') == 27


def test_net_fit_errors(tmp_path, capsys):
    """The whole error line of a net that cannot fit its sheet, checked
    before any solid is built; an edge too small for the SVG is named
    first, even on a sheet nothing fits."""
    no_fit = "error: pieces do not fit A4 (210x297 mm); "
    for edge, paper, line in [
        ("50", "A4", no_fit + "smallest standard sheet that fits: A2"),
        ("30", "A4", no_fit + "smallest standard sheet that fits: A3"),
        ("300", "A4", no_fit + "no standard sheet up to A0 fits"),
        ("1/1000", "10x10", "error: edge 1/1000 mm is below the SVG's smallest edge, 1/100 mm"),
    ]:
        out = tmp_path / f"{paper}.svg"
        code, stdout, err = run(capsys, "net", "--edge", edge, "--paper", paper, "-o", str(out))
        assert (code, stdout, err) == (1, "", line + "\n")
        assert not out.exists()


@pytest.mark.parametrize("paper", ["foo", "1x0", "-3x5", "1/0x5", "1e400x1e400", "1e-400x100"],
                         ids=["unknown", "zero-height", "negative-width", "zero-denominator",
                              "float-overflow", "float-underflow"])
def test_bad_paper_is_usage_error(tmp_path, capsys, paper):
    with pytest.raises(SystemExit) as exc:
        main(["net", "-o", str(tmp_path / "x.svg"), f"--paper={paper}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert not out.out and not (tmp_path / "x.svg").exists()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(paper) in errors[0]


def test_net_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "net", "-o", str(f1))
    run(capsys, "net", "-o", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_fold_check_both_gyrations(capsys):
    code, out, _ = run(capsys, "fold-check", "--gyration", "0")
    assert code == 0
    assert "matched: rhombicuboctahedron" in out
    code, out, _ = run(capsys, "fold-check", "--gyration", "45")
    assert code == 0
    assert "matched: pseudo-rhombicuboctahedron" in out


def test_fold_check_json(capsys):
    code, out, _ = run(capsys, "fold-check", "--gyration", "45", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["matched"] is True and doc["target"] == "pseudo-rhombicuboctahedron"


def test_fold_check_rejects_inexact_gyration(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fold-check", "--gyration", "30"])
    assert exc.value.code == 2


@pytest.mark.parametrize("turn", range(0, 360, 45))
def test_fold_check_json_at_every_turn_is_pinned(capsys, turn):
    code, out, _ = run(capsys, "fold-check", "--gyration", str(turn), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_FOLD_SHA256[("50", turn)]


def test_compare_table_row(capsys):
    code, out, _ = run(capsys, "compare")
    assert code == 0
    assert "axes: 13 | 5" in out


def test_compare_json_and_determinism(capsys):
    code, out1, _ = run(capsys, "compare", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "compare", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "comparison"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "gyrolab" in capsys.readouterr().out


def fresh_python(code, *args):
    """Run code in a new interpreter that imports this checkout's gyrolab;
    return its last line of stderr, parsed as JSON."""
    src = os.path.dirname(os.path.dirname(gyrolab.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stderr.splitlines()[-1])


def modules_loaded(*argv):
    """Exit code of a fresh `python -m gyrolab ARG...` and the modules it
    imports, read from `-X importtime`.  `-S` leaves out the site hooks,
    whose imports depend on the machine and not on gyrolab."""
    src = os.path.dirname(os.path.dirname(gyrolab.__file__))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-S", "-m", "gyrolab", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    rows = (line.split("|") for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "imported package" not in line)
    return proc.returncode, {row[-1].strip() for row in rows}


CLI = {"gyrolab", "gyrolab.cli"}
BUILD = CLI | {"gyrolab.qfield", "gyrolab.geom", "gyrolab.solids"}
ANALYZE = BUILD | {"gyrolab.belts", "gyrolab.symmetry", "gyrolab.analysis"}
NET = CLI | {"gyrolab.netgen"}
FOLD = BUILD | NET | {"gyrolab.foldsim"}
CUBE_OFF = os.path.join(DATA_DIR, "cube.off")


@pytest.mark.parametrize("argv,modules,writes_json,exit_code", [
    (["--version"], CLI, False, 0),
    (["build", "--solid", "rco"], BUILD, False, 0),
    (["build", "--solid", "rco", "--format", "json"], BUILD, True, 0),
    (["analyze", "--solid", "pseudo-rco"], ANALYZE, False, 0),
    (["analyze", "--solid", "pseudo-rco", "--json"], ANALYZE, True, 0),
    (["analyze", "--input", CUBE_OFF], ANALYZE, False, 0),
    (["analyze", "--input", CUBE_OFF, "--json"], ANALYZE, True, 0),
    (["analyze", "--input", "{tmp}/noisy.off", "--tolerance", "1e-5"], ANALYZE, False, 0),
    (["compare"], ANALYZE, False, 0),
    (["compare", "--json"], ANALYZE, True, 0),
    (["build", "--solid", "rco", "--edge", "9/7"], BUILD, False, 0),
    (["analyze", "--solid", "rco", "--edge", "7/3+1/5*sqrt2"], ANALYZE, False, 0),
    (["compare", "--edge", "9/7"], ANALYZE, False, 0),
    (["net", "-o", "{tmp}/nets.svg"], NET, False, 0),
    (["fold-check", "--gyration", "45"], FOLD, False, 0),
    (["fold-check", "--gyration", "45", "--json"], FOLD, True, 0),
    (["net", "--edge", "100", "--paper", "A4", "-o", "{tmp}/nets.svg"], NET, False, 1),
], ids=["version", "build", "build-json", "analyze-solid", "analyze-solid-json", "analyze-input",
        "analyze-input-json", "analyze-input-unsnapped", "compare", "compare-json", "build-rational",
        "analyze-sqrt2-edge", "compare-rational", "net", "fold-check", "fold-check-json",
        "net-misfit"])
def test_subcommand_imports_only_what_it_runs(tmp_path, argv, modules, writes_json, exit_code):
    """Each call loads its own subcommand's modules and no more: never
    ``dataclasses`` or ``inspect``, and ``json`` only when it writes JSON.
    ``net`` loads no module that builds a solid, whether its pieces fit or not.
    ``build``, ``analyze`` and ``compare`` never load ``fractions``: not
    for a rational or Q(sqrt2) edge, nor for a float group that does not
    snap (the cube with noise 1e-7).  Nor does ``fold-check``, whose net
    has an int edge."""
    with open(CUBE_OFF) as fh:
        (tmp_path / "noisy.off").write_text(noisy_off(fh.read(), 1e-7, random.Random(7)))
    code, loaded = modules_loaded(*(a.format(tmp=tmp_path) for a in argv))
    assert code == exit_code
    assert sorted(m for m in loaded if m.startswith("gyrolab")) == sorted(modules)
    assert not loaded & {"dataclasses", "inspect"}
    assert ("json" in loaded) == writes_json
    if argv[0] != "net":  # every Q2 is built from ints
        assert not loaded & {"fractions", "decimal"}


def fresh_gyrolab(*argv):
    """A fresh `python -m gyrolab ARG...` of this checkout: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(gyrolab.__file__))
    proc = subprocess.run([sys.executable, "-m", "gyrolab", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_package_version_is_the_project_version():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    with open(path, encoding="utf-8") as fh:  # a regex: Python 3.10 has no tomllib
        versions = re.findall(r'^version = "([^"]*)"$', fh.read(), re.M)
    assert versions == [gyrolab.__version__]


def test_fresh_calls_keep_their_exit_codes_and_streams(tmp_path, capsys):
    # `python -m gyrolab` freezes the heap on its way out; what it prints and
    # returns stays as `main` leaves it
    assert fresh_gyrolab("--version") == (0, f"gyrolab {gyrolab.__version__}\n".encode(), b"")
    with pytest.raises(SystemExit):
        main(["build"])
    usage = capsys.readouterr().err
    assert fresh_gyrolab("build") == (2, b"", usage.encode())
    code, out, err = fresh_gyrolab("net", "--edge", "100", "--paper", "A4",
                                   "-o", str(tmp_path / "misfit.svg"))
    assert (code, out, len(err.splitlines())) == (1, b"", 1) and err.startswith(b"error: ")
    written = tmp_path / "rco.off"
    assert fresh_gyrolab("build", "--solid", "rco", "--format", "off",
                         "-o", str(written)) == (0, b"", b"")
    _, off, _ = fresh_gyrolab("build", "--solid", "rco", "--format", "off")
    assert written.read_bytes() == off


def test_only_the_process_entry_point_freezes_the_heap():
    # every way out of `cli.run` freezes; `cli.main` leaves the collector alone
    facts = fresh_python("""
import contextlib, gc, io, json, sys
from gyrolab import cli
counts = {}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(["build", "--solid", "rco"])
    counts["main"] = gc.get_freeze_count()
    for name, argv in [("version", ["--version"]), ("usage", ["build"]),
                       ("failure", ["net", "--edge", "100", "--paper", "A4", "-o", "-"]),
                       ("success", ["build", "--solid", "rco"])]:
        sys.argv = ["gyrolab", *argv]
        try:
            code = cli.run()
        except SystemExit as e:
            code = e.code
        counts[name] = (code, gc.get_freeze_count() > 0)
        gc.unfreeze()
print(json.dumps(counts), file=sys.stderr)
""")
    assert facts == {"main": 0, "version": [0, True], "usage": [2, True], "failure": [1, True],
                     "success": [0, True]}


def test_package_names_resolve_on_first_access():
    facts = fresh_python("""
import json, sys
import gyrolab
loaded = sorted(m for m in sys.modules if m.startswith("gyrolab"))
star = {}
exec("from gyrolab import *", star)
from gyrolab import qfield, solids
try:
    gyrolab.nope
    nope = None
except AttributeError as e:
    nope = str(e)
print(json.dumps({
    "loaded_by_import": loaded,
    "unbound": [n for n in gyrolab.__all__ if n not in star],
    "q2": gyrolab.Q2 is qfield.Q2,
    "builder": gyrolab.build_rhombicuboctahedron is solids.build_rhombicuboctahedron,
    "nope": nope,
}), file=sys.stderr)
""")
    assert facts == {"loaded_by_import": ["gyrolab"], "unbound": [], "q2": True, "builder": True,
                     "nope": "module 'gyrolab' has no attribute 'nope'"}


def test_every_name_the_benchmark_shim_wraps_exists():
    # perfbench/shim.py wraps gyrolab's functions by name, and loading it
    # imports only json, sys and time: a rename fails here, not in a traced run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "shim.py")
    spec = importlib.util.spec_from_file_location("shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    for module_name, funcs in shim.LAYERS.items():
        module = importlib.import_module(f"gyrolab.{module_name}")
        for attr in funcs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(getattr(owner, name, None)), f"gyrolab.{module_name}.{attr}"
    assert "ComparisonTable.to_text" in shim.LAYERS["analysis"]
    solids = importlib.import_module("gyrolab.solids")
    assert all(callable(getattr(solids, name, None)) for name in shim.BUILDERS)
