import json
import random

import pytest
from conftest import make_cube, make_icosahedron, noisy_off

from gyrolab.cli import main
from gyrolab.qfield import parse as q2_parse
from gyrolab.solids import (
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


def test_build_bad_edge_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--solid", "rco", "--edge", "-3"])
    assert exc.value.code == 2


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


def test_analyze_broken_mesh_partial_exit_1(tmp_path, capsys):
    bad = tmp_path / "open.off"
    bad.write_text(
        "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "analyze", "--input", str(bad))
    assert code == 1
    assert "FAILED" in out


def test_noisy_input_fails_cleanly(tmp_path, capsys, rco, pseudo, cube_off_text):
    # at this noise the float symmetry search may fail, but only with an
    # exit code, never with a traceback
    rng = random.Random(3)
    for name, text in (("rco", write_off(rco)), ("pseudo", write_off(pseudo)),
                       ("cube", cube_off_text)):
        mesh = tmp_path / f"{name}.off"
        mesh.write_text(noisy_off(text, 1e-7, rng), encoding="utf-8")
        code, _, _ = run(capsys, "analyze", "--input", str(mesh), "--tolerance", "1e-5")
        assert code in (0, 1)


# full order, axes, vertex orbit sizes
LADDER_ANSWERS = {
    "rco": (48, 13, [24]),
    "pseudo": (16, 5, [16, 8]),
    "cube": (48, 13, [8]),
    "icosahedron": (120, 31, [12]),
}


@pytest.fixture(scope="module")
def ladder_off():
    return {
        "rco": write_off(build_rhombicuboctahedron(2)),
        "pseudo": write_off(build_pseudo_rhombicuboctahedron(2)),
        "cube": write_off(make_cube()),
        "icosahedron": write_off(make_icosahedron()),
    }


@pytest.mark.parametrize("tol", [1e-9, 1e-5, 1e-3])
@pytest.mark.parametrize("eps", [0, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6])
@pytest.mark.parametrize("solid", sorted(LADDER_ANSWERS))
def test_noise_ladder(tmp_path, capsys, ladder_off, solid, eps, tol):
    # noise well under the tolerance gives the right answer; above it, the
    # right answer or a clean exit 1, never other counts
    mesh = tmp_path / "mesh.off"
    rng = random.Random(f"{solid}/{eps}/{tol}")
    mesh.write_text(noisy_off(ladder_off[solid], eps, rng), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(mesh),
                         "--tolerance", f"{tol:g}", "--json")
    if eps <= tol / 10:
        assert code == 0
        assert json.loads(out)["faces_regular"]
    if code == 0:
        sym = json.loads(out)["symmetry"]
        full, axes, orbits = LADDER_ANSWERS[solid]
        assert (sym["full_order"], len(sym["axes"])) == (full, axes)
        assert sym["orbits"]["sizes"] == orbits
        assert not err
    else:
        assert code == 1
        if out:
            assert json.loads(out)["partial"] and not err
        else:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_empty_off_is_a_partial_report(tmp_path, capsys):
    mesh = tmp_path / "empty.off"
    mesh.write_text("OFF\n0 0 0\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--input", str(mesh))
    assert code == 1
    assert "validation: FAILED" in out and "analysis stopped" in out
    assert not err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
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


def test_analyze_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\nnot counts\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--input", str(bad))
    assert code == 1
    assert "line 2" in err


def test_net_default_a2(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GYROLAB_PAPER", raising=False)
    out_file = tmp_path / "nets.svg"
    code, _, _ = run(capsys, "net", "-o", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert 'width="420mm"' in svg
    assert svg.count('class="square ') == 27


def test_net_fit_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GYROLAB_PAPER", raising=False)
    code, _, err = run(capsys, "net", "--edge", "50", "--paper", "A4",
                       "-o", str(tmp_path / "x.svg"))
    assert code == 1
    assert "A2" in err
    code, _, err = run(capsys, "net", "--edge", "30", "--paper", "A4",
                       "-o", str(tmp_path / "y.svg"))
    assert code == 1
    assert "A3" in err


@pytest.mark.parametrize("paper,env", [
    ("foo", None), ("1x0", None), ("-3x5", None), ("1/0x5", None), (None, "1/0x5"),
], ids=["unknown", "zero-height", "negative-width", "zero-denominator", "env"])
def test_bad_paper_is_usage_error(tmp_path, capsys, monkeypatch, paper, env):
    monkeypatch.delenv("GYROLAB_PAPER", raising=False)
    if env is not None:
        monkeypatch.setenv("GYROLAB_PAPER", env)
    argv = ["net", "-o", str(tmp_path / "x.svg")]
    if paper is not None:
        argv.append(f"--paper={paper}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert not out.out and not (tmp_path / "x.svg").exists()
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(paper or env) in errors[0]


def test_net_paper_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GYROLAB_PAPER", "A4")
    code, _, err = run(capsys, "net", "-o", str(tmp_path / "z.svg"))
    assert code == 1  # 50 mm pieces cannot fit the A4 default from the env
    assert "A2" in err


def test_net_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GYROLAB_PAPER", raising=False)
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
