"""Self-tests of the benchmark; none of them runs the gyrolab CLI.

Run with ``python3 -m pytest perfbench``.
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

RCO_TEXT = """\
analysis: rhombicuboctahedron (exact)
validation: ok
faces: 26 (8 triangles, 18 quads)
vertices: 24, edges: 48, Euler characteristic: 2
vertex figures: (3,4,4,4) (uniform)
faces regular: yes
equatorial belts: 3 (lengths: 8, 8, 8); pole pairs: 3
symmetry group: 48 (proper 24)
axis breakdown: 3 of order 4 + 4 of order 3 + 6 of order 2
vertex transitive: yes (1 orbit: 24)
archimedean candidate: yes; pseudo uniform: no
rotation axes: 13
"""

ANALYZE_RCO = {"kind": "analyze", "solid": oracle.RCO, "json": False}


def test_oracle_accepts_the_papers_answer():
    assert oracle.check_call(ANALYZE_RCO, 0, RCO_TEXT, "", None) is None


def test_oracle_rejects_a_tampered_axis_count():
    tampered = RCO_TEXT.replace("rotation axes: 13", "rotation axes: 12")
    assert "rotation axes" in oracle.check_call(ANALYZE_RCO, 0, tampered, "", None)


def test_oracle_rejects_a_traceback_with_exit_1():
    trace = "Traceback (most recent call last):\n  ...\nAssertionError: not a group\n"
    assert "AssertionError" in oracle.check_call(ANALYZE_RCO, 1, "", trace, None)
    misfit = {"kind": "net-misfit", "edge": "80", "sheet": [420, 594]}
    assert oracle.check_call(misfit, 1, "", trace, None) is not None
    one_line = "error: pieces do not fit A2 (420x594 mm); no standard sheet up to A0 fits\n"
    assert oracle.check_call(misfit, 1, "", one_line, None) is None
    assert oracle.check_call(misfit, 0, "", "", "<svg/>") is not None


def test_oracle_rejects_stray_stderr():
    assert oracle.check_call(ANALYZE_RCO, 0, RCO_TEXT, "warning\n", None) is not None


@pytest.mark.parametrize("solid", [oracle.RCO, oracle.PSEUDO])
def test_generated_meshes_pass_the_build_oracle(solid):
    text = workloads.noisy_off(solid, 0.0, random.Random(1))
    assert oracle.check_build_off(text, solid, (Fraction(2), Fraction(0))) is None
    other = oracle.PSEUDO if solid == oracle.RCO else oracle.RCO
    assert oracle.check_build_off(text, other, (Fraction(2), Fraction(0))) is not None


def test_exact_edge_check():
    s, t = Fraction(1), (Fraction(1), Fraction(1))  # edge 2: s = 1, t = 1+sqrt2
    assert oracle.q2_mul(t, t) == (3, 2)
    assert oracle._sq_dist_q2(((s, 0), (s, 0), t), ((s, 0), (-s, 0), t)) == (4, 0)


def test_net_fit_rule():
    assert oracle.net_fits(Fraction(50), (420, 594)) is True
    assert oracle.net_fits(Fraction(50), (297, 420)) is False
    assert oracle.net_fits(Fraction(45), (297, 420)) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_fixes_the_call_list_and_another_changes_it(workload):
    first = workloads.call_list(workload, 7, 2)
    assert first == workloads.call_list(workload, 7, 2)
    assert first != workloads.call_list(workload, 8, 2)
    assert sorted(c.cmd for c in first) == sorted(c.cmd for c in workloads.call_list(workload, 8, 2))


def test_another_seed_changes_the_edges():
    def edges(seed):
        return [c.argv for c in workloads.call_list("exact-cli", seed, 3) if "--edge" in c.argv]

    assert edges(7) != edges(8)


def _outcome(cmd, wall, spans=()):
    call = workloads.Call(cmd, (cmd,), {"kind": cmd})
    return run.Outcome(call, wall, wall, 30000, 0, None, list(spans), 1)


SPANS = [
    ["analysis.analyze", 1.0, 4.0, -1],
    ["symmetry.symmetry_report", 1.5, 3.5, 0],
    ["symmetry.isometry_group", 2.0, 3.0, 1],
    ["analysis.report", 4.0, 4.5, -1],
]


def test_self_times_and_unattributed_sum_to_the_wall_time():
    times = run.self_times(SPANS, 5.0)
    assert times["symmetry.symmetry_report.s"] == 1.0
    assert times["cli.unattributed.s"] == 1.5
    assert sum(times.values()) == pytest.approx(5.0, abs=1e-12)


def test_spans_that_escape_their_parent_are_refused():
    run.check_spans(SPANS, 0.0, 5.0)
    with pytest.raises(run.BenchError):
        run.check_spans(SPANS, 0.0, 4.2)


def test_every_metric_is_emitted_with_its_unit():
    plain = [[_outcome("build", 2.0), _outcome("analyze", 3.0)]]
    traced = [[_outcome("build", 2.5, SPANS), _outcome("analyze", 3.5, SPANS)]]
    probe = {f"{op}_ns": 100.0 for op in run.PROBE_OPS}
    for section, metrics in (("end_to_end", run.end_to_end([0.2, 0.3], plain)),
                             ("per_layer", run.per_layer(plain, traced, probe))):
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
        assert all(isinstance(v["value"], float) for v in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fold-net",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""
