"""Byte-for-byte golden outputs of the CLI.

Each case runs ``gyrolab.cli.main`` in-process and compares its stdout (or,
for ``net``, the SVG it writes) with a file under ``tests/golden``.  The
``analyze --input`` cases read the noisy OFF meshes in
``tests/golden/inputs``.

Regenerate everything (inputs included) with

    PYTHONPATH=src python tests/test_golden.py --write

only when a change of output is intended.
"""

import contextlib
import io
import os
import random
import sys

import pytest
from conftest import noisy_off

from gyrolab.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
INPUT_DIR = os.path.join(GOLDEN_DIR, "inputs")
CUBE_OFF = os.path.join(os.path.dirname(__file__), "data", "cube.off")

SOLIDS = ("rco", "pseudo-rco")
# non-canonical edges: the default, a rational and a Q(sqrt2) literal
SCALED_EDGES = {"5": "5", "5_4": "5/4", "q2": "7/3+1/5*sqrt2"}
NOISE = ("0", "1e-12", "1e-10")
INPUT_BASES = ("rco", "pseudo", "cube")


def _input_path(base: str, noise: str) -> str:
    return os.path.join(INPUT_DIR, f"{base}_{noise}.off")


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for solid in SOLIDS:
        for fmt in ("off", "json"):
            cases.append((f"build_{solid}.{fmt}",
                          ["build", "--solid", solid, "--edge", "2", "--format", fmt]))
        cases.append((f"analyze_{solid}.txt", ["analyze", "--solid", solid, "--edge", "2"]))
        cases.append((f"analyze_{solid}.json",
                      ["analyze", "--solid", solid, "--edge", "2", "--json"]))
    for tag, edge in SCALED_EDGES.items():
        for solid in SOLIDS:
            for fmt in ("off", "json"):
                cases.append((f"build_{solid}_e{tag}.{fmt}",
                              ["build", "--solid", solid, "--edge", edge, "--format", fmt]))
            cases.append((f"analyze_{solid}_e{tag}.json",
                          ["analyze", "--solid", solid, "--edge", edge, "--json"]))
        cases.append((f"compare_e{tag}.json", ["compare", "--edge", edge, "--json"]))
    cases.append(("compare.txt", ["compare", "--edge", "2"]))
    cases.append(("compare.json", ["compare", "--edge", "2", "--json"]))
    for gyration in ("0", "45"):
        cases.append((f"fold_check_{gyration}.json",
                      ["fold-check", "--gyration", gyration, "--json"]))
    cases.append(("net_a2.svg", ["net", "--edge", "50", "--paper", "A2"]))
    for base in INPUT_BASES:
        for noise in NOISE:
            argv = ["analyze", "--input", _input_path(base, noise), "--tolerance", "1e-9"]
            cases.append((f"input_{base}_{noise}.txt", argv))
            cases.append((f"input_{base}_{noise}.json", argv + ["--json"]))
    return cases


CASES = _cases()


def run_case(argv: list[str], svg_path: str) -> tuple[int, bytes]:
    """Exit code and output bytes of one in-process CLI call."""
    if argv[0] == "net":
        argv = argv + ["-o", svg_path]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if argv[0] == "net":
        with open(svg_path, "rb") as fh:
            return code, fh.read()
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_output(name, argv, tmp_path):
    code, got = run_case(argv, str(tmp_path / "net.svg"))
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert got == fh.read()


# -- regeneration ----------------------------------------------------------------


def _write_inputs() -> None:
    os.makedirs(INPUT_DIR, exist_ok=True)
    rng = random.Random(20251114)
    bases = {}
    for base, solid in (("rco", "rco"), ("pseudo", "pseudo-rco")):
        _, off = run_case(["build", "--solid", solid, "--edge", "2", "--format", "off"], "")
        bases[base] = off.decode("utf-8")
    with open(CUBE_OFF, "r", encoding="utf-8") as fh:
        bases["cube"] = fh.read()
    for base in INPUT_BASES:
        for noise in NOISE:
            with open(_input_path(base, noise), "w", encoding="utf-8") as fh:
                fh.write(noisy_off(bases[base], float(noise), rng))


def _write_golden() -> None:
    _write_inputs()
    svg_path = os.path.join(GOLDEN_DIR, "net_a2.svg")
    for name, argv in CASES:
        code, got = run_case(argv, svg_path)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        with open(os.path.join(GOLDEN_DIR, name), "wb") as fh:
            fh.write(got)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write_golden()
