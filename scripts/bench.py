#!/usr/bin/env python3
"""Time fresh ``python -m gyrolab`` calls and write BENCH_<n>.json.

Usage (from the root of a checkout):

    python3 scripts/bench.py [--quick] [--summary-only]

Every subcommand in ``COMMANDS`` runs 11 times (``--quick``: 3 times),
each in a fresh interpreter, round-robin so that drift on a shared machine
spreads over all of them.  Each gets two medians: without a bytecode cache
(every call compiles gyrolab's modules; the standard library's cache is used
as usual) and with one.  ``--version`` is timed the same way, as start-up on
its own.  Every call must exit 0, except ``net (misfit)``, a net too big
for its sheet, which must exit 1 (RuntimeError otherwise).  The calls run
on copies of ``src/gyrolab`` in a temporary directory, so the checkout's
own ``__pycache__`` is neither read nor written.

The medians go to BENCH_<n>.json at the root of the checkout, n one more
than the highest there, with the Python version, nproc, the commit and the
``src/`` line count; a Markdown summary is printed.  ``--summary-only``
prints the summary and writes no file.  To measure another commit, run this
file from a checkout of it.
Span totals are not recorded: gyrolab has no tracing layer yet.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> arguments of `python -m gyrolab`; {tmp} is the scratch directory
COMMANDS = {
    "--version": ["--version"],
    "build": ["build", "--solid", "rco"],
    "analyze": ["analyze", "--solid", "rco"],
    "analyze --input": ["analyze", "--input", "{tmp}/rco.off"],
    "compare": ["compare"],
    "net": ["net", "-o", "{tmp}/nets.svg"],
    "net (misfit)": ["net", "--edge", "100", "--paper", "A4", "-o", "{tmp}/misfit.svg"],
    "fold-check": ["fold-check", "--gyration", "45"],
}
# a net too big for its sheet ends with one error line and exit code 1
EXIT_CODES = {"net (misfit)": 1}


def call(src: Path, argv: list[str], cached: bool, exit_code: int = 0) -> float:
    """Wall seconds of one fresh `python -m gyrolab ARGV` importing from src;
    RuntimeError unless it exits with ``exit_code``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GYROLAB_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src)
    if not cached:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gyrolab", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != exit_code:
        raise RuntimeError(f"gyrolab {' '.join(argv)} exited {proc.returncode}, not"
                           f" {exit_code}: {proc.stderr.strip()}")
    return wall


def measure(calls: int) -> dict:
    """{name: {"uncached_s": median, "cached_s": median}} over COMMANDS."""
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {}
        for mode in ("uncached", "cached"):
            srcs[mode] = Path(tmp, mode)
            shutil.copytree(ROOT / "src" / "gyrolab", srcs[mode] / "gyrolab",
                            ignore=shutil.ignore_patterns("__pycache__"))
        commands = {name: [a.format(tmp=tmp) for a in argv] for name, argv in COMMANDS.items()}
        call(srcs["uncached"], [*COMMANDS["build"], "-o", f"{tmp}/rco.off"], cached=False)
        for name, argv in commands.items():  # fill the cached copy's __pycache__
            call(srcs["cached"], argv, cached=True, exit_code=EXIT_CODES.get(name, 0))
        walls = {(name, mode): [] for name in commands for mode in srcs}
        for _ in range(calls):
            for name, argv in commands.items():
                for mode, src in srcs.items():
                    walls[name, mode].append(call(src, argv, cached=mode == "cached",
                                                  exit_code=EXIT_CODES.get(name, 0)))
    return {name: {f"{mode}_s": round(statistics.median(walls[name, mode]), 4) for mode in srcs}
            for name in commands}


def git(*args: str):
    """Stripped stdout of a git command in the checkout; None when git fails."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src" / "gyrolab").glob("*.py"))


def summary(doc: dict) -> str:
    lines = [f"Fresh `python -m gyrolab` calls, median of {doc['calls']}"
             f" (Python {doc['python']}, nproc {doc['nproc']}, src/ {doc['src_loc']} LOC)",
             "", "| call | no bytecode cache | bytecode cache |", "|---|---|---|"]
    for name, times in doc["median_s"].items():
        lines.append(f"| `{' '.join(COMMANDS[name])}` | {times['uncached_s']:.3f} s"
                     f" | {times['cached_s']:.3f} s |")
    return "\n".join(lines) + "\n"


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="3 calls per command, not 11")
    parser.add_argument("--summary-only", action="store_true", help="write no BENCH file")
    args = parser.parse_args(argv)
    calls = 3 if args.quick else 11
    doc = {
        "schema": "gyrolab-bench/1",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "--", "src")),
        "src_loc": src_loc(),
        "calls": calls,
        "commands": COMMANDS,
        "median_s": measure(calls),
    }
    sys.stdout.write(summary(doc))
    if not args.summary_only:
        path = next_path()
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
