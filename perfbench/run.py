"""gyrolab benchmark: the CLI as users run it, checked against known answers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {exact-cli,fold-net,ingest-float} \
        --seed N --seconds S --trace {0,1}

Every call is ``python -m gyrolab ...`` in a fresh interpreter, so each pays
start-up, imports and the hull again.  Load is a closed loop with one client:
one child process at a time, the next started when the last has ended.  The
seed draws the call list (see workloads.py); the program sees only the
generated arguments and input files.  Calls run in whole passes, and a new
pass starts only while it is expected to end within ``--seconds``; there is
always at least one.  Every outcome is judged by oracle.py; a call fails on a
wrong exit code, a wrong answer or stray stderr, and failures are counted,
never dropped.  ``correct`` is false when any call fails, except calls on
inputs where the program is known to be wrong (``known_defect`` in the call's
expectation): those count as failed but leave ``correct`` alone.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run through shim.py, which times each layer's
public functions, and prints the per-layer metrics; it also runs probe.py,
a timing of the Q(sqrt2) kernel.  The last line of stdout is one JSON object;
the lines before it give run metadata and each call's outcome.

Exit code 2, with no result, when the checkout has no gyrolab sources or
``python -m gyrolab --version`` does not work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import shim
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11  # fresh `--version` calls per run; setup_s is their median
CALL_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s.p90": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: self seconds per pass for each span, plus counts.
SPAN_METRICS = tuple(dict.fromkeys(m for funcs in shim.LAYERS.values() for m in funcs.values()))
COUNTED_SPANS = ("solids.convex_hull_faces", "solids.build", "symmetry.isometry_group",
                 "symmetry.axis_feature_incidence")
SUBCOMMAND_METRICS = {"build": "build_s", "analyze": "analyze_s", "compare": "compare_s",
                      "net": "net_s", "fold-check": "fold_check_s"}
PROBE_OPS = ("mul", "add", "sign", "hash")

PER_LAYER_UNITS = {
    **{f"{m}.s": "s" for m in SPAN_METRICS},
    **{f"{m}.calls": "count" for m in COUNTED_SPANS},
    "solids.build.cache_hits": "count",
    "cli.unattributed.s": "s",
    **{f"qfield.{op}_ns": "ns" for op in PROBE_OPS},
    "trace.overhead_ratio": "ratio",
    **{name: "s" for name in SUBCOMMAND_METRICS.values()},
    "failed_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


@dataclass
class Outcome:
    call: workloads.Call
    wall: float
    cpu: float
    maxrss_kb: int
    returncode: int
    problem: str | None
    spans: list = field(default_factory=list)
    cache_hits: int = 0


# -- running one child ------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GYROLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], workdir: Path, stdout_path: Path, stderr_path: Path):
    """Run argv to completion; return (start, wall s, rusage, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return t0, wall, usage, proc.returncode


def run_call(call: workloads.Call, workdir: Path, traced: bool) -> Outcome:
    for name, text in call.inputs:
        (workdir / name).write_text(text, encoding="utf-8")
    spans_path = workdir / "spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "shim.py"), str(spans_path), *call.argv]
    else:
        argv = [sys.executable, "-m", "gyrolab", *call.argv]
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    t0, wall, usage, rc = spawn(argv, workdir, out_path, err_path)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    output = None
    if call.output and (workdir / call.output).exists():
        output = (workdir / call.output).read_text(encoding="utf-8", errors="replace")
    problem = oracle.check_call(call.expect, rc, stdout, stderr, output)
    outcome = Outcome(call, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, rc, problem)
    if traced and spans_path.exists():
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        outcome.spans = check_spans(doc["spans"], t0, t0 + wall)
        outcome.cache_hits = doc["build_cache_hits"]
        if abs(sum(self_times(outcome.spans, wall).values()) - wall) > 1e-6:
            raise BenchError(f"self times of {call.label} do not add up to its wall time")
    for name in [n for n, _ in call.inputs] + [call.output, "spans.json"]:
        if name:
            (workdir / name).unlink(missing_ok=True)
    return outcome


def check_spans(spans: list, start: float, end: float) -> list:
    """Spans must nest inside their parents and inside the call."""
    for metric, s, e, parent in spans:
        lo, hi = (start, end) if parent < 0 else spans[parent][1:3]
        if e is None or not lo <= s <= e <= hi:
            raise BenchError(f"span {metric} [{s}, {e}] escapes [{lo}, {hi}]")
    return spans


def self_times(spans: list, wall: float) -> dict:
    """Self seconds per metric, plus cli.unattributed.s: the call's wall
    time minus its top-level spans.  The values sum to ``wall``."""
    out = {"cli.unattributed.s": wall}
    for metric, s, e, parent in spans:
        out[f"{metric}.s"] = out.get(f"{metric}.s", 0.0) + (e - s)
        owner = "cli.unattributed.s" if parent < 0 else f"{spans[parent][0]}.s"
        out[owner] = out.get(owner, 0.0) - (e - s)
    return out


# -- passes ---------------------------------------------------------------------------


def measure_setup(workdir: Path) -> list[float]:
    """Median-able wall times of fresh `python -m gyrolab --version` calls;
    the first, untimed call compiles the bytecode."""
    version = workloads.Call("version", ("--version",), {"kind": "version"})
    walls = []
    for i in range(SETUP_REPEATS + 1):
        o = run_call(version, workdir, traced=False)
        if o.problem:
            raise BenchError(f"`python -m gyrolab --version` fails: {o.problem}")
        if i:
            walls.append(o.wall)
    return walls


def run_passes(workload: str, seed: int, seconds: float, workdir: Path, trace: bool):
    """Closed loop over whole passes.  Untraced only, or alternating
    untraced and traced passes when ``trace``.  Returns (untraced, traced),
    each a list of passes, each a list of outcomes."""
    plain, traced = [], []
    start = time.perf_counter()
    for calls in workloads.passes(workload, seed):
        side = traced if trace and len(traced) < len(plain) else plain
        t0 = time.perf_counter()
        side.append([run_call(c, workdir, traced=side is traced) for c in calls])
        last = time.perf_counter() - t0
        done = not trace or len(traced) == len(plain)
        if done and time.perf_counter() - start + (2 if trace else 1) * last > seconds:
            return plain, traced


# -- metrics ------------------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup_walls: list[float], plain: list[list[Outcome]]) -> dict:
    walls = [o.wall for p in plain for o in p]
    values = {
        "setup_s": statistics.median(setup_walls),
        "call_s.p90": p90(walls),
        "pass_s": statistics.median(sum(o.wall for o in p) for p in plain),
        "cpu_s": statistics.median(sum(o.cpu for o in p) for p in plain),
        "peak_rss_mb": max(o.maxrss_kb for p in plain for o in p) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(plain: list[list[Outcome]], traced: list[list[Outcome]],
              probe: dict) -> dict:
    n = len(traced)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for o in (o for p in traced for o in p):
        for key, secs in self_times(o.spans, o.wall).items():
            values[key] += secs / n
        for metric, *_ in o.spans:
            if metric in COUNTED_SPANS:
                values[metric + ".calls"] += 1 / n
        values["solids.build.cache_hits"] += o.cache_hits / n
    for op in PROBE_OPS:
        values[f"qfield.{op}_ns"] = probe[f"{op}_ns"]
    values["trace.overhead_ratio"] = (
        statistics.median(sum(o.wall for o in p) for p in traced)
        / statistics.median(sum(o.wall for o in p) for p in plain))
    everything = [o for p in plain + traced for o in p]
    values["failed_ratio"] = sum(o.problem is not None for o in everything) / len(everything)
    for cmd, name in SUBCOMMAND_METRICS.items():
        walls = [o.wall for p in plain for o in p if o.call.cmd == cmd]
        if walls:
            values[name] = statistics.median(walls)
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def run_probe(workload: str, seed: int, calls, workdir: Path) -> dict:
    literals = workloads.probe_literals(workload, calls)
    try:
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(seed), *literals],
                             cwd=workdir, env=child_env(), capture_output=True, text=True,
                             timeout=CALL_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("kernel probe timed out") from None
    if out.returncode != 0:
        raise BenchError(f"kernel probe failed: {out.stderr.strip()[-300:]}")
    return json.loads(out.stdout.splitlines()[-1])


# -- metadata and report ---------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sources = sorted((SRC / "gyrolab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "commit": git_commit(), "src_sha256": digest.hexdigest(),
        "src_loc": sum(len(p.read_text().splitlines()) for p in sources),
        "loadavg_at_start": os.getloadavg(),
    }


def describe(o: Outcome, traced: bool) -> str:
    verdict = "ok" if o.problem is None else f"FAILED ({o.problem})"
    line = f"  {'traced ' if traced else ''}{o.wall:8.3f} s  exit {o.returncode}  {o.call.label}: {verdict}"
    if traced:
        hull = sum(1 for m, *_ in o.spans if m == "solids.convex_hull_faces")
        line += f"  [hull calls {hull}]"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gyrolab" / "__main__.py").is_file():
        print(f"error: no gyrolab sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    print(json.dumps({"meta": metadata(args.workload, args.seed, args.seconds, trace)}))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_walls = measure_setup(workdir)
        plain, traced = run_passes(args.workload, args.seed, args.seconds, workdir, trace)
        for side, passes_ in ((False, plain), (True, traced)):
            for k, p in enumerate(passes_):
                print(f"{'traced ' if side else ''}pass {k}:")
                for o in p:
                    print(describe(o, side))
        if trace:
            calls = [o.call for p in plain for o in p]
            metrics = per_layer(plain, traced, run_probe(args.workload, args.seed, calls, workdir))
        else:
            metrics = end_to_end(setup_walls, plain)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    outcomes = [o for p in plain + traced for o in p]
    print(f"samples: {SETUP_REPEATS} setup calls; {len(plain)} untraced passes of"
          f" {sum(map(len, plain))} calls; {len(traced)} traced passes")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not any(o.problem and "known_defect" not in o.call.expect
                           for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.problem is not None for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
