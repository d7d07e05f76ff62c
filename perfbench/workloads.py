"""Seeded call lists for the three workloads.

A workload is an endless sequence of *passes*; a pass is a fixed mix of CLI
calls whose arguments and input files are drawn from the seed.  Every pass
of a workload has the same make-up (which subcommands, which solids, which
output formats), so runs with different seeds time the same kind of work and
differ only in the values the program sees.

* ``exact-cli``: build (OFF and JSON), analyze (text and JSON) and compare
  on both solids, with integer, rational and Q(sqrt2) edges.  The paper's
  headline path: the exact hull and the exact isometry search.
* ``fold-net``: net on sheets it surely fits and surely does not fit, and
  fold-check at both gyrations.  The only user of netgen and foldsim; it
  calls the hull but never the symmetry search.
* ``ingest-float``: analyze of OFF meshes made here, with seeded vertex noise
  on a ladder of sizes.  No hull and little exact work: interpreter start-up,
  read_off and the float symmetry path dominate.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from oracle import PSEUDO, RCO, net_fits, parse_q2

WORKLOADS = ("exact-cli", "fold-net", "ingest-float")

SOLID_ARG = {RCO: "rco", PSEUDO: "pseudo-rco"}

# Edge literals by kind; None leaves --edge out, so the CLI's default 5 is used.
INT_EDGES = (None, "1", "2", "3", "4", "6", "10")
RATIONAL_EDGES = ("3/2", "7/3", "5/4", "9/7", "11/3")
Q2_EDGES = ("1+sqrt2", "7/3+1/5*sqrt2", "2-1/2*sqrt2", "1/2+3/4*sqrt2", "3*sqrt2")
EDGE_KINDS = (INT_EDGES, RATIONAL_EDGES, Q2_EDGES)

STANDARD_SHEETS = {"A4": (210, 297), "A3": (297, 420), "A2": (420, 594)}

# (vertex noise, --tolerance).  Noise far below the tolerance must give the
# exact answer.  On the last rung the float symmetry search is known to break
# (a traceback, or a group of order 2 where 48 or 16 is right): those calls
# count as failed, at their share of every pass.
NOISE_LADDER = ((0.0, 1e-9), (1e-12, 1e-9), (1e-10, 1e-9), (1e-7, 1e-5))
KNOWN_DEFECT = {(1e-7, 1e-5): "float symmetry search breaks at noise 1e-7, tolerance 1e-5"}
INGEST_SOLIDS = (RCO, PSEUDO, "cube")


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``python -m gyrolab *argv`` in the work directory."""

    cmd: str  # subcommand, for per-subcommand timings
    argv: tuple[str, ...]
    expect: dict  # what oracle.check_call needs to judge the outcome
    inputs: tuple[tuple[str, str], ...] = ()  # (file name, text) written first
    output: str | None = None  # file the call writes with -o
    label: str = field(default="", compare=False)


def passes(workload: str, seed: int):
    """Yield the workload's passes, each a list of calls, forever."""
    make = {"exact-cli": _exact_pass, "fold-net": _fold_pass,
            "ingest-float": _ingest_pass}[workload]
    rng = random.Random(f"{workload}/{seed}")
    k = 0
    while True:
        yield make(rng, f"p{k}")
        k += 1


def call_list(workload: str, seed: int, n_passes: int) -> list[Call]:
    gen = passes(workload, seed)
    return [c for _ in range(n_passes) for c in next(gen)]


# -- exact-cli --------------------------------------------------------------------


def _edge_args(edge: str | None) -> tuple[tuple[str, ...], str]:
    return ((), "5") if edge is None else (("--edge", edge), edge)


def _exact_pass(rng: random.Random, tag: str) -> list[Call]:
    kinds = [0, 1, 2, rng.randrange(3), rng.randrange(3)]
    rng.shuffle(kinds)
    edges = [rng.choice(EDGE_KINDS[k]) for k in kinds]
    formats = rng.sample(["off", "json"], 2)
    as_json = rng.sample([False, True], 2)
    calls = []
    for i, solid in enumerate((RCO, PSEUDO)):
        args, edge = _edge_args(edges[i])
        out = f"{tag}_{i}.{formats[i]}" if rng.random() < 0.5 else None
        calls.append(Call(
            "build",
            ("build", "--solid", SOLID_ARG[solid], *args, "--format", formats[i],
             *(("-o", out) if out else ())),
            {"kind": "build", "solid": solid, "edge": edge, "format": formats[i],
             "output": out is not None},
            output=out,
            label=f"build {SOLID_ARG[solid]} {formats[i]} edge {edge}",
        ))
    for i, solid in enumerate((RCO, PSEUDO)):
        args, edge = _edge_args(edges[2 + i])
        flag = ("--json",) if as_json[i] else ()
        calls.append(Call(
            "analyze", ("analyze", "--solid", SOLID_ARG[solid], *args, *flag),
            {"kind": "analyze", "solid": solid, "json": as_json[i]},
            label=f"analyze {SOLID_ARG[solid]}{' --json' if as_json[i] else ''} edge {edge}",
        ))
    args, edge = _edge_args(edges[4])
    cmp_json = rng.random() < 0.5
    calls.append(Call(
        "compare", ("compare", *args, *(("--json",) if cmp_json else ())),
        {"kind": "compare", "json": cmp_json},
        label=f"compare{' --json' if cmp_json else ''} edge {edge}",
    ))
    rng.shuffle(calls)
    return calls


# -- fold-net ----------------------------------------------------------------------


def _sheet(rng: random.Random) -> tuple[str, tuple[int, int]]:
    if rng.random() < 0.75:
        name = rng.choice(sorted(STANDARD_SHEETS))
        return name, STANDARD_SHEETS[name]
    w, h = rng.randint(200, 700), rng.randint(200, 700)
    return f"{w}x{h}", (w, h)


def _net_case(rng: random.Random, fits: bool) -> tuple[Fraction, str, tuple]:
    """An (edge, paper) pair the oracle knows surely fits, or surely not."""
    while True:
        paper, sheet = _sheet(rng)
        den = rng.choice((1, 2, 3))
        if fits:
            top = min((min(sheet) - 25) / 6, (max(sheet) - 25) / 10)
            if top < 5:
                continue
            edge = Fraction(rng.randint(5 * den, math.floor(top * den)), den)
        else:
            low = math.floor(max(sheet) * den / 9) + 1
            edge = Fraction(rng.randint(low, low + 20 * den), den)
        if net_fits(edge, sheet) is fits:
            return edge, paper, sheet


def _fold_pass(rng: random.Random, tag: str) -> list[Call]:
    calls = []
    for i, fits in enumerate((True, True, False, False)):
        edge, paper, sheet = _net_case(rng, fits)
        out = f"{tag}_{i}.svg"
        calls.append(Call(
            "net", ("net", "--edge", str(edge), "--paper", paper, "-o", out),
            {"kind": "net" if fits else "net-misfit", "edge": str(edge),
             "sheet": list(sheet)},
            output=out,
            label=f"net {'fits' if fits else 'misfit'} edge {edge} on {paper}",
        ))
    for gyration, as_json in zip((0, 45), rng.sample([False, True], 2)):
        calls.append(Call(
            "fold-check",
            ("fold-check", "--gyration", str(gyration), *(("--json",) if as_json else ())),
            {"kind": "fold-check", "gyration": gyration, "json": as_json},
            label=f"fold-check {gyration}{' --json' if as_json else ''}",
        ))
    rng.shuffle(calls)
    return calls


# -- ingest-float ---------------------------------------------------------------------


def _solid_points(solid: str, edge: float) -> list[tuple[float, float, float]]:
    s = edge / 2
    if solid == "cube":
        return [(x, y, z) for x in (s, -s) for y in (s, -s) for z in (s, -s)]
    t = (1 + math.sqrt(2)) * s
    pts = []
    for axis in range(3):
        for a in (s, -s):
            for b in (s, -s):
                for c in (t, -t):
                    p = [a, b]
                    p.insert(axis, c)
                    pts.append(tuple(p))
    if solid == PSEUDO:  # turn the top cap (the 4 vertices at z = t) by 45 degrees
        r = math.sqrt(0.5)
        pts = [(x * r - y * r, x * r + y * r, z) if z == t else (x, y, z)
               for x, y, z in pts]
    return pts


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def hull_faces(pts) -> list[tuple[int, ...]]:
    """Faces of the convex hull of points in convex position, wound
    counterclockwise seen from outside.  Brute force over vertex triples."""
    size = max(abs(c) for p in pts for c in p)
    faces = {}
    for i, j, k in combinations(range(len(pts)), 3):
        n = _cross(_sub(pts[j], pts[i]), _sub(pts[k], pts[i]))
        norm = math.sqrt(_dot(n, n))
        if norm < 1e-9 * size * size:
            continue
        off = [_dot(n, _sub(p, pts[i])) / norm for p in pts]
        tol = 1e-9 * size
        if max(off) > tol and min(off) < -tol:
            continue
        members = [m for m, d in enumerate(off) if abs(d) <= tol]
        if frozenset(members) in faces:
            continue
        out = n if max(off) <= tol else (-n[0], -n[1], -n[2])
        c = [sum(pts[m][a] for m in members) / len(members) for a in range(3)]
        u = _sub(pts[members[0]], c)
        w = _cross(out, u)
        members.sort(key=lambda m: math.atan2(_dot(_sub(pts[m], c), w),
                                              _dot(_sub(pts[m], c), u)))
        faces[frozenset(members)] = tuple(members)
    return list(faces.values())


@functools.cache
def _mesh(solid: str):
    pts = _solid_points(solid, 2.0)
    return pts, hull_faces(pts)


def noisy_off(solid: str, noise: float, rng: random.Random) -> str:
    """ASCII OFF of ``solid`` at edge 2, each coordinate moved by up to
    ``noise``, with vertices, faces and face start corners shuffled."""
    pts, faces = _mesh(solid)
    order = list(range(len(pts)))
    rng.shuffle(order)  # order[new] = old
    new_index = {old: new for new, old in enumerate(order)}
    lines = ["OFF", f"{len(pts)} {len(faces)} 0"]
    for old in order:
        lines.append(" ".join(f"{c + rng.uniform(-noise, noise):.17g}" for c in pts[old]))
    shuffled = [tuple(new_index[v] for v in f) for f in faces]
    rng.shuffle(shuffled)
    for f in shuffled:
        r = rng.randrange(len(f))
        f = f[r:] + f[:r]
        lines.append(" ".join(map(str, (len(f), *f))))
    return "\n".join(lines) + "\n"


def _ingest_pass(rng: random.Random, tag: str) -> list[Call]:
    calls = []
    for solid in INGEST_SOLIDS:
        for noise, tol in NOISE_LADDER:
            name = f"{tag}_{len(calls)}.off"
            as_json = rng.random() < 0.5
            calls.append(Call(
                "analyze",
                ("analyze", "--input", name, "--tolerance", f"{tol:g}",
                 *(("--json",) if as_json else ())),
                {"kind": "analyze", "solid": solid, "json": as_json,
                 **({"known_defect": KNOWN_DEFECT[noise, tol]}
                    if (noise, tol) in KNOWN_DEFECT else {})},
                inputs=((name, noisy_off(solid, noise, rng)),),
                label=f"analyze --input {solid} noise {noise:g} tol {tol:g}"
                      f"{' --json' if as_json else ''}",
            ))
    rng.shuffle(calls)
    return calls


# -- operands for the Q(sqrt2) kernel probe ------------------------------------------


def probe_literals(workload: str, calls: list[Call]) -> list[str]:
    """Coordinate values of the solids the workload's calls build, as
    Q(sqrt2) literals: s, (1+sqrt2)s and sqrt2*s for s = edge/2, with signs.

    fold-net builds at edges 2 and 50 whatever the net's edge; ingest-float
    meshes are the edge-2 solids plus noise.
    """
    if workload == "exact-cli":
        edges = {c.argv[c.argv.index("--edge") + 1] if "--edge" in c.argv else "5"
                 for c in calls}
    else:
        edges = {"2", "50"} if workload == "fold-net" else {"2"}
    out = set()
    for edge in edges:
        a, b = parse_q2(edge)
        s = (a / 2, b / 2)
        for x in (s, (s[0] + 2 * s[1], s[0] + s[1]), (2 * s[1], s[0])):
            for sign in (1, -1):
                out.add(_literal(sign * x[0], sign * x[1]))
    return sorted(out)


def _literal(a: Fraction, b: Fraction) -> str:
    return f"{a}{'-' if b < 0 else '+'}{abs(b)}*sqrt2"
