"""Known answers for every gyrolab call the benchmark makes.

Written without importing gyrolab: the expected values come from the paper's
table and from closed-form geometry, so a defect in the program cannot make
its own oracle agree with it.  Every check returns ``None`` when the call's
outcome is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

# -- the paper's table, plus the cube as an outside reference -------------------

RCO = "rhombicuboctahedron"
PSEUDO = "pseudo-rhombicuboctahedron"

SOLID_FACTS = {
    RCO: {
        "V": 24, "E": 48, "F": 26, "triangles": 8, "quads": 18,
        "full": 48, "proper": 24, "axes": {4: 3, 3: 4, 2: 6},
        "belts": [8, 8, 8], "pole_pairs": 3, "orbits": [24],
        "transitive": True, "figures": [[3, 4, 4, 4]],
    },
    PSEUDO: {
        "V": 24, "E": 48, "F": 26, "triangles": 8, "quads": 18,
        "full": 16, "proper": 8, "axes": {4: 1, 2: 4},
        "belts": [8], "pole_pairs": 1, "orbits": [16, 8],
        "transitive": False, "figures": [[3, 4, 4, 4]],
    },
    "cube": {
        "V": 8, "E": 12, "F": 6, "triangles": 0, "quads": 6,
        "full": 48, "proper": 24, "axes": {4: 3, 3: 4, 2: 6},
        "belts": [4, 4, 4], "pole_pairs": 3, "orbits": [8],
        "transitive": True, "figures": [[4, 4, 4]],
    },
}

# Which feature pairs each rotation axis passes through, by axis order.  On the
# rhombicuboctahedron every axis joins opposite face centres; on the twin the
# order-2 axes cross edge midpoints.
AXIS_FEATURES = {
    RCO: {4: ("face", "face"), 3: ("face", "face"), 2: ("face", "face")},
    PSEUDO: {4: ("face", "face"), 2: ("edge", "edge")},
}

CLOSURE_CHECKS = 17
NET_SQUARES = 27
NET_GLUE = 9

# -- exact arithmetic in Q(sqrt2), as (a, b) = a + b*sqrt2 ------------------------

_Q2_RE = re.compile(
    r"(?P<a>-?\d+(?:/\d+)?)?(?:(?P<sgn>[+-]?)(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt2)?"
)


def parse_q2(text: str) -> tuple[Fraction, Fraction]:
    """Parse ``a/b+c/d*sqrt2`` and the shorthands ``3/2``, ``1+sqrt2``."""
    m = _Q2_RE.fullmatch(text)
    if not text or m is None or (m["a"] and "sqrt2" in text and not m["sgn"]):
        raise ValueError(f"not a Q(sqrt2) literal: {text!r}")
    b = Fraction(0)
    if "sqrt2" in text:
        b = Fraction(m["b"] or 1) * (-1 if m["sgn"] == "-" else 1)
    return Fraction(m["a"] or 0), b


def q2_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q2_float(x) -> float:
    return float(x[0]) + float(x[1]) * math.sqrt(2.0)


def _sq_dist_q2(p, q):
    total = (Fraction(0), Fraction(0))
    for u, v in zip(p, q):
        d = (u[0] - v[0], u[1] - v[1])
        sq = q2_mul(d, d)
        total = (total[0] + sq[0], total[1] + sq[1])
    return total


# -- helpers ------------------------------------------------------------------


def _stderr_problem(stderr: str, want_error: bool) -> str | None:
    lines = stderr.splitlines()
    if want_error:
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return "expected exactly one 'error:' line on stderr, got " + _clip(stderr)
        return None
    if stderr.strip():
        return "unexpected stderr: " + _clip(stderr)
    return None


def _clip(text: str, n: int = 120) -> str:
    text = text.strip().replace("\n", " | ")
    return repr(text if len(text) <= n else text[: n - 3] + "...")


def _edges(faces) -> dict:
    """Undirected edge -> number of faces using it."""
    use: dict = {}
    for f in faces:
        for i in range(len(f)):
            e = tuple(sorted((f[i], f[(i + 1) % len(f)])))
            use[e] = use.get(e, 0) + 1
    return use


def _shape_problem(solid: str, n_verts: int, faces) -> str | None:
    facts = SOLID_FACTS[solid]
    sizes = sorted(len(f) for f in faces)
    want = sorted([3] * facts["triangles"] + [4] * facts["quads"])
    if n_verts != facts["V"] or sizes != want:
        return f"got {n_verts} vertices and face sizes {sizes}"
    if any(not 0 <= i < n_verts for f in faces for i in f):
        return "face index out of range"
    use = _edges(faces)
    if len(use) != facts["E"] or set(use.values()) != {2}:
        return f"got {len(use)} edges, not {facts['E']} each shared by 2 faces"
    return None


def _cyclic_closed(points, key) -> bool:
    """Is the vertex set mapped onto itself by (x, y, z) -> (y, z, x)?"""
    keys = {key(p) for p in points}
    return all(key((p[1], p[2], p[0])) in keys for p in points)


# -- build ----------------------------------------------------------------------


def check_build_json(text: str, solid: str, edge: tuple) -> str | None:
    """Exact check of ``build --format json``: counts and every edge length."""
    try:
        doc = json.loads(text)
        verts = [tuple(parse_q2(c) for c in v) for v in doc["vertices"]]
        faces = [tuple(f) for f in doc["faces"]]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable JSON model: {e}"
    if doc.get("name") != solid:
        return f"name {doc.get('name')!r}, expected {solid!r}"
    problem = _shape_problem(solid, len(verts), faces)
    if problem:
        return problem
    want = q2_mul(edge, edge)
    for a, b in _edges(faces):
        if _sq_dist_q2(verts[a], verts[b]) != want:
            return f"edge {a}-{b} does not have the requested length exactly"
    if _cyclic_closed(verts, lambda p: p) != (solid == RCO):
        return "vertex set has the wrong symmetry for " + solid
    return None


def check_build_off(text: str, solid: str, edge: tuple) -> str | None:
    """Float check of ``build --format off``: counts, edge lengths to 1e-12."""
    try:
        verts, faces = parse_off(text)
    except (ValueError, IndexError) as e:
        return f"unreadable OFF: {e}"
    problem = _shape_problem(solid, len(verts), faces)
    if problem:
        return problem
    want = q2_float(edge)
    for a, b in _edges(faces):
        if abs(math.dist(verts[a], verts[b]) - want) > 1e-12 * want:
            return f"edge {a}-{b} has length {math.dist(verts[a], verts[b])!r}, not {want!r}"
    scale = max(abs(c) for v in verts for c in v)
    if _cyclic_closed(verts, lambda p: tuple(round(c / scale, 9) for c in p)) != (solid == RCO):
        return "vertex set has the wrong symmetry for " + solid
    return None


def parse_off(text: str):
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or rows[0] != ["OFF"]:
        raise ValueError("missing OFF header")
    nv, nf, _ = (int(x) for x in rows[1])
    verts = [tuple(float(x) for x in r) for r in rows[2 : 2 + nv]]
    faces = [tuple(int(x) for x in r[1:]) for r in rows[2 + nv : 2 + nv + nf]]
    if len(verts) != nv or len(faces) != nf or len(rows) != 2 + nv + nf:
        raise ValueError("counts line disagrees with the body")
    if any(len(v) != 3 for v in verts) or any(
        int(r[0]) != len(r) - 1 for r in rows[2 + nv :]
    ):
        raise ValueError("malformed vertex or face line")
    return verts, faces


# -- analyze ------------------------------------------------------------------------


def _breakdown_text(axes: dict) -> str:
    return " + ".join(f"{axes[o]} of order {o}" for o in sorted(axes, reverse=True))


def expected_analysis_lines(solid: str) -> dict:
    f = SOLID_FACTS[solid]
    orbits = f["orbits"]
    belts = f["belts"]
    return {
        "validation": "ok",
        "faces": f"{f['F']} ({f['triangles']} triangles, {f['quads']} quads)",
        "vertices": f"{f['V']}, edges: {f['E']}, Euler characteristic: 2",
        "equatorial belts": f"{len(belts)} (lengths: {', '.join(map(str, belts))});"
        f" pole pairs: {f['pole_pairs']}",
        "symmetry group": f"{f['full']} (proper {f['proper']})",
        "axis breakdown": _breakdown_text(f["axes"]),
        "vertex transitive": f"{'yes' if f['transitive'] else 'no'} ({len(orbits)}"
        f" orbit{'s' if len(orbits) != 1 else ''}: {', '.join(map(str, orbits))})",
        "rotation axes": str(sum(f["axes"].values())),
    }


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def check_analyze_text(text: str, solid: str) -> str | None:
    got = _key_values(text)
    for key, want in expected_analysis_lines(solid).items():
        value = got.get(key)
        if key == "symmetry group" and value is not None:
            value = value.removesuffix(" [approximate]")
        if value != want:
            return f"{key}: {value!r}, expected {want!r}"
    return None


def check_analyze_json(text: str, solid: str) -> str | None:
    f = SOLID_FACTS[solid]
    try:
        doc = json.loads(text)
        sym = doc["symmetry"]
        got = {
            "partial": doc["partial"],
            "validation": doc["validation"]["ok"],
            "counts": [doc["counts"][k] for k in ("vertices", "edges", "faces")],
            "census": [doc["census"]["triangles"], doc["census"]["quads"]],
            "figures": doc["vertex_figures"]["figures"],
            "full": sym["full_order"],
            "proper": sym["proper_order"],
            "axes": Counter(a["order"] for a in sym["axes"]),
            "belts": [b["length"] for b in doc["belts"]],
            "pole_pairs": sum(1 for b in doc["belts"] if b["poles"]),
            "orbits": sym["orbits"]["sizes"],
            "transitive": sym["vertex_transitive"],
        }
        features = [
            (a["order"], tuple(sorted(x["type"] for x in a["features"])))
            for a in sym["axes"]
        ]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable analysis JSON: {e}"
    want = {
        "partial": False, "validation": True,
        "counts": [f["V"], f["E"], f["F"]], "census": [f["triangles"], f["quads"]],
        **{k: f[k] for k in ("figures", "full", "proper", "axes", "belts",
                             "pole_pairs", "orbits", "transitive")},
    }
    for key, value in want.items():
        if got[key] != value:
            return f"{key}: {got[key]!r}, expected {value!r}"
    for order, pair in features:
        want_pair = AXIS_FEATURES.get(solid, {}).get(order)
        if want_pair is not None and pair != want_pair:
            return f"order-{order} axis passes through {pair}, expected {want_pair}"
    return None


# -- compare ----------------------------------------------------------------------


def expected_comparison() -> dict:
    a, b = SOLID_FACTS[RCO], SOLID_FACTS[PSEUDO]

    def crossed(o):
        return " + ".join(f"{o[k]}x order {k}" for k in sorted(o, reverse=True))

    def yn(x):
        return "yes" if x else "no"

    return {
        "faces": ("26", "26"),
        "triangles": ("8", "8"),
        "quads": ("18", "18"),
        "vertices": ("24", "24"),
        "edges": ("48", "48"),
        "proper group order": (str(a["proper"]), str(b["proper"])),
        "full group order": (str(a["full"]), str(b["full"])),
        "axes": (str(sum(a["axes"].values())), str(sum(b["axes"].values()))),
        "axis breakdown": (crossed(a["axes"]), crossed(b["axes"])),
        "belts": (str(len(a["belts"])), str(len(b["belts"]))),
        "pole pairs": (str(a["pole_pairs"]), str(b["pole_pairs"])),
        "vertex transitive": (yn(a["transitive"]), yn(b["transitive"])),
    }


def check_compare_text(text: str) -> str | None:
    got = {}
    for line in text.splitlines()[1:]:
        label, sep, rest = line.partition(": ")
        left, bar, right = rest.rpartition("  [")[0].partition(" | ")
        if sep and bar:
            got[label] = (left, right)
    return _compare_rows(got)


def check_compare_json(text: str) -> str | None:
    try:
        doc = json.loads(text)
        got = {r["label"]: (r["left"], r["right"]) for r in doc["rows"]}
        names = (doc["left"], doc["right"])
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable comparison JSON: {e}"
    if names != (RCO, PSEUDO):
        return f"compared {names}, expected {(RCO, PSEUDO)}"
    return _compare_rows(got)


def _compare_rows(got: dict) -> str | None:
    for label, want in expected_comparison().items():
        if got.get(label) != want:
            return f"{label}: {got.get(label)!r}, expected {want!r}"
    return None


# -- net and fold-check ------------------------------------------------------------------


def check_net_svg(text: str, edge: Fraction, sheet: tuple) -> str | None:
    """27 squares of side ``edge`` mm, 9 of them glue, on a sheet of ``sheet`` mm."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        return f"SVG does not parse: {e}"
    size = (root.get("width", ""), root.get("height", ""))
    try:
        if any(abs(float(v.removesuffix("mm")) - float(want)) > 1e-3
               for v, want in zip(size, sheet)):
            return f"sheet {size[0]} x {size[1]}, expected {sheet[0]} x {sheet[1]} mm"
    except ValueError:
        return f"sheet size {size} is not in mm"
    rects = [r for r in root.iter("{http://www.w3.org/2000/svg}rect")
             if "square" in r.get("class", "").split()]
    glue = [r for r in rects if "glue" in r.get("class", "").split()]
    if len(rects) != NET_SQUARES or len(glue) != NET_GLUE:
        return f"{len(rects)} squares ({len(glue)} glue), expected {NET_SQUARES} ({NET_GLUE})"
    for r in rects:
        w, h = float(r.get("width")), float(r.get("height"))
        if abs(w - float(edge)) > 1e-3 or abs(h - float(edge)) > 1e-3:
            return f"square of {w} x {h} mm, expected side {float(edge)}"
    return None


def net_fits(edge: Fraction, sheet: tuple) -> bool | None:
    """True when the pieces surely fit, False when surely not, else None.

    Sure fit: the strip turned along the long side next to the two caps
    stacked (5E x 5E each, 5 mm gaps, 10 mm margins).  Sure misfit: the
    9-square strip is longer than the sheet's long side.
    """
    short, long_ = sorted(sheet)
    if 6 * edge + 5 <= short - 20 and 10 * edge + 5 <= long_ - 20:
        return True
    if 9 * edge > long_:
        return False
    return None


def check_fold_text(text: str, gyration: int) -> str | None:
    got = _key_values(text)
    target = RCO if gyration == 0 else PSEUDO
    want = {
        "fold-check": f"gyration {gyration}",
        "matched": target,
    }
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: {got.get(key)!r}, expected {value!r}"
    closure = got.get("closure", "")
    if not closure.startswith(f"{CLOSURE_CHECKS}/{CLOSURE_CHECKS} checks passed"):
        return f"closure: {closure!r}, expected {CLOSURE_CHECKS}/{CLOSURE_CHECKS} passed"
    return None


def check_fold_json(text: str, gyration: int) -> str | None:
    try:
        doc = json.loads(text)
        got = (doc["gyration"], doc["target"], doc["matched"], doc["closure_ok"])
        passed = [c["passed"] for c in doc["closure"]]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable assembly JSON: {e}"
    want = (gyration, RCO if gyration == 0 else PSEUDO, True, True)
    if got != want:
        return f"(gyration, target, matched, closure_ok) = {got}, expected {want}"
    if len(passed) != CLOSURE_CHECKS or not all(passed):
        return f"{sum(passed)}/{len(passed)} closure checks passed"
    return None


# -- one call ------------------------------------------------------------------------


def check_call(expect: dict, returncode: int, stdout: str, stderr: str,
               output: str | None) -> str | None:
    """Judge one CLI call against its expected answer.

    ``expect["kind"]`` names the check; ``output`` is the content of the
    call's ``-o`` file, or None when it wrote none.  A call is right only
    with the right exit code, a right answer and a clean stderr: nothing
    on success, one ``error:`` line on an expected error.
    """
    if expect["kind"] == "net-misfit":
        if returncode != 1:
            return f"exit {returncode}, expected 1 for pieces that cannot fit"
        if output is not None:
            return "wrote an output file although the pieces do not fit"
        return _stderr_problem(stderr, True)
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {returncode}: " + _clip(last[0])
    return _answer_problem(expect, stdout, output) or _stderr_problem(stderr, False)


def _answer_problem(expect: dict, stdout: str, output: str | None) -> str | None:
    kind = expect["kind"]
    if kind == "version":
        return None if stdout.startswith("gyrolab ") else "no version on stdout"
    if kind == "build":
        text = output if expect["output"] else stdout
        if text is None:
            return "no output file written"
        check = check_build_json if expect["format"] == "json" else check_build_off
        return check(text, expect["solid"], parse_q2(expect["edge"]))
    if kind == "analyze":
        check = check_analyze_json if expect["json"] else check_analyze_text
        return check(stdout, expect["solid"])
    if kind == "compare":
        return check_compare_json(stdout) if expect["json"] else check_compare_text(stdout)
    if kind == "net":
        if output is None:
            return "no SVG written"
        if stdout:
            return "unexpected stdout: " + _clip(stdout)
        sheet = tuple(Fraction(x) for x in expect["sheet"])
        return check_net_svg(output, Fraction(expect["edge"]), sheet)
    if kind == "fold-check":
        check = check_fold_json if expect["json"] else check_fold_text
        return check(stdout, expect["gyration"])
    raise ValueError(f"unknown expectation kind {kind!r}")
