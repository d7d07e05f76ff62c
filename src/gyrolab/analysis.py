"""Cross-module report assembly and the two-solid comparison.

``analyze`` aggregates the census, symmetry, belt and vertex-figure
results into one deterministic report; ``compare`` renders the
side-by-side table that separates the rhombicuboctahedron from its
gyrate twin: same face census and vertex figures, very different
symmetry inventory.  ``_values`` formats each value both views print.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import belts as belts_mod
from .belts import Belt, BeltOverlap
from .solids import (
    FaceCensus,
    Polyhedron,
    ValidationReport,
    face_census,
    validate,
    vertex_figure,
)
from .symmetry import SymmetryReport, symmetry_report

SCHEMA = "gyrolab/1"


class AnalysisReport(NamedTuple):
    name: str
    mode: str  # "exact" | "float"
    validation: ValidationReport
    partial: bool
    census: FaceCensus
    vertex_count: int
    edge_count: int
    face_count: int
    euler: int
    # a partial report keeps these defaults: None is a verdict never computed
    vertex_figures: tuple[tuple[int, ...], ...] = ()
    uniform_vertex_figure: Optional[bool] = None
    faces_regular: Optional[bool] = None
    symmetry: Optional[SymmetryReport] = None
    belts: tuple[Belt, ...] = ()
    belt_overlap: Optional[BeltOverlap] = None
    archimedean_candidate: Optional[bool] = None
    pseudo_uniform: Optional[bool] = None

    @property
    def pole_pair_count(self) -> int:
        return sum(1 for b in self.belts if b.pole_faces is not None)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "analysis",
            "name": self.name,
            "mode": self.mode,
            "partial": self.partial,
            "validation": self.validation.to_dict(),
            "census": {
                "triangles": self.census.triangles,
                "quads": self.census.quads,
                "other": self.census.other,
            },
            "counts": {
                "vertices": self.vertex_count,
                "edges": self.edge_count,
                "faces": self.face_count,
                "euler": self.euler,
            },
            "vertex_figures": {
                "uniform": self.uniform_vertex_figure,
                "figures": [list(f) for f in self.vertex_figures],
            },
            "faces_regular": self.faces_regular,
            "symmetry": self.symmetry.to_dict() if self.symmetry else None,
            "belts": [b.to_dict() for b in self.belts],
            "belt_overlap": (
                {
                    "pairwise": {
                        f"{i},{j}": n for (i, j), n in sorted(self.belt_overlap.pairwise.items())
                    },
                    "union": self.belt_overlap.union_size,
                    "quads": self.belt_overlap.quad_count,
                }
                if self.belt_overlap
                else None
            ),
            "flags": {
                "archimedean_candidate": self.archimedean_candidate,
                "pseudo_uniform": self.pseudo_uniform,
            },
        }


def _faces_regular(p: Polyhedron) -> bool:
    """Equal edge lengths plus per-face equal corner angles (planarity is
    already covered by validation); no full Archimedean classification.
    Decided by the kernel on ``p.points``: once every edge has length e, the
    corner at v with neighbours u and w has (u - v).(w - v) = e^2 cos(angle),
    so equal dot products mean equal angles."""
    k, pts = p.kernel, p.points
    edges = (k.sub(pts[j], pts[i]) for (i, j) in p.edges)
    if not k.all_equal([k.dot(d, d) for d in edges]):
        return False
    return all(k.all_equal([k.dot(k.sub(pts[u], pts[v]), k.sub(pts[w], pts[v]))
                            for u, v, w in zip(f[-1:] + f[:-1], f, f[1:] + f[:1])])
               for f in p.faces)


def analyze(p: Polyhedron, name: str = "") -> AnalysisReport:
    """Full per-solid report; validation failures yield a partial report
    (census and counts only) instead of raising."""
    report = validate(p)
    census = face_census(p)
    base = dict(
        name=name,
        mode="exact" if p.exact else "float",
        validation=report,
        census=census,
        vertex_count=p.n_vertices,
        edge_count=p.n_edges,
        face_count=p.n_faces,
        euler=p.euler_characteristic,
    )
    if not report.ok:
        return AnalysisReport(partial=True, **base)
    figures = sorted({vertex_figure(p, v) for v in range(p.n_vertices)})
    uniform = len(figures) == 1
    sym = symmetry_report(p)
    belts = belts_mod.find_belts(p)
    overlap = belts_mod.belt_square_overlap(p, belts) if belts else None
    regular = _faces_regular(p)
    return AnalysisReport(
        partial=False,
        vertex_figures=tuple(figures),
        uniform_vertex_figure=uniform,
        faces_regular=regular,
        symmetry=sym,
        belts=belts,
        belt_overlap=overlap,
        archimedean_candidate=regular and uniform and sym.vertex_transitive,
        pseudo_uniform=regular and uniform and not sym.vertex_transitive,
        **base,
    )


def _text(v) -> str:
    """A report value as printed: "-" for None, a value never computed."""
    return "-" if v is None else ("yes" if v else "no") if isinstance(v, bool) else str(v)


def _values(r: AnalysisReport) -> dict[str, str]:
    """``compare``'s side of one report, label -> value in row order; the
    text prints the same strings.  A partial report has no symmetry, and
    every value after the counts is "-"."""
    sym = r.symmetry  # None in a partial report; a SymmetryReport is never false
    by_order = sorted(sym.axes_by_order().items(), reverse=True) if sym else ()
    values = {
        "faces": r.face_count,
        "triangles": r.census.triangles,
        "quads": r.census.quads,
        "vertices": r.vertex_count,
        "edges": r.edge_count,
        "vertex figure": sym and ", ".join("(" + ",".join(map(str, f)) + ")"
                                           for f in r.vertex_figures),
        "proper group order": sym and sym.proper_order,
        "full group order": sym and sym.full_order,
        "axes": sym and len(sym.axes),
        "axis breakdown": sym and (" + ".join(f"{n}x order {o}" for o, n in by_order) or 0),
        "belts": sym and len(r.belts),
        "pole pairs": sym and r.pole_pair_count,
        "vertex transitive": sym and sym.vertex_transitive,
        "archimedean candidate": r.archimedean_candidate,
        "pseudo uniform": r.pseudo_uniform,
    }
    return {label: _text(v) for label, v in values.items()}


def text_report(r: AnalysisReport) -> str:
    """Human-readable summary: ``_values``' strings plus the facts only the
    text shows; the last line carries the axis count."""
    v = _values(r)
    lines = [f"analysis: {r.name or 'polyhedron'} ({r.mode})",
             f"validation: {'ok' if r.validation.ok else 'FAILED'}"]
    if not r.validation.ok:
        lines += [f"  {c.name}: {c.detail}" for c in r.validation.checks if not c.passed]
        if r.validation.open_edges:
            lines.append(f"  open edges: {list(r.validation.open_edges)}")
    other = f", {r.census.other} other" if r.census.other else ""
    lines += [f"faces: {v['faces']} ({v['triangles']} triangles, {v['quads']} quads{other})",
              f"vertices: {v['vertices']}, edges: {v['edges']}, Euler characteristic: {r.euler}"]
    if r.partial:
        lines.append("analysis stopped: validation failed")
        return "\n".join(lines) + "\n"
    sym, lengths = r.symmetry, ", ".join(str(b.length) for b in r.belts)
    by_order = sorted(sym.axes_by_order().items(), reverse=True)
    orbits = sym.orbit_sizes
    lines += [
        f"vertex figures: {v['vertex figure']}" + (" (uniform)" if r.uniform_vertex_figure else ""),
        f"faces regular: {_text(r.faces_regular)}",
        f"equatorial belts: {v['belts']} (lengths: {lengths or 'none'});"
        f" pole pairs: {v['pole pairs']}",
        f"symmetry group: {v['full group order']} (proper {v['proper group order']})"
        + (" [approximate]" if sym.approximate else ""),
        "axis breakdown: " + (" + ".join(f"{n} of order {o}" for o, n in by_order) or "none"),
        f"vertex transitive: {v['vertex transitive']} ({len(orbits)} orbit"
        f"{'s' if len(orbits) != 1 else ''}: {', '.join(map(str, orbits))})",
        f"archimedean candidate: {v['archimedean candidate']};"
        f" pseudo uniform: {v['pseudo uniform']}",
        f"rotation axes: {v['axes']}",
    ]
    return "\n".join(lines) + "\n"


# -- comparison ---------------------------------------------------------------


class ComparisonRow(NamedTuple):
    label: str
    left: str
    right: str

    @property
    def equal(self) -> bool:
        return self.left == self.right


class ComparisonTable(NamedTuple):
    left_name: str
    right_name: str
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "comparison",
            "left": self.left_name,
            "right": self.right_name,
            "rows": [
                {"label": r.label, "left": r.left, "right": r.right, "equal": r.equal}
                for r in self.rows
            ],
        }

    def to_text(self) -> str:
        lines = [f"comparison: {self.left_name} vs {self.right_name}"]
        for r in self.rows:
            marker = "=" if r.equal else "!"
            lines.append(f"{r.label}: {r.left} | {r.right}  [{marker}]")
        return "\n".join(lines) + "\n"


def compare(a: AnalysisReport, b: AnalysisReport) -> ComparisonTable:
    right = _values(b)
    rows = tuple(ComparisonRow(label, left, right[label]) for label, left in _values(a).items())
    return ComparisonTable(a.name or "left", b.name or "right", rows)


def report_json(r: AnalysisReport) -> str:
    import json

    return json.dumps(r.to_dict(), indent=2) + "\n"


def comparison_json(t: ComparisonTable) -> str:
    import json

    return json.dumps(t.to_dict(), indent=2) + "\n"
