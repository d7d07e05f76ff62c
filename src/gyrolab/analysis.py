"""Cross-module report assembly and the two-solid comparison.

``analyze`` aggregates the census, symmetry, belt and vertex-figure
results into one deterministic report; ``compare`` renders the
side-by-side table that separates the rhombicuboctahedron from its
gyrate twin: same face census and vertex figures, very different
symmetry inventory.
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
    vertex_figures: tuple[tuple[int, ...], ...]
    uniform_vertex_figure: bool
    faces_regular: bool
    symmetry: Optional[SymmetryReport]
    belts: tuple[Belt, ...]
    belt_overlap: Optional[BeltOverlap]
    archimedean_candidate: bool
    pseudo_uniform: bool

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
        return AnalysisReport(
            partial=True,
            vertex_figures=(),
            uniform_vertex_figure=False,
            faces_regular=False,
            symmetry=None,
            belts=(),
            belt_overlap=None,
            archimedean_candidate=False,
            pseudo_uniform=False,
            **base,
        )
    figures = sorted({vertex_figure(p, v) for v in range(p.n_vertices)})
    uniform = len(figures) == 1
    sym = symmetry_report(p)
    belts = belts_mod.find_belts(p)
    overlap = belts_mod.belt_square_overlap(p) if belts else None
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


def _yn(v: bool) -> str:
    return "yes" if v else "no"


def _figures(r: AnalysisReport) -> str:
    return ", ".join("(" + ",".join(map(str, f)) + ")" for f in r.vertex_figures)


def text_report(r: AnalysisReport) -> str:
    """Human-readable summary; the last line carries the axis count."""
    lines = [f"analysis: {r.name or 'polyhedron'} ({r.mode})"]
    lines.append(f"validation: {'ok' if r.validation.ok else 'FAILED'}")
    if not r.validation.ok:
        for c in r.validation.checks:
            if not c.passed:
                lines.append(f"  {c.name}: {c.detail}")
        if r.validation.open_edges:
            lines.append(f"  open edges: {list(r.validation.open_edges)}")
    lines.append(
        f"faces: {r.face_count} ({r.census.triangles} triangles,"
        f" {r.census.quads} quads"
        + (f", {r.census.other} other)" if r.census.other else ")")
    )
    lines.append(
        f"vertices: {r.vertex_count}, edges: {r.edge_count},"
        f" Euler characteristic: {r.euler}"
    )
    if r.partial:
        lines.append("analysis stopped: validation failed")
        return "\n".join(lines) + "\n"
    uniform = " (uniform)" if r.uniform_vertex_figure else ""
    lines.append(f"vertex figures: {_figures(r)}{uniform}")
    lines.append(f"faces regular: {_yn(r.faces_regular)}")
    belt_lens = ", ".join(str(b.length) for b in r.belts) or "none"
    lines.append(
        f"equatorial belts: {len(r.belts)} (lengths: {belt_lens});"
        f" pole pairs: {r.pole_pair_count}"
    )
    sym = r.symmetry
    lines.append(
        f"symmetry group: {sym.full_order} (proper {sym.proper_order})"
        + (" [approximate]" if sym.approximate else "")
    )
    by_order = sym.axes_by_order()
    breakdown = " + ".join(
        f"{by_order[o]} of order {o}" for o in sorted(by_order, reverse=True)
    )
    lines.append(f"axis breakdown: {breakdown or 'none'}")
    lines.append(
        f"vertex transitive: {_yn(sym.vertex_transitive)}"
        f" ({len(sym.orbit_sizes)} orbit"
        f"{'s' if len(sym.orbit_sizes) != 1 else ''}:"
        f" {', '.join(map(str, sym.orbit_sizes))})"
    )
    lines.append(
        f"archimedean candidate: {_yn(r.archimedean_candidate)};"
        f" pseudo uniform: {_yn(r.pseudo_uniform)}"
    )
    lines.append(f"rotation axes: {len(sym.axes)}")
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


def _summary(r: AnalysisReport) -> list[tuple[str, str]]:
    """One report's side of the comparison, as (label, value) rows; "-"
    where the symmetry analysis did not run."""
    sym = r.symmetry
    by = sym.axes_by_order() if sym else {}
    breakdown = " + ".join(f"{by[o]}x order {o}" for o in sorted(by, reverse=True))
    return [
        ("faces", str(r.face_count)),
        ("triangles", str(r.census.triangles)),
        ("quads", str(r.census.quads)),
        ("vertices", str(r.vertex_count)),
        ("edges", str(r.edge_count)),
        ("vertex figure", _figures(r)),
        ("proper group order", str(sym.proper_order) if sym else "-"),
        ("full group order", str(sym.full_order) if sym else "-"),
        ("axes", str(len(sym.axes)) if sym else "-"),
        ("axis breakdown", (breakdown or "0") if sym else "-"),
        ("belts", str(len(r.belts))),
        ("pole pairs", str(r.pole_pair_count)),
        ("vertex transitive", _yn(sym is not None and sym.vertex_transitive)),
        ("archimedean candidate", _yn(r.archimedean_candidate)),
        ("pseudo uniform", _yn(r.pseudo_uniform)),
    ]


def compare(a: AnalysisReport, b: AnalysisReport) -> ComparisonTable:
    rows = tuple(
        ComparisonRow(label, left, right)
        for (label, left), (_, right) in zip(_summary(a), _summary(b))
    )
    return ComparisonTable(a.name or "left", b.name or "right", rows)


def report_json(r: AnalysisReport) -> str:
    import json

    return json.dumps(r.to_dict(), indent=2) + "\n"


def comparison_json(t: ComparisonTable) -> str:
    import json

    return json.dumps(t.to_dict(), indent=2) + "\n"
