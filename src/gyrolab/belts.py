"""Equatorial belt (zone) detection and pole pairs.

A belt is found combinatorially: start on a quadrilateral, leave through
the edge opposite the entry edge, and keep going; a walk that returns to
its start without ever entering a non-quad face is a closed band of
squares.  No equator-plane search, so the result is pose-independent and
exact.  Parallel crossing edges, the belt normal and the pole faces are
decided by the mesh's kernel on ``Polyhedron.points``; the normal comes back
as the kernel's canonical direction.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import geom
from .geom import Vec3
from .solids import Polyhedron


class Belt(NamedTuple):
    """Closed cyclic band of quads glued along opposite edges."""

    faces: tuple[int, ...]
    crossing_edges: tuple[tuple[int, int], ...]
    plane_normal: Vec3  # common direction of the crossing edges
    pole_faces: Optional[tuple[int, int]] = None

    @property
    def length(self) -> int:
        return len(self.faces)

    def to_dict(self) -> dict:
        return {
            "faces": list(self.faces),
            "length": self.length,
            "normal": geom.json_vec(self.plane_normal),
            "poles": list(self.pole_faces) if self.pole_faces else None,
        }


class BeltOverlap(NamedTuple):
    pairwise: dict
    union_size: int
    quad_count: int


def _opposite_edge(face: tuple[int, ...], edge: tuple[int, int]) -> tuple[int, int]:
    # in a quad, the edge sharing no vertex with the entry edge
    rest = [v for v in face if v not in edge]
    return (rest[0], rest[1]) if rest[0] < rest[1] else (rest[1], rest[0])


def _parallel(k, pts, e1, e2) -> bool:
    """Edges e1 and e2 are parallel, decided by k on its coordinates pts."""
    (i, j), (a, b) = e1, e2
    return k.is_zero_vec(k.cross(k.sub(pts[j], pts[i]), k.sub(pts[b], pts[a])))


def find_belts(p: Polyhedron) -> tuple[Belt, ...]:
    """Every maximal closed zone walk over quads, deduplicated up to
    rotation/reversal; walks that hit a non-quad face are discarded.
    Crossing edges must be mutually parallel, as the mesh's kernel decides.
    Computed once per mesh."""
    if "belts" in p._cache:
        return p._cache["belts"]
    belts: dict[frozenset, Belt] = {}
    k, pts = p.kernel, p.points
    for start_face, face in enumerate(p.faces):
        if len(face) != 4:
            continue
        start_edges = [
            tuple(sorted((face[0], face[1]))),
            tuple(sorted((face[1], face[2]))),
        ]
        for start_edge in start_edges:
            walk_faces: list[int] = []
            walk_edges: list[tuple[int, int]] = []
            fi, entry = start_face, start_edge
            ok = False
            for _ in range(2 * p.n_faces + 1):
                if len(p.faces[fi]) != 4:
                    break
                walk_faces.append(fi)
                walk_edges.append(entry)
                exit_edge = _opposite_edge(p.faces[fi], entry)
                nxt = p.other_face(exit_edge, fi)
                if nxt is None:
                    break
                fi, entry = nxt, exit_edge
                if (fi, entry) == (start_face, start_edge):
                    ok = True
                    break
            if not ok:
                continue
            key = frozenset(walk_faces)
            if key in belts:
                continue
            d0 = walk_edges[0]
            if not all(_parallel(k, pts, d0, e) for e in walk_edges[1:]):
                continue
            normal = k.canon_dir(k.sub(pts[d0[1]], pts[d0[0]]))
            belts[key] = Belt(tuple(walk_faces), tuple(walk_edges), normal)
    ordered = sorted(belts.values(), key=lambda b: b.faces)
    p._cache["belts"] = tuple(
        Belt(b.faces, b.crossing_edges, b.plane_normal, pole_pairs(p, b))
        for b in ordered
    )
    return p._cache["belts"]


def pole_pairs(p: Polyhedron, belt: Belt) -> Optional[tuple[int, int]]:
    """The two faces whose centers lie on the belt axis (the line through
    the centroid along the belt normal), positive side first; None unless
    exactly one face center lies on each side."""
    sides = p.on_axis(belt.plane_normal, ("face",))
    if not len(sides[True]) == len(sides[False]) == 1:
        return None
    return sides[True][0][1], sides[False][0][1]


def belt_square_overlap(p: Polyhedron) -> BeltOverlap:
    """Pairwise face intersections between belts plus their union size,
    against the quad census."""
    belts = find_belts(p)
    sets = [set(b.faces) for b in belts]
    pairwise = {
        (i, j): len(sets[i] & sets[j])
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
    }
    union = set().union(*sets) if sets else set()
    quads = sum(1 for f in p.faces if len(f) == 4)
    return BeltOverlap(pairwise, len(union), quads)
