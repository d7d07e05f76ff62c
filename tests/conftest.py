import itertools
import math
import os
import random
from fractions import Fraction

import pytest

from gyrolab.geom import vcross, vdot, vsub
from gyrolab.netgen import generate_nets
from gyrolab.qfield import ONE, SQRT2, Q2
from gyrolab.solids import (
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
    convex_hull_faces,
)
from gyrolab.symmetry import symmetry_report

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def noisy_off(text: str, eps: float, rng: random.Random) -> str:
    """OFF text with uniform noise in [-eps, eps] added to every coordinate."""
    lines = text.splitlines()
    nv = int(lines[1].split()[0])
    for k in range(2, 2 + nv):
        coords = [float(x) + rng.uniform(-eps, eps) for x in lines[k].split()]
        lines[k] = " ".join(f"{c:.17g}" for c in coords)
    return "\n".join(lines) + "\n"


def signed_permutations(base) -> list:
    """Every coordinate permutation of (±base[0], ±base[1], ±base[2])."""
    return sorted({
        perm
        for signs in itertools.product((1, -1), repeat=3)
        for perm in itertools.permutations([s * c for s, c in zip(signs, base)])
    })


# exact point sets of known solids, each centred on the origin
CUBE = signed_permutations((ONE, ONE, ONE))
OCTAGONAL_PRISM = sorted(
    (sx * a, sy * b, z)
    for a, b in ((ONE, ONE + SQRT2), (ONE + SQRT2, ONE))
    for sx in (1, -1) for sy in (1, -1) for z in (ONE, -ONE)
)
TRUNCATED_CUBE = signed_permutations((SQRT2 - 1, ONE, ONE))
TRUNCATED_CUBOCTAHEDRON = signed_permutations((ONE, ONE + SQRT2, ONE + 2 * SQRT2))


def make_cube(half: int = 1) -> Polyhedron:
    verts = sorted(
        {(Q2(sx), Q2(sy), Q2(sz))
         for sx in (half, -half) for sy in (half, -half) for sz in (half, -half)}
    )
    return Polyhedron(verts, convex_hull_faces(verts))


def make_box() -> Polyhedron:
    """The 1 x 2 x 3 box, exact and centred: the cube's face lattice, but
    only the 8 isometries of a box."""
    half = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    verts = sorted({tuple(Q2(s * h) for s, h in zip(signs, half))
                    for signs in itertools.product((1, -1), repeat=3)})
    return Polyhedron(verts, convex_hull_faces(verts))


def make_icosahedron() -> Polyhedron:
    """The regular icosahedron of edge 2 as a float mesh: its golden-ratio
    coordinates are not in Q(sqrt2)."""
    phi = (1 + 5 ** 0.5) / 2
    verts = [p for a in (-1, 1) for b in (-phi, phi)
             for p in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))]
    faces = []
    for i, j, k in itertools.combinations(range(12), 3):
        if all(abs(math.dist(verts[x], verts[y]) - 2) < 1e-9
               for x, y in ((i, j), (j, k), (i, k))):
            nrm = vcross(vsub(verts[j], verts[i]), vsub(verts[k], verts[i]))
            faces.append((i, j, k) if vdot(nrm, verts[i]) > 0 else (i, k, j))
    return Polyhedron(verts, faces)


@pytest.fixture(scope="session")
def rco() -> Polyhedron:
    return build_rhombicuboctahedron(2)


@pytest.fixture(scope="session")
def pseudo() -> Polyhedron:
    return build_pseudo_rhombicuboctahedron(2)


@pytest.fixture(scope="session")
def cube() -> Polyhedron:
    return make_cube()


@pytest.fixture(scope="session")
def rco_sym(rco):
    return symmetry_report(rco)


@pytest.fixture(scope="session")
def pseudo_sym(pseudo):
    return symmetry_report(pseudo)


@pytest.fixture(scope="session")
def net50():
    return generate_nets(50)


@pytest.fixture()
def cube_off_text() -> str:
    with open(os.path.join(DATA_DIR, "cube.off"), "r", encoding="utf-8") as fh:
        return fh.read()
