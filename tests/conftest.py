import itertools
import os
import random
from fractions import Fraction

import pytest

from gyrolab.netgen import generate_nets
from gyrolab.qfield import ONE, SQRT2, ZERO, Q2
from gyrolab.solids import (
    Polyhedron,
    build_pseudo_rhombicuboctahedron,
    build_rhombicuboctahedron,
)
from gyrolab.symmetry import symmetry_report

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def q2_identity() -> tuple:
    return ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))


def noisy_off(text: str, eps: float, rng: random.Random) -> str:
    """OFF text with uniform noise in [-eps, eps] added to every coordinate."""
    lines = text.splitlines()
    nv = int(lines[1].split()[0])
    for k in range(2, 2 + nv):
        coords = [float(x) + rng.uniform(-eps, eps) for x in lines[k].split()]
        lines[k] = " ".join(f"{c:.17g}" for c in coords)
    return "\n".join(lines) + "\n"


def fan_triangulated(text: str, centre_split: int | None = None) -> str:
    """OFF text with every face of more than three vertices split into a fan
    of triangles from its first vertex; face ``centre_split`` instead into a
    fan around a new vertex at its centre, which lies on no edge."""
    lines = text.splitlines()
    nv, nf = (int(x) for x in lines[1].split()[:2])
    verts = lines[2:2 + nv]
    faces = [[int(x) for x in line.split()[1:]] for line in lines[2 + nv:2 + nv + nf]]
    tris = []
    for fi, f in enumerate(faces):
        if fi == centre_split:
            coords = [[float(x) for x in verts[i].split()] for i in f]
            verts.append(" ".join(f"{sum(c) / len(f):.17g}" for c in zip(*coords)))
            tris += [(a, b, len(verts) - 1) for a, b in zip(f, f[1:] + f[:1])]
        else:
            tris += [(f[0], f[k], f[k + 1]) for k in range(1, len(f) - 1)]
    return "\n".join(["OFF", f"{len(verts)} {len(tris)} 0", *verts,
                      *(f"3 {a} {b} {c}" for a, b, c in tris)]) + "\n"


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
# not centred: a square frustum (bases of side 4 at z = 0 and 2 at z = 1), and
# the rhombohedron spanned by the edges (1, 1, 0) sqrt2, (1, 0, 1) sqrt2 and
# (0, 1, 1) sqrt2 from the origin
FRUSTUM = sorted((Q2(s * h), Q2(t * h), Q2(z)) for h, z in ((2, 0), (1, 1))
                 for s in (1, -1) for t in (1, -1))
_R = Q2(0, 1)
RHOMBOHEDRON = sorted({tuple(sum(x) for x in zip((Q2(0),) * 3, *vs))
                       for k in range(4) for vs in itertools.combinations(
                           ((_R, _R, Q2(0)), (_R, Q2(0), _R), (Q2(0), _R, _R)), k)})


def make_cube(half: int = 1) -> Polyhedron:
    verts = sorted(
        {(Q2(sx), Q2(sy), Q2(sz))
         for sx in (half, -half) for sy in (half, -half) for sz in (half, -half)}
    )
    return Polyhedron(verts)


def make_box() -> Polyhedron:
    """The 1 x 2 x 3 box, exact and centred: the cube's face lattice, but
    only the 8 isometries of a box."""
    half = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    verts = sorted({tuple(Q2(s * h) for s, h in zip(signs, half))
                    for signs in itertools.product((1, -1), repeat=3)})
    return Polyhedron(verts)


def make_icosahedron(scale: float = 1.0) -> Polyhedron:
    """The regular icosahedron of edge 2 x scale as a float mesh: its
    golden-ratio coordinates are not in Q(sqrt2); the float hull finds its
    faces."""
    phi = (1 + 5 ** 0.5) / 2
    return Polyhedron([tuple(x * scale for x in p) for a in (-1, 1) for b in (-phi, phi)
                       for p in ((0.0, a, b), (a, b, 0.0), (b, 0.0, a))])


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
