import os
import random

import pytest

from gyrolab.netgen import generate_nets
from gyrolab.qfield import Q2
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


def make_cube(half: int = 1) -> Polyhedron:
    verts = sorted(
        {(Q2(sx), Q2(sy), Q2(sz))
         for sx in (half, -half) for sy in (half, -half) for sz in (half, -half)}
    )
    return Polyhedron(verts, convex_hull_faces(verts))


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
