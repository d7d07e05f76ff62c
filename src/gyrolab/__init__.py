"""gyrolab: exact-arithmetic toolkit for the rhombicuboctahedron and its
gyrate twin (the pseudo-rhombicuboctahedron).

Builds both solids over Q(sqrt2), detects their rotation axes and
equatorial belts, decides vertex transitivity, generates the three-piece
papercraft nets as SVG, and verifies by rigid fold simulation that the
nets assemble into either solid depending on a 45-degree cap gyration.

The names in ``__all__`` are imported from their modules on first access
(PEP 562), so ``import gyrolab`` alone loads no submodule.
"""

__version__ = "0.1.0"

__all__ = [
    "Q2",
    "SQRT2",
    "Polyhedron",
    "build_rhombicuboctahedron",
    "build_pseudo_rhombicuboctahedron",
    "face_census",
    "validate",
    "vertex_figure",
    "__version__",
]

# public name -> the submodule that defines it
_LAZY = {
    "Q2": "qfield",
    "SQRT2": "qfield",
    "Polyhedron": "solids",
    "build_rhombicuboctahedron": "solids",
    "build_pseudo_rhombicuboctahedron": "solids",
    "face_census": "solids",
    "validate": "solids",
    "vertex_figure": "solids",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
