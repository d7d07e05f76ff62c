"""Run one gyrolab CLI call with a span around each layer's public functions.

Usage: python3 shim.py SPANS.json ARG...

ARG... are the arguments ``python -m gyrolab`` would take.  The shim wraps
the functions in ``LAYERS`` wherever gyrolab binds them: ``cli``,
``netgen``, ``foldsim`` and ``analysis`` import builders, ``validate`` and
``symmetry_report`` by name, and ``cli.SOLIDS`` holds the builders.  Then it
calls ``gyrolab.cli.main`` and writes the spans to SPANS.json when the call
ends, also when it raises.  Exit code, stdout and stderr are the CLI's own.

A span is ``[metric, start, end, parent]`` with ``time.perf_counter`` times
(the monotonic clock the parent process also reads) and ``parent`` the index
of the enclosing span or -1.
"""

import json
import sys
import time

# module -> {function or Class.method: metric it is charged to}
LAYERS = {
    "solids": {
        "convex_hull_faces": "solids.convex_hull_faces",
        "build_rhombicuboctahedron": "solids.build",
        "build_pseudo_rhombicuboctahedron": "solids.build",
        "validate": "solids.validate",
        "read_off": "solids.read_off",
        "write_off": "solids.write_off",
        "to_json": "solids.to_json",
    },
    "symmetry": {
        "isometry_group": "symmetry.isometry_group",
        "rotation_axes": "symmetry.rotation_axes",
        "axis_feature_incidence": "symmetry.axis_feature_incidence",
        "symmetry_report": "symmetry.symmetry_report",
    },
    "belts": {
        "find_belts": "belts.find_belts",
        "belt_square_overlap": "belts.belt_square_overlap",
    },
    "analysis": {
        "analyze": "analysis.analyze",
        "text_report": "analysis.report",
        "report_json": "analysis.report",
        "compare": "analysis.report",
        "comparison_json": "analysis.report",
        "ComparisonTable.to_text": "analysis.report",
    },
    "netgen": {
        "generate_nets": "netgen.generate_nets",
        "render_svg": "netgen.render_svg",
    },
    "foldsim": {
        "fold": "foldsim.fold",
        "check_closure": "foldsim.check_closure",
    },
}

BUILDERS = ("build_rhombicuboctahedron", "build_pseudo_rhombicuboctahedron")


def _wrap(fn, metric, spans, stack, clock=time.perf_counter):
    def traced(*args, **kwargs):
        index = len(spans)
        spans.append([metric, clock(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][2] = clock()

    return traced


def install(gyrolab_modules, spans, stack):
    """Wrap every LAYERS function; return the original builders."""
    builders = [getattr(gyrolab_modules["solids"], b) for b in BUILDERS]
    for mod_name, funcs in LAYERS.items():
        module = gyrolab_modules[mod_name]
        for attr, metric in funcs.items():
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, name)
            wrapper = _wrap(fn, metric, spans, stack)
            if owner_name:
                setattr(owner, name, wrapper)
                continue
            for other in gyrolab_modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapper)
                    elif isinstance(value, dict):  # e.g. cli.SOLIDS holds the builders
                        for k, v in value.items():
                            if isinstance(v, tuple) and fn in v:
                                value[k] = tuple(wrapper if x is fn else x for x in v)
    return builders


def main(spans_path, argv):
    import gyrolab
    from gyrolab import analysis, belts, cli, foldsim, geom, netgen, qfield, solids, symmetry

    modules = {m.__name__.rpartition(".")[2]: m for m in (
        gyrolab, analysis, belts, cli, foldsim, geom, netgen, qfield, solids, symmetry)}
    spans, stack = [], []
    builders = install(modules, spans, stack)
    try:
        return cli.main(argv)
    finally:
        hits = sum(b.cache_info().hits for b in builders)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "build_cache_hits": hits}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
