"""Command-line interface.

Subcommands: build, analyze, net, fold-check, compare.  Exit codes:
0 success, 1 computation error (fit failures, bad meshes, failed match),
2 usage error.  All outputs are deterministic: byte-identical runs for
identical invocations, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from . import __version__

# Each command and argparse type imports the modules it runs when it runs, so
# a call loads only its own subcommand's code (``--version`` loads none).
# SOLIDS names each builder, which is looked up on ``solids`` at call time.
SOLIDS = {
    "rco": ("rhombicuboctahedron", "build_rhombicuboctahedron"),
    "pseudo-rco": ("pseudo-rhombicuboctahedron", "build_pseudo_rhombicuboctahedron"),
}

DEFAULT_BUILD_EDGE = "5"  # cm semantics: 5 cm squares
DEFAULT_NET_EDGE = "50"  # mm


def _build(key: str, edge):
    """(display name, solid SOLIDS[key] at the given edge)."""
    from . import solids

    name, builder = SOLIDS[key]
    return name, getattr(solids, builder)(edge)


def _parse_edge_q2(parser: argparse.ArgumentParser, text: str):
    from . import qfield

    try:
        edge = qfield.parse(text)
    except ValueError as e:
        parser.error(str(e))
    if edge.sign() <= 0:
        parser.error(f"edge length must be positive, got {text!r}")
    return edge


def _parse_edge_mm(parser: argparse.ArgumentParser, text: str):
    from fractions import Fraction

    try:
        edge = Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"edge must be a rational number of millimetres, got {text!r}")
    if edge <= 0:
        parser.error(f"edge length must be positive, got {text!r}")
    return edge


def _parse_tolerance(text: str) -> float:
    from .solids import check_tolerance

    try:
        return check_tolerance(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_paper(text: str) -> str:
    # returns the text, not the size: a size would retitle A2 as 420x594 in the SVG
    from . import netgen

    try:
        netgen.resolve_paper(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return text


def _write_output(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as e:
        raise OSError(f"cannot write {path}: {e}") from e


def cmd_build(parser, args) -> int:
    from .solids import to_json, write_off

    name, solid = _build(args.solid, _parse_edge_q2(parser, args.edge))
    if args.format == "json":
        _write_output(args.output, to_json(solid, name))
        return 0
    try:
        _write_output(args.output, write_off(solid))
    except (ValueError, OverflowError) as e:
        raise ValueError(f"edge {args.edge} cannot be written as OFF: {e}") from None
    return 0


def cmd_analyze(parser, args) -> int:
    from . import analysis
    from .solids import read_off

    if args.solid is not None:
        name, poly = _build(args.solid, _parse_edge_q2(parser, args.edge))
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise OSError(f"cannot read {args.input}: {e}") from e
        except UnicodeDecodeError as e:
            raise ValueError(f"cannot read {args.input}: not UTF-8 text"
                             f" ({e.reason} at byte {e.start})") from e
        poly = read_off(text, args.tolerance)
        name = os.path.basename(args.input)
    report = analysis.analyze(poly, name=name)
    if args.json:
        sys.stdout.write(analysis.report_json(report))
    else:
        sys.stdout.write(analysis.text_report(report))
    return 0 if not report.partial else 1


def cmd_net(parser, args) -> int:
    from . import netgen

    net = netgen.generate_nets(_parse_edge_mm(parser, args.edge))
    _write_output(args.output, netgen.render_svg(net, args.paper))
    return 0


def cmd_fold_check(parser, args) -> int:
    from . import foldsim, netgen

    net = netgen.generate_nets(int(DEFAULT_NET_EDGE))
    result = foldsim.fold(net, args.gyration)
    if args.json:
        import json

        sys.stdout.write(json.dumps(result.to_json_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(foldsim.text_report(result))
    return 0 if result.matched and result.closure.ok else 1


def cmd_compare(parser, args) -> int:
    from . import analysis

    edge = _parse_edge_q2(parser, args.edge)
    a, b = (analysis.analyze(solid, name=name)
            for name, solid in (_build(key, edge) for key in SOLIDS))
    table = analysis.compare(a, b)
    if args.json:
        sys.stdout.write(analysis.comparison_json(table))
    else:
        sys.stdout.write(table.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gyrolab",
        description=(
            "Exact-arithmetic toolkit for the rhombicuboctahedron and its"
            " gyrate (pseudo) twin: build the solids, count their rotation"
            " axes and equatorial belts, print papercraft nets, and verify"
            " the fold."
        ),
    )
    parser.add_argument("--version", action="version", version=f"gyrolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a solid as OFF or exact JSON")
    p_build.add_argument("--solid", required=True, choices=sorted(SOLIDS))
    p_build.add_argument("--edge", default=DEFAULT_BUILD_EDGE,
                         help="edge length (rational or Q(sqrt2) literal; default 5)")
    p_build.add_argument("--format", choices=("off", "json"), default="off")
    p_build.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_build.set_defaults(func=functools.partial(cmd_build, p_build))

    p_an = sub.add_parser("analyze", help="full symmetry/belt/census analysis")
    src = p_an.add_mutually_exclusive_group(required=True)
    src.add_argument("--solid", choices=sorted(SOLIDS))
    src.add_argument("--input", metavar="FILE.off", help="analyze an OFF mesh")
    p_an.add_argument("--edge", default=DEFAULT_BUILD_EDGE)
    p_an.add_argument("--tolerance", type=_parse_tolerance, default=1e-9,
                      help="tolerance for ingested meshes, relative to the mesh's"
                      " diameter, in (0, 1) (default 1e-9)")
    p_an.add_argument("--json", action="store_true")
    p_an.set_defaults(func=functools.partial(cmd_analyze, p_an))

    p_net = sub.add_parser("net", help="emit the three-piece papercraft net as SVG")
    p_net.add_argument("--edge", default=DEFAULT_NET_EDGE,
                       help="square side in mm (default 50)")
    p_net.add_argument(
        "--paper",
        type=_parse_paper,
        default="A2",
        help="A2, A3, A4 or WIDTHxHEIGHT in mm (default A2)",
    )
    p_net.add_argument("-o", "--output", required=True, help="output SVG file")
    p_net.set_defaults(func=functools.partial(cmd_net, p_net))

    p_fold = sub.add_parser("fold-check",
                            help="fold the nets and verify the assembled solid")
    p_fold.add_argument("--gyration", type=int, choices=range(0, 360, 45), default=0)
    p_fold.add_argument("--json", action="store_true")
    p_fold.set_defaults(func=functools.partial(cmd_fold_check, p_fold))

    p_cmp = sub.add_parser("compare", help="side-by-side table of the two solids")
    p_cmp.add_argument("--edge", default=DEFAULT_BUILD_EDGE)
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=functools.partial(cmd_compare, p_cmp))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)  # bound to its subcommand's parser, for usage errors
    except (ValueError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run() -> int:
    """``main`` on the process's own command line: the entry point of
    ``python -m gyrolab`` and of the ``gyrolab`` script.

    The process ends right after, so on every way out (``--version``, usage
    errors, failures) the heap is frozen: the interpreter's exit-time
    collections skip it, and the OS frees it.  ``atexit`` handlers, stream
    flushing and the exit code are untouched.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
