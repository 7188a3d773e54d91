"""Command line interface.

Commands: gen, eccmx, spectrum, energy, bounds, verify, equienergetic.
Output is deterministic: eigenvalues print at 12 significant digits, groups
are sorted by descending value, and "-0" never appears.  Exit codes: 0 for
success or a passing verification, 1 for a failing verification, 2 for input
errors.
"""

import argparse
import json
import math
import sys

from .closed_form import energy_bounds, multipartite_spectrum_closed, radius_upper_bound
from .eccentricity import eccentricity_matrix
from .errors import EccspecError
from .graphs import MultipartiteSpec, build_multipartite
from .io import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .spectra import energy as spectrum_energy
from .spectra import matrix_spectrum
from .verification import (
    verify_bounds_and_extremals,
    verify_closed_forms,
    verify_equienergetic,
    verify_equienergetic_pair,
    verify_lemma2,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def format_number(x) -> str:
    s = f"{float(x):.12g}"
    return "0" if s == "-0" else s


def _round12(x) -> float:
    return float(format_number(x))


def _parts_list(text: str) -> MultipartiteSpec:
    try:
        parts = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
        return MultipartiteSpec(tuple(parts))
    except (ValueError, EccspecError) as exc:
        raise argparse.ArgumentTypeError(f"bad parts list {text!r}: {exc}") from exc


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _add_graph_input(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--parts", type=_parts_list, metavar="A,B,...",
                       help="class sizes of a complete multipartite graph")
    group.add_argument("--edges", metavar="FILE", help="edge-list file ('n m' header)")
    group.add_argument("--g6", metavar="STR", help="graph6 string")


def _resolve_graph(args):
    if args.parts is not None:
        return build_multipartite(args.parts)
    if args.edges is not None:
        with open(args.edges, "r", encoding="ascii") as handle:
            return parse_edge_list(handle.read())
    return parse_graph6(args.g6)


def _header(args, **fields) -> dict:
    # JSON header: the given fields, then the parts when the input named them
    return fields if args.parts is None else {**fields, "parts": list(args.parts.parts)}


def _emit_groups(groups, fmt: str, meta: dict) -> None:
    if fmt == "csv":
        for value, mult in groups:
            print(f"{format_number(value)},{mult}")
    elif fmt == "json":
        groups = [[_round12(value), mult] for value, mult in groups]
        print(json.dumps({**meta, "groups": groups}, indent=2))
    else:
        for value, mult in groups:
            print(f"{format_number(value)} {mult}")


def _cmd_gen(args) -> int:
    g = build_multipartite(args.parts)
    if args.out == "graph6":
        print(emit_graph6(g))
    else:
        sys.stdout.write(emit_edge_list(g))
    return EXIT_OK


def _cmd_eccmx(args) -> int:
    matrix = eccentricity_matrix(_resolve_graph(args)).matrix
    for row in matrix.tolist():
        print(" ".join(map(str, row)))
    return EXIT_OK


def _spectrum_route(args) -> tuple[int, str, tuple, float]:
    """Order, source, (value, multiplicity) groups and energy of the input.

    --parts takes the closed form, which needs no graph, unless --numeric is
    given; only the eigensolver route reads or builds a graph."""
    spec = args.parts
    if spec is not None and not args.numeric:
        closed = multipartite_spectrum_closed(spec)
        return spec.n, "closed", closed.entries, closed.energy()
    g = _resolve_graph(args)
    # energy has no --tol: the grouping does not change the energy
    numeric = matrix_spectrum(eccentricity_matrix(g).matrix, tol=getattr(args, "tol", None))
    return g.n, "numeric", numeric.groups, spectrum_energy(numeric)


def _cmd_spectrum(args) -> int:
    n, source, groups, _ = _spectrum_route(args)
    _emit_groups(groups, args.format, _header(args, n=n, source=source))
    return EXIT_OK


def _cmd_energy(args) -> int:
    n, source, _, value = _spectrum_route(args)
    if args.format == "json":
        print(json.dumps(_header(args, n=n, source=source, energy=_round12(value)), indent=2))
    else:
        print(format_number(value))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    radius = radius_upper_bound(args.n, allow_small=args.allow_small)
    low, high = energy_bounds(args.n, allow_small=args.allow_small)
    if args.allow_small and args.n < 4:
        print(f"warning: bounds are stated for n >= 4, got n={args.n}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({
            "n": args.n,
            "radius_upper": _round12(radius),
            "energy_lower": _round12(low),
            "energy_upper": _round12(high),
        }, indent=2))
    else:
        print(f"radius_upper {format_number(radius)}")
        print(f"energy_lower {format_number(low)}")
        print(f"energy_upper {format_number(high)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.theorem in {"5", "6"}:
        if args.nmax is None:
            raise EccspecError(
                f"theorem {args.theorem} sweeps the pair orders 2..N: use --nmax N, not --n"
            )
        reports = [verify_equienergetic(args.nmax)]
    else:
        # an --nmax below 4 sweeps nothing: run that one order, which the
        # runner rejects like --n; the largest order runs first and meets the cap
        ns = [args.n] if args.nmax is None else range(4, args.nmax + 1) or [args.nmax]
        runner = {
            "1": verify_closed_forms,
            "2": verify_bounds_and_extremals,
            "3": verify_bounds_and_extremals,
            "lemma2": verify_lemma2,
        }[args.theorem]
        reports = [runner(n) for n in reversed(ns)][::-1]
    if args.format == "text":
        for report in reports:
            print(
                f"theorem={report.theorem} n={report.n} cases={report.cases} "
                f"max_dev={format_number(report.max_dev)} pass={str(report.passed).lower()}"
            )
    elif len(reports) == 1:
        print(reports[0].to_json())
    else:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _cmd_equienergetic(args) -> int:
    report = verify_equienergetic_pair(args.n, args.i)
    found = report.witnesses
    payload = {
        "n": args.n,
        "i": args.i,
        "product_order": found["product_order"],
        "partner_parts": found["partner_parts"],
        "predicted_energy": found["predicted_energy"],
        "product_energy": _round12(found["product_energy"]),
        "partner_energy": _round12(found["partner_energy"]),
        "zero_in_product_spectrum": found["product_zero_multiplicity"] > 0,
        "pass": report.passed,
    }
    if args.format == "text":
        for key, value in payload.items():
            print(f"{key} {value}")
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccspec",
        description="Eccentricity matrices, spectra, energies and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a complete multipartite graph")
    gen.add_argument("--parts", type=_parts_list, required=True, metavar="A,B,...")
    gen.add_argument("--out", choices=["edgelist", "graph6"], default="edgelist")
    gen.set_defaults(func=_cmd_gen)

    eccmx = sub.add_parser("eccmx", help="print the eccentricity matrix")
    _add_graph_input(eccmx)
    eccmx.set_defaults(func=_cmd_eccmx)

    spectrum = sub.add_parser("spectrum", help="eccentricity spectrum, grouped")
    _add_graph_input(spectrum)
    spectrum.add_argument("--numeric", action="store_true", help="force the eigensolver route")
    spectrum.add_argument("--format", choices=["text", "json", "csv"], default="text")
    spectrum.add_argument("--tol", type=_tolerance, default=None,
                          help="grouping tolerance for the numeric route (default 1e-8*max(1, norm))")
    spectrum.set_defaults(func=_cmd_spectrum)

    energy = sub.add_parser("energy", help="eccentricity energy")
    _add_graph_input(energy)
    energy.add_argument("--numeric", action="store_true", help="force the eigensolver route")
    energy.add_argument("--format", choices=["text", "json"], default="text")
    energy.set_defaults(func=_cmd_energy)

    bounds = sub.add_parser("bounds", help="radius and energy bounds for order n")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--allow-small", action="store_true",
                        help="permit n < 4 (outside the stated scope) with a warning")
    bounds.add_argument("--format", choices=["text", "json"], default="text")
    bounds.set_defaults(func=_cmd_bounds)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--theorem", choices=["1", "2", "3", "5", "6", "lemma2"], required=True)
    orders = verify.add_mutually_exclusive_group(required=True)
    orders.add_argument("--n", type=int, help="one order n (not for 5/6)")
    orders.add_argument("--nmax", type=int, help="sweep n=4..nmax (or n=2..nmax for 5/6)")
    verify.add_argument("--format", choices=["json", "text"], default="json")
    verify.set_defaults(func=_cmd_verify)

    equi = sub.add_parser("equienergetic", help="build and check one equienergetic pair")
    equi.add_argument("--n", type=int, required=True)
    equi.add_argument("--i", type=int, default=0)
    equi.add_argument("--format", choices=["json", "text"], default="json")
    equi.set_defaults(func=_cmd_equienergetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EccspecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
