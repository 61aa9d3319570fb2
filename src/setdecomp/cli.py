"""Command-line interface.

Each subcommand declares only the options that act on it; --output FILE
(JSON goes there instead of stdout) fits on any of them or before them.

  check INPUT [--max-n N --i-know-this-is-exponential]   property battery;
      n <= 8, or n <= N (at most 16, the input format's cap) with the flag
  decompose INPUT [--kind KIND] [--c R]   optimal monotonic decompositions
      or c-bounded feasibility for a rational R >= 0; n <= 10
  graph INPUT [--report SECTION]   cut, triangle-LP and bound reports; n <= 16
  generate NAME PARAMS...   named instances with integer parameters
  probe INPUT [--trials T] [--seed S]   plus-norm monotonicity search; n <= 8

Exit codes: 0 success, 1 usage, parse or I/O error, 2 size refusal,
3 precondition violation, 4 conjecture violation found.  All rationals
are printed as canonical "p/q" strings; the probe's randomness flows
from --seed, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from . import alternating as alt
from . import charges as ch
from . import coverage as cov
from . import decompose as dc
from . import graphs as gr
from .core import (
    GroundSet,
    Partition,
    SetFunction,
    format_rational,
    norm_inf,
    is_decreasing,
    is_increasing,
    is_modular,
    is_submodular,
    to_rational,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SIZE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4

# check's default ground-size cap; --max-n moves it, past this value
# only with the acknowledgment flag
CHECK_MAX_N = 8


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_input(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)


def _parse_payload(raw: bytes, path: str):
    """Returns ("function", SetFunction) or ("graph", WeightedGraph) or
    ("hypergraph", WeightedHypergraph)."""
    text = raw.decode("utf-8", errors="replace")
    if path.endswith(".csv"):
        try:
            return "graph", gr.WeightedGraph.from_csv(text)
        except (gr.GraphError, ValueError) as exc:
            raise CliError(f"bad CSV edge list: {exc}", EXIT_PARSE)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad JSON: {exc}", EXIT_PARSE)
    if isinstance(data, dict) and "artifact" in data:
        # output of the generate command feeds straight back in
        data = data["artifact"]
    try:
        if "values" in data:
            return "function", SetFunction.from_json_dict(data)
        if "edges" in data:
            return "graph", gr.WeightedGraph.from_json_dict(data)
        if "hyperedges" in data:
            return "hypergraph", gr.WeightedHypergraph.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad input object: {exc}", EXIT_PARSE)
    raise CliError(
        "input must contain 'values', 'edges' or 'hyperedges'", EXIT_PARSE
    )


def _require_size(n: int, cap: int, what: str, hint: str = "") -> None:
    if n > cap:
        raise CliError(f"{what} refused at n={n} (cap {cap}){hint}", EXIT_SIZE)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(raw: Optional[bytes]) -> dict:
    out = {"version": __version__}
    if raw is not None:
        out["input_sha256"] = hashlib.sha256(raw).hexdigest()
    return out


# -- check ---------------------------------------------------------------


def _alternating_profile(found: list) -> list:
    """k-alternation fails from the first weakly violated level on."""
    profile, strong_wit = [], None
    for k in range(1, len(found)):
        strong_wit = strong_wit or found[k]
        entry = {"k": k, "weak": found[k] is None, "strong": strong_wit is None}
        if strong_wit is not None:
            entry["witness"] = strong_wit.to_json_dict()
        profile.append(entry)
    return profile


def cmd_check(args) -> int:
    raw = _read_input(args.input)
    kind, obj = _parse_payload(raw, args.input)
    f = obj if kind == "function" else gr.cut_function(obj)
    if args.max_n > CHECK_MAX_N and not args.ack:
        raise CliError(
            f"--max-n {args.max_n} exceeds the default cap {CHECK_MAX_N}; "
            "pass --i-know-this-is-exponential to confirm",
            EXIT_SIZE,
        )
    _require_size(
        f.ground.n, args.max_n, "property battery",
        "; raise --max-n if you accept the exponential cost",
    )

    report = _provenance(raw)
    report["n"] = f.ground.n
    report["norm"] = format_rational(norm_inf(f))

    # report key, predicate and the names of its witness fields; the table
    # is read per call, so the predicates resolve like any other call here
    for name, predicate, fields in (
        ("submodular", is_submodular, ("X", "u", "v")),
        ("increasing", is_increasing, ("X", "u")),
        ("decreasing", is_decreasing, ("X", "u")),
        ("modular", is_modular, ()),  # no witness printed
    ):
        holds, witness = predicate(f)
        report[name] = {"holds": holds}
        if witness and fields:
            report[name]["witness"] = dict(zip(fields, witness))

    if f(0) == 0:
        found = alt.weak_violations(f)
        report["alternating_profile"] = _alternating_profile(found)
        report["weakly_infinite_alternating"] = all(w is None for w in found[2:])
        coeffs = cov.to_coefficients(f)
        lowest = coeffs.min_coefficient()
        report["infinite_alternating"] = lowest >= 0
        report["coverage"] = {
            "nonnegative": lowest >= 0,
            "support_size": len(coeffs.support()),
            "min_coefficient": format_rational(lowest),
        }
    else:
        report["alternating_profile"] = None
        report["note"] = "alternating battery needs f(empty) = 0"

    _emit(args, report)
    return EXIT_OK


# -- decompose -----------------------------------------------------------


def cmd_decompose(args) -> int:
    if args.c is not None and args.kind not in ("sum", "diff"):
        raise CliError(f"--c applies only to --kind sum or diff, not {args.kind}", EXIT_PARSE)
    raw = _read_input(args.input)
    kind, obj = _parse_payload(raw, args.input)
    f = obj if kind == "function" else gr.cut_function(obj)
    _require_size(f.ground.n, dc.LP_MAX_N, "decomposition")

    report = _provenance(raw)
    report["kind"] = args.kind
    try:
        if args.kind in ("sum", "diff"):
            if args.c is not None:
                feasible, witness = dc.c_bounded_feasible(f, args.kind, args.c)
                report["c"] = format_rational(args.c)
                report["feasible"] = feasible
                if witness is not None:
                    report["decomposition"] = witness.to_json_dict()
            else:
                solver = (
                    dc.optimal_sum_decomposition
                    if args.kind == "sum"
                    else dc.optimal_diff_decomposition
                )
                decomposition = solver(f)
                report["objective"] = format_rational(decomposition.objective)
                report["decomposition"] = decomposition.to_json_dict()
        elif args.kind == "coverage-diff":
            f1, f2 = cov.diff_decompose_canonical(f)
            report["phi1"] = f1.to_json_dict()
            report["phi2"] = f2.to_json_dict()
        else:  # weakly-canonical; argparse restricts the choices
            phi, mu = dc.weakly_alt_canonical_decomposition(f)
            seven = dc._seven_bound_report(f, phi, mu)
            report["phi"] = phi.to_json_dict()
            report["mu"] = mu.to_json_dict()
            report["seven_bound"] = seven.to_json_dict()
    except (dc.DecompositionError, ch.PreconditionError, alt.NotNormalizedError) as exc:
        raise CliError(str(exc), EXIT_PRECONDITION)
    _emit(args, report)
    return EXIT_OK


# -- graph ---------------------------------------------------------------


def cmd_graph(args) -> int:
    raw = _read_input(args.input)
    kind, obj = _parse_payload(raw, args.input)
    if kind == "function":
        raise CliError("graph command needs a graph input", EXIT_PARSE)
    if kind == "hypergraph":
        raise CliError("graph reports are defined for 2-uniform graphs", EXIT_PARSE)
    g = obj

    report = _provenance(raw)
    report["n"] = g.n
    report["total_weight"] = format_rational(g.total_weight())
    sections = (
        ("cuts", "triangles", "bounds") if args.report == "all" else (args.report,)
    )

    if "cuts" in sections:
        value, witness = gr.max_cut(g)
        greedy_value, greedy_witness = gr.greedy_local_search_cut(g)
        total = g.total_weight()
        report["cuts"] = {
            "max_cut": format_rational(value),
            "max_cut_side": witness,
            "greedy_cut": format_rational(greedy_value),
            "greedy_side": greedy_witness,
            "bipartite_density": format_rational(
                value / total if total else Fraction(0)
            ),
        }
    tri = gr.triangle_lps(g) if {"triangles", "bounds"} & set(sections) else None
    if "triangles" in sections:
        report["triangles"] = tri.to_json_dict()
    if "bounds" in sections:
        bounds = {
            "clique_bound": format_rational(gr.clique_bound(g)),
            "nu_star_bound": format_rational(g.total_weight() - tri.nu_star),
        }
        if g.n <= dc.LP_MAX_N:
            opt = dc.optimal_sum_decomposition(gr.cut_function(g))
            bounds["plus_norm"] = format_rational(opt.objective)
        report["bounds"] = bounds
    _emit(args, report)
    return EXIT_OK


# -- generate ------------------------------------------------------------


def _lnl(ell: int, x_mask: int, n: Optional[int] = None) -> SetFunction:
    ground = GroundSet(x_mask.bit_length() if n is None else n)
    return alt.make_ell_not_ell_plus_one(ground, ell, x_mask)


def _partition_matroid_rank(*sizes: int) -> SetFunction:
    classes, offset = [], 0
    for s in sizes:
        classes.append(((1 << s) - 1) << offset)
        offset += s
    return alt.make_partition_matroid_rank(Partition(GroundSet(offset), tuple(classes)))


GENERATORS = {
    "wheel": gr.wheel,
    "complete": gr.complete,
    "complete-minus-edge": gr.complete_minus_edge,
    "cycle": gr.cycle,
    "hyperedge": gr.hyperedge,
    "cex-sum": gr.counterexample_sum,
    "cex-diff": gr.counterexample_diff,
    "lnl": _lnl,
    "partition-matroid-rank": _partition_matroid_rank,
}


def _parse_int(value: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise CliError(f"bad integer parameter {value!r}", EXIT_PARSE)


def cmd_generate(args) -> int:
    builder = GENERATORS[args.name]
    ints = [_parse_int(p) for p in args.params]
    try:
        inspect.signature(builder).bind(*ints)
    except TypeError as exc:
        raise CliError(f"generator {args.name!r}: {exc}", EXIT_PARSE)
    try:
        payload = builder(*ints).to_json_dict()
    except ValueError as exc:
        raise CliError(f"bad generator parameters: {exc}", EXIT_PARSE)
    out = _provenance(None)
    out["generator"] = {"name": args.name, "params": args.params}
    out["artifact"] = payload
    _emit(args, out)
    return EXIT_OK


# -- probe ---------------------------------------------------------------


def cmd_probe(args) -> int:
    raw = _read_input(args.input)
    kind, obj = _parse_payload(raw, args.input)
    if kind != "graph":
        raise CliError("probe needs a graph input", EXIT_PARSE)
    _require_size(obj.n, gr.PROBE_MAX_N, "conjecture probe")

    report = _provenance(raw)
    probe = gr.conjecture_probe(obj, args.trials, args.seed)
    report["probe"] = probe.to_json_dict()
    _emit(args, report)
    return EXIT_OK if probe.conjecture_holds else EXIT_VIOLATION


# -- entry point ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError (exit 1) instead of exiting with 2,
    which is the size-refusal code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_PARSE)


def _nonnegative(parse):
    """argparse type: `parse` the text and refuse a negative result."""

    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
        return value

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="setdecomp",
        description="Exact analysis and decomposition of finite set functions.",
    )
    output_help = "write JSON here instead of stdout"
    parser.add_argument("--output", help=output_help)
    # SUPPRESS keeps a subcommand from resetting an --output given before it
    common = _Parser(add_help=False)
    common.add_argument("--output", default=argparse.SUPPRESS, help=output_help)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="run the property battery on an input")
    p.add_argument("input")
    p.add_argument("--max-n", type=int, dest="max_n", default=CHECK_MAX_N,
                   help=f"ground-size cap (default {CHECK_MAX_N})")
    p.add_argument("--i-know-this-is-exponential", action="store_true", dest="ack",
                   help=f"confirm raising --max-n past {CHECK_MAX_N}")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", parents=[common], help="solve for a monotonic decomposition")
    p.add_argument("input")
    p.add_argument("--kind", default="sum",
                   choices=["sum", "diff", "coverage-diff", "weakly-canonical"])
    p.add_argument("--c", type=_nonnegative(to_rational), default=None,
                   help="switch to c-bounded feasibility mode (sum and diff only)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("graph", parents=[common], help="cut, triangle and bound reports")
    p.add_argument("input")
    p.add_argument("--report", default="all",
                   choices=["all", "cuts", "triangles", "bounds"])
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("generate", parents=[common], help="emit a named instance")
    p.add_argument("name", choices=GENERATORS)
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("probe", parents=[common], help="search for a plus-norm monotonicity violation")
    p.add_argument("input")
    p.add_argument("--trials", type=_nonnegative(int), default=20)
    p.add_argument("--seed", type=int, default=0, help="seed for the random reweightings")
    p.set_defaults(func=cmd_probe)

    return parser


PARSER = build_parser()


def main(argv: Optional[list] = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
