"""Command-line interface.

Subcommands: check (property battery on a set function or graph),
decompose (optimal monotonic decompositions), graph (cut bounds and
triangle LPs), generate (named instances), probe (plus-norm
monotonicity conjecture search).

Exit codes: 0 success, 1 parse or I/O error, 2 size refusal,
3 precondition violation, 4 conjecture violation found.  All rationals
are printed as canonical "p/q" strings; all randomness flows from
--seed, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
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

# default ground-size caps per command; raising them past the default
# needs the explicit acknowledgment flag
DEFAULT_CHECK_N = 8
DEFAULT_LP_N = dc.LP_MAX_N
DEFAULT_PROBE_N = 8


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


def _effective_cap(args, default: int) -> int:
    cap = default
    if args.max_n is not None:
        if args.max_n > default and not args.ack:
            raise CliError(
                f"--max-n {args.max_n} exceeds the default cap {default}; "
                "pass --i-know-this-is-exponential to confirm",
                EXIT_SIZE,
            )
        cap = args.max_n
    return cap


def _require_size(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CliError(
            f"{what} refused at n={n} (cap {cap}); raise --max-n if you "
            "accept the exponential cost",
            EXIT_SIZE,
        )


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


def _function_from_payload(kind, obj) -> SetFunction:
    if kind == "function":
        return obj
    return gr.cut_function(obj)


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
    f = _function_from_payload(kind, obj)
    cap = _effective_cap(args, DEFAULT_CHECK_N)
    _require_size(f.ground.n, cap, "property battery")

    report = _provenance(raw)
    report["n"] = f.ground.n
    report["norm"] = format_rational(norm_inf(f))

    sub, sub_wit = is_submodular(f)
    report["submodular"] = {"holds": sub}
    if sub_wit:
        report["submodular"]["witness"] = {
            "X": sub_wit[0], "u": sub_wit[1], "v": sub_wit[2]
        }
    inc, inc_wit = is_increasing(f)
    report["increasing"] = {"holds": inc}
    if inc_wit:
        report["increasing"]["witness"] = {"X": inc_wit[0], "u": inc_wit[1]}
    dec, dec_wit = is_decreasing(f)
    report["decreasing"] = {"holds": dec}
    if dec_wit:
        report["decreasing"]["witness"] = {"X": dec_wit[0], "u": dec_wit[1]}
    mod, _ = is_modular(f)
    report["modular"] = {"holds": mod}

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
    f = _function_from_payload(kind, obj)
    cap = _effective_cap(args, DEFAULT_LP_N)
    _require_size(f.ground.n, cap, "decomposition")

    report = _provenance(raw)
    report["kind"] = args.kind
    try:
        if args.kind in ("sum", "diff"):
            if args.c is not None:
                c = to_rational(args.c)
                feasible, witness = dc.c_bounded_feasible(f, args.kind, c)
                report["c"] = format_rational(c)
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
        elif args.kind == "weakly-canonical":
            phi, mu = dc.weakly_alt_canonical_decomposition(f)
            seven = dc._seven_bound_report(f, phi, mu)
            report["phi"] = phi.to_json_dict()
            report["mu"] = mu.to_json_dict()
            report["seven_bound"] = seven.to_json_dict()
        else:  # pragma: no cover - argparse restricts choices
            raise CliError(f"unknown kind {args.kind}", EXIT_PARSE)
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
    cap = _effective_cap(args, gr.MAX_GROUND)
    _require_size(g.n, cap, "graph report")

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
        if g.n <= DEFAULT_LP_N:
            opt = dc.optimal_sum_decomposition(gr.cut_function(g))
            bounds["plus_norm"] = format_rational(opt.objective)
        report["bounds"] = bounds
    _emit(args, report)
    return EXIT_OK


# -- generate ------------------------------------------------------------


def _parse_int(value: str) -> int:
    try:
        return int(value, 0)
    except ValueError:
        raise CliError(f"bad integer parameter {value!r}", EXIT_PARSE)


def cmd_generate(args) -> int:
    name = args.name
    params = [str(p) for p in args.params]
    try:
        if name == "wheel":
            payload = gr.wheel(_parse_int(params[0])).to_json_dict()
        elif name == "complete":
            payload = gr.complete(_parse_int(params[0])).to_json_dict()
        elif name == "complete-minus-edge":
            payload = gr.complete_minus_edge(_parse_int(params[0])).to_json_dict()
        elif name == "cycle":
            payload = gr.cycle(_parse_int(params[0])).to_json_dict()
        elif name == "hyperedge":
            payload = gr.hyperedge(_parse_int(params[0])).to_json_dict()
        elif name == "cex-sum":
            payload = gr.counterexample_sum(_parse_int(params[0])).to_json_dict()
        elif name == "cex-diff":
            payload = gr.counterexample_diff(_parse_int(params[0])).to_json_dict()
        elif name == "lnl":
            ell = _parse_int(params[0])
            x_mask = _parse_int(params[1])
            n = _parse_int(params[2]) if len(params) > 2 else x_mask.bit_length()
            payload = alt.make_ell_not_ell_plus_one(
                GroundSet(n), ell, x_mask
            ).to_json_dict()
        elif name == "partition-matroid-rank":
            from .core import Partition

            sizes = [_parse_int(p) for p in params]
            classes = []
            offset = 0
            for s in sizes:
                classes.append(((1 << s) - 1) << offset)
                offset += s
            payload = alt.make_partition_matroid_rank(
                Partition(GroundSet(offset), tuple(classes))
            ).to_json_dict()
        else:
            raise CliError(f"unknown generator {name!r}", EXIT_PARSE)
    except IndexError:
        raise CliError(f"generator {name!r} is missing parameters", EXIT_PARSE)
    except (ValueError, gr.GraphError) as exc:
        if isinstance(exc, CliError):
            raise
        raise CliError(f"bad generator parameters: {exc}", EXIT_PARSE)
    out = _provenance(None)
    out["generator"] = {"name": name, "params": params}
    out["artifact"] = payload
    _emit(args, out)
    return EXIT_OK


# -- probe ---------------------------------------------------------------


def cmd_probe(args) -> int:
    raw = _read_input(args.input)
    kind, obj = _parse_payload(raw, args.input)
    if kind != "graph":
        raise CliError("probe needs a graph input", EXIT_PARSE)
    g = obj
    cap = _effective_cap(args, DEFAULT_PROBE_N)
    _require_size(g.n, min(cap, DEFAULT_PROBE_N), "conjecture probe")

    report = _provenance(raw)
    probe = gr.conjecture_probe(g, args.trials, args.seed)
    report["probe"] = probe.to_json_dict()
    _emit(args, report)
    return EXIT_OK if probe.conjecture_holds else EXIT_VIOLATION


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setdecomp",
        description="Exact analysis and decomposition of finite set functions.",
    )

    def add_globals(target, suppress: bool) -> None:
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        target.add_argument(
            "--output", help="write JSON here instead of stdout",
            **(kw or {"default": None}),
        )
        target.add_argument(
            "--seed", type=int, help="seed for all randomness",
            **(kw or {"default": 0}),
        )
        target.add_argument(
            "--max-n", type=int, dest="max_n",
            help="override the per-command ground-size cap",
            **(kw or {"default": None}),
        )
        target.add_argument(
            "--i-know-this-is-exponential",
            action="store_true",
            dest="ack",
            help="confirm raising --max-n past the default cap",
            **({"default": argparse.SUPPRESS} if suppress else {}),
        )

    add_globals(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    add_globals(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="run the property battery on an input")
    p.add_argument("input")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", parents=[common], help="solve for a monotonic decomposition")
    p.add_argument("input")
    p.add_argument("--kind", default="sum",
                   choices=["sum", "diff", "coverage-diff", "weakly-canonical"])
    p.add_argument("--c", default=None, help="switch to c-bounded feasibility mode (sum and diff only)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("graph", parents=[common], help="cut, triangle and bound reports")
    p.add_argument("input")
    p.add_argument("--report", default="all",
                   choices=["all", "cuts", "triangles", "bounds"])
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("generate", parents=[common], help="emit a named instance")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("probe", parents=[common], help="search for a plus-norm monotonicity violation")
    p.add_argument("input")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except gr.GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE


if __name__ == "__main__":
    sys.exit(main())
