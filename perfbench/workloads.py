"""The workloads: how each request reaches the program, and how its output
is checked.

A request is one call into the program by the single closed-loop client:
one ``setdecomp.cli.main([...])`` invocation for the CLI workloads, one
function through the library's charge calls for ``charge-tables``.
``run`` is the only part inside the timed region; ``check`` runs after the
loop ends.  The program reads only the input files written during set-up.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import setdecomp
import setdecomp.cli

DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# library calls made on each charge-tables function, in order, after
# parsing its input file into a SetFunction
CHARGE_CALLS = (
    "is_submodular", "is_increasing", "to_coefficients",
    "upper_charge", "lower_charge", "canonical_dual", "double_dual",
)
# charge-tables functions whose lower charge is also confirmed by the
# exact LP oracle, on their restriction to the first elements
LP_ORACLE_FUNCTIONS = (0, 1)
LP_ORACLE_N = 7


def _popcount(m: int) -> int:
    return bin(m).count("1")


class Workload:
    """Base for one workload: pool size, traced request count, and the
    request runner and checker."""

    name = ""
    pool_size = 0  # instances generated per run
    traced_instances = 0  # instances in a traced run, fixed so counts repeat

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def write_input(self, inst: dict) -> Path:
        path = self.workdir / f"in-{inst['id']}.json"
        path.write_text(json.dumps(inst["input"]), encoding="utf-8")
        return path

    def prepare(self, pool: Sequence[dict]) -> List[dict]:
        raise NotImplementedError

    def run(self, req: dict):
        raise NotImplementedError

    def check(self, req: dict, result) -> Optional[str]:
        raise NotImplementedError

    def traced_requests(self, requests: List[dict]) -> List[dict]:
        return [r for r in requests if r["instance"]["id"] < self.traced_instances]


class CliWorkload(Workload):
    def prepare(self, pool: Sequence[dict]) -> List[dict]:
        requests = []
        for inst in pool:
            path = self.write_input(inst)
            out = self.workdir / f"out-{inst['id']}.json"
            argv = [inst["argv"][0], str(path), *inst["argv"][1:], "--output", str(out)]
            requests.append({"id": len(requests), "instance": inst, "argv": argv, "out": out})
        return requests

    def run(self, req: dict):
        return setdecomp.cli.main(req["argv"])

    def check(self, req: dict, result) -> Optional[str]:
        if result != 0:
            return f"exit code {result}"
        report = json.loads(req["out"].read_text(encoding="utf-8"))
        return self.check_report(req["instance"], report)

    def check_report(self, inst: dict, report: dict) -> Optional[str]:
        raise NotImplementedError


# -- decompose-lp --------------------------------------------------------


def float_decomposition_lp(psi: Sequence[Fraction], n: int, kind: str, c: Optional[Fraction]):
    """Solve the decomposition LP with HiGHS, built here from the paper's
    definition rather than from the program's rows.

    Variables are phi1(X) for nonempty X.  Returns (status, objective)
    with status "optimal" or "infeasible".
    """
    import numpy as np
    from scipy.optimize import linprog

    size = 1 << n
    nv = size - 1
    p = [float(v) for v in psi]
    rows: List[Dict[int, float]] = []
    rhs: List[float] = []

    def geq(coefs: Dict[int, float], b: float) -> None:
        # sum coefs * phi1 >= b, stored as -sum <= -b; phi1(empty) = 0
        rows.append({m - 1: -a for m, a in coefs.items() if m})
        rhs.append(-b)

    for x in range(size):
        for u in range(n):
            if x >> u & 1:
                continue
            xu = x | 1 << u
            geq({xu: 1.0, x: -1.0}, 0.0)  # phi1 increasing
            # sum: phi2 = psi - phi1 decreasing; diff: phi2 = phi1 - psi increasing
            geq({xu: 1.0, x: -1.0}, p[xu] - p[x])
            for v in range(u + 1, n):
                if x >> v & 1:
                    continue
                xv, xuv = x | 1 << v, x | 1 << u | 1 << v
                s_psi = p[xu] + p[xv] - p[xuv] - p[x]
                s = {xu: 1.0, xv: 1.0, xuv: -1.0, x: -1.0}
                geq(s, 0.0)  # phi1 submodular
                if kind == "sum":  # phi2 submodular: s_phi1 <= s_psi
                    geq({m: -a for m, a in s.items()}, -s_psi)
                else:  # phi2 submodular: s_phi1 >= s_psi
                    geq(s, s_psi)
    a_ub = np.zeros((len(rows), nv))
    for i, row in enumerate(rows):
        for j, a in row.items():
            a_ub[i, j] += a
    if c is None:
        bounds = [(None, None)] * nv
    else:
        box = float(c) * max(abs(v) for v in p)
        bounds = [(max(-box, p[m] - box), min(box, p[m] + box)) for m in range(1, size)]
    cost = np.zeros(nv)
    cost[nv - 1] = 1.0
    res = linprog(
        cost, A_ub=a_ub, b_ub=np.array(rhs), bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 2:
        return "infeasible", None
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return "optimal", float(res.fun)


def load_expected(workload: str) -> Dict[str, str]:
    path = EXPECTED_DIR / f"{workload}-seed{DEFAULT_SEED}.json"
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def decompose_outcome(report: dict) -> str:
    """The exact result a decompose report states: objective or "infeasible"."""
    if report.get("feasible") is False:
        return "infeasible"
    return report["decomposition"]["objective"]


class DecomposeLp(CliWorkload):
    name = "decompose-lp"
    pool_size = 240
    traced_instances = 16

    def __init__(self, seed: int, workdir: Path, check_recorded: bool = True):
        super().__init__(seed, workdir)
        self.expected = load_expected(self.name) if check_recorded and seed == DEFAULT_SEED else None

    def check_report(self, inst: dict, report: dict) -> Optional[str]:
        meta, n = inst["meta"], inst["n"]
        psi = meta["psi"]
        kind = "diff" if "diff" in inst["argv"] else "sum"
        c = meta.get("c")
        status, ref = float_decomposition_lp(psi, n, kind, c)
        outcome = decompose_outcome(report)
        if self.expected is not None and self.expected.get(str(inst["id"]), outcome) != outcome:
            return f"result {outcome} differs from the recorded {self.expected[str(inst['id'])]}"
        if outcome == "infeasible":
            return None if status == "infeasible" else "reported infeasible, HiGHS finds a solution"
        if status != "optimal":
            return "HiGHS finds the LP infeasible"
        dec = setdecomp.Decomposition.from_json_dict(report["decomposition"])
        objective = Fraction(outcome)
        if c is None and Fraction(report["objective"]) != objective:
            return "objective differs from the decomposition's"
        if dec.reconstruct().values != tuple(psi):
            return "phi1 and phi2 do not reconstruct psi"
        if dec.phi1.values[-1] != objective:
            return "objective is not phi1(J)"
        second_shape = setdecomp.is_decreasing if kind == "sum" else setdecomp.is_increasing
        for label, pred, part in (
            ("phi1 increasing", setdecomp.is_increasing, dec.phi1),
            ("phi1 submodular", setdecomp.is_submodular, dec.phi1),
            ("phi2 monotone", second_shape, dec.phi2),
            ("phi2 submodular", setdecomp.is_submodular, dec.phi2),
        ):
            if not pred(part)[0]:
                return f"{label} fails"
        if c is not None:
            box = c * max(abs(v) for v in psi)
            if any(abs(v) > box for v in dec.phi1.values + dec.phi2.values):
                return "witness leaves the c-box"
        if abs(float(objective) - ref) > 1e-9 * max(1.0, abs(ref)):
            return f"objective {objective} differs from HiGHS {ref!r}"
        return None


# -- check-battery -------------------------------------------------------


def alternating_sum(vals: Sequence[Fraction], a0: int, classes: Sequence[int]) -> Fraction:
    total = Fraction(0)
    k = len(classes)
    for code in range(1 << k):
        union = a0
        for i in range(k):
            if code >> i & 1:
                union |= classes[i]
        total += -vals[union] if _popcount(code) & 1 else vals[union]
    return total


class CheckBattery(CliWorkload):
    name = "check-battery"
    pool_size = 330
    traced_instances = 22

    def check_report(self, inst: dict, report: dict) -> Optional[str]:
        meta, n = inst["meta"], inst["n"]
        vals, alpha, kind = meta["values"], meta["alpha"], inst["kind"]
        sub = report["submodular"]
        if not sub["holds"]:
            w = sub["witness"]
            x, u, v = w["X"], w["u"], w["v"]
            if vals[x | 1 << u] + vals[x | 1 << v] - vals[x] - vals[x | 1 << u | 1 << v] >= 0:
                return "submodularity witness is not a violation"
        inc = report["increasing"]
        if not inc["holds"] and not vals[inc["witness"]["X"]] > vals[inc["witness"]["X"] | 1 << inc["witness"]["u"]]:
            return "monotonicity witness is not a violation"
        profile = report["alternating_profile"]
        for entry in profile:
            if "skipped" in entry:
                return f"level {entry['k']} skipped"
            wit = entry.get("witness")
            if wit is None:
                continue
            a0, classes = wit["A0"], wit["tuple"]
            seen = a0
            for cls in classes:
                if cls == 0 or cls & seen:
                    return f"witness at k={entry['k']} has empty or overlapping classes"
                seen |= cls
            value = alternating_sum(vals, a0, classes)
            if value <= 0 or value != Fraction(wit["value"]):
                return f"witness at k={entry['k']} does not re-evaluate to its positive value"
        min_coef = Fraction(report["coverage"]["min_coefficient"])
        if report["infinite_alternating"] != (min_coef >= 0):
            return "infinite_alternating disagrees with the minimum coefficient"
        if alpha is not None and min_coef != min(alpha.get(m, Fraction(0)) for m in range(1, 1 << n)):
            return "minimum coefficient differs from the generator's"
        strong = [e["strong"] for e in profile]
        if kind in ("coverage", "partition"):
            if not all(strong) or not report["weakly_infinite_alternating"]:
                return "coverage function fails a level"
        elif kind == "cut":
            if inc["holds"] or strong[0]:
                return "cut function passes k = 1"
        elif kind.startswith("lnl"):
            ell = meta["ell"]
            if strong != [k <= ell for k in range(1, n + 1)] or profile[ell]["weak"]:
                return f"profile does not stop at level {ell + 1}"
        return None


# -- graph-reports -------------------------------------------------------


def cut_value(edges, side: int) -> Fraction:
    return sum((w for u, v, w in edges if (side >> u & 1) != (side >> v & 1)), Fraction(0))


def triangles(n: int, edges) -> List[tuple]:
    adj = {(u, v) for u, v, _ in edges}
    return [
        (a, b, c)
        for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)
        if (a, b) in adj and (a, c) in adj and (b, c) in adj
    ]


class GraphReports(CliWorkload):
    name = "graph-reports"
    pool_size = 240
    traced_instances = 9

    def check_report(self, inst: dict, report: dict) -> Optional[str]:
        n, edges = inst["n"], inst["meta"]["edges"]
        total = sum((w for _, _, w in edges), Fraction(0))
        if Fraction(report["total_weight"]) != total:
            return "total weight differs"
        cuts = report["cuts"]
        if cut_value(edges, cuts["max_cut_side"]) != Fraction(cuts["max_cut"]):
            return "max-cut side does not re-evaluate to the reported value"
        greedy = Fraction(cuts["greedy_cut"])
        if cut_value(edges, cuts["greedy_side"]) != greedy or 2 * greedy < total:
            return "greedy cut is wrong or below w(E)/2"
        if greedy > Fraction(cuts["max_cut"]):
            return "greedy cut exceeds the maximum cut"
        tri = report["triangles"]
        nu, tau = Fraction(tri["nu_star"]), Fraction(tri["tau_star"])
        if nu != tau:
            return "nu* != tau*"
        tris = triangles(n, edges)
        packing = {tuple(int(v) for v in key.split(",")): Fraction(x) for key, x in tri["packing"].items()}
        cover = {tuple(int(v) for v in key.split(",")): Fraction(y) for key, y in tri["cover"].items()}
        if set(packing) != set(tris) or any(x < 0 for x in packing.values()) or sum(packing.values()) != nu:
            return "packing is not a nonnegative vector over the triangles with value nu*"
        for u, v, w in edges:
            load = sum((x for t, x in packing.items() if u in t and v in t), Fraction(0))
            if load > w:
                return f"packing overloads edge ({u}, {v})"
        weight = {(u, v): w for u, v, w in edges}
        if any(y < 0 for y in cover.values()) or sum(weight[e] * y for e, y in cover.items()) != tau:
            return "cover is not a nonnegative edge vector with value tau*"
        for a, b, c in tris:
            if cover.get((a, b), 0) + cover.get((a, c), 0) + cover.get((b, c), 0) < 1:
                return f"cover misses triangle ({a}, {b}, {c})"
        bounds = report["bounds"]
        if Fraction(bounds["nu_star_bound"]) != total - nu or "plus_norm" in bounds:
            return "bounds section is inconsistent"
        return None


# -- charge-tables -------------------------------------------------------


class ChargeTables(Workload):
    """One request is one function through every call in CHARGE_CALLS."""

    name = "charge-tables"
    pool_size = 120
    traced_instances = 6

    def prepare(self, pool: Sequence[dict]) -> List[dict]:
        return [{"id": inst["id"], "instance": inst, "path": self.write_input(inst)} for inst in pool]

    def run(self, req: dict):
        data = json.loads(req["path"].read_text(encoding="utf-8"))
        f = setdecomp.SetFunction.from_json_dict(data)
        return f, {name: getattr(setdecomp, name)(f) for name in CHARGE_CALLS}

    def check(self, req: dict, result) -> Optional[str]:
        inst = req["instance"]
        n, vals, alpha = inst["n"], inst["meta"]["values"], inst["meta"]["alpha"]
        size, full = 1 << n, (1 << n) - 1
        f, out = result
        if f.values != tuple(vals):
            return "loaded table differs"
        for name in ("is_submodular", "is_increasing"):
            if out[name] != (True, None):
                return f"{name} rejects an increasing submodular function"
        if out["to_coefficients"].alpha != tuple(alpha.get(m, Fraction(0)) for m in range(size)):
            return "coverage coefficients differ from the generator's"
        singles = [vals[1 << i] for i in range(n)]
        if list(out["upper_charge"].atoms) != singles:
            return "upper charge is not the singleton values"
        # closed forms: f*(X) = f(J - X) + u(X) - f(J) with u the upper
        # charge, and the lower charge a(x) = f(J) - f(J - x), with f** = f - a
        upper = modular_table(singles)
        if list(out["canonical_dual"].values) != [vals[full ^ x] + upper[x] - vals[full] for x in range(size)]:
            return "canonical dual differs from its closed form"
        lower = [vals[full] - vals[full ^ 1 << i] for i in range(n)]
        if list(out["lower_charge"].atoms) != lower:
            return "lower charge differs from f(J) - f(J - x)"
        reduced = [v - a for v, a in zip(vals, modular_table(lower))]
        if list(out["double_dual"].values) != reduced:
            return "double dual is not f minus the lower charge"
        if any(reduced[x] > reduced[x | 1 << u] for x in range(size) for u in range(n) if not x >> u & 1):
            return "f minus the lower charge is not increasing"
        if inst["id"] in LP_ORACLE_FUNCTIONS:
            small = setdecomp.SetFunction(setdecomp.GroundSet(LP_ORACLE_N), vals[: 1 << LP_ORACLE_N])
            if not setdecomp.verify_lower_charge_maximality(small):
                return "LP oracle rejects the lower charge of the restriction"
        return None


def modular_table(atoms: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (1 << len(atoms))
    for x in range(1, len(out)):
        low = x & -x
        out[x] = out[x ^ low] + atoms[low.bit_length() - 1]
    return out


WORKLOADS = {w.name: w for w in (DecomposeLp, CheckBattery, GraphReports, ChargeTables)}
