"""Seeded input generators for the benchmark workloads.

Everything here is independent of the package under test: set-function
tables are computed directly from their defining data (graph edges,
coverage coefficients, concave profiles), so the checks in
``workloads.py`` can compare the program's output against what the
generator knows.  All values are exact ``Fraction``s, written as the
canonical ``"p/q"`` strings the CLI reads.

Each workload's pool is a fixed cyclic schedule of instance kinds whose
contents are drawn from ``random.Random`` seeded by the workload seed,
so the same seed always gives the same inputs and every run sees the
same mix of kinds in the same order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rand_weight(rng: random.Random, lo: int = 1, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_graph(rng: random.Random, n: int, p: float) -> List[Tuple[int, int, Fraction]]:
    """G(n, p) with p/q edge weights; never empty."""
    edges = [
        (u, v, rand_weight(rng))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    if not edges:
        edges.append((0, 1, rand_weight(rng)))
    return edges


def graph_json(n: int, edges: Sequence[Tuple[int, int, Fraction]]) -> dict:
    return {"n": n, "edges": [[u, v, fmt(w)] for u, v, w in edges]}


def function_json(n: int, values: Sequence[Fraction]) -> dict:
    return {"n": n, "values": [fmt(v) for v in values]}


# -- tables computed from their definitions ------------------------------


def coverage_table(n: int, alpha: Dict[int, Fraction]) -> List[Fraction]:
    """f(X) = sum of alpha_A over the sets A that meet X, which is the total
    minus the sum over the sets inside the complement of X (subset sums,
    taken over integers scaled by the common denominator)."""
    denom = math.lcm(*(a.denominator for a in alpha.values()))
    sums = [0] * (1 << n)
    for m, a in alpha.items():
        sums[m] += a.numerator * (denom // a.denominator)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                sums[m] += sums[m ^ bit]
    full = (1 << n) - 1
    return [Fraction(sums[full] - sums[full ^ x], denom) for x in range(1 << n)]


def cut_table(n: int, edges: Sequence[Tuple[int, int, Fraction]]) -> List[Fraction]:
    out = []
    for x in range(1 << n):
        out.append(sum((w for u, v, w in edges if (x >> u & 1) != (x >> v & 1)), Fraction(0)))
    return out


def edge_alpha(edges: Sequence[Tuple[int, int, Fraction]]) -> Dict[int, Fraction]:
    """Coverage coefficients of the incident function: one per edge."""
    return {1 << u | 1 << v: w for u, v, w in edges}


def random_subsets(rng: random.Random, n: int, count: int) -> List[int]:
    out: List[int] = []
    while len(out) < count:
        m = rng.randrange(1, 1 << n)
        if m not in out:
            out.append(m)
    return out


def random_coverage_alpha(rng: random.Random, n: int, support: int) -> Dict[int, Fraction]:
    return {m: rand_weight(rng) for m in random_subsets(rng, n, support)}


def random_partition(rng: random.Random, n: int, classes: int) -> List[int]:
    """Random partition of range(n) into `classes` nonempty classes."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), classes - 1))
    masks, start = [], 0
    for stop in cuts + [n]:
        m = 0
        for e in order[start:stop]:
            m |= 1 << e
        masks.append(m)
        start = stop
    return masks


def partition_rank_alpha(rng: random.Random, n: int, weighted: bool) -> Dict[int, Fraction]:
    """A (weighted) partition-matroid rank is the coverage function with one
    coefficient per class."""
    classes = random_partition(rng, n, rng.randint(2, max(2, n // 2)))
    return {c: (rand_weight(rng) if weighted else Fraction(1)) for c in classes}


def ell_not_ell_plus_one(n: int, ell: int, x_mask: int) -> Tuple[List[Fraction], Dict[int, Fraction]]:
    """Sum of phi_A over 1 <= |A| <= ell, minus phi_X with |X| = ell + 1."""
    alpha = {a: Fraction(1) for a in range(1, 1 << n) if bin(a).count("1") <= ell}
    alpha[x_mask] = Fraction(-1)
    return coverage_table(n, alpha), alpha


def random_submodular(rng: random.Random, n: int, terms: int = 3) -> List[Fraction]:
    """Normalized submodular, usually neither monotone nor symmetric: a sum of
    concave profiles of |X n A| over random A plus a signed modular term."""
    vals = [Fraction(0)] * (1 << n)
    for _ in range(terms):
        a = rng.randrange(1, 1 << n)
        size = bin(a).count("1")
        # concave h with h(0) = 0: nonincreasing random increments
        steps = sorted((Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(size)), reverse=True)
        h = [Fraction(0)]
        for s in steps:
            h.append(h[-1] + s)
        for x in range(1 << n):
            vals[x] += h[bin(x & a).count("1")]
    atoms = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
    for x in range(1 << n):
        vals[x] += sum((atoms[i] for i in range(n) if x >> i & 1), Fraction(0))
    return vals


# -- per-workload pools --------------------------------------------------
#
# An instance is a dict with "id", "kind", "n", "input" (the JSON object
# written to disk for the program) and "meta" (what the generator knows,
# used only by the checks).  The kind, size and density of each instance
# come from its slot in the workload's cycle; only the contents depend on
# the seed, so every seed runs the same mix.

# decompose-lp: n = 5 LPs are below the simplex presolve threshold (exact
# pivoting); n = 6 and 7 go through float presolve plus exact
# certification.  One cycle mixes both routes, both input sources and all
# three modes.  Entries are (source, n, mode, edge probability).  Latency
# has two modes: n = 6 presolve LPs and n = 5 diff LPs (0.1-0.4 s), and
# n = 5 sum LPs (0.05-0.9 s) or n = 7 LPs (0.6-0.9 s).  Twelve of sixteen
# slots are fast, so the median sits inside the fast mode; a run of 70 or
# more requests holds at least 17 slow ones, so the tail (10 requests
# beyond it) sits inside the slow mode, not between them.  Three of the
# four slow slots are n = 7 LPs, whose time varies little from one input
# to the next.  The n = 5 cut function is decomposed by difference: exact
# pivoting on its sum LP takes 0.2-1.2 s from one graph to the next, the
# diff LP takes the same route at 0.15-0.45 s.
DECOMPOSE_CYCLE = [
    ("cut", 6, "sum", 0.5), ("sub", 5, "sum", 0), ("sub", 6, "sum", 0), ("cut", 6, "diff", 0.6),
    ("cut", 6, "sum", 0.7), ("sub", 6, "c", 0), ("cut", 7, "sum", 0.5), ("sub", 6, "sum", 0),
    ("cut", 6, "sum", 0.6), ("sub", 6, "diff", 0), ("cut", 5, "diff", 0.6), ("sub", 7, "sum", 0),
    ("cut", 6, "c", 0.6), ("sub", 6, "sum", 0), ("sub", 7, "sum", 0), ("cut", 6, "sum", 0.5),
]
# c-bounded feasibility with c >= 2 was feasible on every sampled input;
# infeasible boxes send the LP down the exact route for 10-30 s each,
# longer than a whole run.
C_CHOICES = (Fraction(2), Fraction(5, 2), Fraction(3))


def decompose_instance(rng: random.Random, idx: int, source: str, n: int, mode: str, p: float) -> dict:
    if source == "cut":
        edges = random_graph(rng, n, p)
        payload, psi = graph_json(n, edges), cut_table(n, edges)
    else:
        psi = random_submodular(rng, n)
        payload = function_json(n, psi)
    argv = ["decompose", "--kind", "diff" if mode == "diff" else "sum"]
    meta = {"psi": psi}
    if mode == "c":
        c = rng.choice(C_CHOICES)
        argv += ["--c", fmt(c)]
        meta["c"] = c
    return {"id": idx, "kind": f"{source}-n{n}-{mode}", "n": n, "input": payload, "argv": argv, "meta": meta}


# check-battery, n = 6: coverage functions pass every level; each
# ell-not-(ell+1) function stops at ell + 1; partition-matroid ranks are
# coverage; one negative coefficient breaks infinite alternation; cut
# functions fail monotonicity at k = 1.  Cut and ell = 4 functions, which
# cost about the same, appear twice so the median falls inside their group.
CHECK_N = 6
CHECK_CYCLE = [
    ("coverage",), ("lnl1",), ("cut",), ("lnl4",), ("lnl2",), ("partition",),
    ("lnl3",), ("cut",), ("coverage-neg",), ("lnl4",), ("lnl5",),
]


def check_instance(rng: random.Random, idx: int, kind: str) -> dict:
    n = CHECK_N
    meta: dict = {"alpha": None}
    if kind in ("coverage", "coverage-neg"):
        alpha = random_coverage_alpha(rng, n, 12)
        if kind == "coverage-neg":
            alpha[rng.choice(sorted(alpha))] = -rand_weight(rng)
        vals = coverage_table(n, alpha)
        meta["alpha"] = alpha
    elif kind == "partition":
        alpha = partition_rank_alpha(rng, n, weighted=False)
        vals = coverage_table(n, alpha)
        meta["alpha"] = alpha
    elif kind == "cut":
        vals = cut_table(n, random_graph(rng, n, 0.6))
    else:
        ell = int(kind[3:])
        x_mask = sum(1 << e for e in rng.sample(range(n), ell + 1))
        vals, meta["alpha"] = ell_not_ell_plus_one(n, ell, x_mask)
        meta["ell"] = ell
    meta["values"] = vals
    return {"id": idx, "kind": kind, "n": n, "input": function_json(n, vals), "argv": ["check"], "meta": meta}


# graph-reports: n > 10 skips the plus-norm LP, leaving the cut tables,
# brute-force max cut, greedy search and the triangle / clique LPs on
# graphs with tens of triangles.  Entries are (n, edge probability).
# Denser or larger graphs take 1-11 s each.  Even at these densities a
# graph whose clique LP lands just below the simplex presolve threshold
# pivots exactly for tens of seconds, which keeps this workload out of
# BENCHMARK.json.
GRAPH_CYCLE = [(11, 0.5), (12, 0.5), (11, 0.6)]


def graph_instance(rng: random.Random, idx: int, n: int, p: float) -> dict:
    edges = random_graph(rng, n, p)
    return {
        "id": idx, "kind": f"gnp-n{n}", "n": n, "input": graph_json(n, edges),
        "argv": ["graph", "--report", "all"], "meta": {"edges": edges},
    }


# charge-tables: increasing submodular functions whose coverage
# coefficients the generator knows, at n = 9 (tables 8 times those of
# check-battery).  One size keeps the per-request latency unimodal; at
# n = 10, 11 and 12 a request takes 1.2-8 s, too few per run for a stable
# median and tail.  Entries are (family, n).
CHARGE_CYCLE = [("incident", 9), ("coverage", 9), ("partition", 9)]


def charge_instance(rng: random.Random, idx: int, family: str, n: int) -> dict:
    if family == "incident":
        alpha = edge_alpha(random_graph(rng, n, 0.5))
    elif family == "coverage":
        alpha = random_coverage_alpha(rng, n, 16)
    else:
        alpha = partition_rank_alpha(rng, n, weighted=True)
    vals = coverage_table(n, alpha)
    return {
        "id": idx, "kind": f"{family}-n{n}", "n": n, "input": function_json(n, vals),
        "meta": {"values": vals, "alpha": alpha},
    }


_MAKERS = {
    "decompose-lp": (decompose_instance, DECOMPOSE_CYCLE, ("cut", 6, "sum", 0.6)),
    "check-battery": (check_instance, CHECK_CYCLE, ("coverage",)),
    "graph-reports": (graph_instance, GRAPH_CYCLE, (11, 0.6)),
    "charge-tables": (charge_instance, CHARGE_CYCLE, ("incident", 8)),
}


def make_pool(workload: str, seed: int, count: int) -> List[dict]:
    """The first `count` instances of the workload's pool for this seed."""
    make, cycle, _ = _MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, idx, *cycle[idx % len(cycle)]) for idx in range(count)]


def make_warmup(workload: str, seed: int) -> dict:
    """One small instance on the workload's path, run during set-up."""
    make, _, slot = _MAKERS[workload]
    return make(random.Random(f"{workload}:{seed}:warmup"), -1, *slot)
