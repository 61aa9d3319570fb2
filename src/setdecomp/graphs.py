"""Weighted graphs and hypergraphs and their cut-type set functions.

For a hypergraph H with weights w, three set functions are built over
vertex subsets X: the cut function d(X) (weight of hyperedges meeting
both X and its complement), the induced function i(X) (hyperedges inside
X), and the incident function e(X) = i(X) + d(X).  With nonnegative
weights d and e are submodular and i is supermodular.

All three come from the coverage transforms: e is the coverage function
whose coefficients are the hyperedge weights, i is the subset sums of
those weights, and d = e - i.  Likewise the clique weights of a
plus-decomposition part phi1 are the Moebius transform of phi1.

On top of these sit the max-cut brute force, clique-weight recovery from
a monotonic sum-decomposition, fractional triangle packing/cover LPs,
and the two LP upper bounds on the plus-norm of the cut function.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    GroundSet,
    SetFunction,
    format_rational,
    norm_inf,
    _is_int,
    popcount,
    scale_to_ints,
    to_rational,
    MAX_GROUND,
)
from .coverage import _moebius, _reflect, _zeta
from .decompose import Decomposition, optimal_sum_decomposition
from .simplex import ExactnessError, solve_min_nonneg

_ZERO = Fraction(0)
_ONE = Fraction(1)

# ground-size cap of the conjecture probe: each trial solves two
# sum-decomposition LPs
PROBE_MAX_N = 8


class GraphError(ValueError):
    pass


def _check_vertex_count(n: int) -> None:
    if not (_is_int(n) and 0 <= n <= MAX_GROUND):
        raise GraphError(f"vertex count must be an int between 0 and {MAX_GROUND}")


def _vertex_sets_json(n: int, weighted_masks: Iterable[Tuple[int, Fraction]]) -> List[dict]:
    """One {"vertices": [...], "weight": "p/q"} entry per (mask, weight)."""
    return [
        {"vertices": [i for i in range(n) if mask >> i & 1], "weight": format_rational(w)}
        for mask, w in weighted_masks
    ]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple graph; edges are (u, v, weight) with u < v and weight >= 0."""

    n: int
    edges: Tuple[Tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        seen = set()
        for u, v, w in self.edges:
            if not (_is_int(u) and _is_int(v) and 0 <= u < v < self.n):
                raise GraphError(f"edge ({u!r}, {v!r}) needs int vertices 0 <= u < v < n")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            if w < 0:
                raise GraphError(f"edge ({u}, {v}) has negative weight {w}")
            seen.add((u, v))

    @classmethod
    def build(cls, n: int, edges: Iterable[Tuple[int, int, object]]) -> "WeightedGraph":
        """The graph with each (u, v, w) stored as u < v and a Fraction.

        n is checked before the edges are read, so the lazy edge iterable
        of a graph too large to accept is refused without being built.
        """
        _check_vertex_count(n)
        norm = []
        for u, v, w in edges:
            if u > v:
                u, v = v, u
            norm.append((u, v, to_rational(w)))
        return cls(n=n, edges=tuple(norm))

    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), _ZERO)

    def weight_of(self, u: int, v: int) -> Fraction:
        if u > v:
            u, v = v, u
        for a, b, w in self.edges:
            if (a, b) == (u, v):
                return w
        return _ZERO

    def adjacency(self) -> List[int]:
        adj = [0] * self.n
        for u, v, _ in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def reweighted(self, weights: Sequence[Fraction]) -> "WeightedGraph":
        if len(weights) != len(self.edges):
            raise GraphError("weight vector length does not match edge count")
        return WeightedGraph.build(
            self.n, [(u, v, w) for (u, v, _), w in zip(self.edges, weights)]
        )

    def to_hypergraph(self) -> "WeightedHypergraph":
        return WeightedHypergraph(
            n=self.n,
            hyperedges=tuple((1 << u | 1 << v, w) for u, v, w in self.edges),
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [[u, v, format_rational(w)] for u, v, w in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedGraph":
        return cls.build(data["n"], [(u, v, w) for u, v, w in data["edges"]])

    @classmethod
    def from_csv(cls, text: str) -> "WeightedGraph":
        """Edge list with one `u,v,weight` row per edge."""
        edges = []
        nmax = -1
        for row in csv.reader(io.StringIO(text)):
            row = [c.strip() for c in row if c.strip()]
            if not row:
                continue
            if len(row) != 3:
                raise GraphError(f"CSV row {row!r} is not u,v,weight")
            u, v = int(row[0]), int(row[1])
            edges.append((u, v, to_rational(row[2])))
            nmax = max(nmax, u, v)
        return cls.build(nmax + 1, edges)


@dataclass(frozen=True)
class WeightedHypergraph:
    """Hyperedges are (vertex mask, weight); weights may be negative."""

    n: int
    hyperedges: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        for mask, _ in self.hyperedges:
            if not _is_int(mask):
                raise GraphError(f"hyperedge mask {mask!r} is not an int")
            if mask == 0:
                raise GraphError("hyperedges must be nonempty")
            if mask >> self.n:
                raise GraphError(f"hyperedge mask {mask} has vertices outside range")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "hyperedges": _vertex_sets_json(self.n, self.hyperedges)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WeightedHypergraph":
        n = data["n"]
        _check_vertex_count(n)
        hyperedges = []
        for entry in data["hyperedges"]:
            mask = 0
            for v in entry["vertices"]:
                # checked before the shift, which a huge or negative v would break
                if not (_is_int(v) and 0 <= v < n):
                    raise GraphError(f"vertex {v!r} is not an int in range(0, {n})")
                mask |= 1 << v
            hyperedges.append((mask, to_rational(entry["weight"])))
        return cls(n=n, hyperedges=tuple(hyperedges))


GraphLike = Union[WeightedGraph, WeightedHypergraph]


def _as_hypergraph(g: GraphLike) -> WeightedHypergraph:
    return g.to_hypergraph() if isinstance(g, WeightedGraph) else g


def _induced_ints(
    n: int, weighted_masks: Iterable[Tuple[int, Fraction]]
) -> Tuple[GroundSet, int, List[int]]:
    """The induced table scaled to ints: (ground, den, den * i).

    The weights go on a coefficient table, summed where masks repeat, and
    i(X) is their subset sum over X.
    """
    ground = GroundSet(max(n, 1))
    items = list(weighted_masks)
    den, nums = scale_to_ints([w for _, w in items])
    coeffs = [0] * ground.size
    for (mask, _), w in zip(items, nums):
        coeffs[mask] += w
    return ground, den, _zeta(coeffs, ground.n)


def _cut_ints(g: GraphLike) -> Tuple[GroundSet, int, List[int]]:
    """The cut table scaled to ints: den * (e - i), e being i reflected."""
    h = _as_hypergraph(g)
    ground, den, induced = _induced_ints(h.n, h.hyperedges)
    return ground, den, [a - b for a, b in zip(_reflect(induced), induced)]


def cut_function(g: GraphLike) -> SetFunction:
    """d(X): total weight of hyperedges meeting both X and its complement."""
    return SetFunction.from_ints(*_cut_ints(g))


def induced_function(g: GraphLike) -> SetFunction:
    """i(X): total weight of hyperedges contained in X."""
    h = _as_hypergraph(g)
    return SetFunction.from_ints(*_induced_ints(h.n, h.hyperedges))


def incident_function(g: GraphLike) -> SetFunction:
    """e(X) = i(X) + d(X): hyperedges meeting X at all, i(J) - i(J \\ X)."""
    h = _as_hypergraph(g)
    ground, den, induced = _induced_ints(h.n, h.hyperedges)
    return SetFunction.from_ints(ground, den, _reflect(induced))


def _connecting_weight(h: WeightedHypergraph, x: int, y: int, inside: int) -> Fraction:
    # hyperedges meeting both X\Y and Y\X, restricted to those inside `inside`
    a, b = x & ~y, y & ~x
    acc = _ZERO
    for mask, w in h.hyperedges:
        if mask & a and mask & b and mask & ~inside == 0:
            acc += w
    return acc


def verify_cut_identities(
    g: GraphLike, x: Optional[int] = None, y: Optional[int] = None
) -> bool:
    """Check the three modular-defect identities relating d, i and e.

    With x and y omitted, checks every pair of subsets (n <= 6 only).
    """
    h = _as_hypergraph(g)
    full = (1 << h.n) - 1
    if x is None or y is None:
        if h.n > 6:
            raise GraphError("exhaustive identity check is capped at n <= 6")
        pairs = product(range(full + 1), repeat=2)
    else:
        pairs = [(x, y)]
    d = cut_function(h)
    i = induced_function(h)
    e = incident_function(h)

    def holds(x: int, y: int) -> bool:
        inter, union = x & y, x | y
        t_union = _connecting_weight(h, x, y, union)
        t_costar = _connecting_weight(h, x, y, full & ~inter)
        ok_d = d(x) + d(y) == d(inter) + d(union) + t_union + t_costar
        ok_i = i(x) + i(y) == i(inter) + i(union) - t_union
        ok_e = e(x) + e(y) == e(inter) + e(union) + t_costar
        return ok_d and ok_i and ok_e

    return all(holds(a, b) for a, b in pairs)


def max_cut(g: WeightedGraph) -> Tuple[Fraction, int]:
    """Exact maximum cut by brute force; ties broken toward the lowest mask."""
    _, den, cut = _cut_ints(g)
    best, best_mask = 0, 0
    # fixing the top vertex outside X halves the symmetric search
    half = 1 << max(g.n - 1, 0)
    for x in range(half):
        if cut[x] > best:
            best, best_mask = cut[x], x
    return Fraction(best, den), best_mask


def greedy_local_search_cut(g: WeightedGraph) -> Tuple[Fraction, int]:
    """Local search from the empty side, moving the lowest-index improving
    vertex, until no single move raises the cut.  The local optimum is at
    least half the total edge weight.
    """
    _, den, cut = _cut_ints(g)
    x = 0
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            if cut[x ^ 1 << v] > cut[x]:
                x ^= 1 << v
                improved = True
                break
    return Fraction(cut[x], den), x


def enumerate_cliques(g: WeightedGraph) -> List[int]:
    """Vertex sets of all nonempty complete subgraphs, singletons included,
    in lexicographic order of the sorted vertex tuples."""
    adj = g.adjacency()
    out: List[int] = []

    def extend(mask: int, last: int, common: int) -> None:
        out.append(mask)
        v = last + 1
        rest = common >> v << v
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            extend(mask | low, u, common & adj[u])
            rest &= rest - 1

    for v in range(g.n):
        extend(1 << v, v, adj[v])
    return out


@dataclass
class CliqueWeights:
    """Weights on the cliques of a graph; keys are vertex masks."""

    graph: WeightedGraph
    weights: Dict[int, Fraction]

    def induced(self) -> SetFunction:
        return SetFunction.from_ints(*_induced_ints(self.graph.n, self.weights.items()))

    def to_json_dict(self) -> dict:
        return {"n": self.graph.n, "weights": _vertex_sets_json(self.graph.n, sorted(self.weights.items()))}


def recover_clique_weights(g: WeightedGraph, phi1: SetFunction) -> CliqueWeights:
    """Recover clique weights w' with phi1 = i_{H,w'} from the increasing
    part of a monotonic sum-decomposition of the cut function.

    w'(K) is the Moebius coefficient of phi1 at K, which is also the
    closed form (-1)^k V(empty; singletons of K).  The result is verified
    on every subset; failure means phi1 was not a valid decomposition
    part, reported with a modularity witness.
    """
    if phi1.ground.n != max(g.n, 1):
        raise GraphError("phi1 ground set does not match the graph")
    alpha = _moebius(phi1.nums, phi1.ground.n)
    weights = {k: Fraction(alpha[k], phi1.den) for k in sorted(enumerate_cliques(g), key=popcount)}
    result = CliqueWeights(graph=g, weights=weights)
    if result.induced() != phi1:
        raise GraphError(
            "phi1 is not induced by any clique weighting: "
            + _modularity_witness_message(g, phi1)
        )
    return result


def _modularity_witness_message(g: WeightedGraph, phi1: SetFunction) -> str:
    # a valid phi1 must be modular across every non-adjacent pair
    adj = g.adjacency()
    ground = phi1.ground
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if adj[a] >> b & 1:
                continue
            for x in range(ground.size):
                if x & (1 << a | 1 << b):
                    continue
                lhs = phi1(x | 1 << a | 1 << b) + phi1(x)
                rhs = phi1(x | 1 << a) + phi1(x | 1 << b)
                if lhs != rhs:
                    return (
                        f"non-adjacent pair ({a}, {b}) is not modular "
                        f"at base mask {x}"
                    )
    return "no modularity witness found"


def check_vertex_inequality(g: WeightedGraph, weights: CliqueWeights, v: int) -> bool:
    """Weighted degree of v is at most w'(v) plus the sum of w'(K) over
    cliques containing v."""
    deg = sum((w for a, b, w in g.edges if v in (a, b)), _ZERO)
    bound = weights.weights.get(1 << v, _ZERO)
    for mask, w in weights.weights.items():
        if mask >> v & 1:
            bound += w
    return deg <= bound


def triangles_of(g: WeightedGraph) -> List[Tuple[int, int, int]]:
    adj = g.adjacency()
    out = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not adj[a] >> b & 1:
                continue
            common = adj[a] & adj[b] >> (b + 1) << (b + 1)
            m = common
            while m:
                low = m & -m
                out.append((a, b, low.bit_length() - 1))
                m &= m - 1
    return out


@dataclass
class TriangleLPResult:
    nu_star: Fraction
    tau_star: Fraction
    packing: Dict[Tuple[int, int, int], Fraction]
    cover: Dict[Tuple[int, int], Fraction]

    def to_json_dict(self) -> dict:
        return {
            "nu_star": format_rational(self.nu_star),
            "tau_star": format_rational(self.tau_star),
            "packing": {
                f"{a},{b},{c}": format_rational(x)
                for (a, b, c), x in self.packing.items()
            },
            "cover": {
                f"{u},{v}": format_rational(y) for (u, v), y in self.cover.items()
            },
        }


def triangle_lps(g: WeightedGraph) -> TriangleLPResult:
    """Fractional triangle packing and edge cover; the optima coincide.

    The packing LP (max sum x(T) subject to edge capacities) is the dual
    of the cover LP, so the cover solve's optimal dual is the packing.
    """
    tris = triangles_of(g)
    if not tris:
        return TriangleLPResult(_ZERO, _ZERO, {}, {})
    edges = [(u, v) for u, v, _ in g.edges]
    eidx = {e: i for i, e in enumerate(edges)}

    # cover: min sum w(e) y(e) subject to hitting every triangle
    crows = [{eidx[(a, b)]: 1, eidx[(a, c)]: 1, eidx[(b, c)]: 1} for a, b, c in tris]
    rhs = [1] * len(tris)
    status, tau, y, x = solve_min_nonneg(crows, rhs, [w for _, _, w in g.edges])
    if status != "optimal":  # y = 1 on every edge is feasible
        raise ExactnessError(f"triangle cover LP ended {status}")
    nu = sum(x, _ZERO)
    if nu != tau:  # LP duality ties packing and cover optima
        raise ExactnessError(f"packing optimum {nu} differs from cover optimum {tau}")
    packing = dict(zip(tris, x))
    cover = {e: y[i] for i, e in enumerate(edges)}
    return TriangleLPResult(nu_star=nu, tau_star=tau, packing=packing, cover=cover)


def clique_bound(g: WeightedGraph) -> Fraction:
    """LP upper bound on the plus-norm of the cut function: spread each
    edge weight over cliques z(K) and pay ceil(k/2)*floor(k/2) per clique."""
    cliques = enumerate_cliques(g)
    costs = []
    for k in cliques:
        size = popcount(k)
        costs.append(Fraction((size + 1) // 2 * (size // 2)))
    rows = []
    rhs = []
    for u, v, w in g.edges:
        emask = 1 << u | 1 << v
        row = {j: 1 for j, k in enumerate(cliques) if emask & ~k == 0}
        rows.append(row)
        rhs.append(w)
        rows.append({j: -1 for j in row})
        rhs.append(-w)
    status, value, _, _ = solve_min_nonneg(rows, rhs, costs)
    if status != "optimal":  # z on edges is feasible
        raise ExactnessError(f"clique LP ended {status}")
    return value


def nu_star_bound(g: WeightedGraph) -> Fraction:
    """Upper bound w(E) - nu* on the plus-norm of the cut function."""
    return g.total_weight() - triangle_lps(g).nu_star


def complete_graph_decomposition(n: int) -> Decomposition:
    """1-bounded sum-decomposition of the complete graph's cut function,
    splitting the concave profile h(k) = k(n - k) at its smaller argmax."""
    if n < 1:
        raise GraphError("n must be at least 1")
    ground = GroundSet(n)

    def h(k: int) -> Fraction:
        return Fraction(k * (n - k))

    k0 = n // 2
    vals1, vals2 = [], []
    for x in range(ground.size):
        k = popcount(x)
        vals1.append(h(min(k, k0)))
        vals2.append(_ZERO if k <= k0 else h(k) - h(k0))
    phi1 = SetFunction(ground, tuple(vals1))
    phi2 = SetFunction(ground, tuple(vals2))
    d = phi1 + phi2
    if max(norm_inf(phi1), norm_inf(phi2)) != norm_inf(d):
        raise ExactnessError("the split of the complete graph's cut function is not 1-bounded")
    return Decomposition(phi1=phi1, phi2=phi2, kind="sum", objective=phi1(ground.full_mask))


# -- generators ----------------------------------------------------------
#
# Each generator hands WeightedGraph.build a lazy edge iterable, so an
# oversized n is refused before any edge is made.


def complete(n: int) -> WeightedGraph:
    return WeightedGraph.build(n, ((u, v, _ONE) for u in range(n) for v in range(u + 1, n)))


def complete_minus_edge(n: int) -> WeightedGraph:
    if n < 2:
        raise GraphError("need at least 2 vertices to drop an edge")
    return WeightedGraph.build(
        n, ((u, v, _ONE) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1))
    )


def cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return WeightedGraph.build(n, ((v, (v + 1) % n, _ONE) for v in range(n)))


def path(n: int) -> WeightedGraph:
    if n < 2:
        raise GraphError("paths need at least 2 vertices")
    return WeightedGraph.build(n, ((v, v + 1, _ONE) for v in range(n - 1)))


def complete_bipartite(a: int, b: int) -> WeightedGraph:
    return WeightedGraph.build(a + b, ((u, a + v, _ONE) for u in range(a) for v in range(b)))


def wheel(n: int) -> WeightedGraph:
    """Hub vertex 0 joined to a rim cycle on the other n - 1 vertices."""
    if n < 4:
        raise GraphError("wheels need at least 4 vertices")
    hub = ((0, v, _ONE) for v in range(1, n))
    rim = ((v, v + 1, _ONE) for v in range(1, n - 1))
    return WeightedGraph.build(n, chain(hub, rim, [(1, n - 1, _ONE)]))


def hyperedge(k: int) -> WeightedHypergraph:
    """A single unit hyperedge spanning k vertices."""
    if k < 1:
        raise GraphError("hyperedges must be nonempty")
    return WeightedHypergraph(n=k, hyperedges=(((1 << k) - 1, _ONE),))


def counterexample_sum(n: int) -> SetFunction:
    """On 2n elements with A the first n: 0 when X is nested with A,
    1 otherwise.  Submodular, sup-norm 1, but its optimal increasing part
    must reach at least n at the full set."""
    if n < 1:
        raise GraphError("n must be at least 1")
    ground = GroundSet(2 * n)
    a = (1 << n) - 1
    vals = tuple(
        _ZERO if x & ~a == 0 or a & ~x == 0 else _ONE for x in range(ground.size)
    )
    return SetFunction(ground, vals)


def counterexample_diff(n: int) -> SetFunction:
    """-1 at the full set, 0 elsewhere; submodular, and every
    diff-decomposition needs a decreasing part of size at least n."""
    if n < 1:
        raise GraphError("n must be at least 1")
    ground = GroundSet(n)
    vals = tuple(
        Fraction(-1) if x == ground.full_mask else _ZERO for x in range(ground.size)
    )
    return SetFunction(ground, vals)


# -- conjecture probe ----------------------------------------------------


@dataclass
class ProbeReport:
    trials: int
    violations: List[dict] = field(default_factory=list)
    min_slack: Optional[Fraction] = None

    @property
    def conjecture_holds(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "conjecture_holds": self.conjecture_holds,
            "min_slack": None if self.min_slack is None else format_rational(self.min_slack),
            "violations": self.violations,
        }


def conjecture_probe(g: WeightedGraph, trials: int, rng_seed: int) -> ProbeReport:
    """Search for a counterexample to monotonicity of the cut function's
    plus-norm under componentwise weight decrease.

    Each trial draws random weights w (numerators 0..8, denominators
    1..4), scales each down to w' <= w, and compares the two optimal
    sum-decomposition objectives exactly.  A violation would refute the
    conjecture; otherwise the minimum slack over all trials is reported.
    """
    if g.n > PROBE_MAX_N:
        raise GraphError(f"conjecture probe is capped at n <= {PROBE_MAX_N}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = random.Random(rng_seed)
    report = ProbeReport(trials=trials)
    for t in range(trials):
        w = [
            Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in g.edges
        ]
        wp = [wi * Fraction(rng.randint(0, 4), 4) for wi in w]
        big = optimal_sum_decomposition(cut_function(g.reweighted(w))).objective
        small = optimal_sum_decomposition(cut_function(g.reweighted(wp))).objective
        slack = big - small
        if report.min_slack is None or slack < report.min_slack:
            report.min_slack = slack
        if slack < 0:
            report.violations.append(
                {
                    "trial": t,
                    "w": [format_rational(x) for x in w],
                    "w_prime": [format_rational(x) for x in wp],
                    "norm_w": format_rational(big),
                    "norm_w_prime": format_rational(small),
                }
            )
    return report
