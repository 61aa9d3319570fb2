import tracemalloc
from fractions import Fraction

import pytest

from setdecomp import (
    CliqueWeights,
    GraphError,
    GroundSet,
    SetFunction,
    WeightedGraph,
    WeightedHypergraph,
    check_vertex_inequality,
    clique_bound,
    complete,
    complete_bipartite,
    complete_graph_decomposition,
    complete_minus_edge,
    conjecture_probe,
    counterexample_diff,
    counterexample_sum,
    cut_function,
    cycle,
    enumerate_cliques,
    greedy_local_search_cut,
    hyperedge,
    incident_function,
    induced_function,
    max_cut,
    nu_star_bound,
    optimal_sum_decomposition,
    path,
    popcount,
    recover_clique_weights,
    triangle_lps,
    triangles_of,
    verify_cut_identities,
    wheel,
)
from setdecomp import graphs, simplex
from conftest import random_graph
from oracles import clique_bound_equality_lp, weight_of

F = Fraction

# graph-reports benchmark workload, seed 32, instance 23: its clique LP
# (227 cliques, 82 rows) once pivoted exactly for about 42 s
CLIFF_EDGES = [
    (0, 1, "5/4"), (0, 2, "1"), (0, 4, "3/2"), (0, 5, "3"), (0, 7, "2"),
    (0, 8, "7/2"), (0, 9, "1"), (0, 10, "2/3"), (1, 4, "3"), (1, 6, "3/4"),
    (1, 9, "2"), (1, 10, "6"), (2, 3, "5"), (2, 4, "3/2"), (2, 5, "7/2"),
    (2, 6, "9"), (2, 7, "9/4"), (2, 8, "5/2"), (2, 9, "2"), (2, 10, "1/2"),
    (3, 4, "8/3"), (3, 5, "4"), (3, 8, "3"), (3, 9, "1"), (3, 10, "1/2"),
    (4, 5, "8"), (4, 7, "2"), (4, 8, "3"), (5, 7, "5/3"), (5, 8, "3/4"),
    (5, 9, "1"), (5, 10, "1/4"), (6, 7, "1/4"), (6, 8, "9/2"), (6, 9, "2"),
    (7, 8, "3/2"), (7, 9, "6"), (7, 10, "7/4"), (8, 9, "3/2"), (8, 10, "8/3"),
    (9, 10, "2"),
]


def test_triangle_values():
    g = complete(3)
    d = cut_function(g)
    i = induced_function(g)
    e = incident_function(g)
    assert d(0b011) == 2
    assert d(0b111) == 0
    assert i(0b111) == 3
    assert i(0b011) == 1
    assert e(0b001) == 2
    # crossing edges are the incident ones that are not fully inside
    for x in range(8):
        assert d(x) == e(x) - i(x)


def test_degree_identity(rng):
    # e + i equals the degree charge on every subset
    for _ in range(10):
        g = random_graph(rng, 5)
        i = induced_function(g)
        e = incident_function(g)
        adj = g.adjacency()
        deg = [sum(weight_of(g, u, v) for v in range(5) if adj[u] >> v & 1) for u in range(5)]
        for x in range(32):
            total = sum(deg[u] for u in range(5) if x >> u & 1)
            assert e(x) + i(x) == total


def test_cut_identities_graphs(rng):
    for _ in range(10):
        g = random_graph(rng, 5)
        assert verify_cut_identities(g)


def test_cut_identities_hypergraphs(rng):
    for _ in range(10):
        hedges = []
        for _ in range(rng.randint(1, 5)):
            mask = rng.randint(1, 31)
            hedges.append((mask, F(rng.randint(1, 3), rng.randint(1, 2))))
        h = WeightedHypergraph(5, tuple(hedges))
        assert verify_cut_identities(h)


@pytest.mark.parametrize("pair", [{"x": 3}, {"y": 3}])
def test_cut_identities_refuse_a_lone_subset(pair):
    # one subset given alone is not silently widened to every pair
    with pytest.raises(GraphError, match="both x and y"):
        verify_cut_identities(complete(7), **pair)
    assert verify_cut_identities(complete(7), x=3, y=12)


def test_max_cut_values():
    assert max_cut(complete(4))[0] == 4
    assert max_cut(cycle(5))[0] == 4
    assert max_cut(complete_bipartite(3, 3))[0] == 9
    value, side = max_cut(complete_bipartite(2, 2))
    assert value == 4


def test_greedy_cut_bounds(rng):
    for _ in range(15):
        g = random_graph(rng, 6)
        best, _ = max_cut(g)
        got, side = greedy_local_search_cut(g)
        assert got <= best
        assert 2 * got >= g.total_weight()


def test_enumerate_cliques():
    g = complete(4)
    cliques = enumerate_cliques(g)
    assert len(cliques) == 15  # all nonempty subsets are cliques
    g2 = path(3)
    masks = set(enumerate_cliques(g2))
    assert masks == {0b001, 0b010, 0b100, 0b011, 0b110}


def test_clique_weight_recovery_edge():
    dec = complete_graph_decomposition(2)
    weights = recover_clique_weights(complete(2), dec.phi1)
    w = dict(weights.weights)
    assert w[0b01] == 1
    assert w[0b10] == 1
    assert w[0b11] == -1
    assert weights.induced() == dec.phi1


def test_clique_weight_recovery_random(rng):
    for _ in range(5):
        g = random_graph(rng, 4, p=0.7)
        dec = optimal_sum_decomposition(cut_function(g))
        weights = recover_clique_weights(g, dec.phi1)
        assert weights.induced() == dec.phi1


def test_vertex_inequality(rng):
    for _ in range(5):
        g = random_graph(rng, 4, p=0.7)
        dec = optimal_sum_decomposition(cut_function(g))
        weights = recover_clique_weights(g, dec.phi1)
        for v in range(4):
            assert check_vertex_inequality(g, weights, v)


def test_recovery_rejects_bad_phi1():
    g = path(3)
    bad = SetFunction.from_callable(
        cut_function(g).ground, lambda m: F(bin(m).count("1")) ** 2
    )
    with pytest.raises(GraphError, match=r"non-adjacent pair \(0, 2\) is not modular"):
        recover_clique_weights(g, bad)
    # a constant shift keeps every pair modular; the fault is phi1(empty)
    shifted = optimal_sum_decomposition(cut_function(complete(3))).phi1.shift(1)
    with pytest.raises(GraphError, match=r"induced by any clique weighting: phi1\(empty\) = 1, not 0$"):
        recover_clique_weights(complete(3), shifted)


def test_triangle_lps_known():
    r3 = triangle_lps(complete(3))
    assert r3.nu_star == 1 and r3.tau_star == 1
    r4 = triangle_lps(complete(4))
    assert r4.nu_star == 2
    r5 = triangle_lps(complete(5))
    assert r5.nu_star == F(10, 3)
    free = triangle_lps(cycle(5))
    assert free.nu_star == 0 and free.tau_star == 0


def test_triangle_duality_random(rng):
    packed = 0
    for _ in range(10):
        g = random_graph(rng, 5)
        r = triangle_lps(g)
        packed += len(r.packing)
        assert r.nu_star == r.tau_star
        # the packing read from the cover LP's dual is a feasible optimum
        assert set(r.packing) == set(triangles_of(g))
        assert all(x >= 0 for x in r.packing.values())
        assert sum(r.packing.values()) == r.nu_star
        for u, v, w in g.edges:
            assert sum(x for t, x in r.packing.items() if u in t and v in t) <= w
    assert packed > 0


def test_bounds_known_values():
    # triangle-free: plus norm is the whole edge weight
    assert optimal_sum_decomposition(cut_function(cycle(5))).objective == 5
    assert optimal_sum_decomposition(cut_function(path(4))).objective == 3
    assert optimal_sum_decomposition(cut_function(complete_bipartite(3, 3))).objective == 9
    # wheels
    assert optimal_sum_decomposition(cut_function(wheel(5))).objective == 6
    # K5 clique bound strictly better than the packing bound
    assert clique_bound(complete(5)) == 6
    assert nu_star_bound(complete(5)) == F(20, 3)
    # K7 minus an edge: the clique bound beats the packing bound
    g = complete_minus_edge(7)
    assert optimal_sum_decomposition(cut_function(g)).objective == 12
    assert clique_bound(g) == F(25, 2)
    assert nu_star_bound(g) == F(40, 3)


def test_bound_ordering(rng):
    for _ in range(10):
        g = random_graph(rng, 5)
        plus = optimal_sum_decomposition(cut_function(g)).objective
        cb = clique_bound(g)
        nb = nu_star_bound(g)
        assert plus <= cb <= nb


def weighted_gnp(rng, n, p, weights):
    return WeightedGraph.build(
        n, [(u, v, rng.choice(weights)) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_clique_bound_matches_the_equality_lp(rng):
    # the edge-cover LP against the clique LP it is derived from: another
    # formulation, solved by exact pivoting on its equality rows
    ratios = [F(p, q) for p in range(7) for q in range(1, 4)]
    cases = [
        weighted_gnp(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7, 0.9, 1.0]), ratios)
        for _ in range(100)
    ]
    # cliques of 5 or more vertices bind in dense graphs with few distinct
    # weights, where the bound drops below the triangle bound w(E) - nu*
    for _ in range(20):
        q = rng.randint(1, 3)
        pair = [F(rng.randint(0, 6), q) for _ in range(2)]
        cases.append(weighted_gnp(rng, rng.randint(5, 6), rng.choice([0.7, 0.9, 1.0]), pair))
    for g in cases:
        assert clique_bound(g) == clique_bound_equality_lp(g)
    assert any(clique_bound(g) < nu_star_bound(g) for g in cases[100:])


def test_clique_bound_of_complete_graphs_is_the_max_cut():
    for n in range(1, 13):
        assert clique_bound(complete(n)) == n // 2 * ((n + 1) // 2)


def test_clique_bound_certifies_former_cliff_graph(monkeypatch):
    import numpy as np
    from scipy.optimize import linprog

    g = WeightedGraph.build(11, [(u, v, F(w)) for u, v, w in CLIFF_EDGES])
    cliques = enumerate_cliques(g)
    assert len(cliques) * 2 * len(g.edges) == 18614
    fallbacks = []
    real = simplex._solve_exact
    monkeypatch.setattr(simplex, "_solve_exact", lambda *a: fallbacks.append(a) or real(*a))
    value = clique_bound(g)
    assert fallbacks == []
    # independent float solve: edge weights split exactly over the cliques
    costs = [(bin(k).count("1") + 1) // 2 * (bin(k).count("1") // 2) for k in cliques]
    a_eq = np.array(
        [[1.0 if (1 << u | 1 << v) & ~k == 0 else 0.0 for k in cliques] for u, v, _ in g.edges]
    )
    res = linprog(
        costs, A_eq=a_eq, b_eq=[float(w) for _, _, w in g.edges], bounds=(0, None), method="highs"
    )
    assert res.status == 0
    assert abs(float(value) - res.fun) <= 1e-9 * max(1.0, abs(res.fun))


def test_complete_graph_decomposition():
    dec2 = complete_graph_decomposition(2)
    assert [dec2.phi1(m) for m in range(4)] == [0, 1, 1, 1]
    assert [dec2.phi2(m) for m in range(4)] == [0, 0, 0, -1]
    dec4 = complete_graph_decomposition(4)
    assert dec4.reconstruct() == cut_function(complete(4))
    assert dec4.objective == optimal_sum_decomposition(cut_function(complete(4))).objective


def test_generators_shapes():
    assert len(wheel(6).edges) == 10
    assert len(complete(5).edges) == 10
    assert len(complete_minus_edge(5).edges) == 9
    assert len(cycle(6).edges) == 6
    assert len(path(6).edges) == 5
    assert len(complete_bipartite(2, 3).edges) == 6
    h = hyperedge(3)
    assert len(h.hyperedges) == 1 and h.hyperedges[0][0] == 0b111
    with pytest.raises(GraphError):
        cycle(2)


# each makes about 40000 edges, several MB, if the edge list is built
OVERSIZED = [
    (complete, (300,)),
    (complete_minus_edge, (300,)),
    (cycle, (40000,)),
    (path, (40000,)),
    (complete_bipartite, (200, 200)),
    (wheel, (20000,)),
    (hyperedge, (20000000,)),  # one 20000000-bit mask
]


@pytest.mark.parametrize("make, args", OVERSIZED, ids=[make.__name__ for make, _ in OVERSIZED])
def test_generators_refuse_an_oversized_graph_before_building_it(make, args):
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="vertex count"):
            make(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "make",
    [
        lambda: WeightedGraph(n=3, edges=((0.5, 1, F(1)),)),
        lambda: WeightedGraph(n=3, edges=((False, True, F(1)),)),
        lambda: WeightedGraph(n=3.0, edges=()),
        lambda: WeightedHypergraph(n=3, hyperedges=((True, F(1)),)),
        lambda: WeightedHypergraph(n=3, hyperedges=((3.0, F(1)),)),
        lambda: WeightedHypergraph.from_json_dict(
            {"n": 3, "hyperedges": [{"vertices": [True, 2], "weight": "1"}]}
        ),
    ],
)
def test_vertex_indices_must_be_ints(make):
    with pytest.raises(GraphError, match="int"):
        make()


def test_counterexample_functions():
    psi = counterexample_sum(2)
    g = psi.ground
    assert g.n == 4
    assert psi(0) == 0
    assert psi(0b0001) == 0  # nested with A = {0, 1}
    assert psi(0b0111) == 0  # contains A = {0, 1}
    assert psi(0b0101) == 1  # incomparable with A
    phi = counterexample_diff(3)
    assert phi(phi.ground.full_mask) == -1
    assert all(phi(m) == 0 for m in range(phi.ground.size - 1))


def test_serialization_round_trips(rng):
    g = random_graph(rng, 5)
    again = WeightedGraph.from_json_dict(g.to_json_dict())
    assert again == g
    csv_text = "0,1,1/2\n1,2,3\n"
    gc = WeightedGraph.from_csv(csv_text)
    assert weight_of(gc, 0, 1) == F(1, 2)
    assert weight_of(gc, 1, 2) == 3
    h = hyperedge(3)
    hh = WeightedHypergraph.from_json_dict(h.to_json_dict())
    assert hh == h


def test_probe_deterministic():
    g = complete(4)
    r1 = conjecture_probe(g, trials=5, rng_seed=7)
    r2 = conjecture_probe(g, trials=5, rng_seed=7)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert r1.conjecture_holds
    assert r1.trials == 5


# -- the coverage-transform tables against per-hyperedge reference loops --
#
# The loops below are the direct definitions: each subset mask visits every
# hyperedge (or clique weight) and adds up exact Fractions.


def ref_cut(h):
    full = (1 << h.n) - 1
    return SetFunction(
        GroundSet(max(h.n, 1)),
        [
            sum((w for mask, w in h.hyperedges if mask & x and mask & full & ~x), F(0))
            for x in range(1 << max(h.n, 1))
        ],
    )


def ref_induced_by(n, weighted_masks):
    return SetFunction(
        GroundSet(max(n, 1)),
        [
            sum((w for mask, w in weighted_masks if mask & ~x == 0), F(0))
            for x in range(1 << max(n, 1))
        ],
    )


def ref_incident(h):
    return ref_induced_by(h.n, h.hyperedges) + ref_cut(h)


def ref_recover(g, phi1):
    """Peel phi1(K) minus the smaller cliques' weights, verify on every
    subset, then check the closed form (-1)^k V(empty; singletons of K)."""
    cliques = sorted(enumerate_cliques(g), key=popcount)
    weights = {}
    for k in cliques:
        weights[k] = phi1(k) - sum(
            (w for kp, w in weights.items() if kp != k and kp & ~k == 0), F(0)
        )
    if ref_induced_by(g.n, list(weights.items())) != phi1:
        raise GraphError(
            "phi1 is not induced by any clique weighting: "
            + graphs._modularity_witness_message(g, phi1)
        )
    for k in cliques:
        parts = [1 << v for v in range(g.n) if k >> v & 1]
        total = F(0)
        for sub in range(1 << len(parts)):
            a0 = sum(p for j, p in enumerate(parts) if sub >> j & 1)
            total += (-1) ** popcount(sub) * phi1(a0)
        assert weights[k] == (-1) ** len(parts) * total
    return weights


def random_hypergraph(rng, n):
    """Hyperedges drawn from a small pool of masks, so masks repeat, with
    signed weights over mixed denominators."""
    pool = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4))]
    hedges = tuple(
        (rng.choice(pool), F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10**6 + 3])))
        for _ in range(rng.randint(0, 8))
    )
    return WeightedHypergraph(n, hedges)


def table_inputs(rng):
    yield WeightedGraph(0, ())
    yield WeightedGraph.build(1, [])
    yield WeightedHypergraph(1, ((1, F(-2, 3)), (1, F(5))))
    for n in range(2, 8):
        for _ in range(4):
            yield random_graph(rng, n, p=rng.choice([0.3, 0.6, 1.0]))
            yield random_hypergraph(rng, n)


def test_tables_match_reference_loops(rng):
    for g in table_inputs(rng):
        h = g.to_hypergraph() if isinstance(g, WeightedGraph) else g
        assert cut_function(g) == ref_cut(h)
        assert induced_function(g) == ref_induced_by(h.n, h.hyperedges)
        assert incident_function(g) == ref_incident(h)


def test_clique_weights_match_peeling_and_closed_form(rng):
    for n in range(1, 7):
        for _ in range(4):
            g = random_graph(rng, n, p=0.7)
            # a valid phi1 from random clique weights, and a spoiled copy
            drawn = {k: F(rng.randint(-5, 5), rng.randint(1, 4)) for k in enumerate_cliques(g)}
            phi1 = ref_induced_by(n, list(drawn.items()))
            vals = list(phi1.values)
            vals[0] += rng.randint(0, 1)
            vals[-1] += 1
            spoiled = SetFunction(phi1.ground, vals)
            for f in (phi1, spoiled):
                try:
                    expected = ref_recover(g, f)
                except GraphError as exc:
                    with pytest.raises(GraphError) as got:
                        recover_clique_weights(g, f)
                    assert str(got.value) == str(exc)
                    continue
                weights = recover_clique_weights(g, f)
                assert list(weights.weights.items()) == list(expected.items())
                assert weights.induced() == ref_induced_by(n, list(expected.items()))
    for n in range(2, 5):
        g = random_graph(rng, n, p=0.7)
        phi1 = optimal_sum_decomposition(cut_function(g)).phi1
        assert recover_clique_weights(g, phi1).weights == ref_recover(g, phi1)


def test_cuts_match_scanning_the_cut_function(rng):
    # unit weights tie many sides, which pins down the tie-breaking
    graphs_ = [WeightedGraph(0, ()), WeightedGraph.build(1, []), WeightedGraph.build(3, [])]
    graphs_ += [complete(n) for n in range(2, 7)] + [cycle(5), cycle(6), path(5), wheel(6)]
    graphs_ += [complete_bipartite(2, 3)]
    graphs_ += [random_graph(rng, n, p=p) for n in range(2, 9) for p in (0.3, 0.6, 1.0)]
    for g in graphs_:
        d = cut_function(g)
        best, best_mask = F(0), 0
        for x in range(1 << max(g.n - 1, 0)):
            if d(x) > best:
                best, best_mask = d(x), x
        assert max_cut(g) == (best, best_mask)
        x, improved = 0, True
        while improved:
            improved = False
            for v in range(g.n):
                if d(x ^ 1 << v) > d(x):
                    x ^= 1 << v
                    improved = True
                    break
        assert greedy_local_search_cut(g) == (d(x), x)
