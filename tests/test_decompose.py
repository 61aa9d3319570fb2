import random
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from setdecomp import (
    Decomposition,
    DecompositionError,
    GroundSet,
    SetFunction,
    c_bounded_feasible,
    is_decreasing,
    is_increasing,
    is_submodular,
    norm_inf,
    optimal_diff_decomposition,
    optimal_sum_decomposition,
    verify_seven_bound,
    weakly_alt_canonical_decomposition,
)
from setdecomp.charges import PreconditionError
from setdecomp.coverage import to_coefficients
from setdecomp.graphs import (
    complete,
    counterexample_diff,
    counterexample_sum,
    cut_function,
    enumerate_cliques,
)
from setdecomp import WeightedGraph, decompose, graphs, simplex
from setdecomp.simplex import ExactnessError
from conftest import (
    random_coverage,
    random_graph,
    random_set_function,
    random_signed_singletons,
    random_weakly_alternating,
    spy_certificate_dtypes,
    spy_exact,
)
from oracles import decomposition_rows_fractions, weakly_alt_canonical_by_charge

F = Fraction


def random_submodular(rng, n):
    # coverage plus an arbitrary charge stays submodular, with sign freedom
    f = random_coverage(rng, n)
    g = f.ground
    atoms = [F(rng.randint(-2, 2)) for _ in range(n)]
    charge = SetFunction.from_callable(
        g, lambda m: sum(atoms[i] for i in range(n) if m >> i & 1)
    )
    return f + charge


def check_shape(psi, dec):
    assert dec.phi1(0) == 0 and dec.phi2(0) == 0
    assert dec.reconstruct() == psi
    assert is_increasing(dec.phi1)[0]
    assert is_submodular(dec.phi1)[0]
    assert is_submodular(dec.phi2)[0]
    if dec.kind == "sum":
        assert is_decreasing(dec.phi2)[0]
    else:
        assert is_increasing(dec.phi2)[0]
    assert dec.objective == dec.phi1(psi.ground.full_mask)


def test_sum_triangle_cut():
    d = cut_function(complete(3))
    dec = optimal_sum_decomposition(d)
    check_shape(d, dec)
    assert dec.objective == 2


def test_sum_increasing_input(rng):
    f = random_coverage(rng, 4)
    dec = optimal_sum_decomposition(f)
    check_shape(f, dec)
    assert dec.objective == f(f.ground.full_mask)
    assert dec.phi2 == SetFunction.zero(f.ground)


def test_sum_phi1_dominates(rng):
    for _ in range(10):
        psi = random_submodular(rng, 4)
        dec = optimal_sum_decomposition(psi)
        check_shape(psi, dec)
        for x in psi.ground.subsets():
            assert dec.phi1(x) >= psi(x)


def test_exactness_checks_raise(monkeypatch):
    # the checks must hold under python -O, so they raise instead of asserting
    monkeypatch.setattr(
        decompose, "_solve_scaled", lambda *args: ("infeasible", None, [], [])
    )
    with pytest.raises(ExactnessError):
        optimal_sum_decomposition(cut_function(complete(3)))
    real = graphs.solve_min_nonneg

    def off_by_one(*args):
        status, value, x, y = real(*args)
        return status, value + 1, x, y

    monkeypatch.setattr(graphs, "solve_min_nonneg", off_by_one)
    with pytest.raises(ExactnessError):
        graphs.triangle_lps(complete(4))


def test_infeasible_box_is_certified_without_pivoting(monkeypatch):
    # an n = 6 cut function whose --c 1 sum box is infeasible (861 rows x 63
    # variables); exact pivoting runs for minutes on it, so the elastic
    # LP's certificate must settle it
    edges = [(0, 2, 1), (0, 3, F(3, 2)), (0, 5, 1), (1, 2, F(2, 3)), (1, 3, 1),
             (1, 4, 2), (2, 3, F(4, 3)), (4, 5, F(1, 2))]
    calls = []
    monkeypatch.setattr(simplex, "_solve_exact", lambda *args: calls.append(args))
    psi = cut_function(WeightedGraph.build(6, edges))
    assert c_bounded_feasible(psi, "sum", F(1)) == (False, None)
    assert calls == []


@pytest.mark.parametrize("kind", ["sum", "diff"])
@pytest.mark.parametrize("c", [None, F(1, 3), F(5, 2), F(3, 7)], ids=["none", "1/3", "5/2", "3/7"])
def test_int_right_hand_sides_match_the_fraction_rows(kind, c, rng):
    # the int sums over psi.den (times c's denominator) give the rows and
    # right-hand sides of one Fraction per row, in the same order
    for _ in range(12):
        n = rng.randint(1, 4)
        dens = rng.sample(range(1, 7), rng.randint(1, 3))
        values = [F(0)] + [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(2**n - 1)]
        psi = SetFunction(GroundSet(n), values)
        rows, rhs, _ = decompose._build_rows(psi, kind, c)
        ref_rows, ref_rhs = decomposition_rows_fractions(psi, kind, c)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]
        assert list(simplex._rationals(rhs)) == ref_rhs


def test_sum_rejects_non_submodular():
    g = GroundSet(2)
    psi = SetFunction(g, (F(0), F(0), F(0), F(2)))
    with pytest.raises(DecompositionError):
        optimal_sum_decomposition(psi)


def test_sum_counterexample_family():
    for n in (2, 3):
        psi = counterexample_sum(n)
        dec = optimal_sum_decomposition(psi)
        check_shape(psi, dec)
        assert dec.objective >= n


def test_diff_triangle_and_increasing(rng):
    d = cut_function(complete(3))
    dec = optimal_diff_decomposition(d)
    check_shape(d, dec)
    f = random_coverage(rng, 4)
    dec2 = optimal_diff_decomposition(f)
    assert dec2.objective == f(f.ground.full_mask)
    assert dec2.phi2 == SetFunction.zero(f.ground)


def test_diff_counterexample_family():
    for n in (3, 4):
        psi = counterexample_diff(n)
        dec = optimal_diff_decomposition(psi)
        check_shape(psi, dec)
        assert dec.phi2(psi.ground.full_mask) >= n


def test_diff_warns_on_non_submodular():
    g = GroundSet(2)
    psi = SetFunction(g, (F(0), F(0), F(0), F(2)))
    with pytest.warns(UserWarning):
        optimal_diff_decomposition(psi)


def global_formulation_value(psi):
    """Independent sum-decomposition LP using four-set submodularity rows:
    min phi1(V) subject to rows.phi1 >= rhs, phi1 >= 0, solved by exact
    pivoting."""
    g = psi.ground
    n_vars = g.size - 1  # phi1(X) for X != 0

    def var(mask):
        return mask - 1

    rows, rhs = [], []
    subsets = list(g.subsets())

    def phi1_coeffs(scaled):
        row = [F(0)] * n_vars
        for mask, c in scaled:
            if mask:
                row[var(mask)] += c
        return row

    for x in subsets:
        for y in subsets:
            if x == y:
                continue
            # phi1(x) + phi1(y) >= phi1(x|y) + phi1(x&y)
            row = phi1_coeffs([(x, F(1)), (y, F(1)), (x | y, F(-1)), (x & y, F(-1))])
            rows.append(row)
            rhs.append(F(0))
            # phi2 = psi - phi1 submodular: phi2(x)+phi2(y)-phi2(x|y)-phi2(x&y) >= 0
            rows.append([-a for a in row])
            rhs.append(-(psi(x) + psi(y) - psi(x | y) - psi(x & y)))
        # monotone phi1 and antitone phi2 via x vs x|{u}
        for u in range(g.n):
            if x >> u & 1:
                continue
            xu = x | (1 << u)
            row = phi1_coeffs([(xu, F(1)), (x, F(-1))])
            rows += [row, row]
            rhs += [F(0), psi(xu) - psi(x)]
    objective = phi1_coeffs([(g.full_mask, F(1))])
    sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
    status, value, _, _ = simplex._solve_exact(sparse, rhs, objective)
    assert status == "optimal"
    return value


def test_sum_matches_global_formulation(rng):
    for n in (2, 3):
        for _ in range(5):
            psi = random_submodular(rng, n)
            dec = optimal_sum_decomposition(psi)
            assert dec.objective == global_formulation_value(psi)


def test_plus_norm_monotone_under_increasing_addition(rng):
    for _ in range(10):
        psi = random_submodular(rng, 4)
        g = random_coverage(rng, 4)
        lhs = optimal_sum_decomposition(psi + g).objective
        rhs = optimal_sum_decomposition(psi).objective + g(g.ground.full_mask)
        assert lhs <= rhs


def test_c_bounded_feasibility():
    d = cut_function(complete(4))
    ok, dec = c_bounded_feasible(d, "sum", F(2))
    assert ok and dec.reconstruct() == d
    ok4, dec4 = c_bounded_feasible(d, "diff", F(4))
    assert ok4 and dec4.reconstruct() == d
    psi = counterexample_sum(3)
    ok_cex, _ = c_bounded_feasible(psi, "sum", F(2))
    assert not ok_cex


def test_c_bounded_monotone_in_c(rng):
    for _ in range(5):
        psi = random_submodular(rng, 3)
        feasible = [c_bounded_feasible(psi, "sum", F(c, 2))[0] for c in range(1, 9)]
        # once feasible, stays feasible as c grows
        for a, b in zip(feasible, feasible[1:]):
            assert (not a) or b


def test_size_cap():
    g = GroundSet(11)
    psi = SetFunction.zero(g)
    with pytest.raises(ValueError, match="capped"):
        optimal_sum_decomposition(psi)


def test_canonical_weakly_alt_triangle():
    d = cut_function(complete(3))
    phi, mu = weakly_alt_canonical_decomposition(d)
    assert mu.atoms == (F(2), F(2), F(2))
    coeffs = to_coefficients(phi)
    for u, v in ((0, 1), (0, 2), (1, 2)):
        assert coeffs.alpha[(1 << u) | (1 << v)] == 2
    for a in range(3):
        # complementarity: no singleton weight survives alongside mu
        assert coeffs.alpha[1 << a] * mu.atoms[a] == 0
    assert phi - mu.as_set_function() == d


def test_canonical_weakly_alt_edge_cases(rng):
    # infinite-alternating with no singleton coefficients: mu vanishes
    f = random_coverage(rng, 3, density=0.5)
    coeffs = to_coefficients(f)
    stripped = f
    for a in range(3):
        alpha_a = coeffs.alpha[1 << a]
        if alpha_a:
            from setdecomp.coverage import extremal

            stripped = stripped - extremal(f.ground, 1 << a).scale(alpha_a)
    phi, mu = weakly_alt_canonical_decomposition(stripped)
    assert all(a == 0 for a in mu.atoms)
    assert phi == stripped
    # a negative charge decomposes as 0 minus that charge
    g = GroundSet(3)
    neg = SetFunction.from_callable(
        g, lambda m: -F(sum(1 for i in range(3) if m >> i & 1))
    )
    phi2, mu2 = weakly_alt_canonical_decomposition(neg)
    assert phi2 == SetFunction.zero(g)
    assert mu2.atoms == (F(1), F(1), F(1))


def test_canonical_pair_matches_the_charge_construction(rng):
    inputs = [random_signed_singletons(rng, n) for n in range(1, 8) for _ in range(6)]
    inputs += [random_weakly_alternating(rng, n) for n in range(1, 6)]
    inputs += [cut_function(random_graph(rng, n, p)) for n in range(2, 8) for p in (0.4, 0.8)]
    # mostly refused, by weak alternation or by psi(empty) != 0
    inputs += [random_set_function(rng, n, normalized=n > 1) for n in range(1, 6)]
    refused = 0
    for psi in inputs:
        try:
            expected = weakly_alt_canonical_by_charge(psi)
        except PreconditionError as exc:
            refused += 1
            with pytest.raises(PreconditionError) as got:
                weakly_alt_canonical_decomposition(psi)
            assert str(got.value) == str(exc)
            continue
        phi, mu = weakly_alt_canonical_decomposition(psi)
        assert (phi, mu) == expected
        report = decompose._seven_bound_report(psi, phi, mu)
        assert report.norm_mu == norm_inf(mu.as_set_function())
    assert 0 < refused < len(inputs) // 4


def test_canonical_pair_reads_one_interval_pass(monkeypatch):
    from setdecomp import alternating, core, coverage

    psi = cut_function(complete(4))
    expected = weakly_alt_canonical_decomposition(psi)
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    for module, name in (
        (alternating, "_weak_pass"), (decompose, "_weak_pass"),
        (coverage, "to_coefficients"), (core, "linear_combine"),
    ):
        spy(module, name)
    assert weakly_alt_canonical_decomposition(psi) == expected
    assert calls == ["_weak_pass"]


def test_seven_bound_triangle():
    d = cut_function(complete(3))
    report = verify_seven_bound(d)
    assert report.norm_psi == 2
    assert report.phi_full == 6
    assert report.all_hold


def test_seven_bound_random(rng):
    for _ in range(20):
        psi = random_weakly_alternating(rng, 4)
        report = verify_seven_bound(psi)
        assert report.all_hold


def test_decomposition_json_round_trip(rng):
    psi = random_submodular(rng, 3)
    dec = optimal_sum_decomposition(psi)
    again = Decomposition.from_json_dict(dec.to_json_dict())
    assert again.phi1 == dec.phi1
    assert again.phi2 == dec.phi2
    assert again.kind == dec.kind
    assert again.objective == dec.objective


@pytest.mark.parametrize("kind", ["sum", "diff"])
def test_products_past_int64_are_certified_on_python_ints(kind, monkeypatch):
    # psi * 2^64 puts the certificate's products past int64, so it checks
    # them on an object array of Python ints and accepts HiGHS's guess;
    # the optimum is 2^64 times the small one, phi1 included
    solve = optimal_sum_decomposition if kind == "sum" else optimal_diff_decomposition
    psi = cut_function(complete(4))
    small = solve(psi)
    dtypes = spy_certificate_dtypes(monkeypatch)
    fallbacks = spy_exact(monkeypatch)
    big = solve(psi.scale(2**64))
    assert dtypes == [object] and fallbacks == []
    check_shape(psi.scale(2**64), big)
    assert big.objective == small.objective * 2**64
    assert big.phi1 == small.phi1.scale(2**64)


def test_right_hand_sides_past_int64_stay_python_ints():
    psi = cut_function(complete(4)).scale(2**70)
    rows, rhs, _ = decompose._build_rows(psi, "sum", F(3, 2))
    assert rhs[1].dtype == object and max(rhs[1]) > 2**63
    ref_rows, ref_rhs = decomposition_rows_fractions(psi, "sum", F(3, 2))
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]
    assert list(simplex._rationals(rhs)) == ref_rhs


def test_interleaved_decompositions_match_the_fraction_rows(rng):
    # no state carries over between LPs of different n, kind and box: each
    # optimum is feasible for its own Fraction rows and, where exact
    # pivoting is quick, equal to the exact optimum of those rows
    boxes = (None, F(1, 2), F(2), F(5, 2))
    cases = [(n, kind, c) for n in (2, 3, 4, 5) for kind in ("sum", "diff") for c in boxes]
    rng.shuffle(cases)
    for n, kind, c in cases:
        psi = random_submodular(rng, n)
        rows, rhs = decomposition_rows_fractions(psi, kind, c)
        costs = [0] * (2**n - 1)
        costs[-1] = 1
        if c is None:
            dec = (optimal_sum_decomposition if kind == "sum" else optimal_diff_decomposition)(psi)
        else:
            feasible, dec = c_bounded_feasible(psi, kind, c)
            if not feasible:
                assert n > 3 or simplex._solve_exact(rows, rhs, costs)[0] == "infeasible"
                continue
        x = dec.phi1.values[1:]
        assert all(sum(a * x[j] for j, a in row.items()) >= b for row, b in zip(rows, rhs))
        if n <= 3:
            assert dec.objective == simplex._solve_exact(rows, rhs, costs)[1]


def test_benchmark_sized_sum_lp_certifies_in_int64(monkeypatch):
    # an n = 6 cut function with p/q weights, q <= 4, like the benchmark's
    rng = random.Random(6)
    edges = [
        (u, v, F(rng.randint(1, 9), rng.randint(1, 4)))
        for u, v in combinations(range(6), 2)
        if rng.random() < 0.6
    ]
    dtypes = spy_certificate_dtypes(monkeypatch)
    fallbacks = spy_exact(monkeypatch)
    dec = optimal_sum_decomposition(cut_function(WeightedGraph.build(6, edges)))
    assert dec.objective > 0 and fallbacks == []
    assert dtypes == [np.int64]


def full_lp_optimum(psi, c):
    """The exact optimum of the full LP's Fraction rows, or None when infeasible."""
    rows, rhs = decomposition_rows_fractions(psi, "sum", c)
    costs = [0] * (psi.ground.size - 1)
    costs[-1] = 1
    status, value, _, _ = simplex.solve_min_nonneg(rows, rhs, costs)
    return value if status == "optimal" else None


def check_against_full_lp(psi, c):
    rows, _, cliques = decompose._build_rows(psi, "sum", c)
    if c is None:
        dec = optimal_sum_decomposition(psi)
    else:
        feasible, dec = c_bounded_feasible(psi, "sum", c)
        assert feasible == (dec is not None)
    expected = full_lp_optimum(psi, c)
    assert (dec.objective if dec else None) == expected
    if dec is not None:
        check_shape(psi, dec)
        if c is not None:
            bound = c * max(map(abs, psi.values))
            assert all(abs(v) <= bound for v in dec.phi1.values + dec.phi2.values)
    return cliques, len(rows)


def test_clique_route_matches_the_full_lp(rng):
    # cut functions: H is the graph, so every non-complete graph takes the
    # clique route; the objective equals the full LP's exact optimum
    routes = []
    for trial in range(100):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        psi = cut_function(g)
        c = None if trial % 4 else F(rng.randint(2, 6), 2)
        cliques, _ = check_against_full_lp(psi, c)
        routes.append(cliques is not None)
        if cliques is not None:
            assert set(cliques) == set(enumerate_cliques(g))
    assert sum(routes) > 80
    # a cut function plus a modular term keeps H; a modular psi has H empty
    g = WeightedGraph.build(5, [(0, 1, 2), (1, 2, F(1, 2)), (2, 3, 3), (0, 3, 1), (3, 4, F(5, 3))])
    modular = SetFunction.from_callable(GroundSet(5), lambda m: sum(F(i - 2, 3) for i in range(5) if m >> i & 1))
    for psi in (cut_function(g) + modular, modular, modular.scale(-1)):
        for c in (None, F(3), F(1, 2)):
            cliques, _ = check_against_full_lp(psi, c)
            assert cliques is not None
    assert check_against_full_lp(modular, None)[1] == 6  # one step per element, and t >= phi1(J)
    # random submodular tables whose H is not complete: a sum of
    # submodular tables on two overlapping blocks of elements
    seen = 0
    for trial in range(20):
        n = rng.randint(3, 6)
        cut = rng.randint(1, n - 1)
        left, right = random_submodular(rng, cut + 1), random_submodular(rng, n - cut)
        psi = SetFunction.from_callable(
            GroundSet(n), lambda m: left(m & (2 << cut) - 1) + right(m >> cut)
        )
        cliques, _ = check_against_full_lp(psi, None if trial % 2 else F(5, 2))
        seen += cliques is not None
    assert seen >= 10
    # n = 1 has no pairs: H is complete and the full LP runs
    psi = SetFunction(GroundSet(1), [0, F(-3, 2)])
    assert check_against_full_lp(psi, None)[0] is None
    assert check_against_full_lp(psi, F(1))[0] is None


def test_clique_route_past_int64(monkeypatch):
    # right-hand sides past int64 stay Python ints in clique coordinates
    # too, and the certificate runs on them
    psi = cut_function(WeightedGraph.build(4, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1)]))
    small = optimal_sum_decomposition(psi)
    dtypes = spy_certificate_dtypes(monkeypatch)
    fallbacks = spy_exact(monkeypatch)
    rows, rhs, cliques = decompose._build_rows(psi.scale(2**64), "sum", None)
    assert cliques is not None and rhs[1].dtype == object
    big = optimal_sum_decomposition(psi.scale(2**64))
    assert dtypes == [object] and fallbacks == []
    assert big.objective == small.objective * 2**64 and big.phi1 == small.phi1.scale(2**64)


def test_clique_route_needs_no_numpy2_bitwise_count(monkeypatch):
    # pyproject allows numpy 1.x, which has no np.bitwise_count
    psi = cut_function(WeightedGraph.build(5, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1), (3, 4, F(1, 2))]))
    want = optimal_sum_decomposition(psi)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert decompose._build_rows(psi, "sum", None)[2] is not None
    assert optimal_sum_decomposition(psi) == want


def test_infeasible_box_in_clique_coordinates():
    # the n = 6 graph of test_infeasible_box_is_certified_without_pivoting
    edges = [(0, 2, 1), (0, 3, F(3, 2)), (0, 5, 1), (1, 2, F(2, 3)), (1, 3, 1),
             (1, 4, 2), (2, 3, F(4, 3)), (4, 5, F(1, 2))]
    psi = cut_function(WeightedGraph.build(6, edges))
    assert check_against_full_lp(psi, F(1))[0] is not None
    assert c_bounded_feasible(psi, "sum", F(1)) == (False, None)


def test_complete_h_and_diff_keep_the_full_lp(rng):
    # the arrays equal the full LP's, in the full LP's order; K_7 minus an
    # edge keeps 1345 of 1792 rows in clique coordinates, not under 3/4
    weighted = WeightedGraph.build(4, [(u, v, F(rng.randint(1, 9), 4)) for u, v in combinations(range(4), 2)])
    modular = SetFunction.from_callable(GroundSet(4), lambda m: sum(F(i - 1, 3) for i in range(4) if m >> i & 1))
    k7_minus_edge = WeightedGraph.build(7, [(u, v, rng.randint(1, 3)) for u, v in combinations(range(7), 2) if v > 1])
    for psi, kind in [
        (cut_function(complete(4)), "sum"),
        (cut_function(weighted) + modular, "sum"),
        (cut_function(k7_minus_edge), "sum"),
        (cut_function(WeightedGraph.build(4, [(0, 1, 1), (2, 3, 1)])), "diff"),
    ]:
        for c in (None, F(3, 2)):
            rows, rhs, cliques = decompose._build_rows(psi, kind, c)
            assert cliques is None and rows.ncols == psi.ground.size - 1
            ref_rows, ref_rhs = decomposition_rows_fractions(psi, kind, c)
            ref = simplex._CSRRows.from_maps(ref_rows, rows.ncols)
            for got, want in ((rows.indptr, ref.indptr), (rows.indices, ref.indices), (rows.nums, ref.nums)):
                assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert list(simplex._rationals(rhs)) == ref_rhs


FOUND_N9_EDGES = [
    (0, 1, 3), (0, 5, F(3, 4)), (0, 6, F(1, 2)), (1, 2, 1), (1, 7, F(3, 2)), (1, 8, F(1, 3)),
    (2, 5, 1), (2, 7, 6), (3, 4, F(4, 3)), (3, 6, F(7, 4)), (4, 6, 1), (6, 8, 4),
]


def test_n9_graph_needs_no_exact_pivoting(monkeypatch):
    # the full LP (11520 rows) gets no certificate and pivots for minutes;
    # in clique coordinates it certifies
    def refuse(*args):
        raise AssertionError("exact pivoting ran")

    monkeypatch.setattr(simplex, "_solve_exact", refuse)
    psi = cut_function(WeightedGraph.build(9, FOUND_N9_EDGES))
    dec = optimal_sum_decomposition(psi)
    assert dec.objective == F(121, 6)
    check_shape(psi, dec)


@pytest.mark.parametrize("at", ["full", "inner"])
def test_spoiled_lift_raises(at, monkeypatch):
    real = decompose._lift

    def spoiled(n, cliques, p):
        table = real(n, cliques, p)
        # phi1(J) off the certified value, or an inner value above phi1(J)
        table[-1 if at == "full" else 3] += 10**6
        return table

    monkeypatch.setattr(decompose, "_lift", spoiled)
    psi = cut_function(WeightedGraph.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1)]))
    with pytest.raises(ExactnessError):
        optimal_sum_decomposition(psi)
