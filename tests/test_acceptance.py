"""Acceptance gate: one test per criterion, exact rational comparisons.

Every assertion is an exact equality or inequality over Fraction values;
no floating point and no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import combinations

from setdecomp import (
    Charge,
    GroundSet,
    SetFunction,
    c_bounded_feasible,
    canonical_dual,
    clique_bound,
    complete_bipartite,
    complete_minus_edge,
    counterexample_diff,
    counterexample_sum,
    cut_function,
    cycle,
    is_increasing,
    is_infinite_alternating,
    is_submodular,
    lower_charge,
    max_cut,
    nu_star_bound,
    optimal_diff_decomposition,
    optimal_sum_decomposition,
    path,
    triangle_lps,
    upper_charge,
    verify_lower_charge_maximality,
    verify_seven_bound,
    wheel,
)
from setdecomp.alternating import alt_sum, is_weakly_k_alternating
from setdecomp.coverage import (
    diff_decompose_canonical,
    diff_decompose_uniform,
    extremal,
    from_coefficients,
    to_coefficients,
)
from conftest import (
    random_coverage,
    random_graph,
    random_set_function,
    random_weakly_alternating,
)
from oracles import basis_matrix_apply, inverse_matrix_apply

F = Fraction


def test_criterion_01_wheel_formula():
    for n in (5, 6, 7):
        dec = optimal_sum_decomposition(cut_function(wheel(n)))
        assert dec.objective == F(3 * (n - 1), 2)


def test_criterion_02_triangle_free_equality():
    for g, expected in ((cycle(5), 5), (path(4), 3), (complete_bipartite(3, 3), 9)):
        dec = optimal_sum_decomposition(cut_function(g))
        assert dec.objective == expected
        assert g.total_weight() == expected


def test_criterion_03_k7_minus_edge():
    g = complete_minus_edge(7)
    assert max_cut(g)[0] == 12
    assert clique_bound(g) == F(25, 2)


def test_criterion_04_counterexample_lower_bounds():
    for n in (2, 3):
        psi = counterexample_sum(n)
        assert optimal_sum_decomposition(psi).objective >= n
    feasible, _ = c_bounded_feasible(counterexample_sum(3), "sum", F(2))
    assert not feasible
    for n in (3, 4):
        phi = counterexample_diff(n)
        dec = optimal_diff_decomposition(phi)
        assert dec.phi2(phi.ground.full_mask) >= n


def test_criterion_05_coverage_round_trip_and_recognizer():
    rng = random.Random(501)
    for n in range(3, 9):
        for _ in range(1000):
            f = random_set_function(rng, n)
            coeffs = to_coefficients(f)
            assert from_coefficients(coeffs) == f
    # fast Möbius route against the naive matrix route
    rng = random.Random(502)
    for n in range(3, 7):
        for _ in range(50):
            f = random_set_function(rng, n)
            coeffs = to_coefficients(f)
            assert inverse_matrix_apply(f).alpha == coeffs.alpha
            assert basis_matrix_apply(f.ground, coeffs.alpha) == f
    # recognizer against exhaustive weak checks
    rng = random.Random(503)
    for n in range(3, 6):
        samples = [random_set_function(rng, n) for _ in range(60)]
        samples += [random_coverage(rng, n) for _ in range(40)]
        for f in samples:
            strong = is_infinite_alternating(f)
            weak_all = all(
                is_weakly_k_alternating(f, k)[0] for k in range(1, n + 1)
            )
            assert strong == weak_all


def test_criterion_06_diff_decompositions():
    rng = random.Random(601)
    for _ in range(200):
        n = rng.randint(3, 6)
        f = random_set_function(rng, n)
        for f1, f2 in (
            diff_decompose_canonical(f),
            diff_decompose_uniform(f)[:2],
        ):
            assert f1 - f2 == f
            assert is_infinite_alternating(f1)
            assert is_infinite_alternating(f2)


def test_criterion_07_seven_bound():
    rng = random.Random(701)
    for _ in range(500):
        n = rng.randint(3, 6)
        psi = random_weakly_alternating(rng, n)
        report = verify_seven_bound(psi)
        assert report.checks["norm_dominates_gap"]
        assert report.checks["norm_dominates_combination"]
        assert report.checks["phi_six_bound"]
        assert report.checks["mu_seven_bound"]


def test_criterion_08_envelope_dual_suite():
    rng = random.Random(801)
    # minimality of the upper charge among majorizing nonnegative charges
    for _ in range(100):
        n = rng.randint(3, 5)
        f = random_coverage(rng, n)
        base = upper_charge(f)
        bumped = Charge(
            f.ground,
            tuple(a + F(rng.randint(0, 4), 3) for a in base.atoms),
        )
        for x in f.ground.subsets():
            assert bumped(x) >= f(x)
            assert bumped(x) >= base(x)
    # closed-form lower charge equals the LP maximality oracle
    for _ in range(200):
        n = rng.randint(3, 5)
        f = random_coverage(rng, n)
        assert verify_lower_charge_maximality(f)
        low = lower_charge(f)
        shifted = f - low.as_set_function()
        assert is_increasing(shifted)[0]


def _check_identities(g, rng, exhaustive):
    n = g.n
    subsets = list(g.subsets())

    def pick():
        return rng.choice(subsets)

    if exhaustive:
        triples = [(a, b, c) for a in subsets for b in subsets for c in subsets]
    else:
        triples = [(pick(), pick(), pick()) for _ in range(200)]

    f = random_set_function(rng, n)
    for a0, a1, a2 in triples:
        # recursion: one extra class splits off as a difference
        assert alt_sum(f, a0, (a1, a2)) == alt_sum(f, a0, (a1,)) - alt_sum(
            f, a0 | a2, (a1,)
        )
        # classes may be replaced by their parts outside the base set
        assert alt_sum(f, a0, (a1, a2)) == alt_sum(
            f, a0, (a1 & ~a0, a2 & ~a0)
        )
        # an empty class forces the sum to vanish
        assert alt_sum(f, a0, (a1, 0)) == 0

    # extremal value table
    masks = subsets if exhaustive else [pick() for _ in range(8)]
    for a in masks:
        if a == 0:
            continue
        phi_a = extremal(g, a)
        for a0, a1, a2 in triples[: 500 if exhaustive else 200]:
            value = alt_sum(phi_a, a0, (a1, a2))
            if a0 & a == 0 and a1 & a and a2 & a:
                assert value == -1
            else:
                assert value == 0

    # cardinality-based functions reduce to discrete derivatives
    gvals = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n + 1)]
    card = SetFunction.from_callable(g, lambda m: gvals[bin(m).count("1")])

    def delta(k, i):
        if k == 0:
            return gvals[i]
        return delta(k - 1, i + 1) - delta(k - 1, i)

    for a0 in subsets:
        free = [i for i in range(n) if not a0 >> i & 1]
        for k in range(1, len(free) + 1):
            for singles in combinations(free, k):
                classes = tuple(1 << i for i in singles)
                expected = (-1) ** k * delta(k, bin(a0).count("1"))
                assert alt_sum(card, a0, classes) == expected


def test_criterion_09_alternating_identities():
    rng = random.Random(901)
    for n in (2, 3, 4):
        _check_identities(GroundSet(n), rng, exhaustive=True)
    for n in (5, 6):
        _check_identities(GroundSet(n), rng, exhaustive=False)
    # monotonicity: k-alternating implies every lower order
    from setdecomp.alternating import is_k_alternating, make_ell_not_ell_plus_one

    f = make_ell_not_ell_plus_one(GroundSet(4), 3, 0b1111)
    levels = [is_k_alternating(f, k)[0] for k in range(1, 5)]
    assert levels == [True, True, True, False]
    # equivalences at k = 1 and k = 2
    for _ in range(30):
        h = random_set_function(rng, 4)
        assert is_k_alternating(h, 1)[0] == is_increasing(h)[0]
        assert is_k_alternating(h, 2)[0] == (
            is_increasing(h)[0] and is_submodular(h)[0]
        )


def test_criterion_10_bound_ordering():
    rng = random.Random(1001)
    for _ in range(100):
        n = rng.randint(3, 6)
        g = random_graph(rng, n)
        plus = optimal_sum_decomposition(cut_function(g)).objective
        cb = clique_bound(g)
        nb = nu_star_bound(g)
        assert plus <= cb <= nb
        tri = triangle_lps(g)
        assert tri.nu_star == tri.tau_star
        assert nb == g.total_weight() - tri.nu_star
