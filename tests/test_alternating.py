import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from setdecomp import (
    CoverageCoefficients,
    EnumerationLimitError,
    ExactnessError,
    GroundSet,
    NotNormalizedError,
    Partition,
    SetFunction,
    alt_sum,
    cut_function,
    extremal,
    from_coefficients,
    is_infinite_alternating,
    is_k_alternating,
    is_submodular,
    is_increasing,
    is_weakly_infinite_alternating,
    is_weakly_k_alternating,
    linear_combine,
    make_ell_not_ell_plus_one,
    make_partition_matroid_rank,
    max_disjoint_alt_sum,
    popcount,
    to_coefficients,
    weak_violations,
)
from setdecomp import alternating, coverage
from conftest import random_coverage, random_graph, random_set_function
from oracles import (
    alt_sum_by_index_subsets,
    alt_sum_recursive_check,
    is_k_alternating_bruteforce,
    weak_violations_by_pairs,
)


def all_tuples(size: int, count: int):
    def rec(k):
        if k == 0:
            yield ()
            return
        for rest in rec(k - 1):
            for mask in range(size):
                yield rest + (mask,)

    return rec(count)


def test_alt_sum_matches_recursion_exhaustively():
    rng = random.Random(11)
    for n in (2, 3):
        f = random_set_function(rng, n)
        for k in (2, 3):
            for combo in all_tuples(f.ground.size, k + 1):
                a0, classes = combo[0], combo[1:]
                assert alt_sum(f, a0, classes) == alt_sum_recursive_check(f, a0, classes)


def test_alt_sum_matches_the_definition(rng):
    # classes drawn from every mask, so they overlap A0 and each other or are empty
    for n in (1, 3, 5):
        for _ in range(10):
            f = random_set_function(rng, n, normalized=False)
            for k in (1, 2, 3, 5):
                a0 = rng.randrange(f.ground.size)
                classes = [rng.choice([0, rng.randrange(f.ground.size)]) for _ in range(k)]
                assert alt_sum(f, a0, classes) == alt_sum_by_index_subsets(f.values, a0, classes)


def test_alt_sum_reductions(rng):
    # V is unchanged when each class is replaced by its part outside A0,
    # and vanishes whenever some class is empty
    for n in (3, 4):
        f = random_set_function(rng, n)
        for _ in range(50):
            a0 = rng.randrange(f.ground.size)
            classes = [rng.randrange(f.ground.size) for _ in range(3)]
            reduced = [c & ~a0 for c in classes]
            assert alt_sum(f, a0, classes) == alt_sum(f, a0, reduced)
            with_empty = classes[:2] + [0]
            assert alt_sum(f, a0, with_empty) == 0


def test_weak_checks_against_bruteforce(rng):
    for n in (3, 4):
        for _ in range(20):
            f = random_set_function(rng, n)
            for k in (2, 3):
                assert is_k_alternating(f, k)[0] == is_k_alternating_bruteforce(f, k)[0]


def test_weak_witness_is_a_violation(rng):
    found = 0
    while found < 10:
        f = random_set_function(rng, 4)
        ok, witness = is_weakly_k_alternating(f, 2)
        if ok:
            continue
        found += 1
        assert witness.value > 0
        assert witness.value == alt_sum(f, witness.a0, witness.classes)
        combined = witness.a0
        for c in witness.classes:
            assert c != 0
            assert combined & c == 0
            combined |= c


def test_requires_normalization():
    g = GroundSet(2)
    f = SetFunction(g, (1, 1, 1, 1))
    with pytest.raises(NotNormalizedError):
        is_weakly_k_alternating(f, 2)


def test_two_alternating_is_increasing_submodular(rng):
    for _ in range(40):
        f = random_set_function(rng, 4)
        expected = is_increasing(f)[0] and is_submodular(f)[0]
        assert is_k_alternating(f, 2)[0] == expected
        assert is_k_alternating(f, 1)[0] == is_increasing(f)[0]


def test_monotone_in_k(rng):
    for _ in range(10):
        f = random_coverage(rng, 4)
        held = True
        for k in range(1, 5):
            ok = is_k_alternating(f, k)[0]
            # once the property fails it must keep failing
            assert held or not ok
            held = ok


def test_max_disjoint_alt_sum_on_coverage(rng):
    # coverage functions never have a positive disjoint alternating sum
    for _ in range(10):
        f = random_coverage(rng, 4)
        m, _ = max_disjoint_alt_sum(f)
        assert m <= 0


def test_ell_not_ell_plus_one():
    for n, ell in ((3, 1), (3, 2), (4, 2)):
        g = GroundSet(n)
        x_mask = (1 << (ell + 1)) - 1
        f = make_ell_not_ell_plus_one(g, ell, x_mask)
        assert is_k_alternating(f, ell)[0]
        assert not is_k_alternating(f, ell + 1)[0]


def test_ell_not_ell_plus_one_matches_extremal_sum(rng):
    # reference: the indicators of the sets of size 1..ell added up, minus
    # the indicator of X
    for n in range(2, 7):
        g = GroundSet(n)
        for ell in range(1, n):
            x_mask = rng.choice([m for m in g.subsets() if popcount(m) == ell + 1])
            terms = [(1, extremal(g, a)) for a in g.nonempty_subsets() if popcount(a) <= ell]
            expected = linear_combine(terms + [(-1, extremal(g, x_mask))])
            assert make_ell_not_ell_plus_one(g, ell, x_mask) == expected


def test_partition_matroid_rank_is_coverage():
    g = GroundSet(4)
    p = Partition(g, (0b0011, 0b1100))
    r = make_partition_matroid_rank(p)
    assert r(0) == 0
    assert r(0b0001) == 1
    assert r(0b0011) == 1
    assert r(0b0111) == 2
    assert is_infinite_alternating(r)


def test_weakly_infinite_on_coverage_minus_charge(rng):
    from conftest import random_weakly_alternating

    for _ in range(10):
        f = random_weakly_alternating(rng, 4)
        assert is_weakly_infinite_alternating(f)[0]


def test_infinite_alternating_exact_class(rng):
    for _ in range(10):
        f = random_coverage(rng, 4)
        assert is_infinite_alternating(f)
    g = GroundSet(3)
    spiked = SetFunction(g, (0, 1, 1, 1, 1, 1, 1, Fraction(3, 2)))
    assert not is_infinite_alternating(spiked)


# -- the interval-sum decision path against the scanners ----------------

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def normalized_tables(draw, max_n=4):
    """Random normalized functions; half of them are coverage functions with
    a few negative coefficients, so violations show up at the higher levels."""
    ground = GroundSet(draw(st.integers(1, max_n)))
    entries = st.lists(small_rationals, min_size=ground.size - 1, max_size=ground.size - 1)
    if draw(st.booleans()):
        return SetFunction(ground, (Fraction(0),) + tuple(draw(entries)))
    alpha = [abs(a) if draw(st.integers(0, 4)) else -a for a in draw(entries)]
    return from_coefficients(CoverageCoefficients(ground, (Fraction(0),) + tuple(alpha)))


def disjoint_tuples(n, k):
    """Every assignment of the elements to A0, A1..Ak or none, with nonempty classes."""
    for code in range((k + 2) ** n):
        a0, classes = 0, [0] * k
        for e in range(n):
            code, d = divmod(code, k + 2)
            if d == 0:
                a0 |= 1 << e
            elif d <= k:
                classes[d - 1] |= 1 << e
        if all(classes):
            yield a0, classes


@settings(max_examples=150, deadline=None)
@given(normalized_tables())
def test_weak_violations_match_the_scanners(f):
    n = f.ground.n
    found = weak_violations(f)
    assert len(found) == n + 1 and found[0] is None
    for k in range(1, n + 1):
        weak = all(alt_sum(f, a0, classes) <= 0 for a0, classes in disjoint_tuples(n, k))
        assert (found[k] is None) == weak
        # levels 1..k hold together exactly when the kept scanner finds no positive sum
        assert all(w is None for w in found[1 : k + 1]) == (max_disjoint_alt_sum(f, k)[0] <= 0)
        witness = found[k]
        if witness is not None:
            assert len(witness.classes) == k
            assert all(popcount(c) == 1 and c & witness.a0 == 0 for c in witness.classes)
            assert len(set(witness.classes)) == k
            assert alt_sum(f, witness.a0, witness.classes) == witness.value > 0


@settings(max_examples=60, deadline=None)
@given(normalized_tables(max_n=3))
def test_k_alternating_matches_bruteforce(f):
    for k in (1, 2, 3):
        assert is_k_alternating(f, k)[0] == is_k_alternating_bruteforce(f, k)[0]


def test_split_blocks_match_one_block(rng, monkeypatch):
    # ground sets above _BLOCK_BITS elements are split into blocks by their
    # top elements; splitting small ones must give the same witnesses
    fs = [random_set_function(rng, n) for n in (3, 4, 5) for _ in range(4)]
    for n in (4, 5):
        for _ in range(4):
            alpha = [Fraction(rng.choice((0, 1, 2, 3, -1)), rng.randint(1, 3)) for _ in range(2**n - 1)]
            fs.append(from_coefficients(CoverageCoefficients(GroundSet(n), (Fraction(0),) + tuple(alpha))))
    fs.append(make_ell_not_ell_plus_one(GroundSet(5), 3, 0b1111))
    whole = [weak_violations(f) for f in fs]
    assert len({k for found in whole for k, w in enumerate(found) if w is not None}) >= 4
    monkeypatch.setattr(alternating, "_BLOCK_BITS", 1)
    assert [weak_violations(f) for f in fs] == whole


# -- the interval sums' diagonal and their negative entries ---------------

mixed_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def mixed_tables(draw, max_n=7):
    """Normalized functions on 1..max_n elements, values with mixed denominators."""
    ground = GroundSet(draw(st.integers(1, max_n)))
    entries = st.lists(mixed_rationals, min_size=ground.size - 1, max_size=ground.size - 1)
    return SetFunction(ground, (Fraction(0),) + tuple(draw(entries)))


def coefficient_ints(f):
    """den * alpha from to_coefficients, each checked to be an int."""
    scaled = [a * f.den for a in to_coefficients(f).alpha]
    assert all(a.denominator == 1 for a in scaled)
    return [int(a) for a in scaled]


@settings(max_examples=50, deadline=None)
@given(st.one_of(mixed_tables(), normalized_tables(max_n=7)))
def test_interval_diagonal_is_the_coefficient_table(f):
    found, alpha = alternating._weak_pass(f)
    assert all(type(a) is int for a in alpha)
    assert alpha == coefficient_ints(f) == coverage._coefficient_ints(f)
    assert found == weak_violations(f)
    assert is_infinite_alternating(f) == (min(to_coefficients(f).alpha) >= 0)


def violating_functions(rng):
    """Cut, ell-not-(ell+1) and negative-coefficient functions on 3..8 elements."""
    fs = [cut_function(random_graph(rng, n, 0.6)) for n in (3, 5, 6, 7, 8)]
    for n, ell in ((4, 1), (6, 3), (7, 5), (8, 2), (8, 6)):
        fs.append(make_ell_not_ell_plus_one(GroundSet(n), ell, ((1 << ell + 1) - 1) << (n - ell - 1)))
    for n in (4, 6, 8):
        alpha = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(2**n)]
        alpha[0] = Fraction(0)
        for mask in rng.sample(range(1, 2**n), 2):
            alpha[mask] = -Fraction(rng.randint(1, 5), rng.randint(1, 3))
        fs.append(from_coefficients(CoverageCoefficients(GroundSet(n), tuple(alpha))))
    return fs


def test_negative_sums_give_the_pair_scans_violations(rng, monkeypatch):
    fs = violating_functions(rng)
    whole = [alternating._weak_pass(f) for f in fs]
    for f, (found, alpha) in zip(fs, whole):
        assert found == weak_violations_by_pairs(f)
        assert alpha == coefficient_ints(f)
    assert {k for found, _ in whole for k, w in enumerate(found) if w is not None} >= {1, 2, 3, 4, 6, 7}
    # split into blocks by the top elements: same violations, same diagonal
    monkeypatch.setattr(alternating, "_BLOCK_BITS", 2)
    assert [alternating._weak_pass(f) for f in fs] == whole
    assert all(weak_violations_by_pairs(f) == found for f, (found, _) in zip(fs, whole))


def test_a_spoiled_diagonal_entry_fails_the_round_trip():
    f = make_ell_not_ell_plus_one(GroundSet(5), 2, 0b10101)
    alpha = alternating._weak_pass(f)[1]
    assert coverage._coefficient_ints(f, alpha) == alpha
    for mask in (1, 0b10101, 0b11111):
        spoiled = list(alpha)
        spoiled[mask] += 1
        with pytest.raises(ExactnessError):
            coverage._coefficient_ints(f, spoiled)


def test_decision_functions_read_the_levels(rng):
    for _ in range(20):
        f = random_set_function(rng, 4)
        found = weak_violations(f)
        for k in range(1, 5):
            assert is_weakly_k_alternating(f, k) == (found[k] is None, found[k])
        # no disjoint tuple has more nonempty classes than there are elements
        assert is_weakly_k_alternating(f, 5) == (True, None)
        first = next((w for w in found[2:] if w is not None), None)
        assert is_weakly_infinite_alternating(f) == (first is None, first)


def test_max_disjoint_alt_sum_beyond_int64(rng):
    # values past 2^64 stay exact
    for _ in range(5):
        f = random_set_function(rng, 3)
        big = SetFunction(f.ground, tuple(v * 2**70 for v in f.values))
        m, tuple_ = max_disjoint_alt_sum(f)
        assert max_disjoint_alt_sum(big) == (m * 2**70, tuple_)


def assert_attains(f, k_max, m, tuple_):
    a0, classes = tuple_
    assert 1 <= len(classes) <= k_max and all(classes)
    union = a0
    for c in classes:
        assert c & union == 0
        union |= c
    assert alt_sum_by_index_subsets(f.values, a0, classes) == m


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("at_guard", [False, True])
def test_max_disjoint_alt_sum_at_the_int64_guard(rng, k, at_guard):
    # max |numerator| << k at 2^62 and just below it: level-k sums straddle
    # the int64 range and must match an exhaustive alt_sum enumeration
    top = (1 << (62 - k)) - (0 if at_guard else 1)
    for n in range(1, 4):
        for _ in range(4):
            vals = [0] + [rng.randint(-top, top) for _ in range((1 << n) - 1)]
            vals[rng.randrange(1, 1 << n)] = rng.choice([top, -top])
            f = SetFunction(GroundSet(n), vals)
            m, tuple_ = max_disjoint_alt_sum(f, k)
            assert m == max(
                alt_sum(f, a, c) for level in range(1, k + 1) for a, c in disjoint_tuples(n, level)
            )
            assert_attains(f, k, m, tuple_)


def test_max_disjoint_alt_sum_matches_exhaustive_enumeration(rng):
    for n in range(1, 6):
        for _ in range(3):
            f = random_set_function(rng, n)
            level_max = [max(alt_sum(f, a, c) for a, c in disjoint_tuples(n, k)) for k in range(1, n + 1)]
            for k_max in range(1, n + 1):
                m, tuple_ = max_disjoint_alt_sum(f, k_max)
                assert m == max(level_max[:k_max])
                assert_attains(f, k_max, m, tuple_)


def test_disjoint_tuples_order_and_count():
    # element e goes to A0, to no set, to an open class or to a new class, in that order
    assert list(alternating._disjoint_tuples(2, 2)) == [
        (0b01, (0b10,)),
        (0b00, (0b10,)),
        (0b10, (0b01,)),
        (0b00, (0b01,)),
        (0b00, (0b11,)),
        (0b00, (0b01, 0b10)),
    ]
    for n in range(7):
        for k_max in range(1, n + 2):
            tuples = list(alternating._disjoint_tuples(n, k_max))
            assert len(tuples) == len(set(tuples)) == alternating._tuple_count(n, k_max)
    assert [alternating._tuple_count(n, n) for n in (6, 9, 10)] == [3199, 562083, 3534003]


def test_max_disjoint_alt_sum_tie_break():
    # -1 on every nonempty set: V = 1 exactly when A0 is empty, so every such
    # tuple ties and the first one in enumeration order is returned
    f = SetFunction(GroundSet(3), [0] + [-1] * 7)
    assert max_disjoint_alt_sum(f) == (1, (0, (0b100,)))


def test_max_disjoint_alt_sum_caps_k_max_at_n(rng):
    for n in range(1, 5):
        f = random_set_function(rng, n)
        assert max_disjoint_alt_sum(f, n + 20) == max_disjoint_alt_sum(f)
    with pytest.raises(ValueError):
        max_disjoint_alt_sum(f, 0)


def test_max_disjoint_alt_sum_refuses_before_enumerating(rng, monkeypatch):
    f = random_set_function(rng, 4)
    expected = max_disjoint_alt_sum(f)
    calls = []
    real = alternating._disjoint_tuples

    def spy(n, k_max):
        calls.append((n, k_max))
        return real(n, k_max)

    monkeypatch.setattr(alternating, "_disjoint_tuples", spy)
    monkeypatch.setattr(alternating, "ENUMERATION_LIMIT", 134)
    with pytest.raises(EnumerationLimitError, match="135 tuples"):
        max_disjoint_alt_sum(f)
    assert calls == []
    monkeypatch.setattr(alternating, "ENUMERATION_LIMIT", 135)
    assert max_disjoint_alt_sum(f) == expected
    assert calls == [(4, 4)]
