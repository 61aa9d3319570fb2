"""Differential tests of the integer-scaled paths against plain Fraction loops.

The predicates, the coverage transform and the charge arithmetic scale a
table to ints over one common denominator.  These tests draw tables with
mixed denominators, some multiplied by 2^70, and compare each result with
a reference that does the same work in ``Fraction`` arithmetic.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from setdecomp import (
    Charge,
    GroundSet,
    SetFunction,
    canonical_dual,
    double_dual,
    dual_wrt,
    global_submodularity_check,
    is_decreasing,
    is_increasing,
    is_modular,
    is_submodular,
    is_supermodular,
    lower_charge,
    to_coefficients,
    upper_charge,
)
from setdecomp.coverage import basis_matrix_apply, inverse_matrix_apply

DENOMINATORS = (1, 2, 3, 7, 10**6 + 3, 2**61 - 1)
entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENOMINATORS))


def _coverage(ground, entries_drawn):
    """A coverage function from nonnegative coefficients, by the basis matrix."""
    alpha = tuple([Fraction(0)] + [abs(a) for a in entries_drawn])
    return list(basis_matrix_apply(ground, alpha).values)


@st.composite
def tables(draw, max_n=5):
    """Normalized tables: random, or a coverage function with one value
    nudged (or none), so that verdicts go both ways and witnesses can
    sit late in mask order."""
    ground = GroundSet(draw(st.integers(1, max_n)))
    scale = draw(st.sampled_from((1, 2**70)))
    raw = draw(st.lists(entries, min_size=ground.size - 1, max_size=ground.size - 1))
    if draw(st.booleans()):
        values = [Fraction(0)] + raw
    else:
        values = _coverage(ground, raw)
        values[draw(st.integers(1, ground.size - 1))] += draw(st.sampled_from((0, 0, 1, -1))) * draw(entries)
    return SetFunction(ground, [v * scale for v in values])


@st.composite
def coverage_tables(draw, max_n=5):
    """Coverage functions: normalized, nonnegative, increasing, submodular."""
    ground = GroundSet(draw(st.integers(1, max_n)))
    scale = draw(st.sampled_from((1, 2**70)))
    raw = draw(st.lists(entries, min_size=ground.size - 1, max_size=ground.size - 1))
    return SetFunction(ground, [v * scale for v in _coverage(ground, raw)])


# -- reference loops over Fraction values ---------------------------------


def ref_first_gap(vals, n, modular=False):
    for X in range(1 << n):
        outside = [u for u in range(n) if not X >> u & 1]
        for a in range(len(outside)):
            for v in outside[a + 1 :]:
                u = outside[a]
                gap = vals[X | 1 << u] + vals[X | 1 << v] - vals[X] - vals[X | 1 << u | 1 << v]
                if gap < 0 or (modular and gap != 0):
                    return X, u, v
    return None


def ref_first_drop(vals, n):
    for X in range(1 << n):
        for u in range(n):
            if not X >> u & 1 and vals[X] > vals[X | 1 << u]:
                return X, u
    return None


def charge_table(atoms, n):
    return [sum((atoms[i] for i in range(n) if x >> i & 1), Fraction(0)) for x in range(1 << n)]


# -- predicates ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(tables())
def test_predicates_match_fraction_loops(f):
    n, vals = f.ground.n, f.values
    neg = [-v for v in vals]
    expected = {
        is_submodular: ref_first_gap(vals, n),
        is_supermodular: ref_first_gap(neg, n),
        is_modular: ref_first_gap(vals, n, modular=True),
        is_increasing: ref_first_drop(vals, n),
        is_decreasing: ref_first_drop(neg, n),
    }
    for predicate, witness in expected.items():
        assert predicate(f) == (witness is None, witness), predicate.__name__
    assert is_submodular(f)[0] == global_submodularity_check(f)[0]


# -- coverage transform --------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(tables())
def test_to_coefficients_matches_inverse_matrix(f):
    coeffs = to_coefficients(f)
    assert coeffs.alpha == inverse_matrix_apply(f).alpha
    assert basis_matrix_apply(f.ground, coeffs.alpha) == f


# -- charges -------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(coverage_tables(), st.lists(entries, min_size=5, max_size=5))
def test_charges_match_closed_forms(f, extra):
    n, vals = f.ground.n, f.values
    full = f.ground.full_mask
    singles = [vals[1 << i] for i in range(n)]
    star = [vals[full ^ x] + u - vals[full] for x, u in enumerate(charge_table(singles, n))]
    assert list(canonical_dual(f).values) == star
    lower = [vals[full] - vals[full ^ 1 << i] for i in range(n)]
    assert list(lower_charge(f).atoms) == lower
    assert list(double_dual(f).values) == [v - a for v, a in zip(vals, charge_table(lower, n))]
    # any charge above the upper charge majorizes f
    eta = [s + abs(e) for s, e in zip(singles, extra)]
    eta_table = charge_table(eta, n)
    dual = [vals[full ^ x] + eta_table[x] - vals[full] for x in range(1 << n)]
    assert list(dual_wrt(f, Charge.of(f.ground, eta)).values) == dual
    assert list(upper_charge(f).as_set_function().values) == charge_table(singles, n)


@settings(max_examples=100, deadline=None)
@given(coverage_tables())
def test_canonical_dual_stays_in_the_domain(f):
    # why each charge operation checks its input once: f* is again
    # normalized, nonnegative, increasing and submodular, so the second
    # dual inside double_dual needs no check
    star = canonical_dual(f)
    assert star.values[0] == 0
    assert min(star.values) >= 0
    assert is_submodular(star) == (True, None)
    assert is_increasing(star) == (True, None)
