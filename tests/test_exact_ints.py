"""Differential tests of the integer-scaled paths against plain Fraction loops.

Every SetFunction carries its table scaled to ints over one common
denominator (``den`` and ``nums``), and the predicates, the coverage
transform and the charge arithmetic run on those ints.  These tests draw
tables with mixed denominators, some multiplied by 2^70, and compare each
result with a reference that does the same work in ``Fraction``
arithmetic.  They also check that a table is scaled once, when it is
built, that a table read once per distinct string gives what a read value
by value gives, and that the shape predicates build one step table per
function.
"""

import copy
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import setdecomp
from setdecomp import (
    Charge,
    GroundSet,
    SetFunction,
    canonical_dual,
    double_dual,
    dual_wrt,
    is_decreasing,
    is_increasing,
    is_modular,
    is_submodular,
    linear_combine,
    lower_charge,
    to_coefficients,
    upper_charge,
)
from setdecomp.cli import main
from conftest import random_coverage
from oracles import basis_matrix_apply, global_submodularity_check, inverse_matrix_apply, parse_per_value

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
def shape_tables(draw, max_n=8):
    """Tables on which each shape predicate holds or fails: a coverage
    function (submodular, increasing), its negation (supermodular,
    decreasing), a charge (modular), constant steps c|X| (modular, and
    monotone in the sign of c) or arbitrary values; scaled, then with one
    entry moved by 1, -1 or not at all.  Entries come from a seeded
    Random, since a table at n = 8 has 256 of them."""
    ground = GroundSet(draw(st.integers(1, max_n)))
    n, size = ground.n, ground.size
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))

    kind = draw(st.sampled_from(("arbitrary", "coverage", "negated coverage", "charge", "constant steps")))
    if kind == "arbitrary":
        values = [entry() for _ in range(size)]
    elif kind.endswith("coverage"):
        # weighted hyperedges; f(X) is the weight of those meeting X
        edges = [(rng.randrange(1, size), abs(entry())) for _ in range(rng.randint(0, 6))]
        values = [sum((w for e, w in edges if e & X), Fraction(0)) for X in range(size)]
        if kind == "negated coverage":
            values = [-v for v in values]
    elif kind == "charge":
        values = charge_table([entry() for _ in range(n)], n)
    else:
        step = entry()
        values = [step * X.bit_count() for X in range(size)]
    scale = draw(st.sampled_from((1, 2**70)))
    values = [v * scale for v in values]
    values[draw(st.integers(0, size - 1))] += draw(st.sampled_from((0, 1, -1)))
    return SetFunction(ground, values)


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


CARD = [X.bit_count() for X in range(64)]


@settings(max_examples=200, deadline=None)
@given(shape_tables())
@example(SetFunction(GroundSet(6), [3 * c - 2 for c in CARD]))  # modular, not normalized
@example(SetFunction(GroundSet(4), [(X & 1) - 2 * (X >> 3 & 1) + Fraction(1, 3) for X in range(16)]))  # modular, mixed signs
@example(SetFunction.zero(GroundSet(3)))
@example(SetFunction(GroundSet(5), [5] * 32))
@example(SetFunction(GroundSet(1), [0, 2]))
@example(SetFunction(GroundSet(1), [1, "-1/2"]))
@example(SetFunction(GroundSet(1), [7, 7]))
@example(SetFunction(GroundSet(3), [min(c, 2) for c in CARD[:8]]))
@example(SetFunction(GroundSet(3), [-c * c for c in CARD[:8]]))
@example(SetFunction(GroundSet(3), [0, 1, 1, 2, 1, 3, 2, 3]))  # not submodular on the pair {0, 2} alone
def test_predicates_match_fraction_loops(f):
    _assert_predicates_match_fraction_loops(f)
    if f.ground.n <= 5:  # the four-set oracle is O(4^n)
        assert is_submodular(f)[0] == global_submodularity_check(f)[0]


def _assert_predicates_match_fraction_loops(f, vals=None):
    n = f.ground.n
    vals = f.values if vals is None else vals
    neg = [-v for v in vals]
    expected = {
        "submodular": (is_submodular(f), ref_first_gap(vals, n)),
        "supermodular": (is_submodular(-f), ref_first_gap(neg, n)),
        "modular": (is_modular(f), ref_first_gap(vals, n, modular=True)),
        "increasing": (is_increasing(f), ref_first_drop(vals, n)),
        "decreasing": (is_decreasing(f), ref_first_drop(neg, n)),
    }
    for shape, (got, witness) in expected.items():
        assert got == (witness is None, witness), shape
    return {shape: got[0] for shape, (got, _) in expected.items()}


def test_predicates_match_fraction_loops_up_to_twelve_elements():
    # charge-tables runs at n = 9 and check --max-n reaches 16; a table
    # spoiled at its top mask puts the witness at the end of mask order,
    # and the pair tables fail at one pair only.  The loops read the
    # ints: over one positive denominator they compare as the Fractions
    # do, and Fraction sums would take seconds at n = 12
    seen = set()
    for n in range(9, 13):
        rng = random.Random(n)
        size, top = 1 << n, (1 << n) - 1
        card = [X.bit_count() for X in range(size)]
        atoms = [Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for _ in range(n)]
        edges = [(rng.randrange(1, size), rng.randint(1, 3)) for _ in range(4)]
        coverage = [sum(w for e, w in edges if e & X) for X in range(size)]
        pair = (1 if n % 2 else 1 << n - 2) | 1 << n - 1
        for values, spoil in (
            ([min(c, n // 2) for c in card], 1),  # concave of |X|: increasing, submodular
            ([-v for v in coverage], 0),  # decreasing, supermodular
            (charge_table(atoms, n), 0),  # modular
            ([2 * c for c in card], -3),  # constant steps, falling at the top
            # not submodular on the pair {0, n - 1} or {n - 2, n - 1} alone
            ([int(X & pair == pair) for X in range(size)], 0),
        ):
            values[top] += spoil
            f = SetFunction(GroundSet(n), values)
            seen.update(_assert_predicates_match_fraction_loops(f, f.nums).items())
    assert seen == {(shape, verdict) for shape, _ in seen for verdict in (True, False)}


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
    assert list(dual_wrt(f, Charge(f.ground, eta)).values) == dual
    assert list(upper_charge(f).as_set_function().values) == charge_table(singles, n)


@settings(max_examples=100, deadline=None)
@given(coverage_tables())
def test_canonical_dual_stays_in_the_domain(f):
    # f* is again normalized, nonnegative, increasing and submodular, so
    # canonical_dual accepts it and f** = (f*)* is defined
    star = canonical_dual(f)
    assert star.values[0] == 0
    assert min(star.values) >= 0
    assert is_submodular(star) == (True, None)
    assert is_increasing(star) == (True, None)


@settings(max_examples=100, deadline=None)
@given(coverage_tables())
def test_double_dual_is_the_dual_taken_twice(f):
    assert double_dual(f) == canonical_dual(canonical_dual(f))


# -- parsing a table -----------------------------------------------------


class _Str(str):
    pass


class _Liar(str):
    """Equal to every value and hashed alike, so a table of these read once
    per distinct value would read its first entry only."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


canonical_strings = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 12)),
)
other_strings = st.sampled_from(
    [" 3/4 ", "1.5", "+3", "\u0663", "2/4", "-0", "007", "1e3", "1/0", "0/0", "-3/0", "3/", "3/-4", "abc", ""]
)
other_values = st.one_of(
    st.sampled_from([1, True, 1.0, Fraction(1), 0, False, Fraction(1, 2), None]),
    st.builds(_Str, canonical_strings),
    st.builds(_Liar, canonical_strings),
)


@st.composite
def parse_tables(draw):
    """A ground set and a table drawn from a palette of up to six values:
    strings only, or strings mixed with ints, bools, floats, Fractions and
    str subclasses."""
    ground = GroundSet(draw(st.integers(1, 4)))
    strings = st.one_of(canonical_strings, other_strings)
    entry = st.one_of(strings, other_values) if draw(st.booleans()) else strings
    palette = draw(st.lists(entry, min_size=1, max_size=6))
    return ground, draw(st.lists(st.sampled_from(palette), min_size=ground.size, max_size=ground.size))


@settings(max_examples=300, deadline=None)
@given(parse_tables())
@example((GroundSet(2), [1, Fraction(1), 1.0, True]))
@example((GroundSet(2), ["1", 1, Fraction(1), True]))
@example((GroundSet(2), ["1", "1", _Liar("1/2"), _Liar("3")]))
@example((GroundSet(3), ["1/2", "1/2", "x", "1/2", "1/0", "1/0", "x", "1"]))
def test_each_distinct_string_is_read_as_every_value_is(table):
    ground, values = table
    try:
        expected = parse_per_value(values)
    except Exception as error:
        with pytest.raises(type(error)) as caught:
            SetFunction(ground, values)
        assert type(caught.value) is type(error) and str(caught.value) == str(error)
    else:
        f = SetFunction(ground, values)
        assert (f.den, f.nums) == expected


# -- the integer form of a table ------------------------------------------


def _check_integer_form(f):
    assert f.den == lcm(*(v.denominator for v in f.values))
    assert f.nums == tuple(v * f.den for v in f.values)
    assert all(type(v) is int for v in f.nums)


@settings(max_examples=200, deadline=None)
@given(tables(), st.integers(1, 10**30))
def test_integer_form_invariants(f, k):
    _check_integer_form(f)
    # any common denominator gives the same function: from_ints divides
    # out the common factor
    g = SetFunction.from_ints(f.ground, k * f.den, [k * v for v in f.nums])
    assert g == SetFunction(f.ground, f.values)
    assert (g.values, g.den, g.nums) == (f.values, f.den, f.nums)
    with pytest.raises(AttributeError):
        f.den = 1
    with pytest.raises(AttributeError):
        f.nums = ()


def test_integer_form_of_edge_tables():
    big = 2**61 - 1  # a prime
    for f in (
        SetFunction.zero(GroundSet(1)),
        SetFunction.zero(GroundSet(4)),
        SetFunction(GroundSet(1), [0, Fraction(1, big)]),
        SetFunction(GroundSet(2), [Fraction(-3, big), Fraction(1, 10**6 + 3), 5, Fraction(1, big * (10**6 + 3))]),
    ):
        _check_integer_form(f)
        assert SetFunction.from_ints(f.ground, 7 * f.den, [7 * v for v in f.nums]) == f
    assert SetFunction.zero(GroundSet(3)).den == 1
    assert SetFunction.from_ints(GroundSet(1), 6, [0, 4]).nums == (0, 2)
    for den, nums in ((0, [0, 1]), (-2, [0, 1]), (2, [0, 1, 2])):
        with pytest.raises(ValueError):
            SetFunction.from_ints(GroundSet(1), den, nums)


def ref_linear_combine(terms):
    ground = terms[0][1].ground
    values = [Fraction(0)] * ground.size
    for c, f in terms:
        for m, v in enumerate(f.values):
            values[m] += c * v
    return values


coefficients = st.one_of(st.just(Fraction(0)), entries, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_combine_matches_fraction_loop(data):
    f = data.draw(tables())
    others = [f] + [
        SetFunction(f.ground, data.draw(st.lists(entries, min_size=f.ground.size, max_size=f.ground.size)))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    terms = [(data.draw(coefficients), h) for h in others]
    combined = linear_combine(terms)
    assert list(combined.values) == ref_linear_combine(terms)
    _check_integer_form(combined)


# -- each table is scaled once ---------------------------------------------


# the library calls the charge-tables benchmark makes on each function
CHARGE_CALLS = (
    "is_submodular", "is_increasing", "to_coefficients",
    "upper_charge", "lower_charge", "canonical_dual", "double_dual",
)


@pytest.fixture
def scale_lengths(monkeypatch):
    """One entry per core._scale call: the length of the table it scales.

    That is the table of a SetFunction built from values, whose distinct
    strings alone reach _scale, or the values of a scale_to_ints call."""
    lengths, parsing = [], []
    original, init = setdecomp.core._scale, SetFunction.__init__

    def spy(pairs):
        lengths.append(parsing[-1] if parsing else len(pairs))
        return original(pairs)

    def parse(self, ground, values):
        parsing.append(len(values))
        try:
            init(self, ground, values)
        finally:
            parsing.pop()

    monkeypatch.setattr(setdecomp.core, "_scale", spy)
    monkeypatch.setattr(SetFunction, "__init__", parse)
    return lengths


def test_check_scales_its_table_once(tmp_path, capsys, rng, scale_lengths):
    f = random_coverage(rng, 6)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_json_dict()))
    scale_lengths.clear()
    assert main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 6
    assert scale_lengths.count(64) == 1


def test_coefficients_share_one_fraction_per_value(rng):
    alpha = to_coefficients(random_coverage(rng, 7)).alpha
    assert 1 < len(set(alpha)) < len(alpha) / 4
    assert len(set(map(id, alpha))) == len(set(alpha))


def test_charge_calls_scale_nothing(rng, scale_lengths):
    f = random_coverage(rng, 5)
    scale_lengths.clear()
    for name in CHARGE_CALLS:
        getattr(setdecomp, name)(f)
    assert scale_lengths == []


# -- one step table per function ------------------------------------------


KEPT = (is_submodular, is_modular, is_increasing, is_decreasing)


@pytest.fixture
def step_tables(monkeypatch):
    """The int tables core builds a step table from, one entry per step table."""
    built = []
    original = setdecomp.core._steps

    def spy(nums, n):
        built.append(nums)
        return original(nums, n)

    monkeypatch.setattr(setdecomp.core, "_steps", spy)
    return built


def test_charge_calls_decide_each_shape_once(rng, step_tables):
    f = random_coverage(rng, 5)
    for name in CHARGE_CALLS:
        getattr(setdecomp, name)(f)
    assert step_tables == [f.nums]


def test_verdicts_are_kept_per_function(step_tables):
    # concave and increasing in |X|: submodular and increasing, and the
    # other two fail with a witness
    values = [Fraction((0, 3, 5, 6, 6)[X.bit_count()], 3) * 2**70 for X in range(16)]
    f = SetFunction(GroundSet(4), values)
    first = [p(f) for p in KEPT]
    assert [verdict for verdict, _ in first] == [True, False, True, False]
    assert [p(f) for p in KEPT] == first
    assert step_tables == [f.nums]
    g = copy.copy(f)
    assert g == f and [p(g) for p in KEPT] == first
    assert len(step_tables) == 2
