import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from setdecomp import (
    Charge,
    GroundSet,
    GroundSetError,
    Partition,
    PartitionError,
    SetFunction,
    format_rational,
    is_decreasing,
    is_increasing,
    is_modular,
    is_submodular,
    linear_combine,
    norm_inf,
    quotient,
    symmetrize,
    to_rational,
)
from setdecomp import core
from setdecomp.core import _fractions
from conftest import random_coverage, random_set_function
from oracles import global_submodularity_check, is_modular_on_pair


def test_ground_set_limits():
    GroundSet(1)
    GroundSet(16)
    with pytest.raises(GroundSetError):
        GroundSet(0)
    with pytest.raises(GroundSetError):
        GroundSet(17)
    # the size must be an int: a bool or a float is not read as one
    for size in (True, 2.0, "2"):
        with pytest.raises(GroundSetError, match="int"):
            GroundSet(size)


def test_to_rational_refuses_bool():
    assert to_rational(1) == 1 and to_rational("1/2") == Fraction(1, 2)
    for x in (True, False, 0.5):
        with pytest.raises(TypeError):
            to_rational(x)


@pytest.mark.parametrize(
    "values", ["0123", b"0123", {0: "5", 1: "5", 2: "5", 3: "5"}], ids=["str", "bytes", "mapping"]
)
def test_a_string_bytes_or_mapping_is_not_a_table(values):
    # read item by item, these would be the characters, the bytes or the keys
    with pytest.raises(TypeError, match="sequence"):
        SetFunction(GroundSet(2), values)
    with pytest.raises(TypeError, match="sequence"):
        SetFunction.cardinality_based(GroundSet(3), values)


@pytest.mark.parametrize(
    "value", ["2/4", "-0", "007", "-12/8", " 3/4 ", "1.5", "1e3", "+3", "\u0663", 5, Fraction(3, 9)]
)
def test_values_read_as_the_fraction_constructor_reads_them(value):
    # canonical strings are read with int(); the others go to Fraction
    expected = Fraction(value)
    assert to_rational(value) == expected and type(to_rational(value)) is Fraction
    f = SetFunction(GroundSet(1), [Fraction(1, 3), value])
    assert f.values == (Fraction(1, 3), expected)
    assert all(type(v) is Fraction for v in f.values)
    assert (f.den, f.nums) == (lcm(3, expected.denominator), tuple(v * f.den for v in f.values))


@pytest.mark.parametrize(
    "value, error",
    [("1/0", ZeroDivisionError), ("3/", ValueError), ("3/-4", ValueError), ("abc", ValueError),
     ("", ValueError), (True, TypeError), (1.5, TypeError)],
)
def test_bad_values_raise_as_the_fraction_constructor_does(value, error):
    for read in (to_rational, lambda v: SetFunction(GroundSet(1), [0, v])):
        with pytest.raises(Exception) as caught:
            read(value)
        assert type(caught.value) is error


def test_fractions_match_the_fraction_constructor():
    # _fractions sets the two slots of each Fraction itself: each entry must
    # be the Fraction the constructor gives, down to its type, terms and hash
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert not hasattr(Fraction(1), "__dict__")  # so a renamed slot raises
    rng = random.Random(12)
    for den in (1, 10**9 + 7, 2**70 * 3):
        nums = [0, 1, -1, den, -den, 2 * den, -3 * den]
        nums += [rng.randint(-(10**6), 10**6) * rng.choice((1, 3, 2**70, den)) for _ in range(300)]
        got, want = _fractions(den, nums), tuple(Fraction(v, den) for v in nums)
        assert type(got) is tuple and got == want
        assert all(type(x) is Fraction for x in got)
        assert [(x.numerator, x.denominator, hash(x)) for x in got] == [
            (x.numerator, x.denominator, hash(x)) for x in want
        ]


def test_copies_and_pickles_round_trip():
    f = SetFunction(GroundSet(3), [0, "1/2", 1, "3/2", 2, "5/2", 3, "-7/2"])
    verdict = is_submodular(f)
    assert f._verdicts
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and g is not f
        assert (g.values, g.den, g.nums) == (f.values, f.den, f.nums)
        assert g._verdicts == {}
        assert is_submodular(g) == verdict


def test_values_is_a_view_built_once_from_the_ints():
    ground = GroundSet(3)
    parsed = SetFunction(ground, [0, "1/2", 1, "3/2", 2, "-5/3", 3, 7])
    made = SetFunction.from_ints(ground, 12, [0, 6, 12, 18, 24, -20, 36, 84])
    assert parsed._values is None and made._values is None
    view = parsed.values
    # copies and pickles are rebuilt from the ints, without the view
    copies = [copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))]
    for f in [parsed, made] + copies:
        bare = copy.copy(f)
        assert bare._values is None
        got = f.values
        assert got == _fractions(f.den, f.nums) == view
        assert all(type(x) is Fraction for x in got)
        assert f.values is got and f._values is got
        # equality and hashing read the ints, view or no view
        assert f == bare and hash(f) == hash(bare) and bare._values is None
        for name in ("values", "_values"):
            with pytest.raises(AttributeError):
                setattr(f, name, got)
        assert f.values is got


def test_ground_set_masks():
    g = GroundSet(3)
    assert g.full_mask == 0b111
    assert g.size == 8
    assert list(g.subsets()) == list(range(8))
    with pytest.raises(GroundSetError):
        g.check_mask(0b1000)


def test_bool_masks_are_refused():
    g = GroundSet(2)
    f = SetFunction(g, (0, 1, 1, 2))
    for call in (
        lambda mask: f(mask),
        lambda mask: Charge(g, [1, 1])(mask),
        lambda mask: is_modular_on_pair(f, mask, 0),
        lambda mask: is_modular_on_pair(f, 0, mask),
    ):
        assert call(1) == call(1)  # the int mask is accepted
        for mask in (True, False):
            with pytest.raises(GroundSetError, match="invalid subset mask"):
                call(mask)


def test_set_function_arithmetic():
    g = GroundSet(2)
    f = SetFunction(g, (0, 1, 2, 3))
    h = SetFunction(g, (0, 1, 1, 1))
    assert (f + h).values == (0, 2, 3, 4)
    assert (f - h).values == (0, 0, 1, 2)
    assert (-f).values == (0, -1, -2, -3)
    assert f.scale(Fraction(1, 2)).values == (0, Fraction(1, 2), 1, Fraction(3, 2))
    assert f.shift(1).values == (1, 2, 3, 4)
    assert f.shift(1).normalize_at_empty() == f


def test_cardinality_based():
    g = GroundSet(3)
    f = SetFunction.cardinality_based(g, (0, 2, 3, 3))
    assert f(0b000) == 0
    assert f(0b010) == 2
    assert f(0b110) == 3
    assert f(0b111) == 3


def test_json_round_trip():
    g = GroundSet(2)
    f = SetFunction(g, (0, Fraction(1, 3), -2, Fraction(7, 2)))
    assert SetFunction.from_json_dict(f.to_json_dict()) == f


def test_rational_formatting():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert to_rational("3/6") == Fraction(1, 2)
    with pytest.raises(ValueError):
        to_rational("0.5x")


def test_submodularity_predicates():
    g = GroundSet(3)
    # |X| is modular, min(|X|, 2) is submodular, |X|^2 is supermodular
    card = SetFunction.from_callable(g, lambda m: Fraction(bin(m).count("1")))
    capped = SetFunction.from_callable(g, lambda m: Fraction(min(bin(m).count("1"), 2)))
    squared = SetFunction.from_callable(g, lambda m: Fraction(bin(m).count("1") ** 2))
    assert is_modular(card)[0]
    assert is_submodular(capped)[0]
    assert not is_submodular(squared)[0]
    assert is_submodular(-squared)[0]  # supermodular
    ok, witness = is_submodular(squared)
    assert not ok and witness is not None
    x, u, v = witness
    lhs = squared(x | 1 << u) + squared(x | 1 << v)
    rhs = squared(x | 1 << u | 1 << v) + squared(x)
    assert lhs < rhs


def test_monotonicity_predicates():
    g = GroundSet(3)
    card = SetFunction.from_callable(g, lambda m: Fraction(bin(m).count("1")))
    assert is_increasing(card)[0]
    assert not is_decreasing(card)[0]
    assert is_decreasing(-card)[0]
    ok, witness = is_increasing(-card)
    assert not ok
    x, u = witness
    assert (-card)(x | 1 << u) < (-card)(x)


def is_supermodular(f):
    return is_submodular(-f)


PREDICATES = (is_submodular, is_supermodular, is_increasing, is_decreasing, is_modular)


CHECK_SHAPES = {
    "increasing": is_increasing,
    "decreasing": is_decreasing,
    "modular": is_modular,
    "submodular": is_submodular,
}


def test_one_step_table_decides_the_four_shapes(rng, monkeypatch):
    card = [bin(m).count("1") for m in range(64)]
    tables = [
        SetFunction(GroundSet(6), [3 * c - 2 for c in card]),  # modular, not normalized
        SetFunction(GroundSet(4), [(m & 1) - 2 * (m >> 3 & 1) + Fraction(1, 3) for m in range(16)]),  # modular, mixed signs
        SetFunction.zero(GroundSet(3)),
        SetFunction(GroundSet(5), [5] * 32),
        SetFunction(GroundSet(1), [0, 2]),
        SetFunction(GroundSet(1), [1, "-1/2"]),
        SetFunction(GroundSet(1), [7, 7]),
        SetFunction(GroundSet(3), [min(c, 2) for c in card[:8]]),
        SetFunction(GroundSet(3), [-c * c for c in card[:8]]),
    ]
    tables += [random_set_function(rng, n, normalized=False) for n in (1, 2, 3, 5, 6) for _ in range(3)]
    tables += [random_coverage(rng, n) for n in (2, 4, 6)]
    tables += [-random_coverage(rng, 5), random_coverage(rng, 4).shift(-1)]
    built = []
    original = core._steps

    def spy(nums, n):
        built.append(n)
        return original(nums, n)

    monkeypatch.setattr(core, "_steps", spy)
    seen = set()
    for f in tables:
        alone = {shape: predicate(copy.copy(f)) for shape, predicate in CHECK_SHAPES.items()}
        del built[:]
        together = {shape: predicate(f) for shape, predicate in CHECK_SHAPES.items()}
        # the four shapes come from one step table, kept on f
        assert built == [f.ground.n]
        assert {shape: verdict for shape, (verdict, _) in together.items()} == f._verdicts
        assert together == alone
        seen.update((shape, verdict) for shape, (verdict, _) in together.items())
    assert seen == {(shape, verdict) for shape in CHECK_SHAPES for verdict in (True, False)}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.integers(-2, 2), min_size=2**n, max_size=2**n)))
def test_predicates_answer_alike_in_every_call_order(values):
    # few distinct values, so ties and modular tables are common; the
    # first predicate called decides the four kept shapes, so each order
    # starts the decision from a different predicate
    ground = GroundSet(len(values).bit_length() - 1)
    alone = [p(SetFunction(ground, values)) for p in PREDICATES]
    for order in itertools.permutations(range(len(PREDICATES))):
        f = SetFunction(ground, values)
        answers = {i: PREDICATES[i](f) for i in order}
        assert [answers[i] for i in range(len(PREDICATES))] == alone, order
        assert sorted(f._verdicts) == ["decreasing", "increasing", "modular", "submodular"]
        # asked again, the kept verdicts give the same answers
        assert [p(f) for p in PREDICATES] == alone


def test_global_submodularity_agrees_with_local():
    rng = random.Random(5)
    for _ in range(50):
        f = random_set_function(rng, 4)
        assert global_submodularity_check(f)[0] == is_submodular(f)[0]


def test_modular_on_pair():
    g = GroundSet(2)
    f = SetFunction(g, (0, 1, 1, 2))
    assert is_modular_on_pair(f, 0b01, 0b10)
    h = SetFunction(g, (0, 1, 1, 3))
    assert not is_modular_on_pair(h, 0b01, 0b10)


def test_norm_inf():
    g = GroundSet(2)
    f = SetFunction(g, (0, Fraction(-5, 2), 1, 2))
    assert norm_inf(f) == Fraction(5, 2)


def test_linear_combine():
    g = GroundSet(2)
    f = SetFunction(g, (0, 1, 2, 3))
    h = SetFunction(g, (0, 1, 1, 1))
    combo = linear_combine([(2, f), (-1, h)])
    assert combo.values == (0, 1, 3, 5)


def test_partition_validation():
    g = GroundSet(4)
    Partition(g, (0b0011, 0b1100))
    with pytest.raises(PartitionError):
        Partition(g, (0b0011, 0b0110))  # overlap
    with pytest.raises(PartitionError):
        Partition(g, (0b0011,))  # does not cover


def test_quotient_round_trip():
    g = GroundSet(4)
    f = SetFunction.from_callable(g, lambda m: Fraction(bin(m).count("1") ** 2))
    p = Partition(g, (0b0011, 0b0100, 0b1000))
    q = quotient(f, p)
    assert q.ground.n == 3
    # each quotient value is f evaluated at the union of the chosen classes
    for mask in range(8):
        union = 0
        for i, cls in enumerate(p.classes):
            if mask >> i & 1:
                union |= cls
        assert q(mask) == f(union)
    # quotient by singletons is the identity
    assert quotient(f, Partition.singletons(g)).values == f.values


def test_shift_and_symmetrize_match_fraction_sums(rng):
    for n in range(1, 6):
        f = random_set_function(rng, n, normalized=False)
        full = f.ground.full_mask
        for c in (0, 3, Fraction(-5, 6), "7/4", Fraction(1, 10**6 + 3)):
            r = to_rational(c)
            assert f.shift(c) == SetFunction(f.ground, [v + r for v in f.values])
            sym = [f.values[m] + f.values[full ^ m] + r for m in f.ground.subsets()]
            assert symmetrize(f, c) == SetFunction(f.ground, sym)
    for bad in (True, 1.5):
        with pytest.raises(TypeError):
            f.shift(bad)
        with pytest.raises(TypeError):
            symmetrize(f, bad)


def test_symmetrize():
    g = GroundSet(3)
    f = SetFunction(g, (0, 1, 2, 3, 0, 1, 2, 3))
    s = symmetrize(f)
    for mask in range(8):
        assert s(mask) == f(mask) + f(g.full_mask & ~mask)
    shifted = symmetrize(f, shift=-3)
    assert shifted(0) == f(0) + f(g.full_mask) - 3
