import random
from collections import Counter
from fractions import Fraction

import pytest

from setdecomp import (
    Charge,
    GroundSet,
    PreconditionError,
    SetFunction,
    canonical_dual,
    double_dual,
    dual_wrt,
    is_decreasing,
    is_increasing,
    is_submodular,
    lower_charge,
    upper_charge,
    verify_lower_charge_maximality,
)
from setdecomp import charges, simplex
from conftest import random_coverage, random_nonneg_charge, random_set_function
from oracles import free_charge_lp


def majorizes(charge, f):
    return all(charge(x) >= f(x) for x in f.ground.subsets())


def test_upper_charge_is_singleton_sums(rng):
    f = random_coverage(rng, 4)
    c = upper_charge(f)
    for e in range(4):
        assert c.atoms[e] == f(1 << e)
    assert c(0b1011) == f(1) + f(2) + f(8)


def test_upper_charge_majorizes_submodular(rng):
    for _ in range(20):
        f = random_coverage(rng, 4)
        assert majorizes(upper_charge(f), f)


def test_upper_charge_minimal_among_majorizing(rng):
    # any charge that majorizes a normalized submodular f dominates the
    # upper charge on every set
    for _ in range(30):
        f = random_coverage(rng, 4)
        c = upper_charge(f)
        other = Charge(
            f.ground,
            tuple(c.atoms[e] + Fraction(rng.randint(0, 3), 2) for e in range(4)),
        )
        assert majorizes(other, f)
        for x in f.ground.subsets():
            assert other(x) >= c(x)


def test_canonical_dual_formula(rng):
    for _ in range(20):
        f = random_coverage(rng, 3)
        g = canonical_dual(f)
        c = upper_charge(f)
        full = f.ground.full_mask
        for x in f.ground.subsets():
            assert g(x) == f(full ^ x) + c(x) - f(full)


def test_dual_preserves_increasing_submodular(rng):
    for _ in range(20):
        f = random_coverage(rng, 4)
        g = canonical_dual(f)
        assert g(0) == 0
        assert is_increasing(g)[0]
        assert is_submodular(g)[0]


def test_double_dual_identity(rng):
    # the defect f - f** is exactly the lower charge
    for _ in range(20):
        f = random_coverage(rng, 4)
        assert f - double_dual(f) == lower_charge(f).as_set_function()


def test_lower_charge_atoms(rng):
    for _ in range(20):
        f = random_coverage(rng, 4)
        low = lower_charge(f)
        g = canonical_dual(f)
        for e in range(4):
            assert low.atoms[e] == f(1 << e) - g(1 << e)


def test_lower_charge_below_function(rng):
    for _ in range(20):
        f = random_coverage(rng, 4)
        low = lower_charge(f)
        for x in f.ground.subsets():
            assert low(x) <= f(x)


def test_lower_charge_maximality(rng):
    for _ in range(15):
        f = random_coverage(rng, 4)
        assert verify_lower_charge_maximality(f)


def random_increasing_submodular(rng, n):
    """A coverage function plus a budget-additive one, min(w(X), cap)."""
    w = [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(n)]
    cap = Fraction(rng.randint(1, 6))
    budget = [min(sum(w[i] for i in range(n) if m >> i & 1), cap) for m in range(1 << n)]
    return random_coverage(rng, n) + SetFunction(GroundSet(n), budget)


def test_lower_charge_oracle_matches_the_free_charge_lp(rng, monkeypatch):
    tables = [random_increasing_submodular(rng, n) for n in range(1, 7) for _ in range(4)]
    expected = [free_charge_lp(f) for f in tables]
    solved = []
    real = simplex._solve_exact
    monkeypatch.setattr(simplex, "_solve_exact", lambda *args: solved.append(real(*args)) or solved[-1])
    for f, (value, atoms) in zip(tables, expected):
        del solved[:]
        assert verify_lower_charge_maximality(f)
        [(status, got_value, _, got_atoms)] = solved
        assert (status, got_value, tuple(got_atoms)) == ("optimal", value, atoms)
        assert atoms == lower_charge(f).atoms


def test_lower_charge_oracle_refuses_a_spoiled_charge(rng, monkeypatch):
    f = random_increasing_submodular(rng, 4)
    real = charges._lower_charge

    def spoiled(g):
        c = real(g)
        return Charge(c.ground, (c.atoms[0] + Fraction(1, 7),) + c.atoms[1:])

    monkeypatch.setattr(charges, "_lower_charge", spoiled)
    assert not verify_lower_charge_maximality(f)


def test_preconditions():
    g = GroundSet(2)
    not_norm = SetFunction(g, (1, 1, 1, 1))
    with pytest.raises(PreconditionError, match=r"requires f\(empty\) = 0, got 1$"):
        canonical_dual(not_norm)
    negative = SetFunction(g, (0, -1, 1, 1))
    with pytest.raises(PreconditionError, match=r"requires f >= 0; f\(1\) = -1$"):
        upper_charge(negative)
    # non-submodular normalized function
    bad = SetFunction(g, (Fraction(0), Fraction(0), Fraction(0), Fraction(2)))
    for op in (upper_charge, lower_charge, canonical_dual, double_dual):
        with pytest.raises(PreconditionError, match=r"submodularity; violated at \(X,u,v\) = \(0, 0, 1\)$"):
            op(bad)
    # submodular but not increasing: f(0b01) = 2 > f(0b11) = 1
    dropping = SetFunction(g, (0, 2, 1, 1))
    for op in (lower_charge, canonical_dual, double_dual):
        with pytest.raises(PreconditionError, match=r"monotonicity; violated at \(X,u\) = \(1, 1\)$"):
            op(dropping)
    f = SetFunction(g, (0, 1, 1, 2))
    with pytest.raises(PreconditionError, match=r"requires f <= eta; violated at mask 2$"):
        dual_wrt(f, Charge(g, [1, Fraction(1, 2)]))
    with pytest.raises(PreconditionError, match="different ground set"):
        dual_wrt(f, Charge(GroundSet(3), [1, 1, 1]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Charge(GroundSet(3), "123"),
        lambda: Charge(GroundSet(3), b"123"),
        lambda: Charge(GroundSet(3), {0: 5, 1: 5, 2: 5}),
        lambda: Charge.from_json_dict({"n": 3, "atoms": "123"}),
    ],
    ids=["str", "bytes", "mapping", "json-str"],
)
def test_a_string_bytes_or_mapping_is_not_a_list_of_atoms(make):
    with pytest.raises(TypeError, match="sequence"):
        make()


def test_string_atoms_are_read_as_fractions():
    c = Charge(GroundSet(2), ("1", "2/3"))
    assert c.atoms == (Fraction(1), Fraction(2, 3))
    assert all(type(a) is Fraction for a in c.atoms)
    assert c(3) == Fraction(5, 3)


@pytest.mark.parametrize("atoms", [(1.5, 2), (True, 2)], ids=["float", "bool"])
def test_float_or_bool_atoms_are_refused(atoms):
    with pytest.raises(TypeError, match="not an exact rational"):
        Charge(GroundSet(2), atoms)


def singleton_charge(f):
    return Charge(f.ground, tuple(f.values[1 << i] for i in range(f.ground.n)))


@pytest.mark.parametrize(
    "op",
    [
        upper_charge,
        lower_charge,
        canonical_dual,
        double_dual,
        lambda f: dual_wrt(f, singleton_charge(f)),
        verify_lower_charge_maximality,
    ],
    ids=["upper", "lower", "canonical", "double", "dual_wrt", "verify"],
)
def test_each_precondition_checked_once(op, rng, monkeypatch):
    calls = Counter()

    def spy(name):
        original = getattr(charges, name)

        def wrapper(f):
            calls[name] += 1
            return original(f)

        return wrapper

    for name in ("is_submodular", "is_increasing"):
        monkeypatch.setattr(charges, name, spy(name))
    op(random_coverage(rng, 4))
    assert calls["is_submodular"] == 1 and calls["is_increasing"] <= 1


def test_strongly_bounded_split(rng):
    # f = upper charge + (f - upper charge), second part decreasing submodular
    for _ in range(20):
        f = random_coverage(rng, 4)
        c = upper_charge(f).as_set_function()
        rest = f - c
        assert c + rest == f
        assert is_decreasing(rest)[0]
        assert is_submodular(rest)[0]


def test_charge_as_set_function_is_modular(rng):
    c = random_nonneg_charge(rng, 4)
    f = c.as_set_function()
    for x in f.ground.subsets():
        for y in f.ground.subsets():
            assert f(x) + f(y) == f(x | y) + f(x & y)
