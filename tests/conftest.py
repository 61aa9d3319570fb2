import random
from fractions import Fraction

import pytest

from setdecomp import (
    Charge,
    CoverageCoefficients,
    GroundSet,
    SetFunction,
    WeightedGraph,
    from_coefficients,
)


def random_fraction(rng: random.Random, lo: int = -4, hi: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_set_function(rng: random.Random, n: int, normalized: bool = True) -> SetFunction:
    ground = GroundSet(n)
    vals = [random_fraction(rng) for _ in range(ground.size)]
    if normalized:
        vals[0] = Fraction(0)
    return SetFunction(ground, tuple(vals))


def random_coverage(rng: random.Random, n: int, density: float = 0.3) -> SetFunction:
    """Random nonnegative combination of the intersection-indicator basis."""
    ground = GroundSet(n)
    alpha = [Fraction(0)] * ground.size
    for mask in range(1, ground.size):
        if rng.random() < density:
            alpha[mask] = Fraction(rng.randint(0, 4), rng.randint(1, 3))
    return from_coefficients(CoverageCoefficients(ground, tuple(alpha)))


def random_nonneg_charge(rng: random.Random, n: int) -> Charge:
    ground = GroundSet(n)
    return Charge(
        ground,
        tuple(Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)),
    )


def random_weakly_alternating(rng: random.Random, n: int) -> SetFunction:
    """Coverage minus a nonnegative charge is weakly infinite-alternating."""
    return random_coverage(rng, n) - random_nonneg_charge(rng, n).as_set_function()


def random_signed_singletons(rng: random.Random, n: int) -> SetFunction:
    """Weakly infinite-alternating: coefficients >= 0 on the sets of two or
    more elements, signed and fractional ones on the singletons."""
    ground = GroundSet(n)
    alpha = [Fraction(0)] * ground.size
    for mask in range(1, ground.size):
        if mask & (mask - 1) == 0:
            alpha[mask] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7]))
        elif rng.random() < 0.4:
            alpha[mask] = Fraction(rng.randint(0, 5), rng.choice([1, 2, 5]))
    return from_coefficients(CoverageCoefficients(ground, tuple(alpha)))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> WeightedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, Fraction(rng.randint(1, 4), rng.randint(1, 3))))
    return WeightedGraph.build(n, edges)


@pytest.fixture
def rng():
    return random.Random(20260826)


def spy_exact(monkeypatch):
    """The argument tuples of every exact-pivoting fallback."""
    from setdecomp import simplex

    calls = []
    real = simplex._solve_exact

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "_solve_exact", spy)
    return calls


def spy_certificate_dtypes(monkeypatch):
    """The dtype of the row sums A x in each certificate check, one per
    check (the L1 norms taken when rows are built are not recorded)."""
    from setdecomp import simplex

    dtypes, inside = [], []
    real_certify, real_sums = simplex._certify, simplex._row_sums

    def certify(*args):
        inside.append(True)
        try:
            return real_certify(*args)
        finally:
            inside.pop()

    def row_sums(values, indptr):
        if inside:
            dtypes.append(values.dtype)
        return real_sums(values, indptr)

    monkeypatch.setattr(simplex, "_certify", certify)
    monkeypatch.setattr(simplex, "_row_sums", row_sums)
    return dtypes
