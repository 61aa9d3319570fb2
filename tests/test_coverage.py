import random
from fractions import Fraction

import pytest

from setdecomp import (
    CoverageCoefficients,
    ExactnessError,
    GroundSet,
    SetFunction,
    from_coefficients,
    is_infinite_alternating,
    is_submodular,
    is_increasing,
    support_size_bound_check,
    to_coefficients,
)
from setdecomp import coverage
from setdecomp.coverage import diff_decompose_canonical, diff_decompose_uniform, extremal
from setdecomp.alternating import NotNormalizedError
from setdecomp.graphs import cut_function
from conftest import random_coverage, random_graph, random_set_function, random_signed_singletons
from oracles import basis_matrix_apply, diff_decompose_by_fraction_signs, inverse_matrix_apply


def test_extremal_is_intersection_indicator():
    g = GroundSet(3)
    f = extremal(g, 0b011)
    for x in range(8):
        assert f(x) == (1 if x & 0b011 else 0)
    assert is_infinite_alternating(f)
    with pytest.raises(ValueError):
        extremal(g, 0)


def test_round_trip_random(rng):
    for n in (2, 3, 4, 5):
        for _ in range(30):
            f = random_set_function(rng, n)
            coeffs = to_coefficients(f)
            assert from_coefficients(coeffs) == f


def test_round_trip_from_coefficients(rng):
    g = GroundSet(4)
    for _ in range(30):
        alpha = [Fraction(0)] + [
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g.size - 1)
        ]
        coeffs = CoverageCoefficients(g, tuple(alpha))
        assert to_coefficients(from_coefficients(coeffs)).alpha == coeffs.alpha


def test_fast_route_equals_naive_matrices(rng):
    for n in (2, 3, 4):
        for _ in range(20):
            f = random_set_function(rng, n)
            coeffs = to_coefficients(f)
            assert inverse_matrix_apply(f).alpha == coeffs.alpha
            assert basis_matrix_apply(f.ground, coeffs.alpha) == f


def test_to_coefficients_requires_normalization():
    g = GroundSet(2)
    with pytest.raises(NotNormalizedError):
        to_coefficients(SetFunction(g, (1, 1, 1, 1)))


def test_spoiled_transform_raises(rng, monkeypatch):
    # the round-trip check is an exactness check, so python -O keeps it
    moebius = coverage._moebius

    def spoiled(values, n):
        out = moebius(values, n)
        out[-1] += 1
        return out

    monkeypatch.setattr(coverage, "_moebius", spoiled)
    with pytest.raises(ExactnessError, match="round-trip"):
        to_coefficients(random_set_function(rng, 3))


def test_coefficients_nonnegative_iff_coverage(rng):
    for _ in range(20):
        f = random_coverage(rng, 4)
        assert to_coefficients(f).min_coefficient() >= 0


def test_support_and_json():
    g = GroundSet(3)
    coeffs = to_coefficients(extremal(g, 0b101) + extremal(g, 0b010).scale(2))
    assert set(coeffs.support()) == {0b101, 0b010}
    assert coeffs.alpha[0b010] == 2
    rebuilt = CoverageCoefficients.from_json_dict(coeffs.to_json_dict())
    assert rebuilt.alpha == coeffs.alpha


def test_support_size_bound():
    g = GroundSet(3)
    pairs_only = extremal(g, 0b011) + extremal(g, 0b110)
    coeffs = to_coefficients(pairs_only)
    assert support_size_bound_check(coeffs, 3)
    assert not support_size_bound_check(coeffs, 2)


def test_diff_decompose_canonical(rng):
    for _ in range(20):
        f = random_set_function(rng, 4)
        f1, f2 = diff_decompose_canonical(f)
        assert f1 - f2 == f
        assert is_infinite_alternating(f1)
        assert is_infinite_alternating(f2)
        # supports are disjoint by construction
        s1 = set(to_coefficients(f1).support())
        s2 = set(to_coefficients(f2).support())
        assert not s1 & s2


def test_diff_decomposes_match_fraction_coefficients(rng):
    fs = [random_set_function(rng, n) for n in range(1, 8) for _ in range(3)]
    fs += [random_signed_singletons(rng, n) for n in range(1, 8)]
    fs += [cut_function(random_graph(rng, n, 0.6)) for n in range(2, 8)]
    for f in fs:
        assert diff_decompose_canonical(f) == diff_decompose_by_fraction_signs(f)
        f1, f2, m = diff_decompose_uniform(f)
        if m > 0:
            uniform = (Fraction(0),) + (m,) * (f.ground.size - 1)
            assert f2 == from_coefficients(CoverageCoefficients(f.ground, uniform))
            assert f1 == f + f2


def test_diff_decompose_uniform(rng):
    for _ in range(20):
        f = random_set_function(rng, 4)
        f1, f2, m = diff_decompose_uniform(f)
        assert f1 - f2 == f
        assert is_infinite_alternating(f1)
        assert is_infinite_alternating(f2)
        assert is_increasing(f1)[0] and is_submodular(f1)[0]


def test_diff_decompose_uniform_requires_normalization():
    with pytest.raises(NotNormalizedError):
        diff_decompose_uniform(SetFunction(GroundSet(2), (1, 2, 2, 3)))


def test_diff_decompose_uniform_on_coverage(rng):
    f = random_coverage(rng, 4)
    f1, f2, m = diff_decompose_uniform(f)
    assert m <= 0
    assert f2.values == tuple([Fraction(0)] * f.ground.size)
    assert f1 == f
