"""Coverage basis and decompositions into differences of coverage functions.

Every set function f with f(empty) = 0 over a finite ground set has a
unique expansion f = sum alpha_A phi_A over nonempty A, where phi_A is
the intersection indicator (1 iff X meets A).  f is a coverage function
exactly when every alpha_A is nonnegative.

The transform runs in O(n 2^n) through a reflection to the subset
lattice followed by a Moebius inversion; the explicit O(4^n) basis
matrices are the test suite's oracle (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import List, Optional, Sequence, Tuple

from .core import (
    GroundSet,
    SetFunction,
    _fractions,
    format_rational,
    popcount,
    scale_to_ints,
    to_rational,
)
from .alternating import _require_normalized, max_disjoint_alt_sum
from .simplex import ExactnessError


@dataclass(frozen=True)
class CoverageCoefficients:
    """Expansion coefficients over the intersection-indicator basis.

    alpha is a dense table indexed by mask; the entry at mask 0 is unused
    and always zero.
    """

    ground: GroundSet
    alpha: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) != self.ground.size:
            raise ValueError("coefficient table has the wrong length")
        if self.alpha[0] != 0:
            raise ValueError("the empty set carries no coefficient")

    def support(self) -> List[int]:
        return [m for m in self.ground.nonempty_subsets() if self.alpha[m] != 0]

    def min_coefficient(self) -> Fraction:
        return min(self.alpha[m] for m in self.ground.nonempty_subsets())

    def to_json_dict(self) -> dict:
        return {
            "n": self.ground.n,
            "alpha": {str(m): format_rational(self.alpha[m]) for m in self.support()},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoverageCoefficients":
        ground = GroundSet(d["n"])
        alpha = [Fraction(0)] * ground.size
        for key, val in d["alpha"].items():
            m = int(key)
            ground.check_mask(m)
            alpha[m] = to_rational(val)
        return cls(ground, tuple(alpha))


def extremal(ground: GroundSet, a_mask: int) -> SetFunction:
    """The intersection indicator phi_A: 1 iff X meets A; requires A nonempty."""
    ground.check_mask(a_mask)
    if a_mask == 0:
        raise ValueError("extremal generator requires a nonempty set")
    return SetFunction.from_ints(ground, 1, [1 if x & a_mask else 0 for x in ground.subsets()])


def _sweep(values: Sequence[int], n: int, op) -> List[int]:
    """For each element i in turn, out[X] = op(out[X], out[X - i]) for every X holding i.

    Each pass splits the table by its lowest bit into the sets without
    and with that element (even and odd entries), and appends the
    combined odd entries to the even ones, which rotates the next element
    into the lowest bit; after n passes every entry is back at its own
    mask.  So no Python bytecode runs per entry.
    """
    out = list(values)
    for _ in range(n):
        out, hi = out[::2], out[1::2]
        # map stops with hi, so it reads only the entries out had before
        out += map(op, hi, out)
    return out


def _zeta(values: Sequence[int], n: int) -> List[int]:
    """Subset sums: out[X] = sum over B subset X of values[B]."""
    return _sweep(values, n, add)


def _moebius(values: Sequence[int], n: int) -> List[int]:
    """Inverse of the subset-sum transform."""
    return _sweep(values, n, sub)


def _reflect(table: Sequence[int]) -> List[int]:
    """g(X) = table[J] - table[J \\ X]: maps the coefficients' subset sums
    to f and f back to them (its own inverse on tables zero at empty)."""
    total = table[-1]
    return [total - v for v in reversed(table)]


def _coverage_function(ground: GroundSet, den: int, alpha: Sequence[int]) -> SetFunction:
    """The function with coefficients alpha_A = alpha[A] / den: f(X) = sum
    of alpha_A over A meeting X, via total minus subset sums."""
    return SetFunction.from_ints(ground, den, _reflect(_zeta(alpha, ground.n)))


def from_coefficients(coeffs: CoverageCoefficients) -> SetFunction:
    """f(X) = sum of alpha_A over A meeting X."""
    return _coverage_function(coeffs.ground, *scale_to_ints(coeffs.alpha))


def _coefficient_ints(f: SetFunction, alpha: Optional[List[int]] = None) -> List[int]:
    """den * alpha_A for every mask A, verified by reconstruction.

    alpha is computed from ``f.nums`` unless given (``check`` reads it off
    the interval sums); either way its subset sums, reflected, must give
    ``f.nums`` back, or ExactnessError is raised.  f(empty) = 0 is
    required (NotNormalizedError).
    """
    _require_normalized(f)
    n = f.ground.n
    if alpha is None:
        alpha = _moebius(_reflect(f.nums), n)
    if tuple(_reflect(_zeta(alpha, n))) != f.nums:
        raise ExactnessError("coefficient round-trip failed; this is a bug")
    return alpha


def to_coefficients(f: SetFunction) -> CoverageCoefficients:
    """Invert the basis expansion; exact, and verified by reconstruction.

    The transform and the check run over the ints ``f.nums``.
    """
    return CoverageCoefficients(f.ground, _fractions(f.den, _coefficient_ints(f)))


def support_size_bound_check(coeffs: CoverageCoefficients, k0: int) -> bool:
    """True iff no set of size >= k0 carries a coefficient.

    Only meaningful for coverage functions, so negative coefficients are
    rejected.
    """
    if coeffs.min_coefficient() < 0:
        raise ValueError("support bound check requires nonnegative coefficients")
    return all(
        coeffs.alpha[m] == 0
        for m in coeffs.ground.nonempty_subsets()
        if popcount(m) >= k0
    )


def diff_decompose_canonical(f: SetFunction) -> Tuple[SetFunction, SetFunction]:
    """Split the coefficient vector by sign: f = f1 - f2 with both parts
    coverage functions of disjoint support."""
    alpha = _coefficient_ints(f)
    pos = [max(a, 0) for a in alpha]
    neg = [max(-a, 0) for a in alpha]
    return _coverage_function(f.ground, f.den, pos), _coverage_function(f.ground, f.den, neg)


def diff_decompose_uniform(f: SetFunction) -> Tuple[SetFunction, SetFunction, Fraction]:
    """f = f1 - f2 with f2 = m * (sum of all basis indicators), where m is
    the largest alternating sum over disjoint tuples.  When m <= 0 the
    function is already a coverage function and f2 = 0."""
    ground = f.ground
    m, _ = max_disjoint_alt_sum(f)
    if m <= 0:
        return f, SetFunction.zero(ground), Fraction(0)
    # the nonempty sets meeting X are all but the 2^(n - |X|) sets outside X
    n = ground.n
    counts = [(1 << n) - (1 << n - popcount(x)) for x in ground.subsets()]
    f2 = SetFunction.from_ints(ground, m.denominator, [m.numerator * c for c in counts])
    return f + f2, f2, m
