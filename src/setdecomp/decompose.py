"""Optimal monotonic decompositions of submodular set functions.

A sum-decomposition writes psi = phi1 + phi2 with phi1 increasing
submodular and phi2 decreasing submodular; a diff-decomposition writes
psi = phi1 - phi2 with both parts increasing submodular.  Both fix
phi1(empty) = phi2(empty) = 0.  The optimum minimizes phi1(J); the
optimal values are the plus-norm and minus-norm of psi.

Every optimum comes from :func:`setdecomp.simplex.solve_min_nonneg`: a
HiGHS solution certified exactly over the rationals, or exact pivoting
when certification fails, so returned objectives are exact.  The LP is
built from index arithmetic on subset masks, straight into CSR arrays,
with its right-hand sides gathered as ints over psi's common
denominator; no row becomes a dict or a Fraction unless exact pivoting
runs.  Decomposition LPs are capped at n <= 10 ground elements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .alternating import is_weakly_infinite_alternating
from .charges import Charge, PreconditionError
from .core import (
    SetFunction,
    format_rational,
    is_submodular,
    norm_inf,
    scale_to_ints,
    to_rational,
)
from .coverage import CoverageCoefficients, from_coefficients, to_coefficients
from .simplex import _INT64_LIMIT, ExactnessError, _CSRRows, _ScaledInts, solve_min_nonneg

LP_MAX_N = 10


class DecompositionError(ValueError):
    """No decomposition of the requested kind exists."""


@dataclass
class Decomposition:
    phi1: SetFunction
    phi2: SetFunction
    kind: str  # "sum" or "diff"
    objective: Fraction

    def reconstruct(self) -> SetFunction:
        if self.kind == "sum":
            return self.phi1 + self.phi2
        return self.phi1 - self.phi2

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "objective": format_rational(self.objective),
            "phi1": self.phi1.to_json_dict(),
            "phi2": self.phi2.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        return cls(
            phi1=SetFunction.from_json_dict(data["phi1"]),
            phi2=SetFunction.from_json_dict(data["phi2"]),
            kind=data["kind"],
            objective=to_rational(data["objective"]),
        )


def _check_input(psi: SetFunction, kind: str) -> None:
    if kind not in ("sum", "diff"):
        raise ValueError(f"unknown decomposition kind {kind!r}")
    if psi.ground.n > LP_MAX_N:
        raise ValueError(f"decomposition LPs are capped at n <= {LP_MAX_N}")
    if psi(0) != 0:
        raise PreconditionError("psi(empty) must be 0; use normalize_at_empty")
    ok, witness = is_submodular(psi)
    if not ok:
        if kind == "sum":
            # phi1 + phi2 of the required shapes is submodular, so no
            # sum-decomposition of a non-submodular psi can exist
            raise DecompositionError(
                f"psi is not submodular (witness X={witness[0]}, "
                f"u={witness[1]}, v={witness[2]}); no sum-decomposition exists"
            )
        warnings.warn(
            "psi is not submodular; a diff-decomposition may or may not exist",
            stacklevel=3,
        )


def _build_rows(psi: SetFunction, kind: str, c_bound: Optional[Fraction]) -> Tuple[_CSRRows, _ScaledInts]:
    """Constraint system A x >= b over variables phi1(X), X != empty.

    Variable j represents phi1 of mask j+1, and phi1(empty) = 0 drops
    out.  Each row has at most 4 entries, all +-1.  The monotone steps
    of phi1 are merged with the steps forced by the shape of phi2, and
    likewise for the local submodularity rows.  Every row is read off
    mask arithmetic on index arrays, one block of rows at a time, and
    each right-hand side is gathered from psi.nums as an int over
    psi.den (times the denominator of c_bound).
    """
    import numpy as np

    g = psi.ground
    n = g.n
    scale = 1 if c_bound is None else c_bound.denominator
    peak = max(map(abs, psi.nums))
    bound = 0 if c_bound is None else c_bound.numerator * peak
    # a right-hand side is at most four values of psi, or one plus the bound
    wide = 4 * peak * scale + bound >= _INT64_LIMIT
    nums = np.array(psi.nums, dtype=object if wide else np.int64) * scale
    bits = 1 << np.arange(n)
    masks = np.arange(g.size)
    free = (masks[:, None] & bits) == 0  # free[X, u]: u is not in X
    # blocks of (masks, signs, rhs): row r has coefficient signs[r, k] on
    # phi1(masks[r, k]), in the order k runs, and a mask of 0 is no entry
    blocks = []

    # steps: phi1(X+u) - phi1(X) >= max(0, psi(X+u) - psi(X)), for X, then u
    x, u = np.nonzero(free)
    xu = x | bits[u]
    blocks.append((np.stack([xu, x], axis=1), np.array([1, -1]), np.maximum(nums[xu] - nums[x], 0)))

    # local submodularity s(X,u,v) = phi1(X+u)+phi1(X+v)-phi1(X+u+v)-phi1(X),
    # for X, then u < v
    us, vs = np.triu_indices(n, 1)
    x, pair = np.nonzero(free[:, us] & free[:, vs])
    xu, xv = x | bits[us[pair]], x | bits[vs[pair]]
    xuv = xu | xv
    s_psi = nums[xu] + nums[xv] - nums[xuv] - nums[x]
    quads = np.stack([xu, xv, xuv, x], axis=1)
    signs = np.array([1, 1, -1, -1])
    if kind == "sum":
        # 0 <= s_phi1 <= s_psi: each row, then its negation
        pairs = np.tile([signs, -signs], (len(x), 1))
        bounds = np.stack([np.zeros_like(s_psi), -s_psi], axis=1).ravel()
        blocks.append((np.repeat(quads, 2, axis=0), pairs, bounds))
    else:
        # s_phi1 >= max(0, s_psi)
        blocks.append((quads, signs, np.maximum(s_psi, 0)))

    if c_bound is not None:
        # both parts boxed inside [-bound, bound], bound = c * norm_inf(psi):
        # -phi1(X) >= -bound, and |phi1(X) - psi(X)| <= bound, since phi2
        # is psi - phi1 (sum) or phi1 - psi (diff)
        v = nums[1:]
        box = np.stack([np.full_like(v, -bound), v - bound, -bound - v], axis=1).ravel()
        blocks.append((np.repeat(masks[1:], 3)[:, None], np.tile([-1, 1, -1], g.size - 1)[:, None], box))

    entries = [m > 0 for m, _, _ in blocks]
    indptr = np.zeros(sum(len(e) for e in entries) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([e.sum(axis=1) for e in entries]), out=indptr[1:])
    indices = np.concatenate([m[e] - 1 for (m, _, _), e in zip(blocks, entries)])
    coefs = np.concatenate([np.broadcast_to(s, m.shape)[e] for (m, s, _), e in zip(blocks, entries)])
    rhs = np.concatenate([b for _, _, b in blocks])
    return _CSRRows(indptr, indices, coefs, 1, g.size - 1), _ScaledInts(psi.den * scale, rhs)


def _solve(psi: SetFunction, kind: str, c_bound: Optional[Fraction]):
    g = psi.ground
    nvars = g.size - 1
    rows, rhs = _build_rows(psi, kind, c_bound)
    costs = [0] * nvars
    costs[g.full_mask - 1] = 1
    status, value, x, _ = solve_min_nonneg(rows, rhs, costs)
    if status != "optimal":
        return None
    if value != x[g.full_mask - 1]:
        raise ExactnessError("LP optimum is not phi1(J)")
    den, nums = scale_to_ints(x)
    phi1 = SetFunction.from_ints(g, den, [0, *nums])
    phi2 = psi - phi1 if kind == "sum" else phi1 - psi
    return Decomposition(phi1=phi1, phi2=phi2, kind=kind, objective=value)


def optimal_sum_decomposition(psi: SetFunction) -> Decomposition:
    """Minimize phi1(J) over sum-decompositions; the optimum is the plus-norm."""
    _check_input(psi, "sum")
    dec = _solve(psi, "sum", None)
    if dec is None:  # phi1 = max-cumulative envelope is always feasible
        raise ExactnessError("sum-decomposition LP reported infeasible")
    # phi1 >= psi holds in every feasible point: phi2 decreases from 0
    if any(a < b for a, b in zip(dec.phi1.values, psi.values)):
        raise ExactnessError("optimal phi1 does not dominate psi")
    return dec


def optimal_diff_decomposition(psi: SetFunction) -> Decomposition:
    """Minimize phi1(J) over diff-decompositions; the optimum is the minus-norm."""
    _check_input(psi, "diff")
    dec = _solve(psi, "diff", None)
    if dec is None:
        raise DecompositionError("no monotonic diff-decomposition exists")
    return dec


def c_bounded_feasible(
    psi: SetFunction, kind: str, c: Fraction
) -> Tuple[bool, Optional[Decomposition]]:
    """Is there a decomposition with both parts sup-bounded by c times ||psi||?

    Returns (feasible, witness); the witness is a valid decomposition
    whose parts stay inside the box.
    """
    c = to_rational(c)
    if c < 0:
        raise ValueError("c must be nonnegative")
    _check_input(psi, kind)
    dec = _solve(psi, kind, c)
    if dec is None:
        return False, None
    return True, dec


def weakly_alt_canonical_decomposition(
    psi: SetFunction,
) -> Tuple[SetFunction, Charge]:
    """Write psi = phi - mu with phi infinite-alternating and mu a
    nonnegative charge, normalized by mu(a) * alpha_{a} = 0 per element.

    The construction starts from the charge mu0(X) = 2|X|*||psi||, whose
    addition makes psi infinite-alternating, then cancels overlap between
    each atom of mu and the singleton coverage coefficient.  The
    normalized pair is unique.
    """
    g = psi.ground
    if psi(0) != 0:
        raise PreconditionError("psi(empty) must be 0; use normalize_at_empty")
    ok, witness = is_weakly_infinite_alternating(psi)
    if not ok:
        raise PreconditionError(
            f"psi is not weakly infinite-alternating (witness {witness})"
        )
    bound = norm_inf(psi)
    mu = [2 * bound] * g.n
    phi0 = psi + Charge(g, tuple(mu)).as_set_function()
    coeffs = to_coefficients(phi0)
    bad = coeffs.min_coefficient()
    if bad < 0:
        raise ExactnessError(f"charge-shifted psi has coverage coefficient {bad} < 0")
    alpha = list(coeffs.alpha)
    for a in range(g.n):
        cut = min(mu[a], alpha[1 << a])
        mu[a] -= cut
        alpha[1 << a] -= cut
    phi = from_coefficients(CoverageCoefficients(g, tuple(alpha)))
    return phi, Charge(g, tuple(mu))


@dataclass
class SevenBoundReport:
    norm_psi: Fraction
    phi_full: Fraction  # phi(J)
    mu_full: Fraction  # mu(J)
    norm_mu: Fraction
    checks: Dict[str, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "norm_psi": format_rational(self.norm_psi),
            "phi_full": format_rational(self.phi_full),
            "mu_full": format_rational(self.mu_full),
            "norm_mu": format_rational(self.norm_mu),
            "checks": dict(self.checks),
        }


def verify_seven_bound(psi: SetFunction) -> SevenBoundReport:
    """Check the inequalities behind the 7-bounded decompositions of a
    weakly infinite-alternating function.

    The canonical pair (phi, mu) must satisfy ||psi|| >= |phi(J) - mu(J)|,
    ||psi|| >= 3/4 phi(J) - 1/2 mu(J), phi(J) <= 6 ||psi||, and
    ||mu|| <= 7 ||psi||.
    """
    phi, mu = weakly_alt_canonical_decomposition(psi)
    return _seven_bound_report(psi, phi, mu)


def _seven_bound_report(psi: SetFunction, phi: SetFunction, mu: Charge) -> SevenBoundReport:
    """The seven-bound checks on psi's canonical pair (phi, mu)."""
    g = psi.ground
    b = norm_inf(psi)
    phi_full = phi(g.full_mask)
    mu_full = mu(g.full_mask)
    norm_mu = norm_inf(mu.as_set_function())
    checks = {
        "norm_dominates_gap": b >= abs(phi_full - mu_full),
        "norm_dominates_combination": b >= Fraction(3, 4) * phi_full - Fraction(1, 2) * mu_full,
        "phi_six_bound": phi_full <= 6 * b,
        "mu_seven_bound": norm_mu <= 7 * b,
    }
    return SevenBoundReport(
        norm_psi=b,
        phi_full=phi_full,
        mu_full=mu_full,
        norm_mu=norm_mu,
        checks=checks,
    )
