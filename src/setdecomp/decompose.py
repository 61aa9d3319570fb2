"""Optimal monotonic decompositions of submodular set functions.

A sum-decomposition writes psi = phi1 + phi2 with phi1 increasing
submodular and phi2 decreasing submodular; a diff-decomposition writes
psi = phi1 - phi2 with both parts increasing submodular.  Both fix
phi1(empty) = phi2(empty) = 0.  The optimum minimizes phi1(J); the
optimal values are the plus-norm and minus-norm of psi.

Every optimum comes from :func:`setdecomp.simplex.solve_min_nonneg`: a
HiGHS solution certified exactly over the rationals, or exact pivoting
when certification fails, so returned objectives are exact.  The LP's
right-hand sides are summed as ints over psi's common denominator, and
made Fractions in one pass.  Decomposition LPs are capped at n <= 10
ground elements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .alternating import is_weakly_infinite_alternating
from .charges import Charge, PreconditionError
from .core import (
    SetFunction,
    _fractions,
    format_rational,
    is_submodular,
    norm_inf,
    to_rational,
)
from .coverage import CoverageCoefficients, from_coefficients, to_coefficients
from .simplex import ExactnessError, solve_min_nonneg

LP_MAX_N = 10

_ZERO = Fraction(0)


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


def _build_rows(
    psi: SetFunction, kind: str, c_bound: Optional[Fraction]
) -> Tuple[List[Dict[int, int]], List[Fraction]]:
    """Constraint system A x >= b over variables phi1(X), X != empty.

    Each row is sparse, {variable: coefficient} with at most 4 entries,
    all +-1; variable j represents phi1 of mask j+1 and phi1(empty) = 0
    drops out.  Monotone steps of phi1 are merged with the steps forced
    by the shape of phi2, and likewise for the local submodularity rows.
    Each right-hand side is summed as an int over psi.den (times the
    denominator of c_bound), and the Fractions are made once, at the end.
    """
    g = psi.ground
    n = g.n
    scale = 1 if c_bound is None else c_bound.denominator
    nums = [v * scale for v in psi.nums]
    rows: List[Dict[int, int]] = []
    rhs: List[int] = []

    def add(row: Dict[int, int], b: int) -> None:
        rows.append(row)
        rhs.append(b)

    # steps: phi1(X+u) - phi1(X) >= max(0, psi(X+u) - psi(X))
    for x in range(g.size):
        for u in range(n):
            if x >> u & 1:
                continue
            xu = x | 1 << u
            row = {xu - 1: 1}
            if x:
                row[x - 1] = -1
            add(row, max(0, nums[xu] - nums[x]))

    # local submodularity s(X,u,v) = phi1(X+u)+phi1(X+v)-phi1(X+u+v)-phi1(X)
    for x in range(g.size):
        for u in range(n):
            if x >> u & 1:
                continue
            for v in range(u + 1, n):
                if x >> v & 1:
                    continue
                xu, xv = x | 1 << u, x | 1 << v
                xuv = xu | 1 << v
                s_psi = nums[xu] + nums[xv] - nums[xuv] - nums[x]
                row = {xu - 1: 1, xv - 1: 1, xuv - 1: -1}
                if x:
                    row[x - 1] = -1
                if kind == "sum":
                    # 0 <= s_phi1 <= s_psi
                    add(row, 0)
                    add({j: -a for j, a in row.items()}, -s_psi)
                else:
                    # s_phi1 >= max(0, s_psi)
                    add(row, max(0, s_psi))

    if c_bound is not None:
        # both parts boxed inside [-bound, bound], bound = c * norm_inf(psi)
        bound = c_bound.numerator * max(map(abs, psi.nums))
        for x in range(1, g.size):
            add({x - 1: -1}, -bound)  # -phi1(X) >= -bound
            # phi2 is psi - phi1 (sum) or phi1 - psi (diff); either way
            # |phi1(X) - psi(X)| <= bound
            add({x - 1: 1}, nums[x] - bound)
            add({x - 1: -1}, -bound - nums[x])
    return rows, list(_fractions(psi.den * scale, rhs))


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
    phi1 = SetFunction(g, tuple([_ZERO] + x))
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
