"""Optimal monotonic decompositions of submodular set functions.

A sum-decomposition writes psi = phi1 + phi2 with phi1 increasing
submodular and phi2 decreasing submodular; a diff-decomposition writes
psi = phi1 - phi2 with both parts increasing submodular.  Both fix
phi1(empty) = phi2(empty) = 0.  The optimum minimizes phi1(J); the
optimal values are the plus-norm and minus-norm of psi.

Every optimum comes from the LP ladder of :mod:`setdecomp.simplex`: a
HiGHS solution certified exactly over the rationals, or exact pivoting
when certification fails, so returned objectives are exact.  The LP is
built from index arithmetic on subset masks, straight into CSR arrays,
with its right-hand sides gathered as ints over psi's common
denominator, and goes to the ladder's scaled entry
(``simplex._solve_scaled``) as it is; no row becomes a dict or a
Fraction unless exact pivoting runs.  Decomposition LPs are capped at
n <= 10 ground elements.

The full LP has one variable phi1(X) per nonempty X.  A sum LP may be
posed in clique coordinates instead, over the graph H where uv is an
edge iff the local gap
s_psi(X, u, v) = psi(X+u) + psi(X+v) - psi(X+u+v) - psi(X) is nonzero
for some X.  The two LPs have the same optimum:

* Forced zeros.  The rows 0 <= s_phi1 <= s_psi pin s_phi1(., u, v) to 0
  for every non-edge uv, so phi1's Moebius coefficients vanish on every
  set holding a non-edge: they live on the cliques of H, and phi1 is
  fixed by its values p_K = phi1(K) on the nonempty cliques K.  These
  are the columns, p_K >= 0 because phi1 increases from phi1(empty) = 0.
* Representative points.  For such phi1 (and for psi, whose third
  differences vanish along non-edges), the step of u at X depends only
  on X & N_H(u), and s(X, u, v) for an edge uv only on
  X & N_H(u) & N_H(v).  So every step row equals the one at
  X & N_H(u), every pair row of an edge the one at
  X & N_H(u) & N_H(v), and the pair rows of non-edges read 0 <= 0.
  The clique LP keeps each row at its representative point, the first
  place it occurs in the full LP's row order, and the box rows of
  ``--c`` at every mask.

Every full row is thus a row of the clique LP, which is equivalent to
the full LP, not a relaxation.  Its objective is a column t >= phi1(J),
since phi1(J) expands over the cliques with negative coefficients and
the LP needs costs >= 0.  The optimum is lifted back to all 2^n masks as
the subset sums of its clique Moebius coefficients, the transform of
``coverage``, and checked there: phi1(J) equals the certified value and
both parts have their shapes, or ``ExactnessError`` is raised.

The clique LP is used when it keeps fewer than 3/4 of the full LP's
rows.  That leaves out every complete H, where it keeps them all, and
H = K_n minus one edge for n >= 7: there it keeps 75-82% of the rows
and about as many entries, and HiGHS took as long as on the full LP at
n <= 8 and up to about 4 times as long at n = 9, 10.  A diff LP forces no
such zeros.  Both keep the full LP, array for array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .alternating import _weak_pass
from .charges import Charge
from .core import (
    PreconditionError,
    SetFunction,
    _fractions,
    format_rational,
    is_decreasing,
    is_increasing,
    is_submodular,
    norm_inf,
    scale_to_ints,
    to_rational,
)
from .coverage import _coefficient_ints, _coverage_function, _moebius, _zeta
from .simplex import _INT64_LIMIT, ExactnessError, Scaled, _CSRRows, _scaled, _solve_scaled

LP_MAX_N = 10


class DecompositionError(ValueError):
    """No decomposition of the requested kind exists."""


@dataclass
class Decomposition:
    phi1: SetFunction
    phi2: SetFunction
    kind: str  # "sum" or "diff"
    objective: Fraction

    # psi = phi1 + phi2 (sum) or phi1 - phi2 (diff), the identity a decomposition satisfies
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
    if psi.nums[0]:
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
) -> Tuple[_CSRRows, Scaled, Optional[List[int]]]:
    """Constraint system A x >= b of the decomposition LP, and its clique columns.

    In full coordinates, variable j is phi1 of mask j+1, phi1(empty) = 0
    drops out, and the last variable phi1(J) is the objective.  Each row
    has at most 4 entries, all +-1.  The monotone steps of phi1 are
    merged with the steps forced by the shape of phi2, and likewise for
    the local submodularity rows.  Every row is read off mask arithmetic
    on index arrays, one block of rows at a time, and each right-hand
    side is gathered from psi.nums as an int over psi.den (times the
    denominator of c_bound).

    A sum LP whose rows at representative points are fewer than 3/4 of
    all rows (see the module docstring) keeps only those and goes to
    clique coordinates (:func:`_in_cliques`); the third item is then the
    list of clique masks, one per column before the last, else None.
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
    x, step_u = np.nonzero(free)
    xu = x | bits[step_u]
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
    adj = None
    if kind == "sum":
        # uv is an edge of H iff s_psi(., u, v) is not identically 0
        edge = np.zeros(len(us), dtype=bool)
        edge[pair[s_psi != 0]] = True
        adj = np.zeros(n, dtype=np.int64)
        np.bitwise_or.at(adj, us[edge], bits[vs[edge]])
        np.bitwise_or.at(adj, vs[edge], bits[us[edge]])
        # representative points: a step of u at X inside N_H(u), a pair
        # uv of H at X inside N_H(u) & N_H(v)
        m, sign, b = blocks[0]
        steps = m[:, 1] & ~adj[step_u] == 0
        keep = edge[pair] & (x & ~(adj[us[pair]] & adj[vs[pair]]) == 0)
        box = 0 if c_bound is None else 3 * (g.size - 1)
        # clique coordinates only when they drop a quarter of the rows,
        # the t row counted (see the module docstring)
        if 4 * (steps.sum() + 2 * keep.sum() + box + 1) < 3 * (len(m) + 2 * len(quads) + box):
            blocks[0] = (m[steps], sign, b[steps])
            quads, s_psi = quads[keep], s_psi[keep]
        else:
            adj = None
        # 0 <= s_phi1 <= s_psi: each row, then its negation
        pairs = np.tile([signs, -signs], (len(quads), 1))
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

    if adj is not None:
        # the objective t >= phi1(J), on a column t read as "mask" g.size
        blocks.append((np.array([[g.size, g.full_mask]]), np.array([1, -1]), np.zeros(1, dtype=nums.dtype)))
    rhs = psi.den * scale, np.concatenate([b for _, _, b in blocks])
    if adj is not None:
        rows, cliques = _in_cliques(blocks, n, adj)
        return rows, rhs, cliques
    entries = [m > 0 for m, _, _ in blocks]
    indptr = np.zeros(sum(len(e) for e in entries) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([e.sum(axis=1) for e in entries]), out=indptr[1:])
    indices = np.concatenate([m[e] - 1 for (m, _, _), e in zip(blocks, entries)])
    coefs = np.concatenate([np.broadcast_to(s, m.shape)[e] for (m, s, _), e in zip(blocks, entries)])
    return _CSRRows(indptr, indices, coefs, 1, g.size - 1), rhs, None


def _in_cliques(blocks, n: int, adj) -> Tuple[_CSRRows, List[int]]:
    """The blocks' rows over one column p_K = phi1(K) per nonempty clique K
    of H, in mask order, then the objective column t.

    phi1(Y) sums phi1's Moebius coefficients m_S over the cliques S
    inside Y, and m_S is the alternating sum of p_R over the R inside S,
    so p_R enters phi1(Y) with the coefficient: the sum of (-1)^|S - R|
    over the cliques S with R inside S inside Y.  That is g(Y & N(R)),
    with N(R) the common H-neighbours of R and g(W) the sum of (-1)^|T|
    over the cliques T inside W, empty included: one subset-sum table.
    Each row is its signed phi1 terms times that expansion.
    """
    import numpy as np

    size = 1 << n
    masks = np.arange(size)
    # a clique holds no vertex u together with a non-neighbour above u
    clique = np.ones(size, dtype=bool)
    odd = np.zeros(size, dtype=np.int64)  # parity of |mask|
    for u in range(n):
        above = (size - 1) & ~adj[u] & ~((2 << u) - 1)
        clique &= (masks >> u & 1 == 0) | (masks & above == 0)
        odd ^= masks >> u & 1
    cols = np.flatnonzero(clique)[1:]
    signed = np.where(clique, 1 - 2 * odd, 0)
    g = np.array(_zeta(signed.tolist(), n), dtype=np.int64)
    common = np.full(len(cols), size - 1)
    for u in range(n):
        common[cols >> u & 1 == 1] &= adj[u]
    # |g| counts cliques, so the expansion and sums of four rows of it fit int32
    expand = np.zeros((size + 1, len(cols) + 1), dtype=np.int32)
    expand[:size, :-1] = np.where(cols & ~masks[:, None] == 0, g[masks[:, None] & common], 0)
    expand[size, -1] = 1  # "mask" size is the column t

    # each row's terms, padded to four with mask 0, whose expansion is 0
    terms = np.zeros((sum(len(m) for m, _, _ in blocks), 4), dtype=np.int64)
    signs = np.zeros(terms.shape, dtype=np.int32)
    start = 0
    for m, s, _ in blocks:
        r, k = m.shape
        terms[start : start + r, :k] = m
        signs[start : start + r, :k] = s
        start += r
    # the product runs on chunks of rows, about 2^18 entries of expansion each
    step = max(1, (1 << 16) // expand.shape[1])
    counts, indices, coefs = [], [], []
    for i in range(0, len(terms), step):
        dense = np.einsum("rk,rkc->rc", signs[i : i + step], expand[terms[i : i + step]])
        r, c = np.nonzero(dense)
        counts.append(np.bincount(r, minlength=len(dense)))
        indices.append(c)
        coefs.append(dense[r, c].astype(np.int64))
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    rows = _CSRRows(indptr, np.concatenate(indices), np.concatenate(coefs), 1, len(cols) + 1)
    return rows, cols.tolist()


def _solve(psi: SetFunction, kind: str, c_bound: Optional[Fraction]):
    g = psi.ground
    rows, rhs, cliques = _build_rows(psi, kind, c_bound)
    costs = [0] * rows.ncols
    costs[-1] = 1  # phi1(J) in full coordinates, t in clique coordinates
    status, value, x, _ = _solve_scaled(rows, rhs, _scaled(costs))
    if status != "optimal":
        return None
    den, nums = scale_to_ints(x)
    phi1 = SetFunction.from_ints(g, den, [0, *nums] if cliques is None else _lift(g.n, cliques, nums[:-1]))
    if phi1.nums[-1] != value * phi1.den:
        raise ExactnessError("LP optimum is not phi1(J)")
    phi2 = psi - phi1 if kind == "sum" else phi1 - psi
    if cliques is not None:
        _check_lifted(psi, phi1, phi2, c_bound)
    return Decomposition(phi1=phi1, phi2=phi2, kind=kind, objective=value)


def _lift(n: int, cliques: List[int], p: Sequence[int]) -> List[int]:
    """phi1 on every mask from its values p on the cliques: the subset sums
    of its Moebius coefficients, which vanish off the cliques."""
    table = [0] * (1 << n)
    for k, v in zip(cliques, p):
        table[k] = v
    moebius = _moebius(table, n)
    table = [0] * (1 << n)
    for k in cliques:
        table[k] = moebius[k]
    return _zeta(table, n)


def _check_lifted(psi: SetFunction, phi1: SetFunction, phi2: SetFunction, c_bound: Optional[Fraction]) -> None:
    """The shapes of a sum-decomposition lifted from clique coordinates,
    and its box when there is one, checked in full coordinates."""
    shapes = (is_increasing, phi1), (is_submodular, phi1), (is_decreasing, phi2), (is_submodular, phi2)
    if not all(holds(f)[0] for holds, f in shapes):
        raise ExactnessError("the clique-coordinate optimum does not lift to a sum-decomposition")
    if c_bound is not None and max(norm_inf(phi1), norm_inf(phi2)) > c_bound * norm_inf(psi):
        raise ExactnessError("the lifted sum-decomposition leaves the box")


def optimal_sum_decomposition(psi: SetFunction) -> Decomposition:
    """Minimize phi1(J) over sum-decompositions; the optimum is the plus-norm."""
    _check_input(psi, "sum")
    dec = _solve(psi, "sum", None)
    if dec is None:  # phi1 = max-cumulative envelope is always feasible
        raise ExactnessError("sum-decomposition LP reported infeasible")
    # phi1 >= psi holds in every feasible point: phi2 decreases from 0
    if any(a * psi.den < b * dec.phi1.den for a, b in zip(dec.phi1.nums, psi.nums)):
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
    nonnegative charge, normalized by mu(a) * alpha_{a} = 0 per element;
    the normalized pair is unique.

    It is the sign split of psi's singleton coverage coefficients: mu(a) =
    max(-alpha_{a}, 0), and phi has alpha_{a} + mu(a) on {a} and alpha_C,
    >= 0 by weak |C|-alternation, on every larger C.  As |alpha_{a}| =
    |psi(J) - psi(J - a)| <= 2||psi||, this is the pair got by adding the
    charge mu0(X) = 2|X|*||psi|| and cancelling each atom of mu0 against
    its singleton coefficient.  The coefficients come as ints from the
    interval pass that decides weak alternation, as in ``check``.
    """
    g = psi.ground
    if psi.nums[0]:
        raise PreconditionError("psi(empty) must be 0; use normalize_at_empty")
    found, alpha = _weak_pass(psi)
    witness = next((w for w in found[2:] if w is not None), None)
    if witness is not None:
        raise PreconditionError(
            f"psi is not weakly infinite-alternating (witness {witness})"
        )
    alpha = _coefficient_ints(psi, alpha)
    mu = [max(-alpha[1 << a], 0) for a in range(g.n)]
    for a, m in enumerate(mu):
        alpha[1 << a] += m
    if min(alpha) < 0:
        raise ExactnessError("phi has a negative coverage coefficient; this is a bug")
    return _coverage_function(g, psi.den, alpha), Charge(g, _fractions(psi.den, mu))


@dataclass
class SevenBoundReport:
    norm_psi: Fraction
    phi_full: Fraction  # phi(J)
    mu_full: Fraction  # mu(J)
    norm_mu: Fraction
    checks: Dict[str, bool]

    # the seven bound holds when each of its checks does
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
    phi_full = Fraction(phi.nums[-1], phi.den)
    mu_full = mu(g.full_mask)
    norm_mu = mu_full  # mu >= 0, so its largest value is mu(J)
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
