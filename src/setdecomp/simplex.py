"""Exact rational linear programming.

:func:`solve_lp` is the one exact simplex: a two-phase tableau over exact
rationals (Dantzig pricing, then Bland's rule against cycling) for LPs
with free or nonnegative variables and dense or sparse constraint rows.
It returns status, optimum, assignment and a certificate (dual vector,
Farkas vector, or improving ray).

:func:`solve_min_nonneg` is the route for the structured LPs
(decompositions, triangle cover, clique bound): min c.x, A x >= b, x >= 0
with c >= 0 and A given as sparse rows.  HiGHS solves it in floating
point; the primal/dual pair is rounded to rationals and trusted only
after an exact certificate over the sparse rows passes (primal and dual
feasibility, equal objectives).  An LP that HiGHS reports infeasible is
certified infeasible through its elastic relaxation.  When neither
certifies, :func:`solve_lp` pivots the dual LP max b.y, A^T y <= c,
y >= 0, whose slack basis is feasible because c >= 0: the dual simplex
method on the primal (Lemke 1954).

Every pivot runs on ``Fraction``, so the value, assignment and
certificates come straight out of the tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from .core import RationalLike, scale_to_ints, to_rational

Relation = str  # "<=", "=", ">="

# Dantzig pricing until this many iterations, then Bland (guarantees
# termination); both deterministic.
_BLAND_SWITCH = 20000


class ExactnessError(RuntimeError):
    """An exactness check on a computed result failed; the result is not trusted."""


@dataclass
class LinearProgram:
    """Exact-rational LP.  Variables are free unless nonneg is set.

    Each constraint row is a dense sequence of num_vars coefficients or a
    sparse {column: coefficient} map; columns a map leaves out are 0.
    """

    num_vars: int
    objective: Sequence[RationalLike]
    maximize: bool
    constraints: List[
        Tuple[Union[Sequence[RationalLike], Mapping[int, RationalLike]], Relation, RationalLike]
    ]
    nonneg: bool = False

    def validate(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match variable count")
        for row, rel, _ in self.constraints:
            if isinstance(row, Mapping):
                if not all(isinstance(j, int) and 0 <= j < self.num_vars for j in row):
                    raise ValueError("sparse constraint column out of range")
            elif len(row) != self.num_vars:
                raise ValueError("constraint row length does not match variable count")
            if rel not in ("<=", "=", ">="):
                raise ValueError(f"unknown relation {rel!r}")


@dataclass
class LPSolution:
    """status is one of "optimal", "infeasible", "unbounded".

    For optimal solutions, certificate holds one dual multiplier per
    constraint proving the optimum; for infeasible, a Farkas vector; for
    unbounded, an improving feasible ray.
    """

    status: str
    value: Optional[Fraction] = None
    assignment: List[Fraction] = field(default_factory=list)
    certificate: List[Fraction] = field(default_factory=list)


def _pivot(rows: List[List], objrow: List, basis: List[int], r: int, j: int) -> None:
    prow = rows[r]
    inv = 1 / prow[j]
    if inv != 1:
        rows[r] = prow = [a * inv for a in prow]
    for other in rows:
        if other is prow:
            continue
        f = other[j]
        if f:
            for idx, p in enumerate(prow):
                if p:
                    other[idx] -= f * p
    f = objrow[j]
    if f:
        for idx, p in enumerate(prow):
            if p:
                objrow[idx] -= f * p
    basis[r] = j


def _min_simplex(
    rows: List[List],
    basis: List[int],
    costs: List,
    allowed: Sequence[bool],
) -> Tuple[str, List, Optional[int]]:
    """Minimize costs over the tableau in place.

    rows[r] has width ncols+1 (rhs last); basis columns form an identity.
    Returns (status, objrow, entering-column-if-unbounded); objrow[j] is
    the reduced cost c_j - z_j and objrow[-1] is -objective.
    """
    ncols = len(rows[0]) - 1 if rows else len(costs)
    objrow = list(costs) + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = costs[b]
        if cb:
            for idx, a in enumerate(rows[r]):
                if a:
                    objrow[idx] -= cb * a
    iters = 0
    while True:
        iters += 1
        enter = -1
        if iters < _BLAND_SWITCH:
            best = 0
            for j in range(ncols):
                if allowed[j] and objrow[j] < best:
                    best = objrow[j]
                    enter = j
        else:
            for j in range(ncols):
                if allowed[j] and objrow[j] < 0:
                    enter = j
                    break
        if enter < 0:
            return "optimal", objrow, None
        ratio = None
        leave = -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                t = row[-1] / a
                if ratio is None or t < ratio or (t == ratio and basis[r] < basis[leave]):
                    ratio = t
                    leave = r
        if leave < 0:
            return "unbounded", objrow, enter
        _pivot(rows, objrow, basis, leave, enter)


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Generic exact two-phase simplex.

    Tableau columns: the variables, their negated copies when free, one
    slack per inequality and one artificial per >= or = row (after rows
    with a negative right-hand side are negated), each group in row order.
    """
    lp.validate()
    n = lp.num_vars
    # internal minimize; free variables split into positive/negative parts
    split = not lp.nonneg
    width = 2 * n if split else n
    zero = Fraction(0)
    one = Fraction(1)
    sense = -1 if lp.maximize else 1
    obj = [sense * to_rational(v) for v in lp.objective]
    if split:
        obj += [-v for v in obj]

    rhs = [to_rational(b) for _, _, b in lp.constraints]
    signs = [-1 if b < 0 else 1 for b in rhs]  # -1 if the row gets negated
    rels = [
        {"<=": ">=", ">=": "<=", "=": "="}[rel] if sign < 0 else rel
        for (_, rel, _), sign in zip(lp.constraints, signs)
    ]
    nslack = sum(1 for rel in rels if rel != "=")
    art_start = width + nslack
    ncols = art_start + sum(1 for rel in rels if rel != "<=")

    # one row per constraint, built once: shared zeros, nonzeros filled in
    rows: List[List] = []
    basis: List[int] = []
    slack, art = width, art_start
    for (coeffs, _, _), rel, sign, b in zip(lp.constraints, rels, signs, rhs):
        row = [zero] * (ncols + 1)
        row[-1] = -b if sign < 0 else b
        for j, v in coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs):
            v = to_rational(v)
            if v:
                if sign < 0:
                    v = -v
                row[j] = v
                if split:
                    row[n + j] = -v
        if rel != "=":
            row[slack] = one if rel == "<=" else -one
            slack += 1
        if rel == "<=":
            basis.append(slack - 1)
        else:
            row[art] = one
            basis.append(art)
            art += 1
        rows.append(row)
    ref_col = list(basis)  # column that started as the unit vector e_i, for the duals

    if ncols > art_start:
        costs1 = [zero] * art_start + [one] * (ncols - art_start)
        status, objrow1, _ = _min_simplex(rows, basis, costs1, [True] * ncols)
        if status != "optimal":  # the phase-1 objective is bounded below by 0
            raise ExactnessError(f"phase 1 ended {status}")
        if -objrow1[-1] > 0:
            # Farkas: y_i = cost(e_i column) - its reduced cost; y.b > 0, y.A <= 0
            farkas = [(costs1[c] - objrow1[c]) * s for c, s in zip(ref_col, signs)]
            return LPSolution(status="infeasible", certificate=farkas)
        # drive leftover artificials out of the basis
        for r in range(len(basis) - 1, -1, -1):
            if basis[r] >= art_start:
                piv = next((j for j in range(art_start) if rows[r][j] != 0), None)
                if piv is None:
                    del rows[r]
                    del basis[r]
                else:
                    dummy = [zero] * (ncols + 1)
                    _pivot(rows, dummy, basis, r, piv)

    costs2 = obj + [zero] * (ncols - width)
    allowed2 = [True] * art_start + [False] * (ncols - art_start)
    status, objrow2, enter = _min_simplex(rows, basis, costs2, allowed2)

    if status == "unbounded":
        if enter is None:
            raise ExactnessError("unbounded phase 2 without an improving column")
        direction = [zero] * ncols
        direction[enter] = one
        for r, b in enumerate(basis):
            direction[b] = -rows[r][enter]
        ray = _assemble(direction, n, split)
        return LPSolution(status="unbounded", certificate=ray)

    xs = [zero] * ncols
    for r, b in enumerate(basis):
        xs[b] = rows[r][-1]
    del rows  # free the tableau before the answer is allocated
    assignment = _assemble(xs, n, split)
    value = -sense * objrow2[-1]
    duals = [-sense * s * objrow2[c] for c, s in zip(ref_col, signs)]
    return LPSolution(status="optimal", value=value, assignment=assignment, certificate=duals)


def _assemble(xs: List, n: int, split: bool) -> List[Fraction]:
    if split:
        return [xs[j] - xs[n + j] for j in range(n)]
    return xs[:n]


# -- structured route ----------------------------------------------------

SparseRow = Mapping[int, Rational]


def _round(values: List[float], limit: int) -> List[Fraction]:
    # LP vertices repeat few distinct values; round each once
    exact = {v: Fraction(v).limit_denominator(limit) for v in set(values)}
    return [exact[v] for v in values]


def _certify(
    rows: Sequence[SparseRow],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> bool:
    """Exact check that x is primal optimal and y dual optimal.

    Checks x >= 0, y >= 0, A x >= b, A^T y <= c and c.x == b.y; weak
    duality then proves both optimal.  x, y, rhs and costs are each
    scaled to integers by their common denominator, so every sum runs
    over Python ints when the coefficients are ints.
    """
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return False
    dx, px = scale_to_ints(x)
    dy, qy = scale_to_ints(y)
    db, bs = scale_to_ints(rhs)
    dc, cs = scale_to_ints(costs)
    # rows[i].x >= b_i  <=>  (sum a px) * db >= bs_i * dx
    for row, b in zip(rows, bs):
        if sum(a * px[j] for j, a in row.items()) * db < b * dx:
            return False
    # column j of A^T y <= c_j  <=>  (sum a qy) * dc <= cs_j * dy
    col = [0] * len(cs)
    for row, q in zip(rows, qy):
        if q:
            for j, a in row.items():
                col[j] += a * q
    if any(t * dc > c * dy for t, c in zip(col, cs)):
        return False
    primal = sum(c * p for c, p in zip(cs, px) if c)
    dual = sum(b * q for b, q in zip(bs, qy) if q)
    return primal * db * dy == dual * dc * dx


def _certified_guess(
    rows: Sequence[SparseRow],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
    elastic: bool = False,
) -> Optional[Tuple]:
    """Solve with HiGHS and return the rounded pair if it certifies.

    If HiGHS finds the LP infeasible, the always-feasible elastic LP min
    sum(s), A x + s >= b, x, s >= 0 is certified instead: a positive
    optimum proves infeasibility, its dual being a Farkas vector.
    """
    if not costs:  # HiGHS rejects an LP without variables
        return None
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    indptr = [0]
    indices: List[int] = []
    data: List[float] = []
    for row in rows:
        indices.extend(row)
        data.extend(-float(a) for a in row.values())
        indptr.append(len(indices))
    a_ub = csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int64), indptr),
        shape=(len(rows), len(costs)),
    )
    res = linprog(
        np.array([float(v) for v in costs]),
        A_ub=a_ub,
        b_ub=np.array([-float(v) for v in rhs]),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2 and not elastic:  # HiGHS status 2: infeasible
        n = len(costs)
        stretched = [{**row, n + i: 1} for i, row in enumerate(rows)]
        got = _certified_guess(stretched, rhs, [0] * n + [1] * len(rows), elastic=True)
        return ("infeasible", None, [], []) if got is not None and got[1] > 0 else None
    if not res.success:
        return None
    xf = res.x.tolist()
    yf = (-res.ineqlin.marginals).tolist()
    for limit in (10**6, 10**12):
        x = _round(xf, limit)
        y = _round(yf, limit)
        if _certify(rows, rhs, costs, x, y):
            value = Fraction(sum(c * v for c, v in zip(costs, x) if c))
            return "optimal", value, x, y
    return None


def _solve_exact(
    rows: Sequence[SparseRow],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
) -> Tuple[str, Optional[Fraction], List[Fraction], List[Fraction]]:
    """Exact pivoting on the dual, max b.y subject to A^T y <= c, y >= 0.

    :func:`solve_lp` starts it from the slack basis, feasible because
    c >= 0, so phase 1 does not run.  The dual's optimum y comes with
    its certificate, which is an optimal x; an unbounded dual means an
    infeasible primal.
    """
    cols: List[dict] = [{} for _ in costs]
    for i, row in enumerate(rows):
        for j, a in row.items():
            cols[j][i] = a
    constraints = [(col, "<=", c) for col, c in zip(cols, costs)]
    sol = solve_lp(LinearProgram(len(rows), rhs, maximize=True, constraints=constraints, nonneg=True))
    if sol.status == "unbounded":
        return "infeasible", None, [], []
    x = sol.certificate
    if sum(ci * xi for ci, xi in zip(costs, x)) != sol.value:
        raise ExactnessError("strong duality does not close on the exact pivot")
    return "optimal", sol.value, x, sol.assignment


def solve_min_nonneg(
    rows: Sequence[SparseRow],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
) -> Tuple[str, Optional[Fraction], List[Fraction], List[Fraction]]:
    """min costs.x subject to rows[i].x >= rhs[i], x >= 0, costs >= 0.

    rows holds one sparse row per constraint, a {column: coefficient}
    map; coefficients, rhs and costs are ints or Fractions.  Returns
    (status, value, x, y) with status "optimal" or "infeasible"; for an
    optimum, y is an optimal dual (one multiplier per row).  The HiGHS
    guess, or its infeasibility verdict, is returned only once certified
    exactly; otherwise the LP is pivoted exactly.
    """
    if any(v < 0 for v in costs):
        raise ValueError("structured route requires nonnegative costs")
    got = _certified_guess(rows, rhs, costs)
    if got is not None:
        return got
    return _solve_exact(rows, rhs, costs)
