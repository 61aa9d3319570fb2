"""Exact rational linear programming.

:func:`solve_min_nonneg` solves every LP the library poses: min c.x
subject to A x >= b, x >= 0, with c >= 0 and A given as sparse rows
(triangle cover, clique bound).  It holds A in CSR form as int arrays
over one common denominator, scales b and c to ints once, and hands
them to :func:`_solve_scaled`, which the decomposition LPs, built
already scaled, call directly.  That climbs one ladder: HiGHS solves
the LP in floating point, its guess is rounded to scaled ints (a
continued fraction walk in ints, :func:`_limit_denominator`), and the
primal/dual pair is trusted only after an exact certificate passes
(primal and dual feasibility, equal objectives), one pass over the
arrays, in int64 when a bound on every sum and product fits and on
Python ints otherwise; an LP that HiGHS reports infeasible is certified
infeasible through its elastic relaxation.  ``_highs`` hands HiGHS the
CSR rows as they are, through scipy's own binding of it,
``scipy.optimize._highspy``.  When neither certifies, both run once
more on the LP with b and c divided by the powers of two that bring
max|b| and max|c| into [1, 2), and what certifies there scales back
exactly.

When that fails too, :func:`_solve_exact` is the one exact simplex.
It pivots the dual LP max b.y, A^T y <= c, y >= 0 on a tableau of
``Fraction`` entries, starting from its slack basis, which is feasible
because c >= 0: the dual simplex method on the primal (Lemke 1954).
Pricing is Dantzig's, then Bland's rule against cycling.  Every pivot
clears the pivot column from the constraint rows and the objective row
in one pass, so the value, the primal x and the duals y come straight
out of the tableau.  The lower-charge oracle in ``charges`` calls it
directly on a small covering LP of the same form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import mul
from typing import List, Mapping, Optional, Sequence, Tuple

from .core import _fractions, _is_int, scale_to_ints, to_rational

# Dantzig pricing until this many iterations, then Bland (guarantees
# termination); both deterministic.
_BLAND_SWITCH = 20000


class ExactnessError(RuntimeError):
    """An exactness check on a computed result failed; the result is not trusted."""


def _pivot(rows: List[List], objrow: List, basis: List[int], r: int, j: int) -> None:
    prow = rows[r]
    inv = 1 / prow[j]
    if inv != 1:
        rows[r] = prow = [a * inv for a in prow]
    nonzero = [(idx, p) for idx, p in enumerate(prow) if p]
    # one pass clears column j from every other row and the objective row
    for other in (*rows, objrow):
        f = other[j]
        if f and other is not prow:
            for idx, p in nonzero:
                other[idx] -= f * p
    basis[r] = j


def _min_simplex(rows: List[List], basis: List[int], costs: List) -> Tuple[str, List]:
    """Minimize costs over the tableau in place.

    rows[r] has width len(costs)+1 (rhs last, >= 0); the basis columns
    form an identity and cost 0, so the costs are the starting reduced
    costs.  Returns (status, objrow); objrow[j] is the reduced cost
    c_j - z_j and objrow[-1] is -objective.
    """
    objrow = list(costs) + [Fraction(0)]
    iters = 0
    while True:
        iters += 1
        negative = [j for j, d in enumerate(objrow[:-1]) if d < 0]
        if not negative:
            return "optimal", objrow
        # Dantzig: the lowest index among the most negative; Bland: the lowest
        enter = min(negative, key=objrow.__getitem__) if iters < _BLAND_SWITCH else negative[0]
        ratio, leave = None, -1
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                t = row[-1] / a
                if ratio is None or t < ratio or (t == ratio and basis[r] < basis[leave]):
                    ratio = t
                    leave = r
        if leave < 0:
            return "unbounded", objrow
        _pivot(rows, objrow, basis, leave, enter)


def _solve_exact(
    rows: Sequence[SparseRow],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
) -> Tuple[str, Optional[Fraction], List[Fraction], List[Fraction]]:
    """Exact pivoting on the dual, max b.y subject to A^T y <= c, y >= 0.

    The tableau has one row per primal variable j: column j of A across
    the m dual columns, then n slack columns, then c_j >= 0 as the rhs,
    so the slack basis is feasible.  It minimizes -b.y.  At an optimum,
    the reduced costs of the slacks are an optimal x; an unbounded dual
    means an infeasible primal.  Ints and strings are read as Fractions.
    """
    costs = list(map(to_rational, costs))
    n, m = len(costs), len(rows)
    zero = Fraction(0)
    tab = [[zero] * (m + n) + [c] for c in costs]
    for i, row in enumerate(rows):
        for j, a in row.items():
            a = to_rational(a)
            if a:
                tab[j][i] = a
    for j in range(n):
        tab[j][m + j] = Fraction(1)
    basis = list(range(m, m + n))

    status, objrow = _min_simplex(tab, basis, [-to_rational(b) for b in rhs] + [zero] * n)
    if status == "unbounded":
        return "infeasible", None, [], []
    y = [zero] * (m + n)
    for r, b in enumerate(basis):
        y[b] = tab[r][-1]
    del tab  # free the tableau before the answer is checked
    value, x = objrow[-1], objrow[m:-1]
    if sum(map(mul, costs, x)) != value:
        raise ExactnessError("strong duality does not close on the exact pivot")
    return "optimal", value, x, y[:m]


# -- structured route ----------------------------------------------------

SparseRow = Mapping[int, Rational]
Scaled = Tuple[int, "np.ndarray"]  # (positive common denominator, numerators as an int array)

_INT64_LIMIT = 2**63
_FLOAT_EXACT = 2**53  # ints up to this size are exact in a float64


def _int_array(values: Sequence[int]):
    """Python ints as an int64 array when each fits, else as an object array."""
    import numpy as np

    peak = max(map(abs, values), default=0)
    return np.array(values, dtype=np.int64 if peak < _INT64_LIMIT else object)


def _max_abs(values) -> int:
    return int(abs(values).max(initial=0))


def _quotients(nums, den: int):
    """The floats nums[k] / den, each rounded as Python's int / int rounds it.

    When numerators and denominator are exact in a float64, one IEEE
    division rounds correctly as well; bigger ones divide as Python ints.
    """
    import numpy as np

    if den <= _FLOAT_EXACT and _max_abs(nums) <= _FLOAT_EXACT:
        return nums.astype(float) / den
    return np.array([v / den for v in nums.tolist()], dtype=float)


def _row_sums(values, indptr):
    """The sum of each CSR row's entries, in values' dtype.

    ``reduceat`` gives an empty row the next entry instead of 0, so it
    sums the filled rows only.
    """
    import numpy as np

    out = np.zeros(len(indptr) - 1, dtype=values.dtype)
    starts = indptr[:-1]
    filled = starts < indptr[1:]
    if values.size:
        out[filled] = np.add.reduceat(values, starts[filled])
    return out


def _column_sums(values, indices, ncols: int):
    import numpy as np

    out = np.zeros(ncols, dtype=values.dtype)
    np.add.at(out, indices, values)
    return out


class _CSRRows:
    """The rows of A, each read as a {column: coefficient} map, held in CSR form.

    Row i holds the entries k in indptr[i]:indptr[i+1], with column
    indices[k] and coefficient nums[k] / den, in the order of its map.
    nums comes from :func:`_int_array`, den is a positive int, and the
    largest row and column L1 norms of nums are kept for the
    certificate's overflow bound.  Iterating gives one map per row, with
    int coefficients when den is 1, which is how exact pivoting reads
    rows; nothing else needs them.
    """

    __slots__ = ("indptr", "indices", "nums", "den", "ncols", "row_l1", "col_l1")

    def __init__(self, indptr, indices, nums, den: int, ncols: int):
        self.indptr, self.indices, self.nums, self.den, self.ncols = indptr, indices, nums, den, ncols
        mags = abs(nums)
        self.row_l1 = _max_abs(_row_sums(mags, indptr))
        self.col_l1 = _max_abs(_column_sums(mags, indices, ncols))

    @classmethod
    def from_maps(cls, rows: Sequence[SparseRow], ncols: int) -> "_CSRRows":
        """The rows of {column: int or Fraction} maps, each column an int in 0..ncols-1, scaled to ints once."""
        import numpy as np

        if not all(_is_int(j) and 0 <= j < ncols for row in rows for j in row):
            raise ValueError(f"a sparse row's column is not an int in 0..{ncols - 1}")
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        indices = np.array([j for row in rows for j in row], dtype=np.int64)
        den, nums = scale_to_ints([a for row in rows for a in row.values()])
        return cls(indptr, indices, _int_array(nums), den, ncols)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        ptr = self.indptr.tolist()
        cols = self.indices.tolist()
        nums = self.nums.tolist()
        coefs = nums if self.den == 1 else _fractions(self.den, nums)
        for start, end in zip(ptr, ptr[1:]):
            yield dict(zip(cols[start:end], coefs[start:end]))

    def with_slacks(self) -> "_CSRRows":
        """The rows of A x + s >= b: row i gains column ncols + i with coefficient 1."""
        import numpy as np

        m = len(self)
        ends = self.indptr[1:]
        return _CSRRows(
            self.indptr + np.arange(m + 1),
            np.insert(self.indices, ends, self.ncols + np.arange(m)),
            np.insert(self.nums, ends, self.den),
            self.den,
            self.ncols + m,
        )


def _scaled(values: Sequence[Rational]) -> Scaled:
    den, nums = scale_to_ints(values)
    return den, _int_array(nums)


def _rationals(s: Scaled) -> Tuple[Fraction, ...]:
    den, nums = s
    return _fractions(den, nums.tolist())


def _limit_denominator(p: int, q: int, limit: int) -> Tuple[int, int]:
    """The terms of ``Fraction(p, q).limit_denominator(limit)``, for coprime p and q > 0.

    CPython's continued-fraction walk, in ints: the last convergent
    p1/q1 with q1 <= limit against the semiconvergent p2/q2 with the
    largest denominator <= limit.  The convergent wins a tie,
    |p1/q1 - p/q| <= |p2/q2 - p/q|, compared by cross-multiplication.
    """
    if q <= limit:
        return p, q
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = p, q
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > limit:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (limit - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    if abs(p1 * q - p * q1) * q2 <= abs(p2 * q - p * q2) * q1:
        return p1, q1
    return p2, q2


def _round(values: List[float], limit: int) -> Scaled:
    """Each float as the nearest rational with denominator <= limit, all over their lcm.

    LP vertices repeat few distinct values, so each is rounded once, to
    the pair ``Fraction(v).limit_denominator(limit)`` would give.
    """
    pairs = {v: _limit_denominator(*v.as_integer_ratio(), limit) for v in set(values)}
    d = lcm(*(q for _, q in pairs.values()))
    scaled = {v: p * (d // q) for v, (p, q) in pairs.items()}
    return d, _int_array([scaled[v] for v in values])


def _dot(u, v) -> int:
    """The exact dot product of two int arrays, as a Python int."""
    import numpy as np

    nz = np.flatnonzero(v)
    return sum(map(mul, u[nz].tolist(), v[nz].tolist()))


def _certify(a: _CSRRows, b: Scaled, c: Scaled, x: Scaled, y: Scaled) -> Optional[Fraction]:
    """The optimum c.x if x is primal optimal and y dual optimal, else None.

    Everything is scaled to ints, so one pass over arrays checks x >= 0,
    y >= 0, A x >= b, A^T y <= c and c.x == b.y, after which weak
    duality proves both optimal.  The sums and products run in int64
    when a bound on each of them stays below 2^63, and on Python ints
    (an object array, the same code) when it does not.
    """
    import numpy as np

    (db, bs), (dc, cs), (dx, px), (dy, qy) = b, c, x, y
    if len(px) and px.min() < 0 or len(qy) and qy.min() < 0:
        return None
    den = a.den
    # A x >= b  <=>  (A_int px) * db >= bs * dx * den, and likewise for A^T y <= c
    widest = max(
        max(a.row_l1 * _max_abs(px), 1) * db,
        max(_max_abs(bs), 1) * dx * den,
        max(a.col_l1 * _max_abs(qy), 1) * dc,
        max(_max_abs(cs), 1) * dy * den,
    )
    dtype = np.int64 if widest < _INT64_LIMIT else object
    coefs = a.nums.astype(dtype)
    p, q = px.astype(dtype), qy.astype(dtype)
    if np.any(_row_sums(coefs * p[a.indices], a.indptr) * db < bs.astype(dtype) * (dx * den)):
        return None
    q_entries = np.repeat(q, np.diff(a.indptr))
    used = np.flatnonzero(q_entries)
    col = _column_sums(coefs[used] * q_entries[used], a.indices[used], a.ncols)
    if np.any(col * dc > cs.astype(dtype) * (dy * den)):
        return None
    primal, dual = _dot(cs, px), _dot(bs, qy)
    return Fraction(primal, dc * dx) if primal * db * dy == dual * dc * dx else None


def _highs(a: _CSRRows, c, b):
    """HiGHS on min c.x, A x >= b, x >= 0, for float arrays c and b:
    (status, x, y) with y >= 0 the multipliers of A x >= b, as float
    lists, or (status, None, None) when HiGHS reports no optimum.  Status
    0 is an optimum, 2 an infeasible LP or one HiGHS rejects, and 4 any
    other outcome.

    HiGHS is reached through scipy's own binding of it, on a fresh
    instance, with A's CSR arrays as a row-wise model of -A x <= -b:
    entries -float(a), rows in (-inf, -b], columns in [0, inf), presolve
    on, dual simplex, no output.  So x is its ``col_value`` and y the
    negated ``row_dual``.
    """
    import numpy as np
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        HighsStatus,
        MatrixFormat,
        _Highs,
        simplex_constants,
    )

    m, n = len(a), a.ncols
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = MatrixFormat.kRowwise
    lp.a_matrix_.start_, lp.a_matrix_.index_ = a.indptr, a.indices
    lp.a_matrix_.value_ = -_quotients(a.nums, a.den)
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = np.zeros(n), np.full(n, np.inf)
    lp.row_lower_, lp.row_upper_ = np.full(m, -np.inf), -b
    options = HighsOptions()
    options.presolve = "on"
    options.output_flag = options.log_to_console = False
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs = _Highs()
    if highs.passOptions(options) == HighsStatus.kError:
        return 4, None, None
    if highs.passModel(lp) == HighsStatus.kError:
        return 2, None, None  # rejected unsolved, e.g. a bound at or past HiGHS's infinity 1e20
    ran = highs.run() != HighsStatus.kError
    status = highs.getModelStatus()
    if ran and status == HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        return 0, solution.col_value, [-v for v in solution.row_dual]
    return (2 if status == HighsModelStatus.kInfeasible else 4), None, None


def _certified_guess(a: _CSRRows, b: Scaled, c: Scaled) -> Tuple[int, Optional[tuple]]:
    """HiGHS's status on min c.x, A x >= b, x >= 0, and its guess (value,
    x, y), rounded to scaled ints, if that certifies, else None."""
    (db, bs), (dc, cs) = b, c
    # these are float(c_j) and float(b_i), bit for bit (-0.0 included)
    status, xf, yf = _highs(a, _quotients(cs, dc), _quotients(bs, db))
    if xf is not None:
        for limit in (10**6, 10**12):
            x, y = _round(xf, limit), _round(yf, limit)
            value = _certify(a, b, c, x, y)
            if value is not None:
                return status, (value, x, y)
    return status, None


def _float_rungs(a: _CSRRows, b: Scaled, c: Scaled):
    """What HiGHS's guess on min c.x, A x >= b, x >= 0 certifies, or, when
    HiGHS finds it infeasible, its elastic LP's: (value, x, y) with x and
    y scaled ints, "infeasible", or None."""
    status, got = _certified_guess(a, b, c)
    if status != 2:  # HiGHS status 2: infeasible
        return got
    n, m = a.ncols, len(a)
    _, got = _certified_guess(a.with_slacks(), b, (1, _int_array([0] * n + [1] * m)))
    return "infeasible" if got is not None and got[0] > 0 else None


def _exponent(s: Scaled) -> int:
    """The e with 2^e <= max|v| < 2^(e+1) over the scaled rationals v, or 0 when all are 0."""
    den, nums = s
    top = _max_abs(nums)
    if not top:
        return 0
    e = top.bit_length() - den.bit_length()
    return e if top << max(-e, 0) >= den << max(e, 0) else e - 1


def _times_power_of_two(s: Scaled, e: int) -> Scaled:
    """The scaled rationals times 2^e, exactly; s itself when e is 0."""
    den, nums = s
    if not e:
        return s
    if e < 0:
        return den << -e, nums
    return den, _int_array([v << e for v in nums.tolist()])


def solve_min_nonneg(
    rows: Sequence[SparseRow],
    rhs: Sequence[Rational],
    costs: Sequence[Rational],
) -> Tuple[str, Optional[Fraction], List[Fraction], List[Fraction]]:
    """min costs.x subject to rows[i].x >= rhs[i], x >= 0, costs >= 0.

    rows holds one sparse row per constraint, a {column: coefficient}
    map, and coefficients, rhs and costs are ints or Fractions.  Returns
    (status, value, x, y) with status "optimal" or "infeasible"; for an
    optimum, y is an optimal dual (one multiplier per row).  The rows,
    rhs and costs are scaled to ints once and solved by
    :func:`_solve_scaled`.
    """
    if any(v < 0 for v in costs):
        raise ValueError("structured route requires nonnegative costs")
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    return _solve_scaled(_CSRRows.from_maps(rows, len(costs)), _scaled(rhs), _scaled(costs))


def _solve_scaled(
    a: _CSRRows, b: Scaled, c: Scaled
) -> Tuple[str, Optional[Fraction], List[Fraction], List[Fraction]]:
    """:func:`solve_min_nonneg` on A, b and c >= 0 already scaled to ints,
    which the decomposition LPs build that way.

    The rungs, in order: HiGHS's guess, rounded and certified; if HiGHS
    finds the LP infeasible, the always-feasible elastic LP min sum(s),
    A x + s >= b, x, s >= 0, whose certified positive optimum proves
    infeasibility (its dual is a Farkas vector); both once more with b
    and c divided by the powers of two 2^eb and 2^ec that bring max|b|
    and max|c| into [1, 2), unless both already lie there; otherwise
    exact pivoting, on the rows, b and c read back as Fractions.

    The rescaled float LP differs from the first only in its exponents,
    so a guess HiGHS could not make or round near 2^64 can certify
    there.  Its x, y and value are those of the LP times 2^-eb, 2^-ec
    and 2^-(eb+ec), so what certifies scales back exactly, and so does a
    proof of infeasibility.
    """
    if a.ncols:  # HiGHS rejects an LP without variables
        for eb, ec in dict.fromkeys([(0, 0), (_exponent(b), _exponent(c))]):
            got = _float_rungs(a, _times_power_of_two(b, -eb), _times_power_of_two(c, -ec))
            if got == "infeasible":
                return "infeasible", None, [], []
            if got is not None:
                value, x, y = got
                value *= Fraction(2) ** (eb + ec)
                x, y = _times_power_of_two(x, eb), _times_power_of_two(y, ec)
                return "optimal", value, list(_rationals(x)), list(_rationals(y))
    return _solve_exact(a, _rationals(b), _rationals(c))
