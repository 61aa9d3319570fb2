"""Reference implementations the tests compare the library against.

Each is a direct, slow reading of a definition: tables parsed one value
at a time, the four-set submodularity test over all pairs, edge weights
looked up edge by edge, exponential enumerations, O(4^n) basis matrices,
LP rows over Fraction values, LPs in the form their definitions give and
coverage constructions over Fraction coefficients.  None runs in the
library.
"""

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from setdecomp import (
    AlternatingWitness,
    Charge,
    CoverageCoefficients,
    EnumerationLimitError,
    GroundSet,
    NotNormalizedError,
    PreconditionError,
    SetFunction,
    WeightedGraph,
    alt_sum,
    enumerate_cliques,
    from_coefficients,
    is_weakly_infinite_alternating,
    norm_inf,
    popcount,
    to_coefficients,
)
from setdecomp import alternating, core, simplex


# -- parsing -------------------------------------------------------------


def parse_per_value(values: Sequence) -> Tuple[int, Tuple[int, ...]]:
    """(den, nums) of a table read one value at a time: every value through
    ``core._pair``, in table order, scaled over the least common
    denominator.  Raises what the first unreadable value raises."""
    den, nums = core._scale([core._pair(v) for v in values])
    g = gcd(den, *nums)
    return den // g, tuple(v // g for v in nums)


# -- submodularity ------------------------------------------------------


def is_modular_on_pair(f: SetFunction, a: int, b: int) -> bool:
    """f(A) + f(B) == f(A & B) + f(A | B) for the masks a and b."""
    f.ground.check_mask(a)
    f.ground.check_mask(b)
    return f.nums[a] + f.nums[b] == f.nums[a & b] + f.nums[a | b]


def global_submodularity_check(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Four-set definition over all pairs; O(4^n) oracle for the local test."""
    vals = f.nums
    for X in f.ground.subsets():
        for Y in f.ground.subsets():
            if vals[X] + vals[Y] < vals[X & Y] + vals[X | Y]:
                return False, (X, Y)
    return True, None


# -- alternating sums ----------------------------------------------------


def alt_sum_recursive_check(f: SetFunction, a0: int, classes: Sequence[int]) -> Fraction:
    """V(A0; A1..Ak) as a difference of two (k-1)-sums."""
    k = len(classes)
    if k < 2:
        raise ValueError("recursive form needs at least two classes")
    head = classes[:-1]
    return alt_sum(f, a0, head) - alt_sum(f, a0 | classes[-1], head)


def alt_sum_by_index_subsets(values: Sequence[Fraction], a0: int, classes: Sequence[int]) -> Fraction:
    """V(A0; A1..Ak) read off its definition: a Fraction sum over the 2^k
    index subsets K of (-1)^|K| f(A0 u the classes in K)."""
    total = Fraction(0)
    k = len(classes)
    for code in range(1 << k):
        union = a0
        for i in range(k):
            if code >> i & 1:
                union |= classes[i]
        total += -values[union] if popcount(code) & 1 else values[union]
    return total


def is_k_alternating_bruteforce(f: SetFunction, k: int) -> Tuple[bool, Optional[AlternatingWitness]]:
    """Enumerate arbitrary (not necessarily disjoint) tuples.

    Exponential in (k+1)*n; restricted to n <= 5, k <= 3.
    """
    n = f.ground.n
    if n > 5 or k > 3:
        raise EnumerationLimitError("brute-force oracle limited to n <= 5, k <= 3")
    if f.values[0] != 0:
        raise NotNormalizedError(f"operation requires f(empty) = 0, got {f.values[0]}")
    size = 1 << n
    vals = f.values
    classes = [0] * k

    def rec(depth: int, a0: int) -> Optional[AlternatingWitness]:
        if depth == k:
            v = alt_sum_by_index_subsets(vals, a0, classes)
            if v > 0:
                return AlternatingWitness(a0, tuple(classes), v)
            return None
        for c in range(size):
            classes[depth] = c
            hit = rec(depth + 1, a0)
            if hit is not None:
                return hit
        return None

    for a0 in range(size):
        hit = rec(0, a0)
        if hit is not None:
            return False, hit
    return True, None


def weak_violations_by_pairs(f: SetFunction) -> List[Optional[AlternatingWitness]]:
    """``weak_violations`` read by visiting every pair L <= R of every block
    of interval sums, in order of R and then L, keeping the first negative
    S(L, R) of each size |L|."""
    if f.values[0] != 0:
        raise NotNormalizedError(f"operation requires f(empty) = 0, got {f.values[0]}")
    n, full = f.ground.n, f.ground.full_mask
    bits = min(n, alternating._BLOCK_BITS)
    ternary = [0] * (1 << bits)
    for m in range(1, 1 << bits):
        ternary[m] = 3 * ternary[m >> 1] + (m & 1)
    first = {}  # |L| -> (R, L, S) of the first violation
    for r_high, l_high, block in alternating._interval_blocks([f.nums[full] - v for v in reversed(f.nums)], n):
        for r in range(1 << bits):
            l = 0
            while True:  # the subsets of r in increasing order
                hit = (r_high | r, l_high | l, block[ternary[r] + ternary[l]])
                if hit[2] < 0 and hit < first.get(popcount(hit[1]), (full + 1,)):
                    first[popcount(hit[1])] = hit
                if l == r:
                    break
                l = (l - r) & r
    out: List[Optional[AlternatingWitness]] = [None] * (n + 1)
    for k, (r, l, s) in first.items():
        if k:
            singletons = tuple(1 << e for e in range(n) if l >> e & 1)
            out[k] = AlternatingWitness(full ^ r, singletons, Fraction(-s, f.den))
    return out


# -- explicit coverage basis matrices ------------------------------------


def basis_matrix_apply(ground: GroundSet, alpha: Tuple[Fraction, ...]) -> SetFunction:
    """Row X of the basis matrix indicates the sets meeting X."""
    values = [Fraction(0)] * ground.size
    for x in ground.nonempty_subsets():
        acc = Fraction(0)
        for a in ground.nonempty_subsets():
            if x & a:
                acc += alpha[a]
        values[x] = acc
    return SetFunction(ground, values)


def inverse_matrix_apply(f: SetFunction) -> CoverageCoefficients:
    """Entry (X, Y) is (-1)^(|X n Y| - 1) when X u Y covers the ground set."""
    ground = f.ground
    full = ground.full_mask
    alpha = [Fraction(0)] * ground.size
    for x in ground.nonempty_subsets():
        acc = Fraction(0)
        for y in ground.nonempty_subsets():
            if x | y == full:
                if popcount(x & y) & 1:
                    acc += f.values[y]
                else:
                    acc -= f.values[y]
        alpha[x] = acc
    return CoverageCoefficients(ground, tuple(alpha))


# -- coverage constructions over Fraction coefficients -------------------


def diff_decompose_by_fraction_signs(f: SetFunction) -> Tuple[SetFunction, SetFunction]:
    """f = f1 - f2, the coverage functions of the positive and of the
    negated negative Fraction coefficients of f."""
    coeffs = to_coefficients(f)
    pos = [a if a > 0 else Fraction(0) for a in coeffs.alpha]
    neg = [-a if a < 0 else Fraction(0) for a in coeffs.alpha]
    return (
        from_coefficients(CoverageCoefficients(f.ground, tuple(pos))),
        from_coefficients(CoverageCoefficients(f.ground, tuple(neg))),
    )


def weakly_alt_canonical_by_charge(psi: SetFunction) -> Tuple[SetFunction, Charge]:
    """The canonical pair (phi, mu) of a weakly infinite-alternating psi as
    the proof builds it: add the charge mu0(X) = 2|X| * ||psi||, which makes
    psi infinite-alternating, expand the sum over the coverage basis, and
    cancel each atom of mu0 against its singleton coefficient.  Refusals
    raise PreconditionError with the library's messages."""
    g = psi.ground
    if psi(0) != 0:
        raise PreconditionError("psi(empty) must be 0; use normalize_at_empty")
    ok, witness = is_weakly_infinite_alternating(psi)
    if not ok:
        raise PreconditionError(f"psi is not weakly infinite-alternating (witness {witness})")
    mu = [2 * norm_inf(psi)] * g.n
    alpha = list(to_coefficients(psi + Charge(g, tuple(mu)).as_set_function()).alpha)
    if min(alpha) < 0:
        raise ValueError("the charge-shifted psi is not a coverage function")
    for a in range(g.n):
        cut = min(mu[a], alpha[1 << a])
        mu[a] -= cut
        alpha[1 << a] -= cut
    return from_coefficients(CoverageCoefficients(g, tuple(alpha))), Charge(g, tuple(mu))


# -- decomposition LPs ---------------------------------------------------


def decomposition_rows_fractions(
    psi: SetFunction, kind: str, c_bound: Optional[Fraction]
) -> Tuple[List[Dict[int, int]], List[Fraction]]:
    """The rows and right-hand sides of the decomposition LP, one Fraction
    per right-hand side, in the library's row order: monotone steps, then
    local submodularity, then the box of c * ||psi|| when c_bound is set."""
    g = psi.ground
    n = g.n
    rows: List[Dict[int, int]] = []
    rhs: List[Fraction] = []

    def add(row: Dict[int, int], b: Fraction) -> None:
        rows.append(row)
        rhs.append(b)

    for x in range(g.size):
        for u in range(n):
            if x >> u & 1:
                continue
            xu = x | 1 << u
            row = {xu - 1: 1}
            if x:
                row[x - 1] = -1
            add(row, max(Fraction(0), psi.values[xu] - psi.values[x]))

    for x in range(g.size):
        for u in range(n):
            if x >> u & 1:
                continue
            for v in range(u + 1, n):
                if x >> v & 1:
                    continue
                xu, xv = x | 1 << u, x | 1 << v
                xuv = xu | 1 << v
                s_psi = psi.values[xu] + psi.values[xv] - psi.values[xuv] - psi.values[x]
                row = {xu - 1: 1, xv - 1: 1, xuv - 1: -1}
                if x:
                    row[x - 1] = -1
                if kind == "sum":
                    add(row, Fraction(0))
                    add({j: -a for j, a in row.items()}, -s_psi)
                else:
                    add(row, max(Fraction(0), s_psi))

    if c_bound is not None:
        bound = c_bound * norm_inf(psi)
        for x in range(1, g.size):
            add({x - 1: -1}, -bound)
            add({x - 1: 1}, psi.values[x] - bound)
            add({x - 1: -1}, -bound - psi.values[x])
    return rows, rhs


# -- graph bounds --------------------------------------------------------


def weight_of(g: WeightedGraph, u: int, v: int) -> Fraction:
    """The weight of the edge uv, or 0 when g has no such edge."""
    if u > v:
        u, v = v, u
    return next((w for a, b, w in g.edges if (a, b) == (u, v)), Fraction(0))


def clique_bound_equality_lp(g: WeightedGraph) -> Fraction:
    """The clique bound as first stated: min sum ceil(k/2)*floor(k/2) z(K)
    over every clique K, singletons and edges included, subject to
    sum_{K contains e} z(K) = w(e) for each edge e and z >= 0, each
    equality written as two >= rows and solved by exact pivoting.  z on
    the edges alone is feasible and the costs are >= 0, so the optimum
    exists."""
    cliques = enumerate_cliques(g)
    costs = [(popcount(k) + 1) // 2 * (popcount(k) // 2) for k in cliques]
    rows, rhs = [], []
    for u, v, w in g.edges:
        row = {c: 1 for c, k in enumerate(cliques) if (1 << u | 1 << v) & ~k == 0}
        rows += [row, {c: -1 for c in row}]
        rhs += [w, -w]
    status, value, _, _ = simplex._solve_exact(rows, rhs, costs)
    if status != "optimal":
        raise ValueError(f"clique equality LP ended {status}")
    return value


def free_charge_lp(f: SetFunction) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """The lower charge's LP over free atoms, as first stated: max a(J)
    subject to a(J \\ X) <= f(J) - f(X) for every X, with a = a+ - a-
    split into nonnegative columns.  It is the dual that exact pivoting
    solves for the LP min sum_X (f(J) - f(X)) z_X subject to
    sum_{X not containing x} z_X >= 1 and -sum_{X not containing x} z_X >= -1
    for each x, z >= 0.  Returns the optimum and the atoms a+ - a-."""
    n, full = f.ground.n, f.ground.full_mask
    rows = [{x: 1 for x in f.ground.subsets() if not x >> i & 1} for i in range(n)]
    rows += [{x: -1 for x in row} for row in rows]
    costs = [f.values[full] - v for v in f.values]
    status, value, _, split = simplex._solve_exact(rows, [1] * n + [-1] * n, costs)
    if status != "optimal":
        raise ValueError(f"free charge LP ended {status}")
    return value, tuple(p - q for p, q in zip(split, split[n:]))
