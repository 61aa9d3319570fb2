"""Alternating sums and the k-alternating hierarchy.

The alternating sum of f over a pivot set A0 and classes A1..Ak is

    V_f(A0; A1..Ak) = sum over K subset of {1..k} of (-1)^|K| f(A0 u U_{i in K} Ai).

f is weakly k-alternating when V_f <= 0 on every pairwise-disjoint tuple,
and k-alternating when it is weakly l-alternating for every l <= k
(equivalently, V_f <= 0 on arbitrary tuples).

With alpha the coverage coefficients of f (``coverage.to_coefficients``),
f is weakly k-alternating iff every interval sum S(L, R) = sum of alpha_C
over L <= C <= R with |L| = k is nonnegative, since S(L, R) = -V_f(J \\ R;
singletons of L): the Moebius characterization of k-monotone capacities
(Chateauneuf & Jaffray, 1989) applied to the conjugate the coverage basis
encodes.  :func:`weak_violations` computes all 3^n interval sums in one
pass and so settles every level at once.  :func:`max_disjoint_alt_sum`
needs the largest sum over disjoint tuples with general classes, not its
sign.  It visits each such tuple once, its classes a set partition of
the elements outside A0 and the unused ones, generated in restricted
growth order (Knuth, TAOCP 4A, 7.2.1.5), so no ordering of the classes
is visited twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .core import (
    Fraction,
    GroundSet,
    Partition,
    SetFunction,
    format_rational,
    popcount,
)

# max_disjoint_alt_sum refuses to enumerate more disjoint tuples than this.
ENUMERATION_LIMIT = 10**6

# weak_violations holds at most 3^_BLOCK_BITS interval sums at once.
_BLOCK_BITS = 10


class EnumerationLimitError(ValueError):
    """Raised when an enumeration of tuples would exceed its size cap."""


class NotNormalizedError(ValueError):
    """Raised when an operation requires f(empty) = 0."""


@dataclass(frozen=True)
class AlternatingWitness:
    """A violating tuple: V_f(a0; classes) = value > 0."""

    a0: int
    classes: Tuple[int, ...]
    value: Fraction

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("a witness must have a positive alternating sum")

    def to_json_dict(self) -> dict:
        return {"A0": self.a0, "tuple": list(self.classes), "value": format_rational(self.value)}


def alt_sum(f: SetFunction, a0: int, classes: Sequence[int]) -> Fraction:
    """Exact V_f(a0; classes) for k >= 1 classes, which may overlap or be empty.

    Summed over the 2^k unions in Python ints scaled by the common
    denominator of f, by the kernel :func:`max_disjoint_alt_sum` also uses.
    """
    if len(classes) < 1:
        raise ValueError("alternating sum needs at least one class")
    f.ground.check_mask(a0)
    for c in classes:
        f.ground.check_mask(c)
    return Fraction(_alt_ints(f.nums, a0, classes), f.den)


def _alt_ints(nums: Sequence[int], a0: int, classes: Sequence[int]) -> int:
    """den * V_f: nums summed over the unions of a0 with an even number of
    classes, minus the sum over those with an odd number."""
    even, odd = [a0], []
    for c in classes:
        even, odd = even + [u | c for u in odd], odd + [u | c for u in even]
    return sum(map(nums.__getitem__, even)) - sum(map(nums.__getitem__, odd))


def _require_normalized(f: SetFunction) -> None:
    if f.values[0] != 0:
        raise NotNormalizedError(f"operation requires f(empty) = 0, got {f.values[0]}")


def _interval_blocks(
    z: List[int], bits: int, r_high: int = 0, l_high: int = 0
) -> Iterator[Tuple[int, int, List[int]]]:
    """Interval sums from the subset sums z[R] = S(empty, R).

    Yields (r_high, l_high, block) with block[t(r) + t(l)] = S(l_high | l,
    r_high | r) for l <= r over the low elements, t(m) being m read in
    base 3.  Putting an element in L differences the halves of z that
    leave it out of R and put it in R; the top elements are split off
    first, so at most 3^_BLOCK_BITS sums are held at once.
    """
    if bits > _BLOCK_BITS:
        top = 1 << (bits - 1)
        z0, z1 = z[:top], z[top:]
        yield from _interval_blocks(z0, bits - 1, r_high, l_high)
        yield from _interval_blocks(z1, bits - 1, r_high | top, l_high)
        z1 = [b - a for a, b in zip(z0, z1)]
        yield from _interval_blocks(z1, bits - 1, r_high | top, l_high | top)
        return
    tables = [[v] for v in z]
    for _ in range(bits):
        tables = [a + b + [y - x for x, y in zip(a, b)] for a, b in zip(tables[::2], tables[1::2])]
    yield r_high, l_high, tables[0]


def weak_violations(f: SetFunction) -> List[Optional[AlternatingWitness]]:
    """Decide weak k-alternation for every k = 1..n in one pass.

    Entry k of the returned list (entry 0 is unused) is None when f is
    weakly k-alternating, and otherwise the witness (J \\ R; singletons of
    L) with value -S(L, R) of the first L <= R, |L| = k, S(L, R) < 0, in
    order of R and then L.  Sums run over Python ints scaled by the common
    denominator of f.
    """
    _require_normalized(f)
    n, full = f.ground.n, f.ground.full_mask
    bits = min(n, _BLOCK_BITS)
    ternary = [0] * (1 << bits)
    for m in range(1, 1 << bits):
        ternary[m] = 3 * ternary[m >> 1] + (m & 1)
    first = {}  # |L| -> (R, L, S) of the first violation
    # S(empty, R) = sum of alpha_C over C <= R = f(J) - f(J \ R)
    for r_high, l_high, block in _interval_blocks([f.nums[full] - v for v in reversed(f.nums)], n):
        if min(block) >= 0:
            continue
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


def _tuple_count(n: int, k_max: int) -> int:
    """Number of tuples :func:`_disjoint_tuples` yields, without yielding them."""
    counts = [1] + [0] * k_max  # counts[c]: label prefixes with c classes open
    for _ in range(n):
        counts = [(c + 2) * counts[c] + (counts[c - 1] if c else 0) for c in range(k_max + 1)]
    return sum(counts) - counts[0]


def _disjoint_tuples(n: int, k_max: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Each (A0, classes) with 1..k_max nonempty pairwise-disjoint classes,
    up to the order of the classes, exactly once.

    Element e, from 0 up, goes to A0, to no set, to one of the classes
    already open or to a new class, tried in that order: the tuples come
    in lexicographic order of these labels, and the classes are numbered
    by their smallest element (a restricted growth string).
    """
    classes: List[int] = []

    def extend(e: int, a0: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        if e == n:
            if classes:
                yield a0, tuple(classes)
            return
        bit = 1 << e
        yield from extend(e + 1, a0 | bit)
        yield from extend(e + 1, a0)
        for j in range(len(classes)):
            classes[j] |= bit
            yield from extend(e + 1, a0)
            classes[j] ^= bit
        if len(classes) < k_max:
            classes.append(bit)
            yield from extend(e + 1, a0)
            classes.pop()

    return extend(0, 0)


def max_disjoint_alt_sum(
    f: SetFunction, k_max: Optional[int] = None
) -> Tuple[Fraction, Optional[Tuple[int, Tuple[int, ...]]]]:
    """Maximum of V_f over pairwise-disjoint tuples with nonempty classes,
    for 1 <= k <= k_max (default n).  Returns (max, first attaining tuple).

    V_f does not depend on the order of the classes, so each unordered
    tuple is visited once and summed over its 2^k unions in Python ints
    scaled by the common denominator of f.  "First" is in the order of
    :func:`_disjoint_tuples`: element 0, then 1, and so on, goes to A0,
    to no set, to an open class or to a new class, tried in that order,
    and the classes come ordered by their smallest element.  k_max is
    capped at n, since no disjoint tuple has more nonempty classes.  The
    tuple count is checked against ENUMERATION_LIMIT before any tuple is
    visited.
    """
    _require_normalized(f)
    n = f.ground.n
    k_max = n if k_max is None else k_max
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    k_max = min(k_max, n)
    total = _tuple_count(n, k_max)
    if total > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"n={n}, k_max={k_max} needs {total} tuples (limit {ENUMERATION_LIMIT})")

    def value(t: Tuple[int, Tuple[int, ...]]) -> int:
        return _alt_ints(f.nums, *t)

    best = max(_disjoint_tuples(n, k_max), key=value, default=None)
    return (None, None) if best is None else (Fraction(value(best), f.den), best)


def is_weakly_k_alternating(f: SetFunction, k: int) -> Tuple[bool, Optional[AlternatingWitness]]:
    """Check V_f <= 0 on all pairwise-disjoint tuples with k nonempty classes.

    Each call runs the full :func:`weak_violations` pass, which settles
    every level; to profile several levels, call that once and read it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    found = weak_violations(f)
    hit = found[k] if k < len(found) else None
    return hit is None, hit


def is_k_alternating(f: SetFunction, k: int) -> Tuple[bool, Optional[AlternatingWitness]]:
    """Decide k-alternation through the weak checks for l = 1..k.

    Each call runs the full :func:`weak_violations` pass; to profile
    several levels, call that once and read it.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    hit = next((w for w in weak_violations(f)[1 : k + 1] if w is not None), None)
    return hit is None, hit


def is_weakly_infinite_alternating(f: SetFunction) -> Tuple[bool, Optional[AlternatingWitness]]:
    """Weak k-alternation for k = 2..n.

    k is capped at n: a disjoint tuple with more than n nonempty classes
    cannot exist, and tuples containing an empty class never violate.
    """
    hit = next((w for w in weak_violations(f)[2:] if w is not None), None)
    return hit is None, hit


def is_infinite_alternating(f: SetFunction) -> bool:
    """Finite-domain test: every coverage coefficient is nonnegative."""
    from .coverage import to_coefficients

    _require_normalized(f)
    coeffs = to_coefficients(f)
    return all(a >= 0 for a in coeffs.alpha)


def make_ell_not_ell_plus_one(ground: GroundSet, ell: int, x_mask: int) -> SetFunction:
    """A function that is ell-alternating but not (ell+1)-alternating.

    Built as the coverage function with coefficient 1 on every set of
    size 1..ell and -1 on the given (ell+1)-element set.
    """
    from .coverage import CoverageCoefficients, from_coefficients

    ground.check_mask(x_mask)
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if popcount(x_mask) != ell + 1:
        raise ValueError(f"need |X| = ell + 1 = {ell + 1}, got {popcount(x_mask)}")
    if ground.n <= ell:
        raise ValueError("ground set must have more than ell elements")
    alpha = [Fraction(1 if 1 <= popcount(a) <= ell else 0) for a in ground.subsets()]
    alpha[x_mask] = Fraction(-1)
    return from_coefficients(CoverageCoefficients(ground, tuple(alpha)))


def make_partition_matroid_rank(partition: Partition) -> SetFunction:
    """Rank function r(X) = number of partition classes met by X."""
    ground = partition.ground
    values = []
    for x in ground.subsets():
        values.append(Fraction(sum(1 for c in partition.classes if c & x)))
    return SetFunction(ground, values)
