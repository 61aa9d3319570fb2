"""Reference implementations the tests compare the library against.

Each is a direct, slow reading of a definition: exponential enumerations
and O(4^n) basis matrices over Fraction values.  None runs in the library.
"""

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from setdecomp import (
    AlternatingWitness,
    CoverageCoefficients,
    EnumerationLimitError,
    GroundSet,
    NotNormalizedError,
    SetFunction,
    alt_sum,
    popcount,
)


# -- alternating sums ----------------------------------------------------


def alt_sum_recursive_check(f: SetFunction, a0: int, classes: Sequence[int]) -> Fraction:
    """V(A0; A1..Ak) as a difference of two (k-1)-sums."""
    k = len(classes)
    if k < 2:
        raise ValueError("recursive form needs at least two classes")
    head = classes[:-1]
    return alt_sum(f, a0, head) - alt_sum(f, a0 | classes[-1], head)


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
            v = Fraction(0)
            for code in range(1 << k):
                union = a0
                for i in range(k):
                    if code >> i & 1:
                        union |= classes[i]
                v += -vals[union] if popcount(code) & 1 else vals[union]
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
