"""The alternating hierarchy on a small ground set.

A set function is k-alternating when every inclusion-exclusion sum
V(A0; A1, ..., Ak) is nonpositive.  Order 1 is exactly monotonicity,
order 2 adds submodularity, and the orders keep getting stronger until
the infinite-alternating class, which coincides with coverage functions.
This script walks a few functions through the hierarchy.
"""

from fractions import Fraction

from setdecomp import (
    GroundSet,
    Partition,
    SetFunction,
    is_infinite_alternating,
    make_ell_not_ell_plus_one,
    make_partition_matroid_rank,
    weak_violations,
)


def profile(name, f):
    # one pass decides every level: entry k is the first violation of weak
    # k-alternation, and f is k-alternating when levels 1..k all hold
    found = weak_violations(f)
    print(f"{name}:")
    witness = None
    for k in range(1, f.ground.n + 1):
        weak = found[k] is None
        witness = witness or found[k]
        strong = witness is None
        line = f"  k={k}  weak={str(weak):5}  strong={str(strong):5}"
        if witness is not None:
            line += f"  witness value {witness.value}"
        print(line)
    print(f"  infinite-alternating: {is_infinite_alternating(f)}")
    print()


def main():
    g = GroundSet(4)

    # square of the cardinality: increasing but badly supermodular
    squared = SetFunction.from_callable(g, lambda m: Fraction(bin(m).count("1")) ** 2)
    profile("|X|^2", squared)

    # capped cardinality min(|X|, 2): a matroid rank, hence fully alternating
    capped = SetFunction.from_callable(g, lambda m: Fraction(min(bin(m).count("1"), 2)))
    profile("min(|X|, 2)", capped)

    # a function built to sit at level 2 of the hierarchy exactly
    f = make_ell_not_ell_plus_one(g, 2, 0b0111)
    profile("2-alternating but not 3-alternating", f)

    # partition matroid rank: sums of intersection indicators
    rank = make_partition_matroid_rank(Partition(g, (0b0011, 0b1100)))
    profile("partition matroid rank", rank)


if __name__ == "__main__":
    main()
