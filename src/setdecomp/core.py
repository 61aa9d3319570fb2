"""Ground sets, subset masks, and exact-rational set functions.

Subsets of a ground set of size n (n <= 16) are encoded as n-bit integers,
and a set function is a dense table of 2**n Fractions indexed by mask.  It
also carries, from construction on, the least common denominator ``den`` of
its values and the Python ints ``nums = den * values``, on which the
predicates, transforms and charge arithmetic run; every result is exact.
Tables cross between ints and Fractions in two places only: canonical
"p/q" strings, the format ``format_rational`` writes, are read with
``int()``, and every table of Fractions is made by ``_fractions`` from
coprime (numerator, denominator) pairs.
The shape predicates decide from one table of steps f(X + u) - f(X),
compared list against list by built-ins, and each function keeps its
verdicts, so the precondition checks of repeated calls on one function
cost one decision each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import eq, ge, le, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

RationalLike = Union[Fraction, int, str]

MAX_GROUND = 16


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fractions(den: int, nums: Iterable[int]) -> Tuple[Fraction, ...]:
    """The Fractions v / den for the ints v in nums, for an int den > 0.

    Each is built from its coprime pair by setting the two slots that are
    the whole state of a ``Fraction`` (CPython 3.10-3.13), which skips the
    type checks and the gcd of its constructor.  Were the slots renamed,
    setting them would raise AttributeError, never give a wrong value.
    """
    new = object.__new__
    out = []
    for v in nums:
        g = gcd(v, den)
        x = new(Fraction)
        x._numerator = v // g
        x._denominator = den // g
        out.append(x)
    return tuple(out)


def to_rational(x: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings to Fraction; bools are refused.

    A Fraction is returned as it is; anything else is read by ``_pair``.
    """
    if isinstance(x, Fraction):
        return x
    p, q = _pair(x)
    return _fractions(q, (p,))[0]


def _pair(x: RationalLike) -> Tuple[int, int]:
    """(p, q) with q > 0 and p / q the value of x; not always coprime.

    An int is (x, 1) and a Fraction its terms.  A canonical string, ASCII
    "p" or "p/q" with an optional leading minus and q nonzero, is read with
    int(); any other string (" 3/4 ", "1.5", "1e3", "+3") goes to the
    ``Fraction`` constructor, which also raises for the malformed ones
    ("3/", "3/-4", "1/0").  Bools and other types raise TypeError.
    """
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if x.isascii() and digits.isdigit() and (not slash or den.isdigit()):
            q = int(den) if slash else 1
            if q:
                return int(num), q
        x = Fraction(x)
    elif _is_int(x):
        return x, 1
    elif not isinstance(x, Fraction):
        raise TypeError(f"not an exact rational: {x!r}")
    return x.numerator, x.denominator


def format_rational(x: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GroundSetError(ValueError):
    pass


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class GroundSet:
    """A finite ground set; elements are the indices 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if not (_is_int(self.n) and 1 <= self.n <= MAX_GROUND):
            raise GroundSetError(f"ground set size must be an int in 1..{MAX_GROUND}, got {self.n!r}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def size(self) -> int:
        return 1 << self.n

    def subsets(self) -> Iterator[int]:
        return iter(range(1 << self.n))

    def nonempty_subsets(self) -> Iterator[int]:
        return iter(range(1, 1 << self.n))

    def elements(self, mask: int) -> Iterator[int]:
        for i in range(self.n):
            if mask >> i & 1:
                yield i

    def check_mask(self, mask: int) -> int:
        if not _is_int(mask) or mask < 0 or mask > self.full_mask:
            raise GroundSetError(f"invalid subset mask {mask!r} for ground set of size {self.n}")
        return mask


def popcount(mask: int) -> int:
    return mask.bit_count()


class SetFunction:
    """Immutable dense table of exact rational values over all subsets.

    ``den`` is the least common denominator of ``values`` and ``nums`` the
    tuple of ints with ``nums[X] == den * values[X]``, both fixed at
    construction.  The constructor reads each value as a (numerator,
    denominator) pair, scales them to ints over their least common
    denominator and builds ``values`` from the reduced ints, the same path
    :meth:`from_ints` takes for code that already holds such ints.
    ``_verdicts`` maps a shape predicate's name to the (verdict, witness)
    it returned for this function.  It is filled on a predicate's first
    call; since the table cannot change, the kept answer stays right, and
    equality, hashing, copies and the values ignore it.

    The default constructor is "raw" and accepts arbitrary values; use
    :meth:`normalized` to reject tables with a nonzero value at the
    empty set.
    """

    __slots__ = ("ground", "values", "den", "nums", "_verdicts")

    def __init__(self, ground: GroundSet, values: Sequence[RationalLike]):
        if len(values) != ground.size:
            raise ValueError(f"expected {ground.size} values, got {len(values)}")
        self._fill(ground, *_scale([_pair(v) for v in values]))

    def _fill(self, ground: GroundSet, den: int, nums: Sequence[int]) -> None:
        """Set the fields from any positive common denominator of the values
        and the numerators over it; no verdicts yet."""
        # dividing out the common gcd leaves the least common denominator
        g = gcd(den, *nums)
        den, nums = den // g, tuple(nums) if g == 1 else tuple(v // g for v in nums)
        for name, value in zip(self.__slots__, (ground, _fractions(den, nums), den, nums, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SetFunction is immutable")

    def __reduce__(self):
        # copies and pickles are rebuilt from the ints, without the verdicts
        return type(self).from_ints, (self.ground, self.den, self.nums)

    @classmethod
    def from_ints(cls, ground: GroundSet, den: int, nums: Sequence[int]) -> "SetFunction":
        """The function with values nums[X] / den, for a positive int den.

        den need not be the least common denominator: the common factor is
        divided out, and the Fractions are built by ``_fractions``.
        """
        if len(nums) != ground.size or den <= 0:
            raise ValueError(f"need {ground.size} numerators and a positive denominator")
        f = cls.__new__(cls)
        f._fill(ground, den, nums)
        return f

    @classmethod
    def normalized(cls, ground: GroundSet, values: Sequence[RationalLike]) -> "SetFunction":
        f = cls(ground, values)
        if f.values[0] != 0:
            raise ValueError(f"normalized constructor requires value 0 on the empty set, got {f.values[0]}")
        return f

    @classmethod
    def zero(cls, ground: GroundSet) -> "SetFunction":
        return cls(ground, [0] * ground.size)

    @classmethod
    def from_callable(cls, ground: GroundSet, fn) -> "SetFunction":
        return cls(ground, [fn(mask) for mask in ground.subsets()])

    @classmethod
    def cardinality_based(cls, ground: GroundSet, g: Sequence[RationalLike]) -> "SetFunction":
        """Build f(X) = g[|X|] from a table of n+1 values."""
        if len(g) != ground.n + 1:
            raise ValueError(f"need {ground.n + 1} cardinality values")
        gr = [to_rational(v) for v in g]
        return cls(ground, [gr[popcount(m)] for m in ground.subsets()])

    # -- evaluation and algebra ------------------------------------------

    def __call__(self, mask: int) -> Fraction:
        self.ground.check_mask(mask)
        return self.values[mask]

    def evaluate(self, mask: int) -> Fraction:
        return self(mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFunction)
            and self.ground == other.ground
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.den, self.nums))

    def __repr__(self) -> str:
        vals = ", ".join(format_rational(v) for v in self.values)
        return f"SetFunction(n={self.ground.n}, [{vals}])"

    def __add__(self, other: "SetFunction") -> "SetFunction":
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        return linear_combine([(1, self), (-1, other)])

    def __neg__(self) -> "SetFunction":
        return linear_combine([(-1, self)])

    def scale(self, c: RationalLike) -> "SetFunction":
        return linear_combine([(c, self)])

    def shift(self, c: RationalLike) -> "SetFunction":
        """Add the constant c to every value."""
        c = to_rational(c)
        return SetFunction(self.ground, [v + c for v in self.values])

    def normalize_at_empty(self) -> "SetFunction":
        """Shift so that the empty set gets value 0 (explicit, never implicit)."""
        return self.shift(-self.values[0])

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.ground.n, "values": [format_rational(v) for v in self.values]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SetFunction":
        values = d["values"]
        # a string or an object would be read entry by entry, as characters or keys
        if not isinstance(values, list):
            raise ValueError(f"values must be a list, got {type(values).__name__}")
        return cls(GroundSet(d["n"]), values)


@dataclass(frozen=True)
class Partition:
    """An ordered partition of the ground set into nonempty classes."""

    ground: GroundSet
    classes: Tuple[int, ...]

    def __post_init__(self) -> None:
        union = 0
        for c in self.classes:
            self.ground.check_mask(c)
            if c == 0:
                raise PartitionError("partition classes must be nonempty")
            if union & c:
                raise PartitionError("partition classes must be pairwise disjoint")
            union |= c
        if union != self.ground.full_mask:
            raise PartitionError("partition classes must cover the ground set")

    @property
    def q(self) -> int:
        return len(self.classes)

    @classmethod
    def singletons(cls, ground: GroundSet) -> "Partition":
        return cls(ground, tuple(1 << i for i in range(ground.n)))


def linear_combine(terms: Iterable[Tuple[RationalLike, SetFunction]]) -> SetFunction:
    """Pointwise exact linear combination; all terms must share a ground set."""
    terms = [(to_rational(c), f) for c, f in terms]
    if not terms:
        raise ValueError("empty linear combination")
    ground = terms[0][1].ground
    for _, f in terms:
        if f.ground != ground:
            raise ValueError("mismatched ground sets in linear combination")
    den = lcm(*(c.denominator * f.den for c, f in terms))
    nums = [0] * ground.size
    for c, f in terms:
        k = c.numerator * (den // (c.denominator * f.den))
        nums = [a + k * b for a, b in zip(nums, f.nums)]
    return SetFunction.from_ints(ground, den, nums)


def norm_inf(f: SetFunction) -> Fraction:
    """sup-norm: the maximum of |f(X)| over all subsets."""
    return Fraction(max(map(abs, f.nums)), f.den)


def quotient(f: SetFunction, partition: Partition) -> SetFunction:
    """Collapse f along a partition: g(I) = f(union of the classes in I)."""
    if partition.ground != f.ground:
        raise PartitionError("partition is for a different ground set")
    small = GroundSet(partition.q)
    unions = [0] * small.size
    for idx in range(1, small.size):
        low = idx & -idx
        unions[idx] = unions[idx ^ low] | partition.classes[low.bit_length() - 1]
    return SetFunction.from_ints(small, f.den, [f.nums[u] for u in unions])


def symmetrize(f: SetFunction, shift: RationalLike = 0) -> SetFunction:
    """g(X) = f(X) + f(J \\ X) + shift."""
    shift = to_rational(shift)
    full = f.ground.full_mask
    return SetFunction(f.ground, [f.values[m] + f.values[full ^ m] + shift for m in f.ground.subsets()])


# -- integer tables ------------------------------------------------------


def _scale(pairs: Sequence[Tuple[int, int]]) -> Tuple[int, List[int]]:
    """The least common denominator d of the rationals p / q (q > 0) and the ints d * p / q."""
    d = lcm(*(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]


def scale_to_ints(values: Sequence[Rational]) -> Tuple[int, List[int]]:
    """The least common denominator d of exact rationals and the Python ints d * v.

    Sums and comparisons of the ints cost no gcd, unlike ``Fraction``
    arithmetic; a table of results goes back through
    :meth:`SetFunction.from_ints`.
    """
    return _scale([(v.numerator, v.denominator) for v in values])


# -- predicates ----------------------------------------------------------
#
# Each predicate returns (verdict, witness); the witness is None on success
# and otherwise the lexicographically first counterexample in mask order.
# The verdict comes from the step table of f.nums: steps[u] lists
# f(X + u) - f(X) over the sets X without u, in mask order, so monotonicity
# is a min or max of each list, and a local submodularity gap
# f(X+u) + f(X+v) - f(X) - f(X+u+v) is the step of u at X minus its step at
# X + v, compared for the two halves of steps[u] along v.  Lists are built
# by slicing and compared by map over operator functions, so no Python
# bytecode runs per entry.  Only a failed decision runs the ordered scan
# (_first_gap or _first_drop) that locates the first witness.  Each
# verdict is kept on the function (SetFunction._verdicts), so a second
# call on the same function only looks it up.


def _halves(seq: Sequence[int], bit: int) -> Tuple[List[int], List[int]]:
    """The entries whose index has ``bit`` clear, and those with it set, each in index order."""
    b = 1 << bit
    if 2 * b * b <= len(seq):
        # few long strides: one slice per residue class modulo 2b
        lo, hi = [0] * (len(seq) // 2), [0] * (len(seq) // 2)
        for r in range(b):
            lo[r::b] = seq[r :: 2 * b]
            hi[r::b] = seq[r + b :: 2 * b]
    else:
        # few long blocks: one slice per block of b entries
        lo, hi = [], []
        for start in range(0, len(seq), 2 * b):
            lo += seq[start : start + b]
            hi += seq[start + b : start + 2 * b]
    return lo, hi


def _steps(nums: Sequence[int], n: int) -> Iterator[List[int]]:
    """steps[u] for u = 0..n-1, each built when it is reached."""
    return (list(map(sub, hi, lo)) for lo, hi in (_halves(nums, u) for u in range(n)))


_STEP_ORDER = {"submodular": ge, "supermodular": le, "modular": eq}


def _holds(nums: Sequence[int], n: int, shape: str) -> bool:
    """Whether the table has the shape, decided from its step table.

    The steps of u are built when u is reached, so a failure at a small u
    costs little more than the ordered scan that then locates it.
    """
    steps = _steps(nums, n)
    if shape == "increasing":
        return all(min(step) >= 0 for step in steps)
    if shape == "decreasing":
        return all(max(step) <= 0 for step in steps)
    # bit j of the steps of u is element j + 1 for j >= u, so these are
    # the pairs u < v; the pair v, u gives the same gaps
    order = _STEP_ORDER[shape]
    return all(all(map(order, *_halves(step, j))) for u, step in enumerate(steps) for j in range(u, n - 1))


def _first_gap(nums: Sequence[int], n: int, modular: bool) -> Optional[Tuple[int, int, int]]:
    """First (X, u, v) whose local gap is negative, or nonzero if modular.

    The gap is the step of u at X minus its step at X + v.  steps[u] holds
    the sets without u, so X sits at X with bit u deleted, and X + v (v > u)
    2^(v-1) places further on.
    """
    steps = list(_steps(nums, n))
    for X in range(1 << n):
        outside = [u for u in range(n) if not X >> u & 1]
        for a, u in enumerate(outside):
            low = (1 << u) - 1
            at = X >> 1 & ~low | X & low
            step = steps[u]
            here = step[at]
            for v in outside[a + 1 :]:
                there = step[at + (1 << v - 1)]
                if here < there or (modular and here != there):
                    return X, u, v
    return None


def _first_drop(nums: Sequence[int], n: int) -> Optional[Tuple[int, int]]:
    """First (X, u) with f(X) > f(X+u)."""
    for X in range(1 << n):
        base = nums[X]
        for u in range(n):
            if not X >> u & 1 and base > nums[X | 1 << u]:
                return X, u
    return None


def _verdict(f: SetFunction, shape: str, first_witness) -> Tuple[bool, Optional[tuple]]:
    """(verdict, witness) of a shape predicate, decided once per function."""
    kept = f._verdicts.get(shape)
    if kept is None:
        witness = None if _holds(f.nums, f.ground.n, shape) else first_witness()
        kept = f._verdicts[shape] = (witness is None, witness)
    return kept


def is_submodular(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Local diminishing-returns test; witness is (X, u, v) on failure."""
    return _verdict(f, "submodular", lambda: _first_gap(f.nums, f.ground.n, False))


def is_supermodular(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    return _verdict(f, "supermodular", lambda: _first_gap([-v for v in f.nums], f.ground.n, False))


def is_increasing(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Monotone on all single-element extensions; witness is (X, u)."""
    return _verdict(f, "increasing", lambda: _first_drop(f.nums, f.ground.n))


def is_decreasing(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int]]]:
    return _verdict(f, "decreasing", lambda: _first_drop([-v for v in f.nums], f.ground.n))


def is_modular(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Exact equality in the local submodularity form; witness is (X, u, v)."""
    return _verdict(f, "modular", lambda: _first_gap(f.nums, f.ground.n, True))


def is_modular_on_pair(f: SetFunction, a: int, b: int) -> bool:
    f.ground.check_mask(a)
    f.ground.check_mask(b)
    return f.values[a] + f.values[b] == f.values[a & b] + f.values[a | b]


def global_submodularity_check(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Four-set definition over all pairs; O(4^n) oracle for the local test."""
    vals = f.values
    for X in f.ground.subsets():
        for Y in f.ground.subsets():
            if vals[X] + vals[Y] < vals[X & Y] + vals[X | Y]:
                return False, (X, Y)
    return True, None
