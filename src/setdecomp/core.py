"""Ground sets, subset masks, and exact-rational set functions.

Subsets of a ground set of size n (n <= 16) are encoded as n-bit integers,
and a set function is a dense table of 2**n exact rationals indexed by
mask.  Its state is the least common denominator ``den`` of its values and
the Python ints ``nums = den * values``, on which the predicates,
transforms and charge arithmetic run; every result is exact.  The table of
Fractions, ``values``, is a view built from the ints on its first read and
kept.  A table crosses between strings, ints and Fractions once per
distinct value, in three places only: a table of ``str`` values is parsed
one distinct string at a time (canonical "p/q" strings, the format
``format_rational`` writes, with ``int()``), every table of Fractions is
made by ``_fractions`` from one coprime (numerator, denominator) pair per
distinct int, and ``_formatted`` writes each distinct int as text once.
:meth:`SetFunction.from_ints` is the library's only table builder: the
parsing constructor reads only values a caller supplies (``normalized``,
``from_callable``, ``cardinality_based`` and ``from_json_dict``).
A function's first shape predicate decides all four shapes (increasing,
decreasing, modular, submodular) from one table of steps f(X + u) - f(X),
built by splitting off the lowest bit and compared by built-ins, and the
function keeps the four verdicts, so later predicate calls on it build no
table.  A failed predicate finds its witness by scanning the ints in mask
order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import ge, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

RationalLike = Union[Fraction, int, str]

MAX_GROUND = 16


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fractions(den: int, nums: Sequence[int]) -> Tuple[Fraction, ...]:
    """The Fractions v / den for the ints v in nums, for an int den > 0.

    One object is built per distinct int, and equal ints share it.  Each
    is built from its coprime pair by setting the two slots that are the
    whole state of a ``Fraction`` (CPython 3.10-3.13), which skips the
    type checks and the gcd of its constructor.  Were the slots renamed,
    setting them would raise AttributeError, never give a wrong value.
    """
    new = object.__new__
    exact = {}
    for v in set(nums):
        g = gcd(v, den)
        x = exact[v] = new(Fraction)
        x._numerator = v // g
        x._denominator = den // g
    return tuple(map(exact.__getitem__, nums))


def _formatted(den: int, nums: Sequence[int]) -> List[str]:
    """``format_rational`` of each v / den for the ints v in nums, an int
    den > 0, with each distinct int formatted once."""
    distinct = list(set(nums))
    text = dict(zip(distinct, map(format_rational, _fractions(den, distinct))))
    return list(map(text.__getitem__, nums))


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


def _check_table(values) -> None:
    """Refuse a str, bytes or mapping: its items are characters, bytes or keys."""
    if isinstance(values, (str, bytes, Mapping)):
        raise TypeError(f"a table of values is a sequence, not a {type(values).__name__}")


def format_rational(x: Union[Fraction, int]) -> str:
    """Canonical string form of a Fraction or int: "p" for integers, "p/q"
    otherwise."""
    p, q = x.numerator, x.denominator
    return str(p) if q == 1 else f"{p}/{q}"


class GroundSetError(ValueError):
    pass


class PartitionError(ValueError):
    pass


class PreconditionError(ValueError):
    """A public operation was fed a function outside its domain, e.g. f(empty) != 0."""


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

    def check_mask(self, mask: int) -> int:
        if not _is_int(mask) or mask < 0 or mask > self.full_mask:
            raise GroundSetError(f"invalid subset mask {mask!r} for ground set of size {self.n}")
        return mask


def popcount(mask: int) -> int:
    return mask.bit_count()


class SetFunction:
    """Immutable dense table of exact rational values over all subsets.

    ``den`` is the least common denominator of the values and ``nums`` the
    tuple of ints with ``nums[X] == den * values[X]``: the function's only
    stored table, fixed at construction.  The constructor reads each value
    (each distinct one, in a table of strings) as a (numerator,
    denominator) pair and scales them to ints over their least common
    denominator, the same path :meth:`from_ints` takes for code that
    already holds such ints.  ``values``, the Fractions, is built
    from the ints on its first read and kept in ``_values``.  ``_verdicts``
    maps each of the shapes increasing, decreasing, modular and submodular
    to whether this function has it; all four are filled on the first
    predicate call.  Since the table cannot change, the kept view and
    verdicts stay right; equality, hashing, copies and pickles ignore both.

    The default constructor is "raw" and accepts arbitrary values; use
    :meth:`normalized` to reject tables with a nonzero value at the
    empty set.
    """

    __slots__ = ("ground", "den", "nums", "_verdicts", "_values")

    def __init__(self, ground: GroundSet, values: Sequence[RationalLike]):
        _check_table(values)
        if len(values) != ground.size:
            raise ValueError(f"expected {ground.size} values, got {len(values)}")
        if set(map(type, values)) == {str}:
            # equal strings give equal pairs, so each distinct string is
            # read once, in order of first appearance, and a bad table
            # raises for the value a read one by one would; other types are
            # read one by one, since True, 1, 1.0 and Fraction(1) are equal
            # and hash alike, and a str subclass may compare as it likes
            distinct = list(dict.fromkeys(values))
            den, nums = _scale(list(map(_pair, distinct)))
            nums = list(map(dict(zip(distinct, nums)).__getitem__, values))
        else:
            den, nums = _scale([_pair(v) for v in values])
        self._fill(ground, den, nums)

    def _fill(self, ground: GroundSet, den: int, nums: Sequence[int]) -> None:
        """Set the fields from any positive common denominator of the values
        and the numerators over it; no verdicts or view yet."""
        # dividing out the common gcd leaves the least common denominator
        g = gcd(den, *nums)
        den, nums = den // g, tuple(nums) if g == 1 else tuple(v // g for v in nums)
        for name, value in zip(self.__slots__, (ground, den, nums, {}, None)):
            object.__setattr__(self, name, value)

    @property
    def values(self) -> Tuple[Fraction, ...]:
        """The Fractions nums[X] / den, built on the first read and kept."""
        if self._values is None:
            object.__setattr__(self, "_values", _fractions(self.den, self.nums))
        return self._values

    def __setattr__(self, name, value):
        raise AttributeError("SetFunction is immutable")

    def __reduce__(self):
        # copies and pickles are rebuilt from the ints, without the verdicts or view
        return type(self).from_ints, (self.ground, self.den, self.nums)

    @classmethod
    def from_ints(cls, ground: GroundSet, den: int, nums: Sequence[int]) -> "SetFunction":
        """The function with values nums[X] / den, for a positive int den.

        den need not be the least common denominator: the common factor is
        divided out.
        """
        if len(nums) != ground.size or den <= 0:
            raise ValueError(f"need {ground.size} numerators and a positive denominator")
        f = cls.__new__(cls)
        f._fill(ground, den, nums)
        return f

    # the paper's normalized set functions, f(empty) = 0
    @classmethod
    def normalized(cls, ground: GroundSet, values: Sequence[RationalLike]) -> "SetFunction":
        f = cls(ground, values)
        if f.nums[0]:
            raise ValueError(f"normalized constructor requires value 0 on the empty set, got {Fraction(f.nums[0], f.den)}")
        return f

    @classmethod
    def zero(cls, ground: GroundSet) -> "SetFunction":
        return cls.from_ints(ground, 1, [0] * ground.size)

    @classmethod
    def from_callable(cls, ground: GroundSet, fn) -> "SetFunction":
        return cls(ground, [fn(mask) for mask in ground.subsets()])

    # f(X) = g(|X|): its alternating sums are the discrete derivatives of g
    @classmethod
    def cardinality_based(cls, ground: GroundSet, g: Sequence[RationalLike]) -> "SetFunction":
        """Build f(X) = g[|X|] from a table of n+1 values."""
        _check_table(g)
        if len(g) != ground.n + 1:
            raise ValueError(f"need {ground.n + 1} cardinality values")
        gr = [to_rational(v) for v in g]
        return cls(ground, [gr[popcount(m)] for m in ground.subsets()])

    # -- evaluation and algebra ------------------------------------------

    def __call__(self, mask: int) -> Fraction:
        self.ground.check_mask(mask)
        return self.values[mask]

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
        vals = ", ".join(_formatted(self.den, self.nums))
        return f"SetFunction(n={self.ground.n}, [{vals}])"

    def __add__(self, other: "SetFunction") -> "SetFunction":
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other: "SetFunction") -> "SetFunction":
        return linear_combine([(1, self), (-1, other)])

    def __neg__(self) -> "SetFunction":
        return linear_combine([(-1, self)])

    # c * f: a nonnegative multiple stays in every class of the hierarchy
    def scale(self, c: RationalLike) -> "SetFunction":
        return linear_combine([(c, self)])

    # f + c, the constant that normalize_at_empty takes off
    def shift(self, c: RationalLike) -> "SetFunction":
        """Add the constant c to every value."""
        p, q = _pair(c)
        return SetFunction.from_ints(self.ground, self.den * q, [v * q + p * self.den for v in self.nums])

    # f - f(empty), the normalization the hierarchy, charges and decompositions require
    def normalize_at_empty(self) -> "SetFunction":
        """Shift so that the empty set gets value 0 (explicit, never implicit)."""
        return SetFunction.from_ints(self.ground, self.den, [v - self.nums[0] for v in self.nums])

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.ground.n, "values": _formatted(self.den, self.nums)}

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

    # the finest partition: the quotient along it is f itself
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
    p, q = _pair(shift)
    # J \ X is the mask J - X, so f(J \ X) runs over the table backwards
    nums = [(a + b) * q + p * f.den for a, b in zip(f.nums, reversed(f.nums))]
    return SetFunction.from_ints(f.ground, f.den * q, nums)


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
# On the first predicate call for a function, _shapes decides the four
# shapes from one step table of f.nums: steps[u] lists f(X + u) - f(X)
# over the sets X without u, so monotonicity is a min or max of each list,
# modularity min == max for each, and a local submodularity gap f(X+u) +
# f(X+v) - f(X) - f(X+u+v) is the step of u at X minus its step at X + v.
# Each pass over a table takes its even and odd entries, the sets without
# and with the lowest element, and puts the evens first, which rotates the
# next element into the lowest bit; so neither the steps nor their halves
# are in mask order.  Lists are compared by map over operator functions,
# so no Python bytecode runs per entry.  The four verdicts are kept on the
# function (SetFunction._verdicts); a failed predicate then finds its
# witness by a scan of f.nums in mask order (_first_gap or _first_drop).


def _steps(nums: Sequence[int], n: int) -> List[List[int]]:
    """steps[u] for u = 0..n-1; bit j of its index is element u + 1 + j mod n."""
    steps = []
    for _ in range(n):
        lo, hi = nums[::2], nums[1::2]
        steps.append(list(map(sub, hi, lo)))
        nums = lo + hi
    return steps


def _pairs_hold(steps: List[List[int]]) -> bool:
    """Whether the step of u at X is at least its step at X + v, for every
    pair u < v and every X without either."""
    # rotation j of the steps of u splits off element u + 1 + j, so these
    # are the pairs u < v; the pair v, u gives the same gaps
    for u, step in enumerate(steps):
        for _ in range(u + 1, len(steps)):
            lo, hi = step[::2], step[1::2]
            if not all(map(ge, lo, hi)):
                return False
            step = lo + hi
    return True


def _shapes(f: SetFunction) -> dict:
    """The four shape verdicts of f, decided from one step table on the first call."""
    if not f._verdicts:
        steps = _steps(f.nums, f.ground.n)
        lows, highs = list(map(min, steps)), list(map(max, steps))
        # the sets without u are connected by single-element steps, so
        # equal steps at X and X + v everywhere means constant steps
        modular = lows == highs
        f._verdicts.update(
            increasing=min(lows) >= 0,
            decreasing=max(highs) <= 0,
            modular=modular,
            submodular=modular or _pairs_hold(steps),
        )
    return f._verdicts


def _first_gap(nums: Sequence[int], n: int, modular: bool) -> Optional[Tuple[int, int, int]]:
    """First (X, u, v) whose local gap is negative, or nonzero if modular.

    The gap is the step of u at X minus its step at X + v.
    """
    for X in range(1 << n):
        base = nums[X]
        outside = [u for u in range(n) if not X >> u & 1]
        for a, u in enumerate(outside):
            Xu = X | 1 << u
            here = nums[Xu] - base
            for v in outside[a + 1 :]:
                there = nums[Xu | 1 << v] - nums[X | 1 << v]
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


def is_submodular(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Local diminishing-returns test; witness is (X, u, v) on failure."""
    if _shapes(f)["submodular"]:
        return True, None
    return False, _first_gap(f.nums, f.ground.n, False)


def is_increasing(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Monotone on all single-element extensions; witness is (X, u)."""
    if _shapes(f)["increasing"]:
        return True, None
    return False, _first_drop(f.nums, f.ground.n)


def is_decreasing(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Antitone on all single-element extensions; witness is (X, u)."""
    if _shapes(f)["decreasing"]:
        return True, None
    return False, _first_drop([-v for v in f.nums], f.ground.n)


def is_modular(f: SetFunction) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Exact equality in the local submodularity form; witness is (X, u, v)."""
    if _shapes(f)["modular"]:
        return True, None
    return False, _first_gap(f.nums, f.ground.n, True)
