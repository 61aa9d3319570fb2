"""Charges (modular set functions), envelopes, and duality.

For a normalized nonnegative submodular f, the upper charge is the
smallest nonnegative charge majorizing f; on a finite ground set it is
simply the sum of singleton values.  The canonical dual

    f*(X) = f(J \\ X) + upper(f)(X) - f(J)

generalizes matroid duality, and the lower charge f - f** is the largest
charge whose subtraction keeps f increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import sub
from typing import List, Sequence, Tuple

from .core import (
    GroundSet,
    PreconditionError,
    SetFunction,
    _check_table,
    _fractions,
    format_rational,
    is_increasing,
    is_submodular,
    scale_to_ints,
    to_rational,
)


@dataclass(frozen=True)
class Charge:
    """A finitely additive set function, determined by its singleton values."""

    ground: GroundSet
    atoms: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_table(self.atoms)
        if len(self.atoms) != self.ground.n:
            raise ValueError(f"expected {self.ground.n} atoms, got {len(self.atoms)}")
        # every atom read as an exact rational: a str becomes a Fraction,
        # a float or bool raises TypeError
        object.__setattr__(self, "atoms", tuple(map(to_rational, self.atoms)))

    def __call__(self, mask: int) -> Fraction:
        self.ground.check_mask(mask)
        total = Fraction(0)
        for i in range(self.ground.n):
            if mask >> i & 1:
                total += self.atoms[i]
        return total

    def as_set_function(self) -> SetFunction:
        d, atoms = scale_to_ints(self.atoms)
        return SetFunction.from_ints(self.ground, d, _modular_table(atoms))

    def to_json_dict(self) -> dict:
        return {"n": self.ground.n, "atoms": [format_rational(a) for a in self.atoms]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Charge":
        return cls(GroundSet(d["n"]), d["atoms"])


def _require(f: SetFunction, *, nonneg=False, submodular=False, increasing=False) -> None:
    """Check the preconditions of a public operation, each predicate once."""
    if f.nums[0]:
        raise PreconditionError(f"requires f(empty) = 0, got {Fraction(f.nums[0], f.den)}")
    if nonneg and min(f.nums) < 0:
        m = next(m for m, v in enumerate(f.nums) if v < 0)
        raise PreconditionError(f"requires f >= 0; f({m}) = {Fraction(f.nums[m], f.den)}")
    if submodular:
        ok, witness = is_submodular(f)
        if not ok:
            raise PreconditionError(f"requires submodularity; violated at (X,u,v) = {witness}")
    if increasing:
        ok, witness = is_increasing(f)
        if not ok:
            raise PreconditionError(f"requires monotonicity; violated at (X,u) = {witness}")


# The helpers below work on tables scaled to ints of one common
# denominator and check nothing; the public functions check first.


def _modular_table(atoms: Sequence[int]) -> List[int]:
    """The charge of every mask: the sum of its atoms."""
    table = [0]
    for a in atoms:
        table += [t + a for t in table]
    return table


def _dual(nums: Sequence[int], eta: List[int]) -> List[int]:
    """f(J \\ X) + eta(X) - f(J) for every X."""
    f_j = nums[-1]
    return [v + e - f_j for v, e in zip(reversed(nums), eta)]


def _lower_atoms(f: SetFunction) -> List[int]:
    """den * (f(J) - f(J \\ x)) for every element x."""
    full = f.ground.full_mask
    return [f.nums[full] - f.nums[full ^ 1 << i] for i in range(f.ground.n)]


def _lower_charge(f: SetFunction) -> Charge:
    return Charge(f.ground, _fractions(f.den, _lower_atoms(f)))


def upper_charge(f: SetFunction) -> Charge:
    """Smallest nonnegative charge majorizing f: atoms are the singleton values."""
    _require(f, nonneg=True, submodular=True)
    return Charge(f.ground, _fractions(f.den, [f.nums[1 << i] for i in range(f.ground.n)]))


def dual_wrt(f: SetFunction, eta: Charge) -> SetFunction:
    """Dual with respect to a majorizing charge: f(J\\X) + eta(X) - f(J)."""
    if eta.ground != f.ground:
        raise PreconditionError("charge is for a different ground set")
    _require(f, submodular=True, increasing=True)
    de, atoms = scale_to_ints(eta.atoms)
    d = lcm(f.den, de)
    nums = [v * (d // f.den) for v in f.nums]
    eta_table = _modular_table([a * (d // de) for a in atoms])
    for m in range(f.ground.size):
        if nums[m] > eta_table[m]:
            raise PreconditionError(f"requires f <= eta; violated at mask {m}")
    return SetFunction.from_ints(f.ground, d, _dual(nums, eta_table))


def canonical_dual(f: SetFunction) -> SetFunction:
    """The dual with respect to the upper charge, which majorizes f."""
    _require(f, nonneg=True, submodular=True, increasing=True)
    upper = _modular_table([f.nums[1 << i] for i in range(f.ground.n)])
    return SetFunction.from_ints(f.ground, f.den, _dual(f.nums, upper))


def lower_charge(f: SetFunction) -> Charge:
    """Largest charge whose subtraction keeps f increasing.

    Closed form: atom x gets f(J) - f(J \\ x), which is f(x) - f*(x), the
    singleton gap between the upper charges of f and of its canonical dual.
    """
    _require(f, nonneg=True, submodular=True, increasing=True)
    return _lower_charge(f)


def double_dual(f: SetFunction) -> SetFunction:
    """f** = (f*)*, which is f minus the lower charge.

    It is built from that closed form, f - a with a(x) = f(J) - f(J \\ x),
    in one pass over one modular table.
    """
    _require(f, nonneg=True, submodular=True, increasing=True)
    lower = _modular_table(_lower_atoms(f))
    return SetFunction.from_ints(f.ground, f.den, list(map(sub, f.nums, lower)))


def verify_lower_charge_maximality(f: SetFunction) -> bool:
    """LP oracle for the lower charge.

    The largest charge a with f - a increasing maximizes a(J) subject to
    a(J) - a(X) = a(J \\ X) <= f(J) - f(X) for every X.  Its row
    X = J \\ x caps a(x) at f(J) - f(J \\ x), which is >= 0 because f is
    increasing, so restricting the LP to a >= 0 keeps its optimum.  That
    restricted LP is the dual of the covering LP min sum_X (f(J) - f(X)) z_X
    subject to sum_{X not containing x} z_X >= 1 for each x, z >= 0, whose
    costs are >= 0; exact pivoting solves it, and its optimal dual, the
    charge, is compared with the closed form.
    """
    from .simplex import _solve_exact

    _require(f, nonneg=True, submodular=True, increasing=True)
    n = f.ground.n
    full = f.ground.full_mask
    rows = [{x: 1 for x in f.ground.subsets() if not x >> i & 1} for i in range(n)]
    costs = _fractions(f.den, [f.nums[full] - v for v in f.nums])
    # z_X = 1 for X empty is feasible, so the LP has an optimum
    _, value, _, atoms = _solve_exact(rows, [1] * n, costs)
    expected = _lower_charge(f)
    return value == expected(full) and tuple(atoms) == expected.atoms
