"""Set addition over F_2^n: sumsets, doubling, span-size bounds.

All bound computations run on exact fractions.  Point sets are immutable
and carry their ambient dimension so mismatched operands fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Iterable

from .gf2 import affine_span, check_dimension, check_vector, linear_span

LABA_NOT_APPLICABLE = "NotApplicable"
LABA_SUBGROUP = "Subgroup"
LABA_VIOLATION = "Violation"


@dataclass(frozen=True)
class PointSet:
    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        check_dimension(self.n)
        for x in self.members:
            check_vector(x, self.n)

    @staticmethod
    def of(n: int, members: Iterable[int]) -> "PointSet":
        return PointSet(n, frozenset(members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members


def _same_dimension(a: PointSet, b: PointSet) -> None:
    if a.n != b.n:
        raise ValueError(f"ambient dimensions differ: {a.n} vs {b.n}")


def sumset(a: PointSet, b: PointSet) -> PointSet:
    """{x + y : x in a, y in b}; empty when either operand is empty.

    Subtraction is the same operation here since every element is its own
    negative.
    """
    _same_dimension(a, b)
    out: set[int] = set()
    for x in a.members:
        out.update(x ^ y for y in b.members)
    return PointSet(a.n, frozenset(out))


def doubling_constant(a: PointSet) -> Fraction:
    """|a + a| / |a| as a reduced fraction; a must be nonempty."""
    if not a.members:
        raise ValueError("doubling constant of the empty set is undefined")
    return Fraction(len(sumset(a, a)), len(a))


def is_sum_free(a: PointSet) -> bool:
    """True iff no element of a is a sum of two elements of a."""
    return not (sumset(a, a).members & a.members)


def even_zohar_s(k: Fraction) -> int:
    """The unique s >= 1 whose doubling bracket contains k (k >= 1).

    The bracket of s starts at (C(s,2) + s + 1) / (s + 1) = (s^2 + s + 2) /
    (2(s + 1)), which grows with s, so for k = p/q the answer is the largest
    s with q s^2 + (q - 2p) s + 2(q - p) <= 0.  s = 1 satisfies it, so that
    is the larger root rounded down; rounding the square root down first
    changes nothing, since floor((a + floor(x)) / b) = floor((a + x) / b)
    for integers a and b > 0.
    """
    k = Fraction(k)
    if k < 1:
        raise ValueError("doubling constant must be at least 1")
    p, q = k.numerator, k.denominator
    return (2 * p - q + isqrt(4 * p * p + 4 * p * q - 7 * q * q)) // (2 * q)


def even_zohar_bound(k: Fraction) -> Fraction:
    """Tight upper bound on |affine span| / |set| given doubling constant k.

    Piecewise linear in k: with s from even_zohar_s, the slope is
    2^s / (C(s,2)+s+1) below (s^2+s+1)/(2s) and 2^(s+1) / (s^2+s+1) above.
    """
    k = Fraction(k)
    s = even_zohar_s(k)
    if k < Fraction(s * s + s + 1, 2 * s):
        return Fraction(1 << s, comb(s, 2) + s + 1) * k
    return Fraction(1 << (s + 1), s * s + s + 1) * k


def affine_span_size(a: PointSet) -> int:
    """Number of points of the smallest affine subspace containing a."""
    if not a.members:
        raise ValueError("empty point set")
    return 1 << affine_span(a.n, a.members).dim


def laba_check(a: PointSet) -> str:
    """Difference-set subgroup criterion.

    When |a - a| < (3/2)|a| the difference set must be a subgroup; the check
    reports Subgroup after confirming it, NotApplicable when the hypothesis
    fails, and Violation if the conclusion ever fails (it never should).
    """
    if not a.members:
        raise ValueError("empty point set")
    diff = sumset(a, a)
    if 2 * len(diff) >= 3 * len(a):
        return LABA_NOT_APPLICABLE
    span = linear_span(a.n, diff.members)
    if len(diff) == 1 << span.dim:
        return LABA_SUBGROUP
    return LABA_VIOLATION
