"""Exact Walsh-Hadamard spectra.

A spectrum stores the integers F(a) = sum_x f(x) (-1)^<a,x>, i.e. the
Fourier coefficients scaled by 2^n.  Everything stays in exact integer (or
dyadic-rational) arithmetic; no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul, neg, or_, sub

from .boolfunc import BooleanFunction
from .gf2 import GF2Matrix, int_to_bits


@dataclass(frozen=True)
class Spectrum:
    """Scaled Fourier transform: coeffs[enc(a)] = 2^n * f^(a)."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 << self.n:
            raise ValueError("coefficient array must have 2^n entries")


def butterfly(values: list[int]) -> None:
    """In-place Walsh-Hadamard butterfly; applying it twice scales by 2^n.

    Constant-geometry form: each of the n stages pairs the even and odd
    entries, writing the sums to the first half and the differences to the
    second.  A stage transforms the lowest index bit and rotates it to the
    top, so after n stages the output is in natural order.
    """
    half = len(values) >> 1
    for _ in range(half.bit_length()):
        even = values[0::2]
        odd = values[1::2]
        values[:half] = map(add, even, odd)
        values[half:] = map(sub, even, odd)


def wht(f: BooleanFunction) -> Spectrum:
    """Exact transform of a 0/1 truth table via the in-place butterfly.

    The table is unpacked in one linear pass (gf2.int_to_bits).
    """
    vals = list(int_to_bits(f.table, 1 << f.n))
    butterfly(vals)
    return Spectrum(f.n, tuple(vals))


def shift_spectrum(s: Spectrum, a: int) -> Spectrum:
    """Spectrum of x -> f(x + a) from the spectrum of f: F(beta) (-1)^<beta,a>."""
    if a == 0:
        return s
    signs = [1]
    for i in range(s.n):
        signs += list(map(neg, signs)) if (a >> i) & 1 else signs
    return Spectrum(s.n, tuple(map(mul, s.coeffs, signs)))


def transform_spectrum(s: Spectrum, m: GF2Matrix) -> Spectrum:
    """Spectrum of x -> f(Mx) from the spectrum of f: G(gamma) = F(P gamma)
    with P = (M^-1)^T, a gather through the images of P."""
    images = m.inverse().transpose().images()
    return Spectrum(s.n, tuple(map(s.coeffs.__getitem__, images)))


def inverse_wht(s: Spectrum) -> tuple[Fraction, ...]:
    """Exact function values recovered from a spectrum, as dyadic rationals."""
    vals = list(s.coeffs)
    butterfly(vals)
    size = 1 << s.n
    return tuple(Fraction(v, size) for v in vals)


def boolean_cast(s: Spectrum) -> BooleanFunction:
    """Invert the spectrum and cast to a truth table; 0/1 values required."""
    vals = list(s.coeffs)
    butterfly(vals)
    size = 1 << s.n
    table = 0
    for x, v in enumerate(vals):
        if v == size:
            table |= 1 << x
        elif v != 0:
            raise ValueError(
                f"value at point {x} is {Fraction(v, size)}, not 0 or 1"
            )
    return BooleanFunction(s.n, table)


def granularity(s: Spectrum) -> int:
    """Maximum granularity over the nonzero coefficients; 0 for the zero map.

    The coefficient c / 2^n has granularity n minus the number of trailing
    zeros of c (at least 0), and the OR of all coefficients has the fewest
    trailing zeros of any of them, sign included.  The fold runs over the
    distinct values: an in-scope spectrum has at most five, and building
    the set costs about half of folding all 2^n entries at n = 14..16.
    """
    folded = reduce(or_, set(s.coeffs), 0)
    if not folded:
        return 0
    return max(0, s.n - (folded & -folded).bit_length() + 1)


def sparsity(s: Spectrum) -> int:
    """Number of nonzero Fourier coefficients."""
    return len(s.coeffs) - s.coeffs.count(0)


def is_boolean_spectrum(s: Spectrum) -> bool:
    """Whether the spectrum belongs to a 0/1-valued function: inverts the
    transform and range-checks the values, in O(n 2^n)."""
    vals = list(s.coeffs)
    butterfly(vals)
    size = 1 << s.n
    return all(v == 0 or v == size for v in vals)
