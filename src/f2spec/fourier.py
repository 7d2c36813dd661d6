"""Exact Walsh-Hadamard spectra.

A spectrum stores the integers F(a) = sum_x f(x) (-1)^<a,x>, i.e. the
Fourier coefficients scaled by 2^n.  Everything stays in exact integer (or
dyadic-rational) arithmetic; no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub

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


def naive_wht(f: BooleanFunction) -> Spectrum:
    """Direct-summation oracle: F(a) = sum over the support of (-1)^<a,x>.

    Quadratic in 2^n; kept deliberately independent of the butterfly so the
    two implementations can check each other.
    """
    size = 1 << f.n
    supp = [x for x in range(size) if f.value(x)]
    coeffs = []
    for a in range(size):
        acc = 0
        for x in supp:
            acc += -1 if (a & x).bit_count() & 1 else 1
        coeffs.append(acc)
    return Spectrum(f.n, tuple(coeffs))


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


def coefficient_granularity(coeff: int, n: int) -> int:
    """Granularity of the coefficient coeff / 2^n without building a Fraction."""
    if coeff == 0:
        return 0
    twos = (coeff & -coeff).bit_length() - 1
    return max(0, n - twos)


def granularity(s: Spectrum) -> int:
    """Maximum granularity over the nonzero coefficients; 0 for the zero map."""
    return max(coefficient_granularity(c, s.n) for c in set(s.coeffs))


def sparsity(s: Spectrum) -> int:
    """Number of nonzero Fourier coefficients."""
    return len(s.coeffs) - s.coeffs.count(0)


def is_boolean_spectrum(s: Spectrum) -> bool:
    """Whether the spectrum belongs to a 0/1-valued function.

    Inverts the transform and range-checks the values, which is the
    O(n 2^n) route; boolean_convolution_check is the quadratic identity
    kept as an independent cross-check.
    """
    vals = list(s.coeffs)
    butterfly(vals)
    size = 1 << s.n
    return all(v == 0 or v == size for v in vals)


def boolean_convolution_check(s: Spectrum) -> bool:
    """Quadratic oracle: 2^n F(a) = sum_b F(b) F(a+b) for every a."""
    size = 1 << s.n
    c = s.coeffs
    for a in range(size):
        acc = 0
        for b in range(size):
            acc += c[b] * c[a ^ b]
        if acc != c[a] << s.n:
            return False
    return True
