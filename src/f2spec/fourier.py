"""Exact Walsh-Hadamard spectra.

A spectrum stores the integers F(a) = sum_x f(x) (-1)^<a,x>, i.e. the
Fourier coefficients scaled by 2^n.  Everything stays in exact integer
arithmetic; no floating point appears anywhere.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import mul, neg, or_
from typing import Iterable, Sequence

from .boolfunc import BooleanFunction
from .gf2 import _low_half_mask, int_to_bits


@dataclass(frozen=True)
class Spectrum:
    """Scaled Fourier transform: coeffs[enc(a)] = 2^n * f^(a)."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 << self.n:
            raise ValueError("coefficient array must have 2^n entries")


def butterfly(values: bytes | Sequence[int], n: int) -> tuple[int, ...]:
    """Walsh-Hadamard transform of each consecutive block of 2^n entries.

    Exact for any integers; applying it twice scales every entry by 2^n.
    Every entry is one lane of a single Python int, stored with a bias of
    half the lane's range so that a lane never goes negative.  A stage with
    stride s pairs lane j with lane j + s for each j whose bit s is clear;
    with M the mask of those lanes and B the bias restricted to them,

        a = x & M,  b = (x >> s*width) & M,
        x = (a + b - B) | ((a + B - b) << s*width)

    leaves the biased sum in lane j and the biased difference in lane
    j + s.  The lane is the narrowest of 16, 32 and 64 bits (or a whole
    number of bytes beyond) that holds max|v| * 2^n with its sign, so no
    lane carries into or borrows from its neighbour at any stage.  Strides
    stay below 2^n, so the blocks of one call never mix.
    """
    size = 1 << n
    count = len(values)
    if count % size:
        raise ValueError(f"length {count} is not a multiple of 2^{n}")
    if not count:
        return ()
    raw = isinstance(values, (bytes, bytearray))
    if raw:  # a truth table's bytes are all 0/1: delete those at C speed
        peak = max(values.translate(None, b"\x00\x01") or b"\x01")
    else:
        peak = max(max(values), -min(values))
    need = (peak << n).bit_length() + 1
    width = next((w for w in (16, 32, 64) if need <= w), -(-need // 8) * 8)
    nb = width >> 3
    lane_bias = bytes(nb - 1) + b"\x80"
    bias = int.from_bytes(lane_bias * count, "little")
    if raw:
        buf = bytearray(lane_bias * count)
        buf[0::nb] = values
        x = int.from_bytes(buf, "little")
        del buf
    else:
        x = int.from_bytes(_pack(values, width), "little") ^ bias
    # every whole-int temporary is as large as x: drop each one as soon as
    # it is used
    for i in range(n):
        shift = width << i
        mask = _low_half_mask(count * width, shift)
        a = x & mask
        b = (x >> shift) & mask
        del x
        low_bias = bias & mask
        del mask
        x = a + b - low_bias
        del b, low_bias
        x |= ((a << 1) - x) << shift  # 2a - (a + b - B) = a + B - b
        del a
    data = (x ^ bias).to_bytes(count * nb, "little")
    del x, bias
    return _unpack(data, width)


# array and struct codes of the signed lanes of each standard width
_LANE_CODES = {16: "h", 32: "i", 64: "q"}


def _pack(values: Sequence[int], width: int) -> bytes | array:
    """Two's-complement little-endian lanes of the given width.  An array
    packs without the argument tuple that struct.pack(*values) copies."""
    code = _LANE_CODES.get(width)
    if code is None:
        nb = width >> 3
        return b"".join(v.to_bytes(nb, "little", signed=True) for v in values)
    lanes = array(code, values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _unpack(data: bytes, width: int) -> tuple[int, ...]:
    """Inverse of _pack, straight into a tuple."""
    nb = width >> 3
    code = _LANE_CODES.get(width)
    if code is None:
        return tuple(
            int.from_bytes(data[k : k + nb], "little", signed=True)
            for k in range(0, len(data), nb)
        )
    return struct.unpack(f"<{len(data) // nb}{code}", data)


def wht(f: BooleanFunction) -> Spectrum:
    """Exact transform of a 0/1 truth table: the 0/1 bytes of the table
    (gf2.int_to_bits, one linear pass) go straight into the lanes of the
    butterfly."""
    return Spectrum(f.n, butterfly(int_to_bits(f.table, 1 << f.n), f.n))


def shift_spectrum(s: Spectrum, a: int) -> Spectrum:
    """Spectrum of x -> f(x + a) from the spectrum of f: F(beta) (-1)^<beta,a>."""
    if a == 0:
        return s
    signs = [1]
    for i in range(s.n):
        signs += list(map(neg, signs)) if (a >> i) & 1 else signs
    return Spectrum(s.n, tuple(map(mul, s.coeffs, signs)))


def granularity(s: Spectrum) -> int:
    """Maximum granularity over the nonzero coefficients; 0 for the zero map.

    The fold runs over the distinct values: an in-scope spectrum has at
    most five, and building the set costs about half of folding all 2^n
    entries at n = 14..16.
    """
    return _granularity(s.n, set(s.coeffs))


def _granularity(n: int, values: Iterable[int]) -> int:
    """Granularity of a spectrum on n inputs from its coefficient values;
    each distinct value once is enough.

    The coefficient c / 2^n has granularity n minus the number of trailing
    zeros of c (at least 0), and the OR of all coefficients has the fewest
    trailing zeros of any of them, sign included.
    """
    folded = reduce(or_, values, 0)
    if not folded:
        return 0
    return max(0, n - (folded & -folded).bit_length() + 1)


def sparsity(s: Spectrum) -> int:
    """Number of nonzero Fourier coefficients."""
    return len(s.coeffs) - s.coeffs.count(0)


def is_boolean_spectrum(s: Spectrum) -> bool:
    """Whether the spectrum belongs to a 0/1-valued function: inverts the
    transform and range-checks the values, in O(n 2^n)."""
    size = 1 << s.n
    return all(v == 0 or v == size for v in butterfly(s.coeffs, s.n))
