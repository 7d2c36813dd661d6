"""Exact Walsh-Hadamard spectra.

A spectrum stores the integers F(a) = sum_x f(x) (-1)^<a,x>, i.e. the
Fourier coefficients scaled by 2^n.  Everything stays in exact integer
arithmetic; no floating point appears anywhere.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, compress
from operator import add, or_
from typing import Iterable, Sequence

from .boolfunc import BooleanFunction
from .gf2 import _low_half_mask, int_to_bits


@dataclass(frozen=True)
class Spectrum:
    """Scaled Fourier transform: coeffs[enc(a)] = 2^n * f^(a).

    nonzero, when not None, holds the positions of the nonzero coefficients
    in increasing order.  wht fills it on a spectrum of at least 2^13
    entries (the butterfly's _STAGED_LANES) with at most one nonzero
    coefficient in 16, and structure.reduce_to_core on every core spectrum,
    which it reads off f's nonzero positions.  Equality, hashing and repr
    ignore it, so Spectrum(n, coeffs) equals the transform it was copied
    from.  Read it
    through nonzero_positions and coefficient_values, which fall back to a
    pass over coeffs when it is None.
    """

    n: int
    coeffs: tuple[int, ...]
    nonzero: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.coeffs) != 1 << self.n:
            raise ValueError("coefficient array must have 2^n entries")


def butterfly(values: bytes | Sequence[int], n: int) -> tuple[int, ...]:
    """Walsh-Hadamard transform of each consecutive group of 2^n entries.

    Exact for any integers; applying it twice scales every entry by 2^n.
    Every input, whether a 0/1 table, a run of tables or a spectrum, takes
    one pipeline.  It is packed once into lanes, each entry stored with a
    bias of half the lane's range so that a lane never goes negative:
    entries that fit a signed byte on 8-bit lanes, any other input on the
    lane of the first stage.  The lanes are cut into blocks, each one
    Python int: the whole input when a group has at most 2^14
    (_BLOCK_LANES) entries, else each 2^14 lanes.  Each block runs the
    masked stages, the blocks together run the block stages, and one join
    writes the blocks' lanes out.  Stages commute, and they run in two
    kinds.

    Masked stages.  The stages with strides below 2^14 run on each block
    x.  A stage with stride s pairs lane j with lane j + s for each j whose
    bit s is clear; with M the mask of those lanes and B the bias
    restricted to them,

        a = x & M,  b = (x >> s*width) & M,
        x = (a + b - B) | ((a + B - b) << s*width)

    leaves the biased sum in lane j and the biased difference in lane
    j + s.  Strides run from the largest down to 1, so each stage's M is
    the previous one XOR itself shifted by the new stride, and stay below
    2^n, so the groups of one call never mix.

    Block stages.  When 2^n is past 2^14, the stages with strides 2^14 up
    to 2^(n-1) pair block p with block p + stride / 2^14 inside each
    group, whole ints u and v: u + v - B and u + B - v, with B here the
    bias in every lane of a block, need no mask and no shift.  Every
    temporary of either kind is then one block, at most 128 KiB on 64-bit
    lanes, and the allocator hands its memory back on the next stage.
    Whole-table temporaries at n = 20 are fresh pages: a wht call on them
    took about 23,000 minor page faults, and about 4,200 on blocks.

    After i stages no entry exceeds peak * 2^i in absolute value, peak the
    largest |v| of the input.  The next stage runs on the narrowest lane of
    8, 16, 32 or 64 bits (or a whole number of bytes beyond) that holds
    peak * 2^(i+1) with its sign, so no lane carries into or borrows from
    its neighbour.  Whenever that lane is wider than a block's, the block
    is widened in one bytes pass before the stage: a 0/1 table runs its
    first 6 stages on 8-bit lanes, the next 8 on 16 bits and the rest on
    32.  After its masked stages, each block is on the lane of the last
    stage, on which every block stage runs.  Below _STAGED_LANES lanes
    the passes cost more than the narrower stages save, and every stage
    runs on the lane of the last, so a block is widened at most once,
    before its first stage.
    """
    return _unpack(*_transform(values, n))


def _transform(values: bytes | Sequence[int], n: int) -> tuple[bytes | bytearray, int]:
    """The butterfly's result as two's-complement little-endian lanes, with
    the lane width in bits; see butterfly.  The input is packed once, and
    the blocks' ints after their masked stages are the only copy of the
    table until their lanes are joined."""
    size = 1 << n
    count = len(values)
    if count % size:
        raise ValueError(f"length {count} is not a multiple of 2^{n}")
    if not count:
        return b"", 8
    small = None  # the entries as signed bytes, where each fits in one
    if isinstance(values, (bytes, bytearray)):
        # a truth table's bytes are all 0/1: delete those at C speed
        peak_bits = max(values.translate(None, b"\x00\x01") or b"\x01").bit_length()
        if peak_bits < 8:
            small = values
        else:  # a byte of 128 or more is no signed byte: pack it as an int
            values = list(values)
    else:
        try:  # a Struct's pack takes a tuple as its argument tuple, uncopied
            small = struct.Struct(f"<{count}b").pack(*values)
        except struct.error:
            peak_bits = max(max(values), -min(values)).bit_length()
        else:  # the bit length of the largest |v|, by one memchr per length
            magnitudes = small.translate(_MAGNITUDE_BITS)
            peak_bits = next((k for k in range(8, 0, -1) if k in magnitudes), 0)
            del magnitudes
    last = _lane_width(peak_bits + n + 1)
    if count < _STAGED_LANES:
        widths = [last] * (n + 1)
    else:  # stage done runs on lanes of widths[done] bits, the output on last
        widths = [_lane_width(peak_bits + i + 2) for i in range(n)]
        widths.append(last)
    if small is None:  # biased by flipping the top bit of each lane
        width = widths[0]
        nb = width >> 3
        lanes = bytearray(_pack(values, width))
        lanes[nb - 1 :: nb] = lanes[nb - 1 :: nb].translate(_FLIP)
    else:  # on 8-bit lanes, which the first stage widens to widths[0]
        width = 8
        lanes = small.translate(_FLIP)
    del small
    # the first b stages, strides 2^(b-1) down to 1, on each block of lanes
    # as its own int: the whole input when its groups fit in _BLOCK_LANES,
    # else each 2^b lanes; each block comes back on the lanes of the last
    b = min(n, _BLOCK_LANES.bit_length() - 1)
    block = count if size <= _BLOCK_LANES else _BLOCK_LANES
    step = block * (width >> 3)
    blocks = [
        _masked_stages(
            int.from_bytes(lanes[lo : lo + step], "little"),
            block,
            width,
            [*widths[:b], last],
        )
        for lo in range(0, len(lanes), step)
    ]
    del lanes
    # the stages with strides 2^b up to 2^(n-1) pair whole blocks, d blocks
    # apart: the biased sum and difference of two blocks need no mask
    bias = int.from_bytes(_lane_bias(last >> 3) * block, "little")
    for i in range(n - b):
        d = 1 << i
        for lo in range(0, len(blocks), d << 1):
            for p in range(lo, lo + d):
                u = blocks[p]
                v = blocks[p + d]
                blocks[p] = u + v - bias
                blocks[p + d] = u + bias - v
    # the bias is each lane's top bit, so an XOR takes it off; each block's
    # bytes replace its int.  They are joined into a bytearray: wht's
    # _nonzero_lanes, which slices them by stride, read a 2^16-lane
    # spectrum in 0.48 ms from one, against 0.56 ms from bytes (best of 200)
    step = block * (last >> 3)
    for p, u in enumerate(blocks):
        blocks[p] = (u ^ bias).to_bytes(step, "little")
    return bytearray().join(blocks), last


def _masked_stages(x: int, count: int, width: int, widths: list[int]) -> int:
    """The butterfly's masked stages on x, count biased lanes of width bits:
    k = len(widths) - 1 stages with strides 2^(k-1) down to 1, stage done on
    lanes of widths[done] bits.  x comes back on lanes of widths[k] bits."""
    nb = width >> 3
    k = len(widths) - 1
    # every whole-int temporary is as large as x: the stage rebinds x and a
    # as it goes, so that at most six such ints (x, a, mask, bias and two
    # temporaries) live at once
    mask = None
    for done, stage_width in enumerate(widths):
        if stage_width != width:  # this stage's bound outgrows the lane
            data = x.to_bytes(count * nb, "little")
            del x
            mask = bias = None
            width = stage_width
            x = int.from_bytes(_widen(data, nb, width >> 3), "little")
            nb = width >> 3
            del data
        if done == k:
            break
        shift = width << (k - 1 - done)
        if mask is None:
            bias = int.from_bytes(_lane_bias(nb) * count, "little")
            mask = _low_half_mask(count * width, shift)
        else:  # lanes clear of this stride, from those clear of the last
            mask ^= mask << shift
        a = x & mask
        x >>= shift
        x &= mask  # b
        x += a
        x -= bias & mask  # a + b - B
        a <<= 1
        a -= x  # 2a - (a + b - B) = a + B - b
        x |= a << shift
        del a
    return x


# lanes per int in the masked stages of groups longer than this; the
# stages with longer strides pair whole blocks, and an input of shorter
# groups is one int.  In-process wht on counterexample-padded images (best of
# 7), b = 12, 13 and 14 timed within noise of each other at n = 14..20;
# b = 15 and 16 took 6.3-6.6 and 7.4 ms at n = 16 against 5.3-5.5 ms,
# and 26-27 ms at n = 18 against 23 ms.  b = 14 keeps every group of at
# most 2^14 lanes on one int
_BLOCK_LANES = 1 << 14


# below this many lanes every stage runs on the lane of the last: on 0/1
# tables and their spectra at n = 9..14, widening gained nothing below 2^13
# lanes and made the transform up to 45% slower at n = 9
_STAGED_LANES = 1 << 13

# array and struct codes of the signed lanes of each standard width
_LANE_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}

# translations of one byte: its top bit flipped (bias on or off), the bit
# length of its magnitude read as a signed byte, for the biased top byte of
# a lane the sign fill and biased top byte of a wider lane, and 0/1 for
# zero/nonzero
_FLIP = bytes(b ^ 0x80 for b in range(256))
_MAGNITUDE_BITS = bytes(min(b, 256 - b).bit_length() for b in range(256))
_SIGN_FILL = bytes(0x00 if b & 0x80 else 0xFF for b in range(256))
_WIDE_TOP = bytes(0x80 if b & 0x80 else 0x7F for b in range(256))
_NONZERO = bytes(map(bool, range(256)))


def _lane_width(need: int) -> int:
    """Bits of the narrowest lane that holds a need-bit signed value."""
    return next((w for w in (8, 16, 32, 64) if need <= w), -(-need // 8) * 8)


def _lane_bias(nb: int) -> bytes:
    """The bias of one nb-byte lane, little-endian: 2^(8nb - 1)."""
    return bytes(nb - 1) + b"\x80"


def _widen(data: bytes | bytearray, nb: int, wide: int) -> bytearray:
    """Biased lanes of nb bytes as biased lanes of wide > nb bytes, at C
    speed: the low bytes are copied, and the old top byte becomes the
    value's byte, the sign fill and the new top byte by three translations."""
    top = data[nb - 1 :: nb]
    out = bytearray(len(top) * wide)
    for k in range(nb - 1):
        out[k::wide] = data[k::nb]
    out[nb - 1 :: wide] = top.translate(_FLIP)
    if wide - nb > 1:
        fill = top.translate(_SIGN_FILL)
        for k in range(nb, wide - 1):
            out[k::wide] = fill
    out[wide - 1 :: wide] = top.translate(_WIDE_TOP)
    return out


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


def _nonzero_lanes(data: bytes | bytearray, nb: int) -> tuple[int, ...] | None:
    """The positions of the nonzero lanes of nb bytes, in increasing order,
    or None when more than one lane in 16 is nonzero.

    The strided slices of the lanes' bytes are ORed together as ints, and
    one translate turns each lane's OR into a 0/1 flag; all of that runs at
    C speed.  The runs of zero flags between the ones give the positions,
    one step per nonzero lane.  On denser lanes those steps cost more than
    one compress over the unpacked coefficients (4 times more on a random
    table), so nothing is returned.
    """
    count = len(data) // nb
    lanes = int.from_bytes(data[0::nb], "little")
    for k in range(1, nb):
        lanes |= int.from_bytes(data[k::nb], "little")
    flags = lanes.to_bytes(count, "little").translate(_NONZERO)
    nonzero = flags.count(1)
    if nonzero > count >> 4:
        return None
    zeros_before = accumulate(map(len, flags.split(b"\x01")))
    return tuple(map(add, zeros_before, range(nonzero)))


def wht(f: BooleanFunction) -> Spectrum:
    """Exact transform of a 0/1 truth table: the 0/1 bytes of the table
    (gf2.int_to_bits, one linear pass) go straight into the lanes of the
    butterfly, which past _BLOCK_LANES entries runs its masked stages
    block by block and pairs whole blocks in the rest.  From _STAGED_LANES
    entries up, the nonzero positions are
    read off the packed lanes before they are unpacked, and the spectrum
    carries them when they are sparse (see _nonzero_lanes): past the
    transform, its readers then touch only those positions."""
    n = f.n
    data, width = _transform(int_to_bits(f.table, 1 << n), n)
    nonzero = _nonzero_lanes(data, width >> 3) if 1 << n >= _STAGED_LANES else None
    return Spectrum(n, _unpack(data, width), nonzero)


def nonzero_positions(s: Spectrum) -> Iterable[int]:
    """The positions of the nonzero coefficients, in increasing order: the
    ones the spectrum carries, else a compress over all 2^n coefficients,
    which is an iterator and can be read once."""
    if s.nonzero is not None:
        return s.nonzero
    return compress(range(len(s.coeffs)), s.coeffs)


def coefficient_values(s: Spectrum) -> set[int]:
    """The distinct coefficient values: those at the carried positions, with
    0 when some coefficient vanishes, else the set of all 2^n coefficients."""
    if s.nonzero is None:
        return set(s.coeffs)
    values = set(map(s.coeffs.__getitem__, s.nonzero))
    if len(s.nonzero) < len(s.coeffs):
        values.add(0)
    return values


def granularity(s: Spectrum) -> int:
    """Maximum granularity over the nonzero coefficients; 0 for the zero map.

    The fold runs over the distinct values: an in-scope spectrum has at
    most five, and building the set costs about half of folding all 2^n
    entries at n = 14..16 (and a spectrum that carries its nonzero
    positions reads only those).
    """
    return _granularity(s.n, coefficient_values(s))


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
    """Number of nonzero Fourier coefficients: the carried positions, else
    a count of zeros over all 2^n."""
    if s.nonzero is not None:
        return len(s.nonzero)
    return len(s.coeffs) - s.coeffs.count(0)


def is_boolean_spectrum(s: Spectrum) -> bool:
    """Whether the spectrum belongs to a 0/1-valued function: inverts the
    transform and range-checks the values, in O(n 2^n)."""
    size = 1 << s.n
    return all(v == 0 or v == size for v in butterfly(s.coeffs, s.n))
