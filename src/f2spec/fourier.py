"""Exact Walsh-Hadamard spectra.

A spectrum stores the integers F(a) = sum_x f(x) (-1)^<a,x>, i.e. the
Fourier coefficients scaled by 2^n.  Everything stays in exact integer
arithmetic; no floating point appears anywhere.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, compress, repeat
from operator import add, or_
from typing import Iterable, Sequence

from .boolfunc import BooleanFunction
from .gf2 import (
    _LANE_CODES,
    _low_half_mask,
    complement_generators,
    fold,
    int_to_bits,
    rref,
    span_points,
    xor_translate,
)


class Spectrum:
    """Scaled Fourier transform: F(a) = 2^n * f^(a) at each mask a.

    A spectrum has one of two forms.  Spectrum(n, coeffs) is dense: the
    sequence of all 2^n coefficients, with nonzero None.
    Spectrum.sparse(n, positions, values) is sparse: nonzero holds the
    positions of the nonzero coefficients in increasing order, and the
    coefficients there are the values.  wht returns the sparse form on a
    spectrum of at least 2^13 entries (the butterfly's _STAGED_LANES)
    with at most one nonzero coefficient in 16: read off the packed lanes,
    which it then never unpacks, or, when it finds d >= 4 directions
    along which f is invariant, read off the transform of f's quotient on
    n - d inputs.  reduce_to_core returns it for every core spectrum.

    A spectrum is the value (n, positions, values) in either form:
    equality, hashing and repr read it through nonzero_items, so a sparse
    spectrum equals, hashes and prints as its dense copy.  coeffs of a
    sparse spectrum is a fresh tuple of 2^n entries on each read, never
    stored.  The readers of this module (nonzero_items, coefficient,
    coefficient_values, sparsity, granularity, iter_coefficients) branch
    once on the form and touch only the positions and values of a sparse
    one.  A spectrum is a value: nothing changes it past construction.
    """

    __slots__ = ("n", "nonzero", "_coeffs", "_values")

    def __init__(self, n: int, coeffs: Sequence[int]) -> None:
        if len(coeffs) != 1 << n:
            raise ValueError("coefficient array must have 2^n entries")
        self.n = n
        self.nonzero = None
        self._coeffs = coeffs
        self._values: tuple[int, ...] | None = None

    @classmethod
    def sparse(cls, n: int, positions: tuple[int, ...], values: tuple[int, ...]) -> Spectrum:
        """The spectrum on n inputs that is values[i] at positions[i] and 0
        elsewhere; the positions must increase and the values be nonzero."""
        s = cls.__new__(cls)
        s.n = n
        s.nonzero = positions
        s._coeffs = None
        s._values = values
        return s

    @property
    def coeffs(self) -> Sequence[int]:
        """All 2^n coefficients: those of the dense form, or a fresh tuple
        built from the sparse form."""
        if self.nonzero is None:
            return self._coeffs
        coeffs = [0] * (1 << self.n)
        for a, v in zip(self.nonzero, self._values):
            coeffs[a] = v
        return tuple(coeffs)

    def _key(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        positions, values = nonzero_items(self)
        return self.n, tuple(positions), tuple(values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        n, positions, values = self._key()
        return f"Spectrum.sparse({n}, {positions}, {values})"


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
    masked stages, the blocks together run the block stages, and each
    block's lanes are then written out as bytes, which are unpacked in one
    pass.  Stages commute, and they run in two kinds.

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
    blocks, width, _ = _transform(values, n)
    return _unpack(blocks, width)


def _transform(
    values: bytes | Sequence[int], n: int, scan: bool = False
) -> tuple[list[bytearray], int, tuple[int, ...] | None]:
    """The butterfly's result as blocks of two's-complement little-endian
    lanes, each block as long as the others and all of them in order, with
    the lane width in bits; see butterfly.  The input is packed once, and
    the blocks' ints after their masked stages are the only copy of the
    table until each becomes its bytes.  With scan, the third item is the
    positions of the nonzero lanes, in increasing order, when at most one
    lane in 2^_SPARSE_BITS is nonzero, read block by block as its bytes are
    made (see _nonzero_lanes); it is None otherwise."""
    size = 1 << n
    count = len(values)
    if count % size:
        raise ValueError(f"length {count} is not a multiple of 2^{n}")
    if not count:
        return [], 8, None
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
    else:  # on 8-bit lanes, which each block widens to widths[0]
        nb = 1
        lanes = small.translate(_FLIP)
    del small
    # the first b stages, strides 2^(b-1) down to 1, on each block of lanes
    # as its own int: the whole input when its groups fit in _BLOCK_LANES,
    # else each 2^b lanes.  A block is widened to the first stage's lanes
    # while it is still bytes, and comes back on the lanes of the last
    b = min(n, _BLOCK_LANES.bit_length() - 1)
    block = count if size <= _BLOCK_LANES else _BLOCK_LANES
    step = block * nb
    blocks = [
        _masked_stages(
            int.from_bytes(_widen(lanes[lo : lo + step], nb, widths[0] >> 3), "little"),
            block,
            widths[0],
            [*widths[:b], last],
        )
        for lo in range(0, len(lanes), step)
    ]
    del lanes
    # the stages with strides 2^b up to 2^(n-1) pair whole blocks, d blocks
    # apart: the biased sum and difference of two blocks need no mask
    if n > b:
        bias = int.from_bytes(_lane_bias(last >> 3) * block, "little")
    for i in range(n - b):
        d = 1 << i
        for lo in range(0, len(blocks), d << 1):
            for p in range(lo, lo + d):
                u = blocks[p]
                v = blocks[p + d]
                blocks[p] = u + v - bias
                blocks[p + d] = u + bias - v
    # each block's bytes replace its int, and flipping the top byte of each
    # lane takes the bias off.  With scan, a block of nonzero bytes has its
    # lanes flagged zero or nonzero while its bytes are fresh, and the
    # positions of the nonzero ones collected, until more than one lane in
    # 2^_SPARSE_BITS is nonzero.  The blocks are not joined: at n = 24 that
    # would add 64 MiB to the peak memory of a sparse transform, which reads
    # a few lanes from them
    nb = last >> 3
    step = block * nb
    nonzero: list[int] | None = [] if scan else None
    zeros = bytes(step) if scan else b""
    for p, u in enumerate(blocks):
        data = bytearray(u.to_bytes(step, "little"))
        del u
        data[nb - 1 :: nb] = top = data[nb - 1 :: nb].translate(_FLIP)
        blocks[p] = data
        if nonzero is not None and data != zeros:
            room = (count >> _SPARSE_BITS) - len(nonzero)
            found = _nonzero_lanes(data, nb, top, p * block, room)
            if found is None:
                nonzero = None
            else:
                nonzero += found
    del data
    return blocks, last, None if nonzero is None else tuple(nonzero)


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

# a spectrum with at most one nonzero coefficient in 2^_SPARSE_BITS takes
# the sparse form.  It is also the least dimension of K' that takes the
# quotient route, whose spectrum vanishes off K'^perp, so the route returns
# the form that the full transform would
_SPARSE_BITS = 4

# failed tries after which the search for invariant directions stops.  On
# seeded images of two-affine (k = 3, 5), counterexample-padded and
# embedded two-affine tables at n = 14..20, every search failed exactly
# twice before it found all of K.  On random tables of weight 0 mod 16 at
# n = 13..20, where it finds nothing, the search costs 1.9-5.1% of the
# transform with 4, 2.4-5.9% with 5 and 2.8-7.2% with 6 (best of 5 to 9,
# in process); tried smallest candidate first with 4, it cost 1.8-6.4%.
# With 5 it keeps d >= 4 directions on 212 of test_spectrum's 400
# planted tables of dim K >= 4, against 192 with 4 and 192 smallest
# first
_SEARCH_FAILURES = 5

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
    value's byte, the sign fill and the new top byte by three translations.
    Lanes that are already wide come back as they are."""
    if wide == nb:
        return data
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


def _unpack(blocks: list[bytearray], width: int) -> tuple[int, ...]:
    """Inverse of _pack on the blocks' lanes in order, straight into one
    tuple."""
    data = blocks[0] if len(blocks) == 1 else b"".join(blocks)
    nb = width >> 3
    code = _LANE_CODES.get(width)
    if code is None:
        return tuple(
            int.from_bytes(data[k : k + nb], "little", signed=True)
            for k in range(0, len(data), nb)
        )
    return struct.unpack(f"<{len(data) // nb}{code}", data)


def _nonzero_lanes(
    data: bytes | bytearray, nb: int, top: bytes, start: int, room: int
) -> list[int] | None:
    """The positions, from start up, of the nonzero lanes of nb bytes of
    data, whose top bytes are top, in increasing order, or None when there
    are more than room of them.

    The strided slices of the lanes' bytes are ORed together as ints, and
    one translate turns each lane's OR into a 0/1 flag; all of that runs at
    C speed.  The runs of zero flags between the ones give the positions,
    one step per nonzero lane; past room, those steps would cost more
    than one compress over the unpacked coefficients (4 times more on a
    random table at one lane in 16), so they are not taken.
    """
    lanes = int.from_bytes(top, "little")
    for k in range(nb - 1):
        lanes |= int.from_bytes(data[k::nb], "little")
    flags = lanes.to_bytes(len(top), "little").translate(_NONZERO)
    nonzero = flags.count(1)
    if nonzero > room:
        return None
    zeros_before = accumulate(map(len, flags.split(b"\x01")))
    return list(map(add, zeros_before, range(start, start + nonzero)))


def wht(f: BooleanFunction) -> Spectrum:
    """Exact transform of a 0/1 truth table: the 0/1 bytes of the table
    (gf2.int_to_bits, one linear pass) go straight into the lanes of the
    butterfly, which past _BLOCK_LANES entries runs its masked stages
    block by block and pairs whole blocks in the rest.  From _STAGED_LANES
    entries up, the nonzero positions are read off the packed lanes, and
    when at most one lane in 16 is nonzero (see _nonzero_lanes) the
    spectrum comes back in its sparse form: those positions and the lanes'
    values there, read from the lane buffer, which is never unpacked.
    Past the transform, its readers then touch only those positions.

    From _STAGED_LANES entries up, a table whose weight is a multiple of
    16 is first searched for directions c with f(x + c) = f(x) for every
    x (see _invariant_rows), which folds the table by each direction it
    keeps.  When they span d >= 4 dimensions, the butterfly runs on the
    last fold, f's quotient of 2^(n-d) entries, instead, and the spectrum
    comes back sparse (see _quotient_spectrum): it vanishes off those
    directions' annihilator, which holds at most one mask in 16."""
    n = f.n
    if 1 << n >= _STAGED_LANES:
        rows, quotient = _invariant_rows(f.table, n)
        if len(rows) >= _SPARSE_BITS:
            return _quotient_spectrum(n, rows, quotient)
    return _lane_spectrum(int_to_bits(f.table, 1 << n), n)


def _lane_spectrum(bits: bytes, n: int) -> Spectrum:
    """The spectrum of the 0/1 table bits on n inputs, straight from the
    butterfly's lanes: sparse from _STAGED_LANES entries up when at most
    one lane in 16 is nonzero, else dense."""
    blocks, width, nonzero = _transform(bits, n, 1 << n >= _STAGED_LANES)
    if nonzero is None:
        return Spectrum(n, _unpack(blocks, width))
    nb = width >> 3
    block = len(blocks[0]) // nb
    lanes = (divmod(a, block) for a in nonzero)
    values = tuple(
        int.from_bytes(blocks[p][j * nb : j * nb + nb], "little", signed=True) for p, j in lanes
    )
    return Spectrum.sparse(n, nonzero, values)


def _invariant_rows(table: int, n: int) -> tuple[tuple[int, ...], int]:
    """The rref rows of K', a subspace of K, the directions c with
    f(x + c) = f(x) for every x, f the table on n inputs, and f's quotient
    by K': f at the points with every pivot bit of K' clear, as a table on
    the n - d other coordinates in increasing order (f read at their unit
    vectors, one gf2.fold per pivot).  f is constant on the cosets of K,
    so its weight is a multiple of 2^dim K; the rows are (), and the
    quotient is f, when f is zero or its weight is no multiple of
    2^_SPARSE_BITS.

    The search holds g, the quotient by the directions kept so far, on m
    inputs.  The points with every kept pivot bit clear meet each coset of
    K' once and f is K'-invariant, so for such a c, f is c-invariant
    exactly when g is.  Every such c of K maps g's support onto itself, so
    for each support point x of g it lies in the support moved by x.  The
    candidates start as f's support moved by its smallest point, with 0
    standing for K' itself.  Let p be the top bit of the largest
    candidate: the smallest candidate c with top bit p is tried.  When
    moving g by c leaves it as it is, c joins K', and g and the candidates
    are folded at p (see gf2.fold): the points with bit p clear meet each
    coset of K' + <c> once.  When p = m - 1, as it is while the candidates
    reach g's top coordinate, the fold is a truncation to the low half.
    Otherwise some support point x of g has x + c off the support, and the
    candidates keep only the support of g moved by x, which drops c.  When
    no candidate is left but 0, K' = K; the search also stops after
    _SEARCH_FAILURES failed tries.  Each member of K' is checked before it
    joins, so K' lies in K whenever the search stops, and each check moves
    the table of the last fold: after j keeps, 2^(n - j) entries."""
    weight = table.bit_count()
    if not weight or weight & ((1 << _SPARSE_BITS) - 1):
        return (), table
    candidates = xor_translate(table, (table & -table).bit_length() - 1, n)
    coords = list(range(n))  # f's coordinate of each coordinate of g
    kept = []
    failures = 0
    while failures < _SEARCH_FAILURES and candidates != 1:  # 0 is always a candidate
        p = (candidates.bit_length() - 1).bit_length() - 1
        above = candidates >> (1 << p)  # the candidates with top bit p, less 2^p
        c = (above & -above).bit_length() - 1 | 1 << p
        # n's swap masks are those of g's 2^m bits, and more bits above them
        moved = xor_translate(table, c, n)
        if moved == table:
            kept.append(sum(1 << coords[i] for i in range(p + 1) if c >> i & 1))
            m = len(coords)
            del coords[p]
            table = fold(table, p, m)
            candidates = fold(candidates, p, m)
        else:
            failures += 1
            off = table & ~moved  # the x with x + c off the support
            candidates &= xor_translate(table, (off & -off).bit_length() - 1, n)
    return rref(kept), table


def _quotient_spectrum(n: int, rows: tuple[int, ...], table: int) -> Spectrum:
    """The spectrum of f on n inputs in sparse form, from the transform of
    its quotient by K', the span of the rref rows, along which f is
    invariant: table, f read at the points with every pivot bit of the
    rows clear, on the n - d other coordinates in increasing order (as
    _invariant_rows folds it).

    Each x of F_2^n is u + k for one u with every pivot bit of the rows
    clear and one k in K', and f(u + k) = f(u).  So F(alpha) is 2^d times
    the sum of f(u) (-1)^<alpha,u> when alpha is orthogonal to K', and 0
    otherwise.  Let h(y) = f(u) for u the bits of y spread over the n - d
    positions that are no pivot, in increasing order: h is the table.
    Then F(alpha) = 2^d H(y) for the alpha of K'^perp whose bits at those
    positions are y: the sum of complement_generators of the rows over the
    set bits of y, read from the spans of their low and high halves."""
    d = len(rows)
    ys, hs = nonzero_items(_lane_spectrum(int_to_bits(table, 1 << (n - d)), n - d))
    gens = complement_generators(n, rows)
    half = len(gens) >> 1
    low, high = span_points(gens[:half]), span_points(gens[half:])
    low_bits = len(low) - 1
    items = sorted((low[y & low_bits] ^ high[y >> half], v << d) for y, v in zip(ys, hs))
    positions, values = zip(*items)
    return Spectrum.sparse(n, positions, values)


def nonzero_items(s: Spectrum) -> tuple[Iterable[int], Iterable[int]]:
    """The positions of the nonzero coefficients, in increasing order, and
    the coefficients there, in the same order: those of the sparse form,
    else a compress and a filter over all 2^n coefficients, iterators that
    can be read once."""
    if s.nonzero is not None:
        return s.nonzero, s._values
    coeffs = s._coeffs
    return compress(range(len(coeffs)), coeffs), filter(None, coeffs)


def coefficient(s: Spectrum, a: int) -> int:
    """F(a): read from the dense coefficients, else found by bisecting the
    positions of the sparse form."""
    if s.nonzero is None:
        return s._coeffs[a]
    i = bisect_left(s.nonzero, a)
    return s._values[i] if i < len(s.nonzero) and s.nonzero[i] == a else 0


def iter_coefficients(s: Spectrum) -> Iterable[int]:
    """All 2^n coefficients in order: the dense coefficients, else the
    values of the sparse form with runs of zeros streamed between them, so
    that no tuple of 2^n entries is built."""
    if s.nonzero is None:
        return s._coeffs
    return _with_zeros(s.nonzero, s._values, 1 << s.n)


def _with_zeros(positions: Iterable[int], values: Iterable[int], size: int) -> Iterable[int]:
    """size entries: each value at its position, zeros elsewhere."""
    done = 0
    for a, v in zip(positions, values):
        yield from repeat(0, a - done)
        yield v
        done = a + 1
    yield from repeat(0, size - done)


def coefficient_values(s: Spectrum) -> frozenset[int]:
    """The distinct coefficient values, built as one frozenset: of all 2^n
    dense coefficients, else of the values of the sparse form, with 0 when
    some coefficient vanishes."""
    if s.nonzero is None:
        return frozenset(s._coeffs)
    if len(s.nonzero) < 1 << s.n:
        return frozenset((0, *s._values))
    return frozenset(s._values)


def granularity(s: Spectrum) -> int:
    """Maximum granularity over the nonzero coefficients; 0 for the zero map.

    The fold runs over the distinct values: an in-scope spectrum has at
    most five, and building the set costs about half of folding all 2^n
    entries at n = 14..16 (and a sparse spectrum reads only its values).
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
    """Number of nonzero Fourier coefficients: a count of zeros over all 2^n
    dense coefficients, else the positions of the sparse form."""
    if s.nonzero is None:
        return len(s._coeffs) - s._coeffs.count(0)
    return len(s.nonzero)


def is_boolean_spectrum(s: Spectrum) -> bool:
    """Whether the spectrum belongs to a 0/1-valued function: inverts the
    transform and range-checks the values, in O(n 2^n)."""
    size = 1 << s.n
    return all(v == 0 or v == size for v in butterfly(s.coeffs, s.n))
