"""Truth tables of Boolean functions f: F_2^n -> {0,1}, bit-packed.

The table is one Python int: bit enc(x) is f(x), with the first input
coordinate at the least-significant bit of enc(x) (see gf2).  Every
operation here reads or builds the whole table in a constant number of
linear passes (binary strings, masked shifts), never one bit at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .gf2 import (
    GF2Matrix,
    bits_to_int,
    check_dimension,
    check_vector,
    int_to_bits,
    span_points,
    xor_translate,
)


@dataclass(frozen=True)
class BooleanFunction:
    n: int
    table: int

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if self.table < 0 or self.table >> (1 << self.n):
            raise ValueError(f"truth table does not fit 2^{self.n} entries")

    @staticmethod
    def from_support(n: int, support: Iterable[int]) -> "BooleanFunction":
        check_dimension(n)
        flags = bytearray(1 << n)
        for x in support:
            check_vector(x, n)
            flags[x] = 1
        return BooleanFunction(n, bits_to_int(flags))

    def value(self, x: int) -> int:
        return (self.table >> x) & 1

    def support(self) -> frozenset[int]:
        size = 1 << self.n
        return frozenset(compress(range(size), int_to_bits(self.table, size)))

    @property
    def weight(self) -> int:
        return self.table.bit_count()

    @property
    def is_zero(self) -> bool:
        return self.table == 0

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n}, table=0x{self.table:x})"


def restrict_first_bit(f: BooleanFunction) -> tuple[BooleanFunction, BooleanFunction]:
    """Sub-functions fixing the first input bit: (f(0,y), f(1,y)).

    With x_1 at the least-significant bit this is the even/odd interleave of
    the table: in the most-significant-first binary string the odd positions
    hold the even table bits, so each half is one slice of that string.  For
    n = 1 the two halves are 0-dimensional constants.
    """
    if f.n < 1:
        raise ValueError("cannot restrict a 0-dimensional function")
    bits = format(f.table, f"0{1 << f.n}b")
    return (
        BooleanFunction(f.n - 1, int(bits[1::2], 2)),
        BooleanFunction(f.n - 1, int(bits[0::2], 2)),
    )


def tensor(f: BooleanFunction, g: BooleanFunction) -> BooleanFunction:
    """Product function h(x, y) = f(x) * g(y); x occupies the low coordinates.

    The table is the binary string of g with each 1 replaced by f's table
    and each 0 by a zero block of the same width.
    """
    width = 1 << f.n
    blocks = {"0": "0" * width, "1": format(f.table, f"0{width}b")}
    bits = "".join(map(blocks.__getitem__, format(g.table, f"0{1 << g.n}b")))
    return BooleanFunction(f.n + g.n, int(bits, 2))


def apply_transform(f: BooleanFunction, m: GF2Matrix) -> BooleanFunction:
    """g(x) = f(Mx).  The spectrum is the permutation beta -> (M^T)^-1 beta.

    The gather of f at the sums of M's columns.
    """
    if f.n != m.n:
        raise ValueError("function and matrix dimensions differ")
    return gather(f, m.columns())


def gather(f: BooleanFunction, vectors: Sequence[int]) -> BooleanFunction:
    """h(y) = f(sum of vectors[j] over the set bits j of y), on as many
    inputs as there are vectors: f read at span_points of the vectors, in
    binary counting order.  apply_transform reads f at a matrix's
    columns, and structure.reduce_to_core reads f's quotient at the pivot
    bits of its spectrum's span; fourier._invariant_rows folds a table
    without it, and the tests check those folds against it.

    From one point in 16 of the table up, the points index the table's
    binary string, built in one pass over all 2^n bits; below that, each
    point's bit is read from the table's bytes, which costs up to 1.5
    times more per point but builds no string of 2^n bits.  On random
    tables at n = 14, 18 and 24 (best of 3 to 200), the string was the
    faster way from one point in 16 up and the bytes below.
    """
    points = span_points(vectors)
    if len(points) << 4 >= 1 << f.n:
        bits = format(f.table, f"0{1 << f.n}b")[::-1]
        gathered = "".join(map(bits.__getitem__, points))
        return BooleanFunction(len(vectors), int(gathered[::-1], 2))
    table = f.table.to_bytes(((1 << f.n) + 7) >> 3, "little")
    gathered = bytes(table[x >> 3] >> (x & 7) & 1 for x in points)
    return BooleanFunction(len(vectors), bits_to_int(gathered))


def shift(f: BooleanFunction, a: int) -> BooleanFunction:
    """h(x) = f(x + a): translate the support by XOR with a.

    One masked delta-swap of the table per set bit of a (gf2.xor_translate).
    """
    check_vector(a, f.n)
    if a == 0:
        return f
    return BooleanFunction(f.n, xor_translate(f.table, a, f.n))
