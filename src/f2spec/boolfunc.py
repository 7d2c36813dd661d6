"""Truth tables of Boolean functions f: F_2^n -> {0,1}, bit-packed.

The table is one Python int: bit enc(x) is f(x), with the first input
coordinate at the least-significant bit of enc(x) (see gf2).  Every
operation here moves the whole table at once, never one bit at a time:
a constant number of linear passes (binary strings, folds, masked
shifts), or for apply_transform at most 2n delta-swaps blended by
parity masks.  None lists the table's points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .gf2 import (
    GF2Matrix,
    bits_to_int,
    check_dimension,
    check_vector,
    fold,
    int_to_bits,
    swap_masks,
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

    With x_1 at the least-significant bit these are the even and the odd
    bits of the table: one gf2.fold at coordinate 0 of the table, and one
    of the table shifted down by a bit.  For n = 1 the two halves are
    0-dimensional constants.
    """
    n = f.n
    if n < 1:
        raise ValueError("cannot restrict a 0-dimensional function")
    return (
        BooleanFunction(n - 1, fold(f.table, 0, n)),
        BooleanFunction(n - 1, fold(f.table >> 1, 0, n)),
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

    Gauss-Jordan on M's columns, kept as its rows, reaches
    M F_1 ... F_k = I by column operations F = I + e_a b^T with bit a of b
    clear, each its own inverse, so f(Mx) = f(F_k ... F_1 x), and the
    table takes F_k first.  Column c takes at most two: when row c lacks
    bit c, column c adds the first column p after it that row c holds
    (a = p, b = e_c); then each other column that row c holds adds
    column c (a = c, b = row c less bit c), which leaves row c = e_c.
    F x = x + <b, x> e_a, so each moves the points with <b, x> = 1 by e_a
    (_move_where_odd): one delta-swap of the whole table, and b's parity
    mask.  Nothing lists the 2^n points.
    """
    if f.n != m.n:
        raise ValueError("function and matrix dimensions differ")
    n = f.n
    rows = list(m.rows)
    steps = []
    for c in range(n):
        bit = 1 << c
        if not rows[c] & bit:
            high = rows[c] >> c << c
            pivot = high & -high
            for r in range(n):
                if rows[r] & pivot:
                    rows[r] ^= bit
            steps.append((pivot.bit_length() - 1, bit))
        b = rows[c] ^ bit
        if b:
            for r in range(n):
                if rows[r] & bit:
                    rows[r] ^= b
            steps.append((c, b))
    swaps = swap_masks(n)
    table = f.table
    for a, b in reversed(steps):
        table = _move_where_odd(table, a, b, swaps)
    return BooleanFunction(n, table)


def _move_where_odd(table: int, a: int, b: int, swaps: tuple[int, ...]) -> int:
    """h(x) = t(x + e_a) where <b, x> = 1, and t(x) elsewhere, for t the
    table and b clear at bit a, with swaps = gf2.swap_masks(n): one
    delta-swap at stride 2^a, blended by the XOR of the swap masks at b's
    bits, which holds the x with <b, x> = |b| + 1 (mod 2)."""
    stride = 1 << a
    m = swaps[a]
    moved = ((table & m) << stride) | ((table >> stride) & m)
    parity, odd = 0, b.bit_count() & 1
    while b:
        low = b & -b
        parity ^= swaps[low.bit_length() - 1]
        b ^= low
    if odd:  # parity holds the points that keep their entry
        return moved ^ ((moved ^ table) & parity)
    return table ^ ((table ^ moved) & parity)


def shift(f: BooleanFunction, a: int) -> BooleanFunction:
    """h(x) = f(x + a): translate the support by XOR with a.

    One masked delta-swap of the table per set bit of a (gf2.xor_translate).
    """
    check_vector(a, f.n)
    if a == 0:
        return f
    return BooleanFunction(f.n, xor_translate(f.table, a, f.n))
