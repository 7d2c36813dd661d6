"""Bit-packed linear algebra over the two-element field.

Vectors in F_2^n are plain Python ints: coordinate x_i (1-based) is bit i-1
of the int, so the first coordinate is the least-significant bit.  Addition
is XOR.  The ambient dimension travels on the container types (Subspace,
AffineSubspace, GF2Matrix); loose ints are validated where they enter one.

Everything here is immutable and pure, so values can be shared freely
between parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter, or_
from typing import Iterable, Iterator, Sequence

MAX_DIMENSION = 24


def check_dimension(n: int) -> None:
    if not 0 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be between 0 and {MAX_DIMENSION}, got {n}")


def check_vector(x: int, n: int) -> None:
    if x < 0 or x >> n:
        raise ValueError(f"vector {x} does not fit in dimension {n}")


_BIT_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_ASCII_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
# delta-swap masks for strides below one byte: bits whose index has the
# stride bit clear, i.e. 0b01010101, 0b00110011 and 0b00001111
_SUB_BYTE_MASKS = {1: b"\x55", 2: b"\x33", 4: b"\x0f"}


def int_to_bits(value: int, size: int) -> bytes:
    """The low `size` bits of value as 0/1 bytes, least-significant first.

    One linear pass through the binary string, so unpacking a 2^n-bit
    table costs O(2^n) instead of one O(2^n) shift per bit.
    """
    return format(value, f"0{size}b")[::-1].encode().translate(_ASCII_TO_BIT)


def bits_to_int(flags: bytes | bytearray) -> int:
    """Inverse of int_to_bits: bit i of the result is flags[i] (0 or 1)."""
    return int(flags[::-1].translate(_BIT_TO_ASCII), 2)


def _low_half_mask(size: int, stride: int) -> int:
    """Bits x < size with x & stride == 0, for a power-of-two stride < size."""
    if stride >= 8:
        unit = b"\xff" * (stride >> 3) + bytes(stride >> 3)
    else:
        unit = _SUB_BYTE_MASKS[stride]
    mask = int.from_bytes(unit * max(1, size // (len(unit) << 3)), "little")
    return mask & ((1 << size) - 1) if size < 8 else mask


@lru_cache(maxsize=4)
def swap_masks(n: int) -> tuple[int, ...]:
    """The delta-swap mask of each stride 2^q < 2^n, built once for each of
    the last few n: n 2^n bits in all, 128 KiB at n = 16."""
    size = 1 << n
    return tuple(_low_half_mask(size, 1 << q) for q in range(n))


def xor_translate(bits: int, a: int, n: int) -> int:
    """The point set {x + a : x in bits} of F_2^n, as a 2^n-bit mask.

    Translation by a permutes bit positions x -> x XOR a.  Each set bit of a
    is one masked delta-swap of the whole mask (Hacker's Delight, ch. 7), so
    the cost is O(n 2^n) bit operations at most.
    """
    masks = swap_masks(n)
    while a:
        stride = a & -a
        a ^= stride
        m = masks[stride.bit_length() - 1]
        bits = ((bits & m) << stride) | ((bits >> stride) & m)
    return bits


def fold(bits: int, p: int, m: int) -> int:
    """The points of the 2^m-bit mask bits with bit p clear, as a mask of
    2^(m - 1) bits: each point with bit p dropped, the mask read at the
    unit vectors other than e_p.  This is the table primitive that drops
    a coordinate: wht's invariant search folds by each direction it keeps,
    boolfunc.restrict_first_bit folds at coordinate 0, and
    structure.reduce_to_core folds its quotient at each coordinate off the
    pivots.  The mask is 2^(m - 1 - p) blocks of 2^(p + 1) bits, and the
    low half of each block is kept, at C speed: a truncation when
    p = m - 1; below p = 3, the kept 4 bits of each byte by one
    translation into a nibble, two bytes to one; else the kept runs of
    whole bytes, by one strided copy per lane of up to 8 bytes in a run,
    or one slice per run when a run has more lanes than there are
    blocks."""
    if p == m - 1:
        return bits & ((1 << (1 << p)) - 1)
    data = bits.to_bytes(max(1, (1 << m) >> 3), "little")
    if p < 3:
        low = int.from_bytes(data[0::2].translate(_LOW_NIBBLE[p]), "little")
        return low | int.from_bytes(data[1::2].translate(_HIGH_NIBBLE[p]), "little")
    run = 1 << (p - 3)  # bytes kept of each block of 2 run
    lane = min(run, 8)
    lanes = run // lane
    if lanes > len(data) // (run << 1):  # more lanes in a run than blocks
        kept = b"".join(data[lo : lo + run] for lo in range(0, len(data), run << 1))
        return int.from_bytes(kept, "little")
    code = _LANE_CODES[lane << 3]
    source = memoryview(data).cast(code)
    kept = bytearray(len(data) >> 1)
    target = memoryview(kept).cast(code)
    for k in range(lanes):
        target[k::lanes] = source[k :: lanes << 1]
    return int.from_bytes(kept, "little")


# array and struct codes of the signed lanes of each standard width
_LANE_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}

# for bit p < 3 of a point, each byte's 4 points with bit p clear, in
# increasing order, as the low and as the high nibble of a byte
_LOW_NIBBLE = tuple(
    bytes(
        sum((b >> x & 1) << i for i, x in enumerate(x for x in range(8) if not x >> p & 1))
        for b in range(256)
    )
    for p in range(3)
)
_HIGH_NIBBLE = tuple(bytes(v << 4 for v in t) for t in _LOW_NIBBLE)


# flat_mask doubles up to this n and goes coordinate by coordinate above
# it.  On 40 random rref flats per n (best of 7), doubling took 0.05
# against 0.15 ms in all at n = 4, 0.12 against 0.29 at n = 8 and 0.41
# against 0.54 at n = 12, and lost from n = 13 up: 0.75 against 0.70 ms
# at n = 13, 1.6 against 0.7 at n = 14 and 5.9 against 1.1 at n = 16.
_DOUBLING_MAX_N = 12


def flat_mask(shift: int, basis: Sequence[int], n: int) -> int:
    """The points of shift + span(basis) as a 2^n-bit mask, for rref rows
    of F_2^n (is_rref) and a shift in F_2^n.

    Up to n = _DOUBLING_MAX_N by doubling: one xor_translate of the mask
    per basis vector, which an independent basis never folds onto itself.
    Above it, coordinate by coordinate from x_1 up, on the echelon rows
    of U^perp keyed by top bit: the flat is the x with <g, x> = <g, shift>
    for every such row g.  The mask holds the flat's prefixes, its points'
    first m coordinates; it doubles (mask | mask << 2^m) when no row has
    top bit m, and else row g fixes x_m to <g + e_m, x> + <g, shift>, so
    the prefixes where that is 1 move up by 2^m.  swap_masks(n)[i] holds
    the x with bit i clear, so the XOR of mask & swap_masks(n)[i] over the
    bits i of g + e_m is the prefixes with <g + e_m, x> = |g + e_m| + 1
    (mod 2), and its complement in mask the other half.  An AND costs
    only the length of the mask, so no step touches more than 2^(m + 1)
    bits."""
    if n <= _DOUBLING_MAX_N:
        mask = 1 << shift
        for v in basis:
            mask |= xor_translate(mask, v, n)
        return mask
    swaps = swap_masks(n)
    rows = _echelon(complement_generators(n, basis))
    mask = 1
    for m in range(n):
        g = rows.get(m)
        if g is None:
            mask |= mask << (1 << m)
            continue
        rest = g ^ 1 << m
        moved = mask if (rest.bit_count() + (g & shift).bit_count()) & 1 else 0
        while rest:
            low = rest & -rest
            moved ^= mask & swaps[low.bit_length() - 1]
            rest ^= low
        mask ^= moved ^ moved << (1 << m)
    return mask


def _echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Row-echelon basis keyed by pivot (= highest set bit of the row)."""
    by_pivot: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            row = by_pivot.get(p)
            if row is None:
                by_pivot[p] = v
                break
            v ^= row
    return by_pivot


def rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis, rows sorted by decreasing pivot.

    Pivots sit at the highest set bit of each row and occur in no other row,
    which makes coset reduction a single pass in any row order.
    """
    rows = sorted(_echelon(vectors).values())
    for i, r in enumerate(rows):
        p = r.bit_length() - 1
        for j in range(i + 1, len(rows)):
            if (rows[j] >> p) & 1:
                rows[j] ^= r
    return tuple(sorted(rows, reverse=True))


def is_rref(rows: Sequence[int], n: int) -> bool:
    """Whether rows are a reduced row-echelon basis in F_2^n, as rref gives
    it: nonzero rows below 2^n, by strictly decreasing pivot (highest set
    bit), each pivot set in no other row.  Such rows are independent.

    A row lies below the pivots of the rows before it, so it is enough
    that no row holds the pivot of a row after it."""
    later = 0  # the pivots of the rows after this one
    pivot = 0  # the pivot of the row after this one, 0 past the last
    for r in reversed(rows):
        top = 1 << r.bit_length() >> 1  # r's pivot, 0 for r = 0
        if top <= pivot or r & later:
            return False
        pivot = top
        later |= top
    return pivot < 1 << n


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F_2^n, held as a reduced row-echelon basis."""

    n: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce_mod(self, v: int) -> int:
        """Minimum representative of the coset v + self (integer order)."""
        for row in self.basis:
            if (v >> (row.bit_length() - 1)) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce_mod(v) == 0

    def points(self) -> list[int]:
        return span_points(self.basis)


def span_points(vectors: Iterable[int]) -> list[int]:
    """The sums of every subset of the vectors in binary counting order:
    entry y is the sum of the j-th vector over the set bits j of y.  One
    doubling per vector: a comprehension, which beats map(v.__xor__, ...)
    at every size, as XOR in bytecode skips the method-wrapper call."""
    points = [0]
    for v in vectors:
        points += [p ^ v for p in points]
    return points


def linear_span(n: int, points: Iterable[int]) -> Subspace:
    """Smallest subspace containing the points; empty input gives {0}.
    Raises ValueError for a dimension out of range or a point outside
    F_2^n."""
    check_dimension(n)
    vs = list(points)
    for v in vs:
        check_vector(v, n)
    return Subspace(n, rref(vs))


def orthogonal_complement(v: Subspace) -> Subspace:
    """All vectors orthogonal to every basis row; dim is n - dim(v)."""
    return linear_span(v.n, complement_generators(v.n, v.basis))


def complement_generators(n: int, rows: Iterable[int]) -> list[int]:
    """A basis of the vectors orthogonal to the reduced rows, unreduced: for
    each non-pivot position c, e_c plus the pivot bit of each row with bit c
    set (the rows' pivots must occur in no other row, as rref gives)."""
    pivoted = [(r, 1 << (r.bit_length() - 1)) for r in rows]
    pivot_bits = sum(p for _, p in pivoted)
    gens = []
    for c in range(n):
        if not (pivot_bits >> c) & 1:
            gens.append(sum(p for r, p in pivoted if (r >> c) & 1) | 1 << c)
    return gens


@dataclass(frozen=True)
class AffineSubspace:
    """Coset shift + direction of an affine subspace; shift is canonical.

    The constructor reduces the shift modulo the direction, so structurally
    equal cosets compare equal field by field.
    """

    shift: int
    direction: Subspace

    def __post_init__(self) -> None:
        check_vector(self.shift, self.direction.n)
        object.__setattr__(self, "shift", self.direction.reduce_mod(self.shift))

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def dim(self) -> int:
        return self.direction.dim

    def contains(self, v: int) -> bool:
        return self.direction.contains(v ^ self.shift)

    def points(self) -> list[int]:
        return [self.shift ^ p for p in self.direction.points()]


def affine_span(n: int, points: Iterable[int]) -> AffineSubspace:
    """Smallest affine subspace containing the (nonempty) points."""
    pts = set(points)
    if not pts:
        raise ValueError("affine span of the empty set is undefined")
    p0 = min(pts)
    direction = linear_span(n, (p ^ p0 for p in pts))
    return AffineSubspace(p0, direction)


def _transpose_rows(n: int, rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)
    )


@dataclass(frozen=True)
class GF2Matrix:
    """Invertible n x n matrix over F_2, held as its rows.

    rows[i] holds row i+1 as a bitmask; (Mx)_i = <rows[i], x>.  The rows
    are checked to be independent at construction.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        check_dimension(self.n)
        if len(self.rows) != self.n:
            raise ValueError("row count must equal the dimension")
        for r in self.rows:
            check_vector(r, self.n)
        if len(_echelon(self.rows)) != self.n:
            raise ValueError("matrix is singular over GF(2)")

    @staticmethod
    def from_rows(n: int, rows: Iterable[int]) -> "GF2Matrix":
        return GF2Matrix(n, tuple(rows))

    def columns(self) -> tuple[int, ...]:
        """M e_1, ..., M e_n."""
        return _transpose_rows(self.n, self.rows)


def transform_sending_to_first(n: int, basis: Iterable[int]) -> GF2Matrix:
    """Invertible L whose spectrum action moves basis[i] to e_(i+1).

    Concretely: for g(x) = f(Lx) the spectra satisfy g^(e_(i+1)) =
    f^(basis[i]).  The basis must be in reduced echelon form, as rref
    returns it: nonzero rows whose highest set bits (pivots) are distinct
    and set in no other row.  Completed by the unit vectors at the
    non-pivot positions in increasing order, it is the columns of P, and
    L = (P^-1)^T, whose spectrum action is beta -> P beta, has <L e_i,
    P e_j> = [i = j].  So L is written down in closed form: its first
    columns are the rows' pivot bits, in the order of the rows, and the
    rest are complement_generators(n, basis).
    """
    basis = tuple(basis)
    for v in basis:
        check_vector(v, n)
    pivots = [1 << (v.bit_length() - 1) for v in basis if v]
    pivot_bits = sum(set(pivots))
    if (
        len(pivots) != len(basis)
        or pivot_bits.bit_count() != len(basis)
        or any(v & pivot_bits != p for v, p in zip(basis, pivots))
    ):
        raise ValueError(
            "basis must be nonzero rows in reduced echelon form: distinct "
            "highest bits, each set in no other row"
        )
    cols = (*pivots, *complement_generators(n, basis))
    return GF2Matrix(n, _transpose_rows(n, cols))


@lru_cache(maxsize=64)
def _xor_gather(size: int, t: int) -> itemgetter:
    """Gathers entry j ^ (2^(t+1) - 1) of a sequence of `size` entries into
    place j, for every j: one tuple of `size` indices per cached (size, t)."""
    low = (2 << t) - 1
    return itemgetter(*[j ^ low for j in range(size)])


def _moved_lists(span: list[int], row: tuple) -> Iterator[Sequence[int]]:
    """For each value e_p + t_i of the row, in order, the translates
    span[j ^ i] + e_p over every j.  The first is one masked delta-swap per
    entry; value i's is value i - 1's gathered through the row's steps."""
    stride, m, steps = row
    moved: Sequence[int] = [((x & m) << stride) | ((x >> stride) & m) for x in span]
    yield moved
    for step in steps:
        moved = step(moved)
        yield moved


def _span_lists(span: list[int], rows: list) -> Iterator[list[int]]:
    """The translate list of every span that adds the rows, in order, to
    the partial span whose translate list is given; the last row counts
    fastest.  Each child list is one OR per entry."""
    if not rows:
        yield span
        return
    for moved in _moved_lists(span, rows[0]):
        yield from _span_lists(list(map(or_, span, moved)), rows[1:])


def iter_affine_masks(n: int, dim: int) -> Iterator[int]:
    """Point bitmasks of every affine subspace of the given dimension.

    Bit x of a mask marks membership of the point x.  Directions are the
    reduced row-echelon bases: pivot sets by combinations of the positions
    from the top, then every value of each row (its pivot bit plus a subset
    of the free positions below it), with row 0, the highest pivot, counting
    fastest.  The masks of one direction partition all 2^n points and come
    in increasing order of their smallest point.

    Everything is whole-mask work: translating a mask by e_q is one masked
    delta-swap with stride 2^q.  With t_j the sum of the free (non-pivot)
    coordinates picked by the bits of j, each partial span S travels down
    the rows, from the lowest pivot to row 0, as its list of translates
    S + t_j over the 2^(n-dim) cosets j, which start as the points t_j
    themselves: 1 << t_j over span_points of the free unit vectors.  A
    row's free bits lie below its pivot p, so they are the first free
    coordinates, and its value of index i is e_p + t_i.  The
    span that adds it is S | (S + e_p + t_i), whose coset through t_j is
    S[j] | moved[j ^ i] with moved[j] = S[j] + e_p: the parent list is
    moved by the pivot once, one delta-swap per entry, and the child list
    is one OR per entry.  The XOR step: value i's list moved[j ^ i] is
    value i - 1's list gathered through j -> j ^ (2^(t+1) - 1), as
    i ^ (i - 1) = 2^(t+1) - 1 for t the lowest set bit of i, so each
    further value costs one C-level itemgetter call.  Row 0 yields its ORs
    straight from the map.  The smallest point of a coset of an RREF
    subspace is its member with every pivot bit clear, which is t_j for
    the coset through t_j, so the cosets come by increasing smallest point.

    Lazy, in bounded memory: at most 2*dim lists of 2^(n-dim) masks are
    live (the points, a moved list for each row and a child list for each
    row but row 0), plus one while a gather runs, and the itemgetters sit
    in a bounded cache keyed by (2^(n-dim), t), never in a table of all
    4^(n-dim) indices.  At dim = n every row has the one value e_p, as no
    free coordinate lies below any pivot.
    """
    check_dimension(n)
    if dim < 0 or dim > n:
        return
    if not dim:  # the points themselves, in order
        yield from map((1).__lshift__, span_points([1 << q for q in range(n)]))
        return
    swaps = swap_masks(n)
    size = 1 << (n - dim)
    for pivots in combinations(range(n - 1, -1, -1), dim):
        pivot_bits = sum(1 << p for p in pivots)
        free = [1 << q for q in range(n) if not (pivot_bits >> q) & 1]
        rows = []
        for r, p in enumerate(reversed(pivots)):
            # the r-th pivot from the bottom has p - r free coordinates below it
            steps = [_xor_gather(size, (i & -i).bit_length() - 1) for i in range(1, 1 << (p - r))]
            rows.append((1 << p, swaps[p], steps))
        *slower, first = rows
        for span in _span_lists([1 << t for t in span_points(free)], slower):
            for moved in _moved_lists(span, first):
                yield from map(or_, span, moved)


def max_flat_through(n: int, point: int, points: Iterable[int]) -> AffineSubspace:
    """Greedy inclusion-maximal affine subspace through `point` inside the set.

    The greedy takes candidate directions c in increasing order and keeps c
    when c + span stays inside the translated set.  It runs on 2^n-bit masks:
    `ok` holds every c with c + span inside the set, so the next basis vector
    is the lowest bit of ok outside span, and adding it updates
    span |= span + c and ok &= ok + c.  A rejected candidate can never be
    accepted later, so this yields the basis of the sorted scan in dim + 1
    steps.
    """
    check_vector(point, n)
    flags = bytearray(1 << n)
    for p in points:
        flags[p] = 1
    if not flags[point]:
        raise ValueError("point must belong to the set")
    ok = xor_translate(bits_to_int(flags), point, n)
    span = 1
    basis: list[int] = []
    while free := ok & ~span:
        cand = (free & -free).bit_length() - 1
        basis.append(cand)
        span |= xor_translate(span, cand, n)
        ok &= xor_translate(ok, cand, n)
    return AffineSubspace(point, linear_span(n, basis))

