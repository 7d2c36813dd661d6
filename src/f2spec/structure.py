"""Spectrum classification and affine-subspace decomposition.

A 0/1 function whose scaled coefficients all lie in {0, +-u, +-2u} for
u = 2^(n-k) is supported on one affine subspace of dimension n-k (when
f^(0) = 1/2^k), or on two of dimension n-k, or -- only when the irreducible
core has k = 4 -- on four of dimension n-k-1.  This module classifies a
spectrum and decomposes the support on its irreducible core.  f is
constant on the cosets of the annihilator of the span of the nonzero
coefficient positions, and one reduction takes f to the core: a shift,
the quotient on s = dim(span) inputs, f read at the span's pivot bits,
and a restriction to the affine span of the quotient's support.  The
core spectrum is read off f's nonzero coefficients alone, in the sparse
form.
The core is read through two sets of masks, P = {F = +u} and
B = {F = -u} (spectral_sets): two pieces come in closed form from them,
and when k = 4 and |B + B| = 22 four pieces are peeled off the core's
support instead.  The reduction's trace lifts each piece to f in one
affine map.  Every decomposition emitted is verified on f itself with
2^n-bit masks, one per piece, built by gf2.flat_mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice
from operator import xor
from typing import Iterable

from .boolfunc import BooleanFunction, apply_transform, restrict_first_bit, shift
from .errors import InputFormatError, SpectrumScopeError, TheoremViolationError
from .fourier import (
    Spectrum,
    _granularity,
    coefficient,
    coefficient_values,
    nonzero_items,
    sparsity,
    wht,
)
from .gf2 import (
    AffineSubspace,
    Subspace,
    affine_span,
    bits_to_int,
    complement_generators,
    flat_mask,
    fold,
    is_rref,
    iter_affine_masks,
    max_flat_through,
    orthogonal_complement,
    rref,
    span_points,
    transform_sending_to_first,
)

TAG_TRIVIAL = "Trivial"
TAG_RVL = "RvL"
TAG_TWO_SUBSPACE = "TwoSubspace"
TAG_EXCEPTIONAL_K4 = "ExceptionalK4Candidate"
TAG_OUT_OF_SCOPE = "OutOfScope"

IN_SCOPE_TAGS = (TAG_RVL, TAG_TWO_SUBSPACE, TAG_EXCEPTIONAL_K4)


@dataclass(frozen=True)
class Classification:
    """Shape of a spectrum: tag plus the parameters (k, m) with f^(0) = m/2^k.

    k is the granularity of the whole spectrum, so m = 2 forces some other
    coefficient to realize granularity k.  t = 2^(k-1) - 1 is the size the
    negative coefficient class must have in the m = 2 case.
    """

    tag: str
    k: int
    m: int
    t: int | None = None


_SHAPES = 128
_SHAPE_VALUES = 256


def classify(s: Spectrum) -> Classification:
    """The shape of s: its tag, k and m, read off n, F(0) and the set of
    coefficient values alone.

    k is the granularity of the value set, u = 2^(n-k) and m = F(0)/u.  s
    is in scope when m = 1 and its values lie in {0, +-u}, or m = 2 and
    they lie in {0, +-u, +-2u}, and F(0) <= 2^n as for every 0/1 function
    (so a forged spectrum with k = 0 and m = 2 is not).  So the verdict
    is a function of the key (n, F(0), values), which _shape_classification
    caches: values is one frozenset (coefficient_values), of the dense
    coefficients or of the sparse values and 0, and a repeated shape costs
    that build and one lookup.  All 65,536 tables at n = 4 have 79 shapes.

    The cache holds at most _SHAPES = 128 keys, and only value sets of at
    most _SHAPE_VALUES = 256 values enter it, which takes in every
    spectrum on n <= 8 inputs.  A key costs about 85 bytes per value
    (the frozenset and its ints), so the cache holds at most about 3 MiB:
    128 * 257 values.  A larger value set, such as a uniform random
    table's (2,068 values at n = 20 and 8,858 at n = 24), is
    classified uncached; its fold is cheap next to building the set.
    """
    values = coefficient_values(s)
    f0 = coefficient(s, 0)
    if len(values) > _SHAPE_VALUES:
        return _shape_classification.__wrapped__(s.n, f0, values)
    return _shape_classification(s.n, f0, values)


@lru_cache(maxsize=_SHAPES)
def _shape_classification(n: int, f0: int, values: frozenset[int]) -> Classification:
    """classify of a spectrum on n inputs with F(0) = f0 and these
    coefficient values."""
    if values == {0}:
        return _classification(TAG_TRIVIAL, 0, 0)
    k = _granularity(n, values)
    unit = 1 << (n - k)
    # k is the granularity of a value set holding F(0), so unit divides it
    m = f0 // unit
    allowed = {0, unit, -unit}
    if m == 2:
        allowed |= {2 * unit, -2 * unit}
    # F(0) is the support's size, at most 2^n, so m = 2 needs k >= 1
    if m in (1, 2) and values <= allowed and f0 <= 1 << n:
        return _in_scope(k, m)
    return _classification(TAG_OUT_OF_SCOPE, k, m)


def _in_scope(k: int, m: int) -> Classification:
    """The classification of an in-scope spectrum with F(0) = m/2^k, m = 1 or 2."""
    if m == 1:
        return _classification(TAG_RVL, k, 1)
    tag = TAG_EXCEPTIONAL_K4 if k == 4 else TAG_TWO_SUBSPACE
    return _classification(tag, k, 2, (1 << (k - 1)) - 1)


@lru_cache(maxsize=1024)
def _classification(tag: str, k: int, m: int, t: int | None = None) -> Classification:
    """The one Classification of each (tag, k, m, t).  It is frozen, so
    every caller can share it: classify's shapes and reduce_to_core's core
    classifications alike.  A pass over all 65,536 tables at n = 4 builds
    21 of them for its 79 shapes, and the bound keeps a long run over
    larger spectra, whose k and m vary more, from growing the cache
    without limit."""
    return Classification(tag, k, m, t)


def spectral_sets(
    s: Spectrum, cls: Classification | None = None
) -> tuple[frozenset[int], frozenset[int]]:
    """The classes P and B of a core spectrum: the masks with coefficient
    +2^(n-k) and -2^(n-k), as the pair (plus, minus).

    Requires an m = 2 classification (a caller that has already
    classified s passes it as cls), no remaining reducible direction (no
    nonzero mask but 0 has the magnitude of F(0)) and the origin in the
    support (the coefficients sum to 2^n), and then |P| = 3t and |B| = t;
    else ValueError.  The checks and the split read only the few nonzero
    masks and their values: the sparse form's, or one scan each.
    """
    if cls is None:
        cls = classify(s)
    if cls.tag not in (TAG_TWO_SUBSPACE, TAG_EXCEPTIONAL_K4):
        raise ValueError("spectral sets exist only for m = 2 spectra")
    unit = 1 << (s.n - cls.k)
    nonzero, values = map(list, nonzero_items(s))
    f0 = coefficient(s, 0)
    if values.count(f0) + values.count(-f0) > 1:
        raise ValueError("spectrum still has a reducible direction; reduce first")
    if sum(values) != 1 << s.n:
        # the class sizes below are forced only once the origin is in the
        # support; a shift by any support point arranges that
        raise ValueError("origin not in the support; shift the function first")
    plus = frozenset([a for a, v in zip(nonzero, values) if v == unit])
    minus = frozenset([a for a, v in zip(nonzero, values) if v == -unit])
    t = cls.t
    assert t is not None
    if len(plus) != 3 * t or len(minus) != t:
        raise ValueError(
            f"coefficient class sizes {len(plus)}/{len(minus)} do not match "
            f"the forced 3t/t with t={t}; the spectrum is not a 0/1 function"
        )
    return plus, minus


def triangle_neighbors(rho: int, minus: frozenset[int]) -> frozenset[int]:
    """The members b of the negative class B with rho + b in B too.

    rho must itself be a nonzero pairwise sum of B; the result always has
    even size because its members come in pairs (b, rho + b).
    """
    neighbors = frozenset(b for b in minus if rho ^ b in minus)
    if rho == 0 or not neighbors:
        raise ValueError("rho is not a nonzero pairwise sum of the class")
    return neighbors


@dataclass(frozen=True)
class ReductionTrace:
    """The map from f's core back to f, with the core's spectrum and
    classification, which the reduction reads off f's spectrum instead of
    transforming and classifying the core again.

    The core is f(shift + the sum of columns[j] over the set bits j of y)
    for y in F_2^core_n.  f is constant along kernel, generators of the
    annihilator of the span of its nonzero coefficient positions, so f's
    support is those lifted core support points plus span(kernel).  shift
    is f's smallest support point, and kernel is empty when the nonzero
    positions span F_2^n.
    """

    original_n: int
    core_n: int
    shift: int
    columns: tuple[int, ...]
    kernel: tuple[int, ...]
    core_spectrum: Spectrum
    core_classification: Classification

    def lift(self, flat: AffineSubspace) -> AffineSubspace:
        """A flat of the core lifted to f: its image plus span(kernel)."""
        basis = [_combine(v, self.columns) for v in flat.direction.basis]
        return AffineSubspace(
            self.shift ^ _combine(flat.shift, self.columns),
            Subspace(self.original_n, rref(basis + list(self.kernel))),
        )


def reduce_to_core(
    f: BooleanFunction,
    spectrum: Spectrum | None = None,
    cls: Classification | None = None,
) -> tuple[BooleanFunction, ReductionTrace]:
    """f's irreducible core, with the origin in its support, and the trace
    that lifts it back to f.

    f is shifted once by its smallest support point.  sigma, the rref basis
    of the span of the nonzero coefficient positions (s = dim), leaves f
    constant on the cosets of its annihilator, so the shifted f is h o pi,
    pi(x) = (<sigma_i, x>)_i, for h on F_2^s, the shifted f read at
    sigma's pivot bits e_(p_i) (_read_at_pivots): the sum of e_(p_i) over
    the set bits i of y maps to y under pi, as each pivot lies in one row
    only.
    For alpha = sum beta_i sigma_i (sigma_i by increasing pivot p_i), beta_i
    is bit p_i of alpha, and H(beta) = (-1)^<alpha, origin> F(alpha) / 2^(n-s).
    Then h is restricted to the affine span of its support.  The masks
    whose coefficient equals H(0) are exactly the annihilator W of that
    span (none can equal -H(0), since 0 is a support point), so W is read
    off f's nonzero positions: those alpha with (-1)^<alpha, origin>
    F(alpha) = F(0).  _subspace_rows reads their rref rows (or raises
    TheoremViolationError), and read at sigma's pivots they are W's rref
    rows.  One transform L sends those rows to e_1..e_w, which confines
    the support to x_1 = ... = x_w = 0, and w restrictions to that half
    leave the core, of dimension s - w.  Its
    coordinates are those of W^perp: L's columns w+1..s,
    complement_generators of W's rows, which the trace maps into f's
    coordinates through sigma's pivots.  The core keeps h's coefficients at
    the masks with every W pivot bit clear, in increasing order, on w fewer
    inputs, so its k is k - w.

    The spectrum of f (and its classification) is computed here unless the
    caller passes it.  The core's nonzero coefficients are read off f's
    nonzero positions in one pass: each alpha with no W pivot bit set is
    the core mask made of its bits at sigma's other pivots, in increasing
    pivot order, with the coefficient H(beta) above.  That map keeps the
    order of the alphas, so the core spectrum comes in sparse form, its
    positions sorted, and nothing builds its 2^(s-w) coefficients.
    """
    if spectrum is None:
        spectrum = wht(f)
    if cls is None:
        cls = classify(spectrum)
    if cls.tag not in IN_SCOPE_TAGS:
        raise SpectrumScopeError("reduction is only defined for in-scope spectra")
    n = f.n
    origin = (f.table & -f.table).bit_length() - 1
    nonzero, values = map(list, nonzero_items(spectrum))
    sigma = rref(nonzero)
    s = len(sigma)
    pivots = [1 << (r.bit_length() - 1) for r in reversed(sigma)]
    h = _read_at_pivots(shift(f, origin), pivots)
    f0 = coefficient(spectrum, 0)
    signed_f0 = (f0, -f0)
    w_f = [a for a, c in zip(nonzero, values) if c == signed_f0[(a & origin).bit_count() & 1]]
    w_rows = _subspace_rows(w_f, "the masks with coefficient F(0)")
    w = len(w_rows)
    w_pivots = sum(1 << (r.bit_length() - 1) for r in w_rows)
    core_pivots = [p for p in pivots if not p & w_pivots]
    kept = [(a, c >> (n - s)) for a, c in zip(nonzero, values) if not a & w_pivots]
    core_s = Spectrum.sparse(
        s - w,
        tuple(_bits_at(a, core_pivots) for a, _ in kept),
        tuple(-c if (a & origin).bit_count() & 1 else c for a, c in kept),
    )
    core, columns = h, pivots
    if w:
        basis = [_bits_at(r, pivots) for r in w_rows]
        core = apply_transform(h, transform_sending_to_first(s, basis))
        for _ in range(w):
            core, core1 = restrict_first_bit(core)
            if core1.table != 0:
                raise TheoremViolationError(
                    "support was not confined to the affine span of its points"
                )
        columns = [_combine(c, pivots) for c in complement_generators(s, basis)]
    kernel = tuple(complement_generators(n, sigma))
    core_cls = _in_scope(cls.k - w, cls.m)
    trace = ReductionTrace(n, core.n, origin, tuple(columns), kernel, core_s, core_cls)
    return core, trace


# the largest n - s at which _read_at_pivots folds the quotient
_FOLD_MAX_GAP = 8


def _read_at_pivots(g: BooleanFunction, pivots: list[int]) -> BooleanFunction:
    """h(y) = g(the sum of pivots[j] over the set bits j of y), for the
    one-bit pivots in increasing order: g with every other coordinate
    held at 0.  When n - s <= _FOLD_MAX_GAP, g is folded at each other
    coordinate (gf2.fold), from the top down, so the lower ones keep their
    places; past that, h reads its 2^s points from the table's bytes.
    Medians of five random pivot sets on a random table, folds against
    the byte read at n - s = 5 and 8: 51 against 282 and 35 against 49 us
    at n = 16, 354 against 4,170 and 418 against 661 us at n = 20, 6.2
    against 80 and 6.3 against 11 ms at n = 24; at 9 the two were even
    from n = 16 up.  The bound costs up to 4 us a call at n = 8, where the
    folds took 4-7 us and the byte read 2-3 us for n - s = 5 to 8, and up
    to 8 us at n = 12."""
    n, s = g.n, len(pivots)
    if n - s <= _FOLD_MAX_GAP:
        pivot_bits = sum(pivots)
        table, m = g.table, n
        for c in reversed(range(n)):
            if not pivot_bits >> c & 1:
                table = fold(table, c, m)
                m -= 1
        return BooleanFunction(s, table)
    data = g.table.to_bytes(((1 << n) + 7) >> 3, "little")
    read = bytes(data[x >> 3] >> (x & 7) & 1 for x in span_points(pivots))
    return BooleanFunction(s, bits_to_int(read))


@dataclass(frozen=True)
class Decomposition:
    """Disjoint affine pieces of a support; decompose returns only verified ones."""

    pieces: tuple[AffineSubspace, ...]
    classification: Classification


def _two_flat_pieces(
    n: int, k: int, plus: frozenset[int], minus: frozenset[int]
) -> tuple[AffineSubspace, AffineSubspace]:
    """Both pieces of a two-subspace core, read off its coefficient classes.

    The core is 1_U + 1_(b+V) with 0 in U, and 1_(c+U) has the coefficient
    2^(n-k) (-1)^<alpha,c> on U^perp and 0 elsewhere.  With P and B the +u
    and -u classes, U^perp and V^perp meet in {0, gamma}, and B + {gamma}
    is the odd half of V^perp, where <alpha, b> = 1: an affine subspace of
    dimension k - 1.  For k >= 3 its members sum to 0, so gamma is the sum
    of B (the triple gap); for k = 2 every p of P names a valid pairing,
    and gamma is min(B) + min(P).  So V^perp is {0, gamma} + B + (gamma + B)
    and U^perp is {0, gamma} + (P - (gamma + B)), whose rref rows
    _subspace_rows reads (or raises TheoremViolationError).  The rows of
    V^perp share no pivot, so the pivot bits of the rows in B + {gamma} add
    up to a point of b + V.
    """
    gamma = min(minus) ^ min(plus) if k == 2 else reduce(xor, minus)
    odd = minus | {gamma}
    paired = {gamma ^ x for x in minus}
    v_rows = _subspace_rows(sorted(odd | paired | {0}), "the masks of V^perp")
    u_rows = _subspace_rows(sorted((plus - paired) | {0, gamma}), "the masks of U^perp")
    b = sum(1 << (r.bit_length() - 1) for r in v_rows if r in odd)
    return (
        AffineSubspace(b, orthogonal_complement(Subspace(n, v_rows))),
        AffineSubspace(0, orthogonal_complement(Subspace(n, u_rows))),
    )


def _greedy_four_pieces(core: BooleanFunction, dim: int) -> tuple[AffineSubspace, ...]:
    """Exceptional-core extraction: repeatedly peel a maximal flat off the
    support; every piece must come out with the mandated dimension, and
    there must be four (else TheoremViolationError)."""
    remaining = set(core.support())
    pieces: list[AffineSubspace] = []
    while remaining:
        flat = max_flat_through(core.n, min(remaining), remaining)
        if flat.dim != dim:
            raise TheoremViolationError(
                f"the core peels into a flat of dimension {flat.dim}, not {dim}"
            )
        pieces.append(flat)
        remaining -= set(flat.points())
    if len(pieces) != 4:
        raise TheoremViolationError(f"the core peels into {len(pieces)} flats, not 4")
    return tuple(pieces)


def _decompose_core(
    core: BooleanFunction, s: Spectrum, cls: Classification
) -> tuple[AffineSubspace, ...]:
    """Pieces of an irreducible m = 2 core with spectrum s and classification
    cls, in core coordinates.  A route that fails its own checks raises
    TheoremViolationError, or ValueError for the class sizes."""
    plus, minus = spectral_sets(s, cls)
    # |B + B| = 22 with 0, from t^2 = 49 pair sums, only when k = 4
    if cls.k == 4 and len({b1 ^ b2 for b1 in minus for b2 in minus}) == 22:
        return _greedy_four_pieces(core, core.n - cls.k - 1)
    return _two_flat_pieces(core.n, cls.k, plus, minus)


def _pieces_match_mandate(
    pieces: tuple[AffineSubspace, ...], n: int, cls: Classification
) -> bool:
    """Whether the piece dimensions are the profile the theorem mandates.

    m = 1: one (n-k)-flat.  m = 2: two (n-k)-flats, or four (n-k-1)-flats
    when the irreducible core has k = 4.  The core lives on the affine span
    of the pieces, so its k is k - (n - dim span).
    """
    dims = sorted(p.dim for p in pieces)
    if cls.m == 1:
        return dims == [n - cls.k]
    if cls.m != 2:
        return False
    if dims == [n - cls.k] * 2:
        return True
    if dims != [n - cls.k - 1] * 4:
        return False
    span = affine_span(
        n, (p.shift ^ v for p in pieces for v in (0, *p.direction.basis))
    )
    return cls.k - (n - span.dim) == 4


def verify_decomposition(f: BooleanFunction, dec: Decomposition) -> bool:
    """Postcondition check: disjoint full flats in f's space, of mandated
    dimensions, whose union reproduces the support bit-exactly.

    Each piece's basis must be rref rows of F_2^n, as rref gives them,
    which also makes it independent.  Its 2^n-bit point mask is then
    gf2.flat_mask of its shift and basis, which doubles at small n and
    goes coordinate by coordinate through U^perp's rows above.  Each mask
    must miss the union of the earlier ones, and the union must equal f's
    table.
    """
    n = f.n
    if any(p.n != n or not is_rref(p.direction.basis, n) for p in dec.pieces):
        return False
    if not _pieces_match_mandate(dec.pieces, n, dec.classification):
        return False
    union = 0
    for piece in dec.pieces:
        mask = flat_mask(piece.shift, piece.direction.basis, n)
        if mask & union:
            return False
        union |= mask
    return union == f.table


def _subspace_rows(members: list[int], what: str) -> tuple[int, ...]:
    """The rref rows (by decreasing pivot, as rref gives them) of a subspace
    listed in increasing order: its members at indices ..., 4, 2, 1.  Their
    sums in binary counting order must give the list back; otherwise
    TheoremViolationError says that what (the masks listed) do not form a
    subspace."""
    rows = tuple(members[1 << j] for j in reversed(range(len(members).bit_length() - 1)))
    if span_points(reversed(rows)) != members:
        raise TheoremViolationError(f"{what} do not form a subspace")
    return rows


def _bits_at(x: int, positions: list[int]) -> int:
    """The bits of x at the given one-bit positions, packed in their order:
    bit i of the result is x's bit at positions[i]."""
    return sum(1 << i for i, p in enumerate(positions) if x & p)


def _combine(y: int, vectors: list[int]) -> int:
    """The sum of vectors[j] over the set bits j of y."""
    x = 0
    while y:
        low = y & -y
        x ^= vectors[low.bit_length() - 1]
        y ^= low
    return x


def decompose(
    f: BooleanFunction,
    spectrum: Spectrum | None = None,
    cls: Classification | None = None,
) -> Decomposition:
    """Write the support as the disjoint union of affine subspaces.

    - m = 1: the nonzero positions are U^perp for the support c + U, so
      the piece is U through f's smallest support point.  Parseval's
      identity forces 2^k of them, counted by sparsity (else
      TheoremViolationError), and U^perp's rref rows are its members at
      indices 1, 2, 4, ..., 2^(k-1), so only the first 2^(k-1) + 1 are
      read, and none is stored; no doubling checks the rows, as
      verify_decomposition checks the piece.
    - m = 2: reduce_to_core takes f to its irreducible core through the
      spectral quotient, the pieces are recovered there from the core's
      spectrum, and the trace lifts each to f in one affine map.
    Each spectrum has one route, and the result has passed
    verify_decomposition on f itself: a route that fails, or whose pieces
    fail that check, raises TheoremViolationError.

    f is transformed and classified here unless the caller passes its
    spectrum (and classification); past that, only one shift, the folds
    or the byte copy that read the quotient, and the bitmask
    verification touch 2^n entries.  The nonzero positions and values come
    with a sparse spectrum from wht, read off its packed lanes at C speed;
    other spectra are scanned for them once.
    """
    if f.is_zero:
        raise SpectrumScopeError("the zero function has no affine decomposition")
    s = wht(f) if spectrum is None else spectrum
    if cls is None:
        cls = classify(s)
    if cls.tag == TAG_OUT_OF_SCOPE:
        raise SpectrumScopeError(
            f"spectrum values are outside the decomposable families "
            f"(granularity {cls.k}, F(0) = {cls.m}/2^{cls.k})"
        )
    n = f.n
    if cls.m == 1:
        # the nonzero positions are U^perp for the support origin + U
        # (Parseval forces 2^k of them; rows that share a pivot are no rref
        # basis, and any other wrong rows fail verification).  Past 0, the
        # row at index 2^j lies 2^(j-1) - 1 positions after the one at
        # 2^(j-1), and islice skips them at C speed, storing none.
        k = cls.k
        if sparsity(s) != 1 << k:
            raise TheoremViolationError(f"the nonzero positions are no subspace of dimension {k}")
        rest = islice(nonzero_items(s)[0], 1, None)
        rows = tuple(next(islice(rest, (1 << j) - 1 >> 1, None)) for j in range(k))[::-1]
        if len(set(map(int.bit_length, rows))) != k:
            raise TheoremViolationError(f"the nonzero positions are no subspace of dimension {k}")
        origin = (f.table & -f.table).bit_length() - 1
        kernel = orthogonal_complement(Subspace(n, rows))
        pieces: tuple[AffineSubspace, ...] = (AffineSubspace(origin, kernel),)
    else:
        core, trace = reduce_to_core(f, s, cls)
        try:
            core_pieces = _decompose_core(
                core, trace.core_spectrum, trace.core_classification
            )
        except ValueError as exc:
            # the core failed the route's own checks (class sizes, an empty class)
            raise TheoremViolationError(f"the core recovery failed: {exc}") from exc
        pieces = tuple(map(trace.lift, core_pieces))
    dec = Decomposition(pieces, cls)
    if not verify_decomposition(f, dec):
        raise TheoremViolationError(
            "the pieces failed verification; this falsifies the structure "
            "theorem for this input"
        )
    return dec


def first_constant_codim(table: int, masks_by_codim: Iterable[Iterable[int]]) -> int | None:
    """Smallest c such that the table is constant on one of the point masks
    in group c (the codimension-c flats, possibly lazy), or None."""
    for codim, masks in enumerate(masks_by_codim):
        for mask in masks:
            hit = table & mask
            if hit == 0 or hit == mask:
                return codim
    return None


def check_kill_args(n: int) -> None:
    """Raise InputFormatError unless kill_number accepts a function on n inputs."""
    if n > 8:
        raise InputFormatError("kill number search is exhaustive; n <= 8 required")


def kill_number(f: BooleanFunction) -> int:
    """Smallest codimension of an affine subspace on which f is constant.

    Exhaustive over affine subspaces in decreasing dimension order; limited
    to n <= 8 where the search space is still a desk-scale object.
    """
    check_kill_args(f.n)
    groups = (iter_affine_masks(f.n, f.n - codim) for codim in range(f.n + 1))
    codim = first_constant_codim(f.table, groups)
    assert codim is not None, "unreachable: points are constant subspaces"
    return codim
