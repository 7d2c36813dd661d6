"""Shared independent oracles for the test suite.

These are deliberately written from first principles (indicator-spectrum
sums, brute-force enumeration) rather than through the library's own fast
paths, so the two can check each other.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import reduce
from itertools import combinations, compress, product
from math import comb
from operator import mul, neg, xor

import pytest

from f2spec import gf2, structure
from f2spec.boolfunc import BooleanFunction, apply_transform, restrict_first_bit, shift
from f2spec.errors import SpectrumScopeError, TheoremViolationError
from f2spec.fourier import Spectrum, wht
from f2spec.harness import SplitMix64, random_invertible, random_vector
from f2spec.gf2 import (
    MAX_DIMENSION,
    AffineSubspace,
    GF2Matrix,
    Subspace,
    _low_half_mask,
    affine_span,
    check_dimension,
    complement_generators,
    flat_mask,
    linear_span,
    orthogonal_complement,
    rref,
    span_points,
    transform_sending_to_first,
    xor_translate,
)


def dot(x: int, y: int) -> int:
    """Standard inner product: parity of the coordinates shared by x and y."""
    return (x & y).bit_count() & 1


# gf2._DOUBLING_MAX_N values that force flat_mask to double at every n, or
# to go coordinate by coordinate at every n
FLAT_MASK_WAYS = {"doubling": MAX_DIMENSION, "coordinates": -1}


def flat_masks_both_ways(shift: int, basis, n: int) -> list[int]:
    """flat_mask forced each way of FLAT_MASK_WAYS in turn."""
    masks = []
    with pytest.MonkeyPatch.context() as mp:
        for way in FLAT_MASK_WAYS.values():
            mp.setattr(gf2, "_DOUBLING_MAX_N", way)
            masks.append(flat_mask(shift, basis, n))
    return masks


def image(base: BooleanFunction, seed: int) -> BooleanFunction:
    """base pushed through a seeded random invertible transform and shift."""
    rng = SplitMix64(seed)
    m = random_invertible(base.n, rng)
    return shift(apply_transform(base, m), random_vector(base.n, rng))


def is_full_affine_subspace(n: int, points) -> bool:
    """True iff the points are exactly a full coset of some subspace."""
    pts = set(points)
    if not pts:
        raise ValueError("empty point set")
    return len(pts) == 1 << affine_span(n, pts).dim


def oracle_is_irreducible(f: BooleanFunction) -> bool:
    """True iff no proper affine subspace contains the support."""
    if f.is_zero:
        raise ValueError("the zero function has no support")
    return affine_span(f.n, f.support()).dim == f.n


@pytest.fixture
def short_negative_class(monkeypatch):
    """Make the core route expect one mask more in each negative class than
    the core has, so that spectral_sets finds the class sizes wrong and
    raises ValueError."""
    split = structure.spectral_sets

    def patched(s, cls):
        return split(s, dataclasses.replace(cls, t=cls.t + 1))

    monkeypatch.setattr(structure, "spectral_sets", patched)


@pytest.fixture
def swapped_classes(monkeypatch):
    """Make the core route read the smallest mask of each signed class in
    the other class, so that the class sizes stay right but the classes no
    longer name two flats of the core."""
    split = structure.spectral_sets

    def patched(s, cls):
        plus, minus = split(s, cls)
        p, b = min(plus), min(minus)
        return plus - {p} | {b}, minus - {b} | {p}

    monkeypatch.setattr(structure, "spectral_sets", patched)


def forged_w_spectrum(n: int, w_f) -> Spectrum:
    """A spectrum no 0/1 function has: 4 at the masks w_f (0 among them),
    2 at the top unit mask and 0 elsewhere, which classifies as m = 2 with
    k = n - 1.  For a function with 0 in its support, w_f are the masks
    whose coefficient equals F(0)."""
    coeffs = [0] * (1 << n)
    coeffs[1 << (n - 1)] = 2
    for a in w_f:
        coeffs[a] = 4
    return Spectrum(n, tuple(coeffs))


# ---- the dense decomposition ------------------------------------------
# structure.decompose runs on the spectral quotient h (2^s entries) and
# checks the pieces with bitmasks; this is the route it replaced, which
# reduces f itself and checks the pieces as point sets.


def oracle_pieces_cover_exactly(pieces, supp: frozenset[int]) -> bool:
    """Whether the pieces' point sets are pairwise disjoint and their union
    is supp."""
    union: set[int] = set()
    for piece in pieces:
        pts = set(piece.points())
        if union & pts:
            return False
        union |= pts
    return union == supp


def oracle_lift_point(trace, y: int) -> int:
    """Map a core point to f's coordinates: shift plus the trace's lift
    column of each set bit of y, one bit at a time."""
    x = trace.shift
    for j, column in enumerate(trace.columns):
        if (y >> j) & 1:
            x ^= column
    return x


def oracle_lift_flat(trace, flat: AffineSubspace) -> AffineSubspace:
    """Map an affine subspace of the core space back; dimension is kept.

    The lift is affine (x -> Lx + c), so the shift lifts as a point and
    each direction vector v as lift(v) + lift(0)."""
    c = oracle_lift_point(trace, 0)
    basis = [oracle_lift_point(trace, v) ^ c for v in flat.direction.basis]
    return AffineSubspace(
        oracle_lift_point(trace, flat.shift),
        linear_span(trace.original_n, basis),
    )


def oracle_dense_reduce(f: BooleanFunction, s=None, cls=None):
    """reduce_to_core on f itself, without the quotient: shift f by its
    smallest support point, send the rref basis of W (the masks whose
    shifted coefficient equals F(0)) to e_1..e_w, and restrict w times.
    The core has n - w inputs and the trace an empty kernel."""
    if s is None:
        s = wht(f)
    if cls is None:
        cls = structure.classify(s)
    if cls.tag not in structure.IN_SCOPE_TAGS:
        raise SpectrumScopeError("reduction is only defined for in-scope spectra")
    n = f.n
    origin = min(f.support())
    g = shift(f, origin)
    shifted = shift_spectrum(s, origin)
    coeffs = shifted.coeffs  # a sparse spectrum builds a fresh tuple on each read
    basis = tuple(rref(a for a in range(1, 1 << n) if coeffs[a] == coeffs[0]))
    w = len(basis)
    m = transform_sending_to_first(n, basis)
    g = apply_transform(g, m)
    for _ in range(w):
        g, g1 = restrict_first_bit(g)
        if g1.table != 0:
            raise TheoremViolationError("support not confined to its affine span")
    moved = transform_spectrum(shifted, m)
    core_s = Spectrum(n - w, moved.coeffs[:: 1 << w])
    trace = structure.ReductionTrace(
        n,
        n - w,
        origin,
        tuple(complement_generators(n, basis)),
        (),
        core_s,
        structure._in_scope(cls.k - w, cls.m),
    )
    return g, trace


def oracle_dense_decompose(f: BooleanFunction, s=None, cls=None):
    """decompose on all 2^n entries: the m = 1 piece is the affine span of
    the support, and m = 2 reduces f itself to its core with
    oracle_dense_reduce, recovers the pieces there, and lifts them point by
    point.  Raises TheoremViolationError when the route fails or its pieces
    miss the mandated profile or the support."""
    if s is None:
        s = wht(f)
    if cls is None:
        cls = structure.classify(s)
    if cls.tag not in structure.IN_SCOPE_TAGS:
        raise SpectrumScopeError("out of scope")
    n = f.n
    if cls.m == 1:
        pieces = (affine_span(n, f.support()),)
    else:
        core, trace = oracle_dense_reduce(f, s, cls)
        try:
            core_pieces = structure._decompose_core(
                core, trace.core_spectrum, trace.core_classification
            )
        except ValueError as exc:
            raise TheoremViolationError(str(exc)) from exc
        pieces = tuple(oracle_lift_flat(trace, piece) for piece in core_pieces)
    if not (
        structure._pieces_match_mandate(pieces, n, cls)
        and oracle_pieces_cover_exactly(pieces, f.support())
    ):
        raise TheoremViolationError("the pieces failed verification")
    return structure.Decomposition(pieces, cls)


def indicator_spectrum(n: int, shift: int, perp_points: list[int], codim: int) -> list[int]:
    """Scaled spectrum of one affine-subspace indicator.

    F(a) = 2^(n-codim) * (-1)^<a, shift> on the constraint space, 0 elsewhere.
    """
    coeffs = [0] * (1 << n)
    for a in perp_points:
        sign = -1 if (a & shift).bit_count() & 1 else 1
        coeffs[a] = sign << (n - codim)
    return coeffs


def oracle_span_points(gens) -> list[int]:
    """Every subset sum of gens in binary counting order, one subset at a
    time: entry y is the XOR of gens[j] over the set bits j of y."""
    gens = list(gens)
    return [
        reduce(xor, compress(gens, (y >> j & 1 for j in range(len(gens)))), 0)
        for y in range(1 << len(gens))
    ]


def expected_two_affine_spectrum(n: int, k: int) -> list[int]:
    """Sum of the two indicator spectra of the standard two-subspace instance.

    The instance is 1_{e_k + V1} + 1_{V2} with constraint spaces
    span(e_1..e_k) and span(e_k..e_{2k-1}); adding the two closed-form
    indicator spectra is an independent route to the same coefficients.
    """
    ek = 1 << (k - 1)
    v1_perp = oracle_span_points([1 << i for i in range(k)])
    v2_perp = oracle_span_points([1 << i for i in range(k - 1, 2 * k - 1)])
    a = indicator_spectrum(n, ek, v1_perp, k)
    b = indicator_spectrum(n, 0, v2_perp, k)
    return [x + y for x, y in zip(a, b)]


def naive_wht(f: BooleanFunction) -> Spectrum:
    """Direct-summation oracle: F(a) = sum over the support of (-1)^<a,x>.

    Quadratic in 2^n; kept deliberately independent of the butterfly so the
    two implementations can check each other.
    """
    size = 1 << f.n
    supp = [x for x in range(size) if (f.table >> x) & 1]
    coeffs = []
    for a in range(size):
        acc = 0
        for x in supp:
            acc += -1 if (a & x).bit_count() & 1 else 1
        coeffs.append(acc)
    return Spectrum(f.n, tuple(coeffs))


def boolean_convolution_check(s: Spectrum) -> bool:
    """Quadratic 0/1 test: 2^n F(a) = sum_b F(b) F(a+b) for every a."""
    size = 1 << s.n
    c = s.coeffs
    for a in range(size):
        acc = 0
        for b in range(size):
            acc += c[b] * c[a ^ b]
        if acc != c[a] << s.n:
            return False
    return True


def oracle_granularity(s: Spectrum) -> int:
    """Largest k such that some coefficient F(a) / 2^n has denominator 2^k."""
    return max(
        (Fraction(c, 1 << s.n).denominator.bit_length() - 1 for c in s.coeffs if c),
        default=0,
    )


def oracle_classify(s: Spectrum) -> structure.Classification:
    """classify from the definitions.  k is the granularity, u = 2^(n-k)
    and m = F(0)/u, so that f^(0) = m/2^k.  The spectrum is in scope when
    m = 1 and its values lie in {0, +-u}, or m = 2, k >= 1 and they lie
    in {0, +-u, +-2u}; an m = 2 spectrum is the exceptional candidate when
    k = 4, and its negative class must hold t = 2^(k-1) - 1 masks."""
    values = set(s.coeffs)
    if values == {0}:
        return structure.Classification(structure.TAG_TRIVIAL, 0, 0)
    k = oracle_granularity(s)
    u = 2 ** (s.n - k)
    m = Fraction(s.coeffs[0], u)
    assert m.denominator == 1, "u divides every coefficient of granularity k"
    m = int(m)
    if m == 1 and values <= {0, u, -u}:
        return structure.Classification(structure.TAG_RVL, k, 1)
    # F(0) = |support| <= 2^n: no 0/1 function has m = 2 with k = 0
    if m == 2 and k >= 1 and values <= {0, u, -u, 2 * u, -2 * u}:
        tag = structure.TAG_EXCEPTIONAL_K4 if k == 4 else structure.TAG_TWO_SUBSPACE
        return structure.Classification(tag, k, 2, 2 ** (k - 1) - 1)
    return structure.Classification(structure.TAG_OUT_OF_SCOPE, k, m)


def oracle_even_zohar_s(k: Fraction) -> int:
    """Count s up from 1 until the bracket [low(s), low(s + 1)) contains k,
    where low(s) = (C(s,2) + s + 1) / (s + 1); compared by cross-multiplying.
    Linear in k: the closed form in addcomb must match it."""
    p, q = k.numerator, k.denominator

    def starts_at_or_below(s: int) -> bool:
        return (comb(s, 2) + s + 1) * q <= p * (s + 1)

    s = 1
    while not (starts_at_or_below(s) and not starts_at_or_below(s + 1)):
        s += 1
    return s


# ---- the proof sets of an m = 2 core ------------------------------------
# structure.spectral_sets returns the classes P = {F = +u} and B = {F = -u};
# the paper's lemmas build these sets from them, and the decomposition
# reads none of them (it forms B + B itself, and only when k = 4).


def pair_sums(minus) -> frozenset[int]:
    """B + B, with 0: for a 0/1 core its nonzero members all lie in P."""
    return frozenset(b1 ^ b2 for b1 in minus for b2 in minus)


def plus_rest(plus, minus) -> frozenset[int]:
    """The masks of P that are no pair sum of B."""
    return plus - pair_sums(minus)


def triple_gaps(minus) -> frozenset[int]:
    """The triple sums of B outside B, where the spectrum provably vanishes."""
    return frozenset(x ^ b for x in pair_sums(minus) for b in minus) - minus


# ---- the coset split of a two-subspace core ---------------------------
# structure._two_flat_pieces builds both pieces from the core spectrum in
# closed form; this route splits the core's support instead, one point at a
# time, and the two must agree piece for piece.


def _split_by_cosets(n, k, supp, v1_perp, v2_perp):
    """Partition the support by cosets of the first direction subspace.

    Exactly one coset class must be full: it becomes the first piece, and the
    remaining points must form one full coset whose direction matches the
    second constraint space.
    """
    target = 1 << (n - k)
    groups: dict[int, list[int]] = {}
    basis = v1_perp.basis
    for x in supp:
        sig = 0
        for i, u in enumerate(basis):
            sig |= dot(u, x) << i
        groups.setdefault(sig, []).append(x)
    full = [g for g in groups.values() if len(g) == target]
    if len(full) != 1:
        return None
    piece1 = AffineSubspace(min(full[0]), orthogonal_complement(v1_perp))
    rest = supp - set(full[0])
    if len(rest) != target:
        return None
    piece2 = affine_span(n, rest)
    if piece2.dim != n - k or 1 << piece2.dim != len(rest):
        return None
    if piece2.direction != orthogonal_complement(v2_perp):
        return None
    return piece1, piece2


def oracle_two_flat_pieces(core: BooleanFunction, k: int, plus, minus):
    """Both pieces of a non-exceptional two-subspace core with granularity
    k and classes P = plus and B = minus, split off its support.

    k >= 3: the negative class spans the first constraint space, and the
    unique triple gap joined with the leftover positive masks spans the
    second.  k = 2: the negative mask beta and the first positive mask a
    with F(beta + a) = 0 (summed over the support here) and beta + a the sum
    of the other two positive masks span the first; those two span the
    second.  None when the split fails.
    """
    n = core.n
    supp = core.support()
    if k == 2:
        (beta,) = minus
        for a_r in sorted(plus):
            gamma = beta ^ a_r
            others = sorted(plus - {a_r})
            if len(others) != 2 or others[0] ^ others[1] != gamma:
                continue
            if sum(1 - 2 * dot(gamma, x) for x in supp) != 0:
                continue
            v1_perp = linear_span(n, (beta, a_r))
            v2_perp = linear_span(n, others)
            if v1_perp.dim != 2 or v2_perp.dim != 2:
                continue
            split = _split_by_cosets(n, 2, supp, v1_perp, v2_perp)
            if split is not None:
                return split
        return None
    v1_perp = linear_span(n, minus)
    gaps = triple_gaps(minus)
    if v1_perp.dim != k or len(gaps) != 1:
        return None
    (gamma,) = gaps
    v2_perp = linear_span(n, plus_rest(plus, minus) | {gamma})
    if v2_perp.dim != k:
        return None
    return _split_by_cosets(n, k, supp, v1_perp, v2_perp)


# ---- bit-at-a-time reference versions of the table plumbing -----------
# These are the straightforward loops the library used before its linear
# passes; the fast paths must reproduce them exactly.


def oracle_unpack(table: int, size: int) -> list[int]:
    """Truth-table bits, one shift per entry."""
    return [(table >> i) & 1 for i in range(size)]


def oracle_butterfly(values: list[int]) -> None:
    """In-place radix-2 butterfly with the classic nested loops."""
    size = len(values)
    h = 1
    while h < size:
        for i in range(0, size, h << 1):
            for j in range(i, i + h):
                x = values[j]
                y = values[j + h]
                values[j] = x + y
                values[j + h] = x - y
        h <<= 1


def shift_spectrum(s: Spectrum, a: int) -> Spectrum:
    """Spectrum of x -> f(x + a) from the spectrum of f: F(beta) (-1)^<beta,a>.
    A sign flip keeps zeros at zero, so a sparse spectrum stays sparse on
    the same positions."""
    if a == 0:
        return s
    signs = [1]
    for i in range(s.n):
        signs += list(map(neg, signs)) if (a >> i) & 1 else signs
    if s.nonzero is None:
        return Spectrum(s.n, tuple(map(mul, s.coeffs, signs)))
    flipped = map(mul, s._values, map(signs.__getitem__, s.nonzero))
    return Spectrum.sparse(s.n, s.nonzero, tuple(flipped))


def oracle_apply(m: GF2Matrix, x: int) -> int:
    """Mx, one inner product per row: (Mx)_i = <rows[i], x>."""
    return sum(dot(r, x) << i for i, r in enumerate(m.rows))


def transform_spectrum(s: Spectrum, m: GF2Matrix) -> Spectrum:
    """Spectrum of x -> f(Mx) from the spectrum of f: G(gamma) = F(P gamma)
    with P = (M^-1)^T, a gather through the images of P of all 2^n masks.
    structure.reduce_to_core gathers only the images it keeps."""
    images = span_points(transpose_matrix(oracle_inverse(m)).columns())
    return Spectrum(s.n, tuple(map(s.coeffs.__getitem__, images)))


def oracle_inverse(m: GF2Matrix) -> GF2Matrix:
    """M^-1 by Gauss-Jordan elimination on the rows of [M | I]."""
    n = m.n
    aug = [m.rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if (aug[r] >> col) & 1)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and (aug[r] >> col) & 1:
                aug[r] ^= aug[col]
    return GF2Matrix(n, tuple(aug[i] >> n for i in range(n)))


def identity_matrix(n: int) -> GF2Matrix:
    return GF2Matrix(n, tuple(1 << i for i in range(n)))


def transpose_matrix(m: GF2Matrix) -> GF2Matrix:
    """M^T: its row j holds bit j of each row of M."""
    return GF2Matrix(
        m.n, tuple(sum(((r >> j) & 1) << i for i, r in enumerate(m.rows)) for j in range(m.n))
    )


def oracle_rank(rows) -> int:
    """Rank over F_2 by elimination on the lowest set bit of each pivot
    row: a different pivot rule from the library's echelon, which pivots
    on the highest."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def oracle_random_invertible_rows(n: int, rng) -> tuple[int, ...]:
    """Draw n rows of n bits from rng and keep them if their oracle rank
    is n, else draw n more."""
    while True:
        rows = tuple(rng.below(1 << n) for _ in range(n))
        if oracle_rank(rows) == n:
            return rows


def oracle_support(n: int, table: int) -> frozenset[int]:
    return frozenset(x for x in range(1 << n) if (table >> x) & 1)


def oracle_shift(n: int, table: int, a: int) -> int:
    """Table of x -> f(x + a)."""
    out = 0
    for x in range(1 << n):
        if (table >> (x ^ a)) & 1:
            out |= 1 << x
    return out


def oracle_apply_transform(n: int, table: int, m) -> int:
    """Table of x -> f(Mx), with the images of M built by doubling."""
    size = 1 << n
    images = [0] * size
    for i in range(n):
        col = oracle_apply(m, 1 << i)
        step = 1 << i
        for x in range(step):
            images[x | step] = images[x] ^ col
    out = 0
    for x in range(size):
        if (table >> images[x]) & 1:
            out |= 1 << x
    return out


def gather(f: BooleanFunction, vectors) -> BooleanFunction:
    """h(y) = f(sum of vectors[j] over the set bits j of y), on as many
    inputs as there are vectors: f read at span_points of the vectors, in
    binary counting order, through the table's binary string.  The oracle
    of every map that reads a table at the sums of some vectors:
    apply_transform at a matrix's columns, the quotient that
    structure.reduce_to_core reads at the pivot bits of its spectrum's
    span, gf2.fold and restrict_first_bit at unit vectors."""
    bits = format(f.table, f"0{1 << f.n}b")[::-1]
    gathered = "".join(map(bits.__getitem__, span_points(vectors)))
    return BooleanFunction(len(vectors), int(gathered[::-1], 2))


def oracle_restrict_first_bit(n: int, table: int) -> tuple[int, int]:
    """Tables of (f(0, y), f(1, y))."""
    t0 = 0
    t1 = 0
    for y in range(1 << (n - 1)):
        pair = (table >> (2 * y)) & 3
        t0 |= (pair & 1) << y
        t1 |= (pair >> 1) << y
    return t0, t1


def oracle_transform_sending_to_first(n: int, basis) -> GF2Matrix:
    """Complete the basis by echelon insertion of e_1, e_2, ... in turn,
    keeping each one that stays independent.  With those vectors as the
    columns of P, the matrix is L = (P^-1)^T, so L^-1 = P^T has them as
    its rows, and L comes from Gauss-Jordan elimination."""
    cols = list(basis)
    echelon = {v.bit_length() - 1: v for v in cols}
    for i in range(n):
        if len(cols) == n:
            break
        v = 1 << i
        while v:
            p = v.bit_length() - 1
            row = echelon.get(p)
            if row is None:
                echelon[p] = v
                cols.append(1 << i)
                break
            v ^= row
    return oracle_inverse(GF2Matrix.from_rows(n, cols))


def oracle_max_flat_basis(point: int, points) -> list[int]:
    """Greedy basis of a maximal flat through point inside the set: scan the
    differences in increasing order, keep each whose translate of the span
    built so far stays inside the set."""
    available = frozenset(points)
    deltas = frozenset(p ^ point for p in available)
    span = {0}
    basis: list[int] = []
    for cand in sorted(deltas):
        if cand == 0 or cand in span:
            continue
        new = {cand ^ s for s in span}
        if new <= deltas:
            span |= new
            basis.append(cand)
    return basis


def _subspaces_within(deltas: frozenset[int], dim: int):
    """Point sets of the dim-dimensional subspaces inside deltas (0 must be
    in it), each once: generators increase, and each is the smallest
    element its step adds to the span."""
    ordered = sorted(deltas)

    def rec(span: frozenset[int], last: int, depth: int):
        if depth == dim:
            yield span
            return
        for c in ordered:
            if c <= last or c in span:
                continue
            new = frozenset(c ^ s for s in span)
            if min(new) == c and new <= deltas:
                yield from rec(span | new, c, depth + 1)

    if 0 in deltas:
        yield from rec(frozenset([0]), 0, 0)


def oracle_flat_partition(n: int, points, dim: int, count: int):
    """Exhaustively partition the points into `count` disjoint dim-flats.

    Returns the flats as a list, or None when no such partition exists.
    Backtracking always covers the smallest remaining point next, so a
    partition is found iff one exists.
    """
    pts = frozenset(points)
    if len(pts) != count << dim:
        return None
    if not pts:
        return []
    p = min(pts)
    for span in _subspaces_within(frozenset(x ^ p for x in pts), dim):
        rest = oracle_flat_partition(n, pts - {p ^ s for s in span}, dim, count - 1)
        if rest is not None:
            return [AffineSubspace(p, linear_span(n, span)), *rest]
    return None


# ---- references for the flat enumeration -----------------------------
# gf2.iter_affine_masks builds each direction from the span of its slower
# rows.  The subspace-at-a-time generators below are the library's earlier
# versions of it; they and the per-bit, per-point oracles after them must
# all give the same masks in the same order.


def iter_subspaces(n: int, dim: int):
    """All subspaces of F_2^n of the given dimension, each exactly once.

    Enumerates reduced row-echelon bases directly: choose pivot columns,
    then every assignment of the free positions below each pivot.  The
    values of one row are its pivot bit plus each subset of its free
    positions, built by doubling; row 0's free bits count fastest.
    """
    check_dimension(n)
    if dim < 0 or dim > n:
        return
    if dim == 0:
        yield Subspace(n, ())
        return
    for pivots in combinations(range(n - 1, -1, -1), dim):
        pivot_set = set(pivots)
        choices = []
        for p in pivots:
            values = [1 << p]
            for q in range(p):
                if q not in pivot_set:
                    values += [v | (1 << q) for v in values]
            choices.append(values)
        # product varies its last factor fastest, so feed the rows reversed
        for rows in product(*reversed(choices)):
            yield Subspace(n, rows[::-1])


def reference_affine_masks(n: int, dim: int):
    """Coset masks of each subspace from iter_subspaces: the direction mask
    grows from {0} by OR-ing in its translate by each basis row (one masked
    delta-swap per set bit), and the cosets come from doubling over the
    non-pivot coordinates in increasing order."""
    size = 1 << n
    swap_masks = [_low_half_mask(size, 1 << q) for q in range(n)]
    for sub in iter_subspaces(n, dim):
        direction = 1
        pivots = 0
        for row in sub.basis:
            moved = direction
            while row:
                stride = row & -row
                row ^= stride
                m = swap_masks[stride.bit_length() - 1]
                moved = ((moved & m) << stride) | ((moved >> stride) & m)
            direction |= moved
            pivots |= stride  # the last bit cleared is the pivot
        masks = [direction]
        for q, m in enumerate(swap_masks):
            if not (pivots >> q) & 1:
                stride = 1 << q
                masks += [((x & m) << stride) | ((x >> stride) & m) for x in masks]
        yield from masks


def oracle_subspaces(n: int, dim: int):
    """RREF bases in the library's order: pivot sets by combinations of the
    positions from the top, then a counter over the free positions below
    the pivots in which row 0's bits are the lowest."""
    if dim < 0 or dim > n:
        return
    if dim == 0:
        yield Subspace(n, ())
        return
    for pivots in combinations(range(n - 1, -1, -1), dim):
        pivot_set = set(pivots)
        free = [[q for q in range(p) if q not in pivot_set] for p in pivots]
        counts = [len(f) for f in free]
        for m in range(1 << sum(counts)):
            rows = []
            off = 0
            for i, p in enumerate(pivots):
                row = 1 << p
                bits = (m >> off) & ((1 << counts[i]) - 1)
                for b_idx, q in enumerate(free[i]):
                    if (bits >> b_idx) & 1:
                        row |= 1 << q
                rows.append(row)
                off += counts[i]
            yield Subspace(n, tuple(rows))


def oracle_affine_masks(n: int, dim: int):
    """Coset masks of each oracle subspace, one point at a time, cosets in
    increasing order of their smallest point."""
    for sub in oracle_subspaces(n, dim):
        pts = oracle_span_points(sub.basis)
        covered = 0
        for rep in range(1 << n):
            if (covered >> rep) & 1:
                continue
            mask = 0
            for p in pts:
                mask |= 1 << (rep ^ p)
            covered |= mask
            yield mask


def oracle_kill_number(f: BooleanFunction) -> int:
    """Least codimension of a flat on which f is constant, without masks.

    For a subspace with basis b_1..b_d, AND-folding a point set S with its
    translates (S &= S + b_i) leaves exactly the points x with x + V inside
    S; f is constant on a coset of V iff the fold of its support or of its
    zero set is nonempty.
    """
    n = f.n
    ones = f.table
    zeros = ((1 << (1 << n)) - 1) ^ ones
    for codim in range(n + 1):
        for sub in oracle_subspaces(n, n - codim):
            a, b = ones, zeros
            for v in sub.basis:
                a &= xor_translate(a, v, n)
                b &= xor_translate(b, v, n)
            if a or b:
                return codim
    raise AssertionError("unreachable: every point is a constant flat")
