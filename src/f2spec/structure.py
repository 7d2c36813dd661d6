"""Spectrum classification and affine-subspace decomposition.

A 0/1 function whose scaled coefficients all lie in {0, +-u, +-2u} for
u = 2^(n-k) is supported on one affine subspace of dimension n-k (when
f^(0) = 1/2^k), or on two of dimension n-k, or -- only when the irreducible
core has k = 4 -- on four of dimension n-k-1.  This module classifies a
spectrum, strips the reducible directions while recording how to undo them,
recovers the subspaces, and verifies every decomposition it emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .addcomb import PointSet
from .boolfunc import BooleanFunction, apply_transform, restrict_first_bit, shift
from .errors import SpectrumScopeError, TheoremViolationError
from .fourier import (
    Spectrum,
    granularity,
    shift_spectrum,
    transform_spectrum,
    wht,
)
from .gf2 import (
    AffineSubspace,
    GF2Matrix,
    Subspace,
    affine_span,
    find_flat_partition,
    iter_affine_masks,
    linear_span,
    max_flat_through,
    orthogonal_complement,
    transform_sending_to_e1,
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


def classify(s: Spectrum) -> Classification:
    n = s.n
    coeffs = s.coeffs
    values = set(coeffs)
    if values == {0}:
        return Classification(TAG_TRIVIAL, 0, 0)
    k = granularity(s)
    unit = 1 << (n - k)
    f0 = coeffs[0]
    if f0 % unit:
        return Classification(TAG_OUT_OF_SCOPE, k, 0)
    m = f0 // unit
    allowed = {0, unit, -unit}
    if m == 2:
        allowed |= {2 * unit, -2 * unit}
    if m in (1, 2) and values <= allowed:
        return _in_scope(k, m)
    return Classification(TAG_OUT_OF_SCOPE, k, m)


def _in_scope(k: int, m: int) -> Classification:
    """The classification of an in-scope spectrum with F(0) = m/2^k, m = 1 or 2."""
    if m == 1:
        return Classification(TAG_RVL, k, 1)
    tag = TAG_EXCEPTIONAL_K4 if k == 4 else TAG_TWO_SUBSPACE
    return Classification(tag, k, 2, (1 << (k - 1)) - 1)


@dataclass(frozen=True)
class SpectralSets:
    """The coefficient-level sets of an irreducible two-subspace core.

    plus / minus collect the masks with coefficient +1/2^k and -1/2^k.
    double_sums are the nonzero pairwise sums of minus-masks (they all land
    in plus), plus_rest is the remainder of plus, and triple_gaps are the
    triple sums outside minus, where the spectrum provably vanishes.
    """

    n: int
    k: int
    t: int
    plus: PointSet
    minus: PointSet
    double_sums: PointSet
    plus_rest: PointSet
    triple_gaps: PointSet


def _signed_masks(s: Spectrum, k: int) -> tuple[frozenset[int], frozenset[int]]:
    unit = 1 << (s.n - k)
    masks = range(len(s.coeffs))
    plus = frozenset(compress(masks, map(unit.__eq__, s.coeffs)))
    minus = frozenset(compress(masks, map((-unit).__eq__, s.coeffs)))
    return plus, minus


def _reducible_mask(coeffs: tuple[int, ...]) -> int | None:
    """Smallest nonzero mask whose coefficient has the magnitude of F(0)."""
    hits = []
    for target in {coeffs[0], -coeffs[0]}:
        try:
            hits.append(coeffs.index(target, 1))
        except ValueError:
            pass
    return min(hits, default=None)


def spectral_sets(s: Spectrum, cls: Classification | None = None) -> SpectralSets:
    """Extract the coefficient sets of a core spectrum and check their sizes.

    Requires an m = 2 classification with no remaining reducible direction
    (no nonzero mask whose coefficient has the magnitude of F(0)).  A caller
    that has already classified s passes the result as cls.
    """
    if cls is None:
        cls = classify(s)
    if cls.tag not in (TAG_TWO_SUBSPACE, TAG_EXCEPTIONAL_K4):
        raise ValueError("spectral sets exist only for m = 2 spectra")
    if _reducible_mask(s.coeffs) is not None:
        raise ValueError("spectrum still has a reducible direction; reduce first")
    if sum(s.coeffs) != 1 << s.n:
        # the class sizes below are forced only once the origin is in the
        # support; a shift by any support point arranges that
        raise ValueError("origin not in the support; shift the function first")
    plus, minus = _signed_masks(s, cls.k)
    t = cls.t
    assert t is not None
    if len(plus) != 3 * t or len(minus) != t:
        raise ValueError(
            f"coefficient class sizes {len(plus)}/{len(minus)} do not match "
            f"the forced 3t/t with t={t}; the spectrum is not a 0/1 function"
        )
    sums = frozenset(b1 ^ b2 for b1 in minus for b2 in minus) - {0}
    double_sums = sums & plus
    plus_rest = plus - double_sums
    triples = frozenset(x ^ b for x in (sums | {0}) for b in minus)
    triple_gaps = triples - minus
    return SpectralSets(
        s.n,
        cls.k,
        t,
        PointSet(s.n, plus),
        PointSet(s.n, minus),
        PointSet(s.n, double_sums),
        PointSet(s.n, plus_rest),
        PointSet(s.n, triple_gaps),
    )


def triangle_neighbors(rho: int, minus: PointSet) -> PointSet:
    """Elements of the negative class that pair up to rho.

    rho must itself be a nonzero pairwise sum of the class; the result always
    has even size because its members come in pairs (b, rho + b).
    """
    members = minus.members
    if rho == 0 or rho not in {x ^ y for x in members for y in members}:
        raise ValueError("rho is not a nonzero pairwise sum of the class")
    return PointSet(minus.n, frozenset(b for b in members if rho ^ b in members))


def is_irreducible(f: BooleanFunction) -> bool:
    """True iff no proper affine subspace contains the support."""
    if f.is_zero:
        raise ValueError("the zero function has no support")
    return affine_span(f.n, f.support()).dim == f.n


@dataclass(frozen=True)
class ReductionStep:
    """One recorded restriction: optional pre-shift, the transform that moved
    the chosen mask to e1, and which value of the first bit kept the support."""

    shift: int | None
    transform: GF2Matrix
    kept_bit: int


@dataclass(frozen=True)
class ReductionTrace:
    """How a core was reached, plus the core's spectrum, which the reduction
    carries along instead of transforming the core again."""

    original_n: int
    core_n: int
    steps: tuple[ReductionStep, ...]
    core_spectrum: Spectrum

    def lift_point(self, x: int) -> int:
        """Map a core point back to the original coordinates."""
        for step in reversed(self.steps):
            x = (x << 1) | step.kept_bit
            x = step.transform.apply(x)
            if step.shift is not None:
                x ^= step.shift
        return x

    def lift_flat(self, flat: AffineSubspace) -> AffineSubspace:
        """Map an affine subspace of the core space back; dimension is kept."""
        shift_pt = flat.shift
        basis = list(flat.direction.basis)
        n = self.core_n
        for step in reversed(self.steps):
            n += 1
            shift_pt = (shift_pt << 1) | step.kept_bit
            basis = [v << 1 for v in basis]
            shift_pt = step.transform.apply(shift_pt)
            basis = [step.transform.apply(v) for v in basis]
            if step.shift is not None:
                shift_pt ^= step.shift
        return AffineSubspace(shift_pt, Subspace.spanned_by(n, basis))


def reduce_to_core(
    f: BooleanFunction,
    spectrum: Spectrum | None = None,
    cls: Classification | None = None,
) -> tuple[BooleanFunction, ReductionTrace]:
    """Strip reducible directions until the support spans the whole space.

    While some nonzero mask carries a coefficient of magnitude F(0), the
    support lies inside an affine hyperplane: after an optional shift (when
    the coefficient is negative) and a transform sending the mask to e1, the
    whole support sits in the first-bit-0 half, which becomes the new
    function.  The smallest qualifying mask is always chosen, so the core
    and trace are reproducible.

    The spectrum of f (and its classification) is computed here unless the
    caller passes it; every step then updates it by its exact rule instead
    of transforming again: a shift by a multiplies F(beta) by (-1)^<beta,a>,
    the transform gathers through beta -> P beta, and keeping the x_1 = 0
    half leaves G0(b) = G(2b).  The trace carries the core's spectrum.
    """
    if spectrum is None:
        spectrum = wht(f)
    if cls is None:
        cls = classify(spectrum)
    if cls.tag == TAG_OUT_OF_SCOPE:
        raise SpectrumScopeError("reduction is only defined for in-scope spectra")
    g = f
    s = spectrum
    steps: list[ReductionStep] = []
    while s.coeffs[0]:
        alpha = _reducible_mask(s.coeffs)
        if alpha is None:
            break
        a_shift: int | None = None
        if s.coeffs[alpha] < 0:
            a_shift = alpha & -alpha  # lowest set bit, so <a_shift, alpha> = 1
            g = shift(g, a_shift)
            s = shift_spectrum(s, a_shift)
        transform = transform_sending_to_e1(g.n, alpha)
        g = apply_transform(g, transform)
        s = transform_spectrum(s, transform)
        g0, g1 = restrict_first_bit(g)
        if g1.table != 0:
            raise TheoremViolationError(
                "support was not confined to the restricted half"
            )
        steps.append(ReductionStep(a_shift, transform, 0))
        g = g0
        s = Spectrum(g.n, s.coeffs[0::2])
    return g, ReductionTrace(f.n, g.n, tuple(steps), s)


@dataclass(frozen=True)
class Decomposition:
    """Disjoint affine pieces of a support; decompose returns only verified ones."""

    pieces: tuple[AffineSubspace, ...]
    classification: Classification


def _split_by_cosets(
    n: int,
    k: int,
    supp: frozenset[int],
    v1_perp: Subspace,
    v2_perp: Subspace,
) -> tuple[AffineSubspace, AffineSubspace] | None:
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
            sig |= ((u & x).bit_count() & 1) << i
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


def _recover_two_pieces(
    core: BooleanFunction, sets: SpectralSets
) -> tuple[AffineSubspace, ...] | None:
    """Standard two-subspace recovery for cores with k >= 3.

    The negative class spans the first constraint space; the unique triple
    gap, joined with the leftover positive masks, spans the second.
    """
    n, k = sets.n, sets.k
    v1_perp = linear_span(n, sets.minus.members)
    if v1_perp.dim != k:
        return None
    if len(sets.triple_gaps) != 1:
        return None
    (gamma,) = sets.triple_gaps.members
    v2_perp = linear_span(n, sets.plus_rest.members | {gamma})
    if v2_perp.dim != k:
        return None
    return _split_by_cosets(n, k, core.support(), v1_perp, v2_perp)


def _recover_two_pieces_k2(
    core: BooleanFunction, s: Spectrum, sets: SpectralSets
) -> tuple[AffineSubspace, ...] | None:
    """k = 2 recovery, where the negative class is a single mask.

    Pairwise sums of a singleton are useless, so instead find the positive
    mask whose sum with the negative one is spectrum-zero; the other two
    positive masks sum to the same point and span the second constraint
    space.
    """
    n = sets.n
    (beta,) = sets.minus.members
    for a_r in sorted(sets.plus.members):
        gamma = beta ^ a_r
        others = sorted(sets.plus.members - {a_r})
        if len(others) != 2 or others[0] ^ others[1] != gamma:
            continue
        if s.coeffs[gamma] != 0:
            continue
        v1_perp = linear_span(n, (beta, a_r))
        v2_perp = linear_span(n, others)
        if v1_perp.dim != 2 or v2_perp.dim != 2:
            continue
        split = _split_by_cosets(n, 2, core.support(), v1_perp, v2_perp)
        if split is not None:
            return split
    return None


def _greedy_four_pieces(
    core: BooleanFunction, dim: int
) -> tuple[AffineSubspace, ...] | None:
    """Exceptional-core extraction: repeatedly peel a maximal flat off the
    support; every piece must come out with the mandated dimension."""
    remaining = set(core.support())
    pieces: list[AffineSubspace] = []
    while remaining:
        flat = max_flat_through(core.n, min(remaining), remaining)
        if flat.dim != dim:
            return None
        pieces.append(flat)
        remaining -= set(flat.points())
    if len(pieces) != 4:
        return None
    return tuple(pieces)


def _decompose_core(
    core: BooleanFunction, s: Spectrum, cls: Classification
) -> tuple[AffineSubspace, ...] | None:
    """Pieces of an irreducible core with spectrum s and classification cls,
    in core coordinates; None on failure."""
    if core.is_one:
        return (AffineSubspace(0, orthogonal_complement(Subspace.zero(core.n))),)
    if cls.m != 2:
        return None
    sets = spectral_sets(s, cls)
    k = cls.k
    if k == 2:
        return _recover_two_pieces_k2(core, s, sets)
    if k == 4:
        minus = sets.minus.members
        double_sum_count = len(
            frozenset(b1 ^ b2 for b1 in minus for b2 in minus)
        )
        if double_sum_count == 22:
            return _greedy_four_pieces(core, core.n - k - 1)
    return _recover_two_pieces(core, sets)


def _pieces_cover_exactly(
    pieces: tuple[AffineSubspace, ...], supp: frozenset[int]
) -> bool:
    union: set[int] = set()
    for piece in pieces:
        pts = set(piece.points())
        if union & pts:
            return False
        union |= pts
    return union == supp


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
    origin = pieces[0].shift
    span = linear_span(
        n,
        [p.shift ^ origin for p in pieces]
        + [v for p in pieces for v in p.direction.basis],
    )
    return cls.k - (n - span.dim) == 4


def verify_decomposition(f: BooleanFunction, dec: Decomposition) -> bool:
    """Postcondition check: disjoint full flats of mandated dimensions whose
    union reproduces the support bit-exactly."""
    return _pieces_match_mandate(
        dec.pieces, f.n, dec.classification
    ) and _pieces_cover_exactly(dec.pieces, f.support())


def decompose(
    f: BooleanFunction,
    spectrum: Spectrum | None = None,
    cls: Classification | None = None,
) -> Decomposition:
    """Write the support as the disjoint union of affine subspaces.

    The single-subspace case is read off the support directly; m = 2 cases
    are reduced to an irreducible core, recovered there, and lifted back.
    If the structural recovery fails its own verification, an exhaustive
    partition search runs before the failure is declared a violation.  The
    result has passed verify_decomposition.

    f is transformed and classified here unless the caller passes its
    spectrum (and classification), as reduce_to_core does.  The reduction
    carries the spectrum to the core, whose classification follows from the
    number of steps: each one keeps every coefficient value and drops n by
    one, so k drops by one and m stays.
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
        dec = Decomposition((affine_span(n, f.support()),), cls)
        if verify_decomposition(f, dec):
            return dec
    else:
        core, trace = reduce_to_core(f, s, cls)
        core_cls = _in_scope(cls.k - len(trace.steps), cls.m)
        # the set extraction needs the origin inside the support; normalize
        # with a shift by the smallest support point and move the pieces
        # back afterwards
        origin = (core.table & -core.table).bit_length() - 1
        normalized = shift(core, origin)
        core_s = shift_spectrum(trace.core_spectrum, origin)
        primary = _decompose_core(normalized, core_s, core_cls)
        for core_pieces in _candidate_partitions(normalized, core_cls, primary):
            pieces = tuple(
                trace.lift_flat(AffineSubspace(p.shift ^ origin, p.direction))
                for p in core_pieces
            )
            dec = Decomposition(pieces, cls)
            if verify_decomposition(f, dec):
                return dec
    raise TheoremViolationError(
        "no verified affine decomposition found; this falsifies the "
        "structure theorem for this input"
    )


def _candidate_partitions(
    core: BooleanFunction,
    cls: Classification,
    primary: tuple[AffineSubspace, ...] | None,
):
    if primary is not None:
        yield primary
    fallback = _fallback_partition(core, cls)
    if fallback is not None and fallback != primary:
        yield fallback


def _fallback_partition(
    core: BooleanFunction, cls: Classification
) -> tuple[AffineSubspace, ...] | None:
    """Exhaustive search for a valid partition of the core support."""
    if cls.m != 2:
        return None
    k = cls.k
    supp = core.support()
    found = find_flat_partition(core.n, supp, core.n - k, 2)
    if found is None and k == 4:
        found = find_flat_partition(core.n, supp, core.n - k - 1, 4)
    return tuple(found) if found is not None else None


def first_constant_codim(table: int, masks_by_codim: Iterable[Iterable[int]]) -> int | None:
    """Smallest c such that the table is constant on one of the point masks
    in group c (the codimension-c flats, possibly lazy), or None."""
    for codim, masks in enumerate(masks_by_codim):
        for mask in masks:
            hit = table & mask
            if hit == 0 or hit == mask:
                return codim
    return None


def kill_number(f: BooleanFunction) -> int:
    """Smallest codimension of an affine subspace on which f is constant.

    Exhaustive over affine subspaces in decreasing dimension order; limited
    to n <= 8 where the search space is still a desk-scale object.
    """
    if f.n > 8:
        raise ValueError("kill number search is exhaustive; n <= 8 required")
    groups = (iter_affine_masks(f.n, f.n - codim) for codim in range(f.n + 1))
    codim = first_constant_codim(f.table, groups)
    assert codim is not None, "unreachable: points are constant subspaces"
    return codim
