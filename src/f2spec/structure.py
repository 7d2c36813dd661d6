"""Spectrum classification and affine-subspace decomposition.

A 0/1 function whose scaled coefficients all lie in {0, +-u, +-2u} for
u = 2^(n-k) is supported on one affine subspace of dimension n-k (when
f^(0) = 1/2^k), or on two of dimension n-k, or -- only when the irreducible
core has k = 4 -- on four of dimension n-k-1.  This module classifies a
spectrum, restricts the function to the affine span of its support in one
change of coordinates, builds two pieces in closed form from the core
spectrum (four pieces are peeled off the core's support), and verifies
every decomposition it emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable

from .addcomb import PointSet
from .boolfunc import BooleanFunction, apply_transform, restrict_first_bit, shift
from .errors import SpectrumScopeError, TheoremViolationError
from .fourier import (
    Spectrum,
    granularity,
    shift_spectrum,
    wht,
)
from .gf2 import (
    AffineSubspace,
    GF2Matrix,
    Subspace,
    affine_span,
    iter_affine_masks,
    linear_span,
    max_flat_through,
    orthogonal_complement,
    rref,
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
    triple sums outside minus, where the spectrum provably vanishes.  The
    last three come from the t^2 pair sums and are built on first read.
    """

    n: int
    k: int
    t: int
    plus: PointSet
    minus: PointSet

    @cached_property
    def _pair_sums(self) -> frozenset[int]:
        """B + B, with 0, for B the negative class."""
        minus = self.minus.members
        return frozenset(b1 ^ b2 for b1 in minus for b2 in minus)

    @cached_property
    def double_sums(self) -> PointSet:
        return PointSet(self.n, (self._pair_sums - {0}) & self.plus.members)

    @cached_property
    def plus_rest(self) -> PointSet:
        return PointSet(self.n, self.plus.members - self.double_sums.members)

    @cached_property
    def triple_gaps(self) -> PointSet:
        minus = self.minus.members
        triples = frozenset(x ^ b for x in self._pair_sums for b in minus)
        return PointSet(self.n, triples - minus)


def _signed_masks(s: Spectrum, k: int) -> tuple[frozenset[int], frozenset[int]]:
    unit = 1 << (s.n - k)
    coeffs = s.coeffs
    # one scan for the few nonzero masks, then split those by value
    nonzero = list(compress(range(len(coeffs)), coeffs))
    plus = frozenset([a for a in nonzero if coeffs[a] == unit])
    minus = frozenset([a for a in nonzero if coeffs[a] == -unit])
    return plus, minus


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
    f0 = s.coeffs[0]
    if s.coeffs.count(f0) + s.coeffs.count(-f0) > 1:
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
    return SpectralSets(s.n, cls.k, t, PointSet(s.n, plus), PointSet(s.n, minus))


def triangle_neighbors(rho: int, minus: PointSet) -> PointSet:
    """Elements of the negative class that pair up to rho.

    rho must itself be a nonzero pairwise sum of the class; the result always
    has even size because its members come in pairs (b, rho + b).
    """
    members = minus.members
    neighbors = frozenset(b for b in members if rho ^ b in members)
    if rho == 0 or not neighbors:
        raise ValueError("rho is not a nonzero pairwise sum of the class")
    return PointSet(minus.n, neighbors)


@dataclass(frozen=True)
class ReductionTrace:
    """How a core was reached, plus the core's spectrum, which the reduction
    carries along instead of transforming the core again.

    The core is f(L(y << w) + shift) for y in F_2^core_n, with w =
    original_n - core_n; transform is L, or None when w = 0.
    """

    original_n: int
    core_n: int
    shift: int
    transform: GF2Matrix | None
    core_spectrum: Spectrum

    def lift_point(self, y: int) -> int:
        """Map a core point back to the original coordinates."""
        if self.transform is None:
            return y ^ self.shift
        return self.transform.apply(y << (self.original_n - self.core_n)) ^ self.shift

    def lift_flat(self, flat: AffineSubspace) -> AffineSubspace:
        """Map an affine subspace of the core space back; dimension is kept.

        lift_point is affine (x -> Lx + c), so the shift lifts as a point and
        each direction vector v as lift_point(v) + lift_point(0)."""
        c = self.lift_point(0)
        basis = [self.lift_point(v) ^ c for v in flat.direction.basis]
        return AffineSubspace(
            self.lift_point(flat.shift),
            Subspace.spanned_by(self.original_n, basis),
        )


def reduce_to_core(
    f: BooleanFunction,
    spectrum: Spectrum | None = None,
    cls: Classification | None = None,
) -> tuple[BooleanFunction, ReductionTrace]:
    """Restrict f to the affine span of its support, with 0 in the support.

    After a shift by the smallest support point, the masks whose
    coefficient equals F(0) are exactly the annihilator W of the span of
    the support (no coefficient can equal -F(0), since 0 is a support
    point).  One transform sends an echelon basis of W to e_1..e_w, which
    confines the support to x_1 = ... = x_w = 0, and w restrictions to
    that half leave the core: irreducible, of dimension n - w, with the
    origin in its support.  When w = 0 the core is the shifted f.

    The spectrum of f (and its classification) is computed here unless the
    caller passes it; the reduction then carries it by exact rules instead
    of transforming again: a shift by a multiplies F(beta) by
    (-1)^<beta,a>, the transform gathers through beta -> P beta, and
    keeping the x_1 = ... = x_w = 0 part leaves G0(b) = G(b << w).  The
    trace carries the core's spectrum.
    """
    if spectrum is None:
        spectrum = wht(f)
    if cls is None:
        cls = classify(spectrum)
    if cls.tag not in IN_SCOPE_TAGS:
        raise SpectrumScopeError("reduction is only defined for in-scope spectra")
    origin = (f.table & -f.table).bit_length() - 1
    g = shift(f, origin)
    s = shift_spectrum(spectrum, origin)
    coeffs = s.coeffs
    f0 = coeffs[0]
    w = coeffs.count(f0).bit_length() - 1
    if w == 0:
        return g, ReductionTrace(f.n, f.n, origin, None, s)
    # W's members in increasing order come in blocks of growing highest
    # bit, so the first member at or above 2^(bit length of the last one
    # found) is a new basis vector: w scans find a basis
    found = [coeffs.index(f0, 1)]
    for _ in range(1, w):
        found.append(coeffs.index(f0, 1 << found[-1].bit_length()))
    transform = transform_sending_to_first(f.n, rref(found))
    g = apply_transform(g, transform)
    for _ in range(w):
        g, g1 = restrict_first_bit(g)
        if g1.table != 0:
            raise TheoremViolationError(
                "support was not confined to the affine span of its points"
            )
    # the core keeps G(b << w) = F(P (b << w)) with P = (L^-1)^T, whose
    # columns w+1..n are the rows w+1..n of L^-1: gather only those images
    images = [0]
    for col in transform.inverse_rows[w:]:
        images += list(map(col.__xor__, images))
    core_s = Spectrum(g.n, tuple(map(coeffs.__getitem__, images)))
    return g, ReductionTrace(f.n, g.n, origin, transform, core_s)


@dataclass(frozen=True)
class Decomposition:
    """Disjoint affine pieces of a support; decompose returns only verified ones."""

    pieces: tuple[AffineSubspace, ...]
    classification: Classification


def _two_flat_pieces(sets: SpectralSets) -> tuple[AffineSubspace, ...] | None:
    """Both pieces of a two-subspace core, read off its coefficient classes.

    The core is 1_U + 1_(b+V) with 0 in U, and 1_(c+U) has the coefficient
    2^(n-k) (-1)^<alpha,c> on U^perp and 0 elsewhere.  With P and B the +u
    and -u classes, U^perp and V^perp meet in {0, gamma}, so V^perp is
    {0, gamma} + B + (gamma + B) and U^perp is {0, gamma} + (P - (gamma + B)),
    which P - (gamma + B) alone spans.  gamma is min(B) + p for the first p
    of P with gamma + B inside P: for k >= 3 only the triple gap passes
    (another would put B + B inside U^perp and V^perp, i.e. inside
    {0, gamma}, which |B| >= 3 forbids), and for k = 2 every p passes and
    names a valid pairing.  On V^perp, <alpha, b> is 1 exactly on
    B + {gamma}; the rref rows of V^perp share no pivot, so the pivot bits
    of the rows in B + {gamma} add up to a point of b + V.  None when no p
    passes.
    """
    plus, minus = sets.plus.members, sets.minus.members
    low = min(minus)
    for p in sorted(plus):
        gamma = low ^ p
        if all(gamma ^ x in plus for x in minus):
            break
    else:
        return None
    odd = minus | {gamma}
    v_perp = linear_span(sets.n, odd)
    u_perp = linear_span(sets.n, plus - {gamma ^ x for x in minus})
    b = sum(1 << (r.bit_length() - 1) for r in v_perp.basis if r in odd)
    return (
        AffineSubspace(b, orthogonal_complement(v_perp)),
        AffineSubspace(0, orthogonal_complement(u_perp)),
    )


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
    """Pieces of an irreducible m = 2 core with spectrum s and classification
    cls, in core coordinates; None on failure."""
    sets = spectral_sets(s, cls)
    if cls.k == 4 and len(sets.double_sums) == 21:  # |B + B| = 22 with 0
        return _greedy_four_pieces(core, core.n - cls.k - 1)
    return _two_flat_pieces(sets)


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
    span = affine_span(
        n, (p.shift ^ v for p in pieces for v in (0, *p.direction.basis))
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
    are reduced to an irreducible core, recovered there from the core's
    spectrum, and lifted back.  Each spectrum has one route, and the result
    has passed verify_decomposition: a route that fails, or whose pieces
    fail that check, raises TheoremViolationError.

    f is transformed and classified here unless the caller passes its
    spectrum (and classification), as reduce_to_core does.  The reduction
    carries the spectrum to the core, whose classification follows from its
    dimension: the core keeps every coefficient value and drops n by w, so
    k drops by w and m stays.
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
        pieces: tuple[AffineSubspace, ...] = (affine_span(n, f.support()),)
    else:
        core, trace = reduce_to_core(f, s, cls)
        core_cls = _in_scope(cls.k - (n - trace.core_n), cls.m)
        try:
            core_pieces = _decompose_core(core, trace.core_spectrum, core_cls)
        except ValueError as exc:
            # the core failed the route's own checks (class sizes, an empty class)
            raise TheoremViolationError(f"the core recovery failed: {exc}") from exc
        if core_pieces is None:
            raise TheoremViolationError("the core recovery found no pieces")
        pieces = tuple(map(trace.lift_flat, core_pieces))
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
    """Raise ValueError unless kill_number accepts a function on n inputs."""
    if n > 8:
        raise ValueError("kill number search is exhaustive; n <= 8 required")


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
