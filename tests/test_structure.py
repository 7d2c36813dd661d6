import pytest

from f2spec.addcomb import sumset
from f2spec.boolfunc import BooleanFunction, apply_transform, shift, tensor
from f2spec.errors import SpectrumScopeError
from f2spec.families import (
    affine_indicator,
    all_ones,
    counterexample_core,
    counterexample_padded,
    delta,
    two_affine,
)
from f2spec.fourier import wht
from f2spec.gf2 import (
    AffineSubspace,
    Subspace,
    is_full_affine_subspace,
    iter_affine_masks,
    linear_span,
)
from f2spec.harness import SplitMix64, random_invertible, random_vector
from f2spec.structure import (
    TAG_EXCEPTIONAL_K4,
    TAG_OUT_OF_SCOPE,
    TAG_RVL,
    TAG_TRIVIAL,
    TAG_TWO_SUBSPACE,
    Decomposition,
    classify,
    decompose,
    first_constant_codim,
    is_irreducible,
    kill_number,
    reduce_to_core,
    spectral_sets,
    triangle_neighbors,
    verify_decomposition,
)

OR2 = BooleanFunction(2, 0b1110)


# ---------------------------------------------------------------- classify

def test_classify_affine_indicator():
    cls = classify(wht(affine_indicator(4, 2)))
    assert (cls.tag, cls.k, cls.m) == (TAG_RVL, 2, 1)


def test_classify_two_affine():
    cls = classify(wht(two_affine(5, 2)))
    assert (cls.tag, cls.k, cls.m, cls.t) == (TAG_TWO_SUBSPACE, 2, 2, 1)


def test_classify_counterexample():
    cls = classify(wht(counterexample_core()))
    assert (cls.tag, cls.k, cls.m, cls.t) == (TAG_EXCEPTIONAL_K4, 4, 2, 7)


def test_classify_constants():
    assert classify(wht(BooleanFunction(3, 0))).tag == TAG_TRIVIAL
    cls = classify(wht(all_ones(3)))
    assert (cls.tag, cls.k, cls.m) == (TAG_RVL, 0, 1)


def test_classify_or_is_out_of_scope():
    cls = classify(wht(OR2))
    assert (cls.tag, cls.k, cls.m) == (TAG_OUT_OF_SCOPE, 2, 3)


def test_classify_two_point_support_is_single_subspace():
    # any 2-point support is a 1-dimensional affine subspace: granularity
    # n-1 with F(0) = 1/2^(n-1), never an m = 2 instance
    f = BooleanFunction.from_support(3, [1, 6])
    cls = classify(wht(f))
    assert (cls.tag, cls.k, cls.m) == (TAG_RVL, 2, 1)


# ---------------------------------------------------------- spectral sets

def test_spectral_sets_two_affine_k3():
    s = wht(two_affine(5, 3))
    sets = spectral_sets(s)
    assert len(sets.plus) == 9 and len(sets.minus) == 3
    b = sorted(sets.minus.members)
    assert sets.triple_gaps.members == {b[0] ^ b[1] ^ b[2]}
    # canonical coordinates put the lone spectral gap at e_k
    assert sets.triple_gaps.members == {1 << 2}
    assert sets.double_sums.members == {
        b[0] ^ b[1], b[0] ^ b[2], b[1] ^ b[2]
    }


def test_spectral_sets_counterexample_sizes():
    sets = spectral_sets(wht(counterexample_core()))
    assert len(sets.plus) == 21
    assert len(sets.minus) == 7
    assert len(sets.triple_gaps) == 35
    # gaps are exactly the spectrum zeros: 64 - 29 entries
    coeffs = wht(counterexample_core()).coeffs
    zeros = {a for a, c in enumerate(coeffs) if c == 0}
    assert sets.triple_gaps.members == zeros


def test_spectral_sets_gap_is_ek_for_generated_cores():
    for k in (3, 4, 5):
        sets = spectral_sets(wht(two_affine(2 * k - 1, k)))
        assert sets.triple_gaps.members == {1 << (k - 1)}


def test_spectral_sets_k2_has_no_triple_gap():
    # a singleton negative class sums to {0}; the gap set degenerates and
    # the recovery has to find the spectrum-zero point another way
    sets = spectral_sets(wht(two_affine(3, 2)))
    assert len(sets.minus) == 1
    assert sets.double_sums.members == frozenset()
    assert sets.triple_gaps.members == frozenset()
    assert sorted(p.dim for p in decompose(two_affine(3, 2)).pieces) == [1, 1]


def test_spectral_sets_requires_core():
    reducible = tensor(two_affine(5, 2), delta(1))
    with pytest.raises(ValueError):
        spectral_sets(wht(reducible))


def test_spectral_sets_requires_origin_in_support():
    f = shift(two_affine(5, 3), 8)  # support no longer contains 0
    assert f.value(0) == 0
    with pytest.raises(ValueError):
        spectral_sets(wht(f))


def test_spectral_sets_claim_sizes_for_all_generated_instances():
    for k in (2, 3, 4, 5):
        n = 2 * k - 1
        sets = spectral_sets(wht(two_affine(n, k)))
        t = (1 << (k - 1)) - 1
        assert len(sets.plus) == 3 * t
        assert len(sets.minus) == t


# ------------------------------------------------------ triangle neighbors

def test_triangle_neighbors_two_affine_core():
    for k in (3, 4):
        sets = spectral_sets(wht(two_affine(2 * k - 1, k)))
        ek = 1 << (k - 1)
        t = (1 << (k - 1)) - 1
        for rho in sorted(sets.double_sums.members)[:5]:
            nb = triangle_neighbors(rho, sets.minus)
            assert nb.members == sets.minus.members - {rho ^ ek}
            assert len(nb) == t - 1
            assert len(nb) % 2 == 0


def test_triangle_neighbors_counterexample():
    sets = spectral_sets(wht(counterexample_core()))
    nb = triangle_neighbors(0b11, sets.minus)
    assert nb.members == {1, 2}


def test_triangle_neighbors_rejects_non_sum():
    sets = spectral_sets(wht(counterexample_core()))
    with pytest.raises(ValueError):
        triangle_neighbors(0b111, sets.minus)  # weight-3 point is not in 2B
    with pytest.raises(ValueError):
        triangle_neighbors(0, sets.minus)


def test_triangle_neighbor_count_is_even_on_random_conforming_cores():
    rng = SplitMix64(99)
    for _ in range(20):
        base = two_affine(7, 3)
        f = shift(apply_transform(base, random_invertible(7, rng)), 0)
        core_sets = spectral_sets(wht(f)) if f.value(0) else None
        if core_sets is None:
            continue
        pair_sums = {
            x ^ y for x in core_sets.minus.members for y in core_sets.minus.members
        } - {0}
        for rho in pair_sums:
            assert len(triangle_neighbors(rho, core_sets.minus)) % 2 == 0


# ----------------------------------------------------------- irreducibility

def test_is_irreducible_examples():
    assert is_irreducible(counterexample_core())
    assert not is_irreducible(tensor(OR2, delta(1)))
    for k in (2, 3):
        assert is_irreducible(two_affine(2 * k - 1, k))
    with pytest.raises(ValueError):
        is_irreducible(BooleanFunction(3, 0))


def test_all_ones_is_irreducible_and_two_point_reducible():
    assert is_irreducible(all_ones(3))
    assert not is_irreducible(BooleanFunction(3, 0b11))  # {0,1} fits a line


# --------------------------------------------------------------- reduction

def test_reduce_tensor_with_delta_recovers_core_exactly():
    base = two_affine(5, 2)
    padded = tensor(base, delta(2))
    core, trace = reduce_to_core(padded)
    assert core == base
    assert len(trace.steps) == 2
    assert trace.original_n == 7 and trace.core_n == 5


def test_reduce_irreducible_is_identity():
    f = counterexample_core()
    core, trace = reduce_to_core(f)
    assert core == f
    assert trace.steps == ()


def test_reduce_handles_negative_coefficient_via_shift():
    padded = tensor(two_affine(5, 2), delta(1))
    # shifting by e6 flips the sign of the big coefficient at mask 32
    flipped = shift(padded, 1 << 5)
    assert wht(flipped).coeffs[32] == -wht(flipped).coeffs[0]
    core, trace = reduce_to_core(flipped)
    assert core == two_affine(5, 2)
    assert len(trace.steps) == 1
    assert trace.steps[0].shift == 1 << 5


def test_reduce_trace_lifts_core_support_onto_original():
    rng = SplitMix64(5)
    base = tensor(two_affine(3, 2), delta(2))
    f = shift(apply_transform(base, random_invertible(5, rng)), random_vector(5, rng))
    core, trace = reduce_to_core(f)
    lifted = {trace.lift_point(x) for x in core.support()}
    assert lifted == f.support()
    # lifting all core points is injective onto a full affine subspace
    all_lifted = {trace.lift_point(x) for x in range(1 << core.n)}
    assert len(all_lifted) == 1 << core.n
    assert is_full_affine_subspace(f.n, all_lifted)


def test_reduce_rejects_out_of_scope():
    with pytest.raises(SpectrumScopeError):
        reduce_to_core(OR2)


# ------------------------------------------------------------- decompose

def test_decompose_affine_indicator_random_positions():
    rng = SplitMix64(2024)
    for _ in range(10):
        f = shift(
            apply_transform(affine_indicator(5, 2), random_invertible(5, rng)),
            random_vector(5, rng),
        )
        dec = decompose(f)
        assert verify_decomposition(f, dec)
        assert len(dec.pieces) == 1
        assert dec.pieces[0].dim == 3
        assert set(dec.pieces[0].points()) == f.support()


def test_decompose_two_affine():
    f = two_affine(5, 2)
    dec = decompose(f)
    assert dec.classification.tag == TAG_TWO_SUBSPACE
    assert sorted(p.dim for p in dec.pieces) == [3, 3]
    assert verify_decomposition(f, dec)


def test_decompose_counterexample_core():
    f = counterexample_core()
    dec = decompose(f)
    assert dec.classification.tag == TAG_EXCEPTIONAL_K4
    assert [p.dim for p in dec.pieces] == [1, 1, 1, 1]
    assert verify_decomposition(f, dec)


def test_decompose_counterexample_padded_three_dim_pieces():
    dec = decompose(counterexample_padded(8))
    assert [p.dim for p in dec.pieces] == [3, 3, 3, 3]
    union = set()
    for p in dec.pieces:
        union |= set(p.points())
    assert union == counterexample_padded(8).support()


def test_decompose_reconstructs_support_bit_exactly():
    rng = SplitMix64(321)
    cases = [
        two_affine(6, 2),
        two_affine(7, 3),
        two_affine(9, 5),
        counterexample_padded(7),
        affine_indicator(6, 3),
        tensor(two_affine(3, 2), delta(2)),
    ]
    for base in cases:
        n = base.n
        f = shift(apply_transform(base, random_invertible(n, rng)), random_vector(n, rng))
        dec = decompose(f)
        assert verify_decomposition(f, dec)
        rebuilt = set()
        for piece in dec.pieces:
            pts = set(piece.points())
            assert not (rebuilt & pts)
            rebuilt |= pts
        assert rebuilt == f.support()


def test_decompose_profile_invariant_under_transform():
    rng = SplitMix64(77)
    for base in (two_affine(6, 3), counterexample_padded(6)):
        ref = decompose(base)
        ref_profile = sorted(p.dim for p in ref.pieces)
        for _ in range(5):
            g = apply_transform(base, random_invertible(6, rng))
            dec = decompose(g)
            assert sorted(p.dim for p in dec.pieces) == ref_profile
            assert len(dec.pieces) == len(ref.pieces)


def test_decompose_main_lemma_range_k5():
    # k = 5 instance: 2 pieces of dimension n-k even at the minimum width
    f = two_affine(9, 5)
    dec = decompose(f)
    assert sorted(p.dim for p in dec.pieces) == [4, 4]
    assert verify_decomposition(f, dec)


def test_decompose_with_the_callers_spectrum_matches_n4():
    checked = 0
    for table in range(1, 1 << 16):
        f = BooleanFunction(4, table)
        s = wht(f)
        cls = classify(s)
        if cls.tag == TAG_OUT_OF_SCOPE:
            continue
        assert decompose(f, s, cls) == decompose(f)
        checked += 1
    assert checked == 2827


def test_decompose_rejects_out_of_scope_and_zero():
    with pytest.raises(SpectrumScopeError):
        decompose(OR2)
    with pytest.raises(SpectrumScopeError):
        decompose(BooleanFunction(3, 0))


def test_four_pieces_of_an_embedded_exceptional_core_are_mandated():
    # k = 6 overall, but the support spans only 8 dimensions, so the core
    # has k = 4 and four 3-flats are the mandated profile
    f = tensor(counterexample_padded(8), delta(2))
    dec = decompose(f)
    assert (dec.classification.k, dec.classification.m) == (6, 2)
    assert sorted(p.dim for p in dec.pieces) == [3, 3, 3, 3]
    assert verify_decomposition(f, dec)


def test_four_pieces_are_rejected_unless_the_core_has_k4():
    # halving both 3-flats of a k = 3 core covers the support exactly with
    # four 2-flats, a profile the theorem does not allow there
    f = two_affine(6, 3)
    dec = decompose(f)
    halves = []
    for piece in dec.pieces:
        first, *rest = piece.direction.basis
        sub = Subspace.spanned_by(6, rest)
        halves += [AffineSubspace(piece.shift, sub), AffineSubspace(piece.shift ^ first, sub)]
    assert sorted(p.dim for p in halves) == [2, 2, 2, 2]
    assert not verify_decomposition(f, Decomposition(tuple(halves), dec.classification))


def test_decompose_all_ones_single_whole_space_piece():
    dec = decompose(all_ones(3))
    assert len(dec.pieces) == 1
    assert dec.pieces[0].dim == 3


def test_verify_decomposition_flags_wrong_cover():
    f = two_affine(5, 2)
    dec = decompose(f)
    other = decompose(shift(f, 5))
    assert not verify_decomposition(shift(f, 5), dec) or f == shift(f, 5)
    assert verify_decomposition(shift(f, 5), other)


# --------------------------------------------- additive-structure theorems

def conforming_cores():
    yield two_affine(3, 2)
    yield two_affine(5, 2)
    yield two_affine(5, 3)
    yield two_affine(7, 4)
    yield two_affine(9, 5)
    yield counterexample_core()
    yield counterexample_padded(7)


def test_core_set_addition_properties():
    for core in conforming_cores():
        n = core.n
        sets = spectral_sets(wht(core))
        minus = sets.minus
        plus = sets.plus
        pair_sums = sumset(minus, minus)
        # pairwise sums stay inside the positive class (plus the origin)
        assert pair_sums.members <= plus.members | {0}
        # the negative class is sum-free
        assert not (pair_sums.members & minus.members)
        # double and triple sums never meet
        triple_sums = sumset(pair_sums, minus)
        assert not (pair_sums.members & triple_sums.members)
        # the spectrum vanishes on every triple gap
        coeffs = wht(core).coeffs
        assert all(coeffs[g] == 0 for g in sets.triple_gaps.members)


def test_regular_cores_have_subspace_double_sums():
    # for k >= 3 the pairwise sums of the negative class form a subspace of
    # dimension k-1 and the class spans 2^k points (k = 2 degenerates: a
    # singleton class only sums to {0})
    for k in (3, 4, 5):
        core = two_affine(2 * k - 1, k)
        sets = spectral_sets(wht(core))
        pair_sums = sumset(sets.minus, sets.minus)
        span = linear_span(core.n, pair_sums.members)
        assert span.dim == k - 1
        assert len(pair_sums) == 1 << (k - 1)
        assert linear_span(core.n, sets.minus.members).dim == k


def test_exceptional_core_double_sums_not_a_subspace():
    sets = spectral_sets(wht(counterexample_core()))
    pair_sums = sumset(sets.minus, sets.minus)
    assert len(pair_sums) == 22  # not a power of two


# ------------------------------------------------------------ kill number

def test_kill_number_examples():
    assert kill_number(all_ones(3)) == 0
    assert kill_number(BooleanFunction(2, 0)) == 0
    assert kill_number(OR2) == 1
    assert kill_number(counterexample_core()) == 2


def test_kill_number_counterexample_witness():
    # f vanishes on {x1+x2 = 1, x3+x4 = 1}: no support point satisfies both
    f = counterexample_core()
    for x in f.support():
        c1 = (x ^ (x >> 1)) & 1
        c2 = ((x >> 2) ^ (x >> 3)) & 1
        assert not (c1 == 1 and c2 == 1)


def test_kill_number_bound_exhaustive_n3():
    for table in range(1, 1 << 8):
        f = BooleanFunction(3, table)
        cls = classify(wht(f))
        assert kill_number(f) <= cls.k + cls.m - 1


def test_first_constant_codim_agrees_with_kill_number_n_le_3():
    for n in (1, 2, 3):
        masks = [list(iter_affine_masks(n, n - c)) for c in range(n + 1)]
        for table in range(1 << (1 << n)):
            kill = kill_number(BooleanFunction(n, table))
            assert first_constant_codim(table, masks) == kill
            assert first_constant_codim(table, masks[:kill]) is None


def test_kill_number_rejects_large_n():
    with pytest.raises(ValueError):
        kill_number(BooleanFunction(9, 1))


# ------------------------------------------------------------ misc sanity

def test_two_affine_padded_with_delta_classifies_with_larger_k():
    f = tensor(two_affine(5, 2), delta(2))
    cls = classify(wht(f))
    assert (cls.tag, cls.k, cls.m) == (TAG_EXCEPTIONAL_K4, 4, 2)
    # the candidate tag resolves to a plain two-piece decomposition
    dec = decompose(f)
    assert sorted(p.dim for p in dec.pieces) == [3, 3]
