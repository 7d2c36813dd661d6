import dataclasses
import functools
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spec import structure
from f2spec.addcomb import sumset
from f2spec.boolfunc import BooleanFunction, apply_transform, shift, tensor
from f2spec.errors import SpectrumScopeError, TheoremViolationError
from f2spec.families import (
    affine_indicator,
    all_ones,
    counterexample_core,
    counterexample_padded,
    delta,
    two_affine,
)
from f2spec.fourier import Spectrum, wht
from f2spec.gf2 import (
    AffineSubspace,
    Subspace,
    affine_span,
    iter_affine_masks,
    linear_span,
    rref,
    transform_sending_to_first,
)
from f2spec.harness import SplitMix64, random_invertible, random_vector
from f2spec.structure import (
    TAG_EXCEPTIONAL_K4,
    TAG_OUT_OF_SCOPE,
    TAG_RVL,
    TAG_TRIVIAL,
    TAG_TWO_SUBSPACE,
    Classification,
    Decomposition,
    classify,
    decompose,
    first_constant_codim,
    kill_number,
    reduce_to_core,
    spectral_sets,
    triangle_neighbors,
    verify_decomposition,
)

from conftest import (
    dot,
    forged_w_spectrum,
    image,
    indicator_spectrum,
    is_full_affine_subspace,
    oracle_is_irreducible,
    oracle_lift_flat,
    oracle_lift_point,
    oracle_dense_reduce,
    oracle_classify,
    oracle_two_flat_pieces,
    shift_spectrum,
    oracle_span_points,
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


def test_classify_matches_the_oracle_on_every_n4_table():
    for table in range(1 << 16):
        s = wht(BooleanFunction(4, table))
        assert classify(s) == oracle_classify(s), table


@st.composite
def classify_tables(draw):
    """A table on 5 to 10 inputs (6 to 10 for counterexample-padded):
    random, a few points, or a seeded image of an affine, two-affine or
    counterexample-padded instance, so that every tag turns up."""
    n = draw(st.integers(5, 10))
    kind = draw(st.sampled_from(["random", "points", "affine", "two-affine", "counterexample"]))
    if kind == "random":
        return BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1)))
    if kind == "points":
        points = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
        return BooleanFunction.from_support(n, points)
    if kind == "affine":
        base = affine_indicator(n, draw(st.integers(0, n)))
    elif kind == "two-affine":
        base = two_affine(n, draw(st.integers(1, (n + 1) // 2)))
    else:
        base = counterexample_padded(max(n, 6))
    return image(base, draw(st.integers(0, 1 << 16)))


@settings(max_examples=200, deadline=None)
@given(classify_tables())
def test_classify_matches_the_oracle_at_larger_n(f):
    s = wht(f)
    assert classify(s) == oracle_classify(s)


def test_classify_shares_one_frozen_classification_per_shape():
    # two different lines of F_2^3 classify alike, to the same object
    a = classify(wht(BooleanFunction.from_support(3, [1, 6])))
    b = classify(wht(BooleanFunction.from_support(3, [0, 7])))
    assert a == Classification(TAG_RVL, 2, 1)
    assert a is b
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.tag = TAG_OUT_OF_SCOPE


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
    message = "^spectrum still has a reducible direction; reduce first$"
    with pytest.raises(ValueError, match=message):
        spectral_sets(wht(reducible))


def test_spectral_sets_requires_origin_in_support():
    f = shift(two_affine(5, 3), 8)  # support no longer contains 0
    assert f.value(0) == 0
    message = "^origin not in the support; shift the function first$"
    with pytest.raises(ValueError, match=message):
        spectral_sets(wht(f))


def test_spectral_sets_claim_sizes_for_all_generated_instances():
    for k in (2, 3, 4, 5):
        n = 2 * k - 1
        sets = spectral_sets(wht(two_affine(n, k)))
        t = (1 << (k - 1)) - 1
        assert len(sets.plus) == 3 * t
        assert len(sets.minus) == t


def test_decompose_builds_no_pair_sums_below_k4(monkeypatch):
    captured = []

    def recording(*args):
        captured.append(spectral_sets(*args))
        return captured[-1]

    monkeypatch.setattr(structure, "spectral_sets", recording)
    rng = SplitMix64(53)
    base = two_affine(12, 6)
    f = shift(apply_transform(base, random_invertible(12, rng)), random_vector(12, rng))
    decompose(f)
    (sets,) = captured
    assert sets.k == 6
    assert not {"double_sums", "plus_rest", "triple_gaps"} & set(vars(sets))


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
    assert oracle_is_irreducible(counterexample_core())
    assert not oracle_is_irreducible(tensor(OR2, delta(1)))
    for k in (2, 3):
        assert oracle_is_irreducible(two_affine(2 * k - 1, k))
    with pytest.raises(ValueError):
        oracle_is_irreducible(BooleanFunction(3, 0))


def test_all_ones_is_irreducible_and_two_point_reducible():
    assert oracle_is_irreducible(all_ones(3))
    assert not oracle_is_irreducible(BooleanFunction(3, 0b11))  # {0,1} fits a line


# --------------------------------------------------------------- reduction

def test_reduce_tensor_with_delta_recovers_core_exactly():
    base = two_affine(5, 2)
    padded = tensor(base, delta(2))
    core, trace = reduce_to_core(padded)
    # base is constant along e4 and e5, which the quotient drops, and the
    # two padding inputs are confined to 0, which the restriction drops
    assert core == two_affine(3, 2)
    assert (trace.original_n, trace.core_n, trace.shift) == (7, 3, 0)
    assert (trace.columns, trace.kernel) == ((1, 2, 4), (8, 16))
    # 0 is a support point: the lift is the inclusion
    assert [oracle_lift_point(trace, y) for y in range(8)] == list(range(8))
    # the dense route keeps e4 and e5 in its core, which is base itself
    dense_core, dense_trace = oracle_dense_reduce(padded)
    assert dense_core == base
    assert (dense_trace.core_n, dense_trace.shift, dense_trace.kernel) == (5, 0, ())
    assert [oracle_lift_point(dense_trace, y) for y in range(32)] == list(range(32))


def test_reduce_irreducible_is_identity():
    f = counterexample_core()
    core, trace = reduce_to_core(f)
    assert core == f
    assert (trace.core_n, trace.shift, trace.columns) == (6, 0, (1, 2, 4, 8, 16, 32))
    assert trace.kernel == ()


def test_reduce_handles_negative_coefficient_via_shift():
    padded = tensor(two_affine(5, 2), delta(1))
    # shifting by e6 flips the sign of the big coefficient at mask 32
    flipped = shift(padded, 1 << 5)
    assert wht(flipped).coeffs[32] == -wht(flipped).coeffs[0]
    core, trace = reduce_to_core(flipped)
    assert core == two_affine(3, 2)
    assert (trace.core_n, trace.shift, trace.kernel) == (3, 1 << 5, (8, 16))
    dense_core, dense_trace = oracle_dense_reduce(flipped)
    assert dense_core == two_affine(5, 2)
    assert (dense_trace.core_n, dense_trace.shift) == (5, 1 << 5)


def test_reduce_trace_lifts_core_support_onto_original():
    rng = SplitMix64(5)
    base = tensor(two_affine(3, 2), delta(2))
    f = shift(apply_transform(base, random_invertible(5, rng)), random_vector(5, rng))
    core, trace = reduce_to_core(f)
    # the nonzero coefficient positions span F_2^5: nothing is quotiented
    assert trace.kernel == ()
    lifted = {oracle_lift_point(trace, x) for x in core.support()}
    assert lifted == f.support()
    # lifting all core points is injective onto a full affine subspace
    all_lifted = {oracle_lift_point(trace, x) for x in range(1 << core.n)}
    assert len(all_lifted) == 1 << core.n
    assert is_full_affine_subspace(f.n, all_lifted)


def _seeded_reducible_images():
    """Random images of two instances whose support spans a codimension-2
    flat: two-affine k = 3 embedded in a codimension-2 subspace, and the
    counterexample tensored with the point indicator on two more inputs."""
    rng = SplitMix64(17)
    images = []
    for base in (tensor(two_affine(7, 3), delta(2)), tensor(counterexample_core(), delta(2))):
        for _ in range(4):
            m = random_invertible(base.n, rng)
            images.append(shift(apply_transform(base, m), random_vector(base.n, rng)))
    return images


def test_reduce_to_core_ends_irreducible_on_the_affine_span():
    # two_affine(7, 3) is constant along two directions, which the
    # quotient drops; the counterexample core is constant along none
    kernels = []
    for f in _seeded_reducible_images():
        core, trace = reduce_to_core(f)
        assert oracle_is_irreducible(core)
        kernels.append(len(trace.kernel))
        assert core.n == f.n - 2 - len(trace.kernel) == trace.core_n
        assert oracle_dense_reduce(f)[1].core_n == f.n - 2
    assert kernels == [2] * 4 + [0] * 4


def test_lift_flat_lifts_every_point():
    rng = SplitMix64(23)
    for f in _seeded_reducible_images():
        core, trace = reduce_to_core(f)
        for _ in range(6):
            gens = [random_vector(core.n, rng) for _ in range(rng.below(core.n + 1))]
            flat = AffineSubspace(random_vector(core.n, rng), linear_span(core.n, gens))
            lifted = oracle_lift_flat(trace, flat)
            assert lifted.n == f.n and lifted.dim == flat.dim
            assert set(lifted.points()) == {oracle_lift_point(trace, x) for x in flat.points()}
            # the trace's own lift adds the directions along which f is constant
            kernel = oracle_span_points(list(trace.kernel))
            assert set(trace.lift(flat).points()) == {
                x ^ v for x in lifted.points() for v in kernel
            }


@functools.cache
def _two_subspace_tables_up_to_n4():
    """(f, spectrum, classification) for every in-scope m = 2 table, n <= 4."""
    cases = []
    for n in range(1, 5):
        for table in range(1, 1 << (1 << n)):
            f = BooleanFunction(n, table)
            s = wht(f)
            cls = classify(s)
            if cls.tag in (TAG_TWO_SUBSPACE, TAG_EXCEPTIONAL_K4):
                cases.append((f, s, cls))
    return tuple(cases)


def test_reduce_to_core_restricts_to_the_affine_span():
    cases = list(_two_subspace_tables_up_to_n4())
    assert len(cases) > 2520  # the 2,520 tables at n = 4 and the smaller ones
    cases += [(f, wht(f), None) for f in _seeded_reducible_images()]
    for f, s, cls in cases:
        core, trace = reduce_to_core(f, s, cls)
        assert core.value(0)
        assert oracle_is_irreducible(core)
        d = len(trace.kernel)
        assert linear_span(f.n, trace.kernel).dim == d
        assert trace.core_n == core.n == affine_span(f.n, f.support()).dim - d
        assert trace.core_spectrum == wht(core)
        assert trace.core_classification == classify(wht(core))
        # core(y) = f(lift(y)) for every y, and the support is the lifted
        # core support plus the span of the kernel
        lifted = [oracle_lift_point(trace, y) for y in range(1 << core.n)]
        assert [core.value(y) for y in range(1 << core.n)] == list(map(f.value, lifted))
        kernel = oracle_span_points(list(trace.kernel))
        assert {x ^ v for x in map(lifted.__getitem__, core.support()) for v in kernel} == f.support()


def test_core_spectrum_gathers_only_the_kept_coefficients():
    # reduce_to_core gathers the 2^core_n coefficients it keeps; the oracle
    # reads all 2^n: f is 1 on lift(core) + span(kernel), so F vanishes off
    # the annihilator of the kernel, and on it F(alpha) is 2^dim(kernel)
    # (-1)^<alpha, shift> times the core's coefficient at C^T alpha, for C
    # the matrix of the lift columns.  On the dense route, which keeps the
    # kernel in its core, the transform's last n - w columns are the lift's
    cases = [(f, wht(f), None) for f in _seeded_reducible_images()]
    for table in range(1, 1 << 16):
        f = BooleanFunction(4, table)
        s = wht(f)
        cls = classify(s)
        if cls.tag in structure.IN_SCOPE_TAGS:
            cases.append((f, s, cls))
    reducible = 0
    for f, s, cls in cases:
        core, trace = reduce_to_core(f, s, cls)
        d = len(trace.kernel)
        gathered = {}
        for alpha, c in enumerate(s.coeffs):
            if any(dot(alpha, v) for v in trace.kernel):
                assert c == 0
                continue
            b = sum(dot(alpha, col) << j for j, col in enumerate(trace.columns))
            value = (-c if dot(alpha, trace.shift) else c) >> d
            assert gathered.setdefault(b, value) == value
        assert tuple(map(gathered.__getitem__, range(1 << core.n))) == trace.core_spectrum.coeffs
        assert trace.core_spectrum == wht(core)
        dense_core, dense = oracle_dense_reduce(f, s, cls)
        w = f.n - dense.core_n
        if w == 0:
            continue
        reducible += 1
        # L from W's rref rows, found by a scan of every mask: its last
        # n - w columns are the dense lift columns
        coeffs = shift_spectrum(s, trace.shift).coeffs
        basis = rref(a for a in range(1, 1 << f.n) if coeffs[a] == coeffs[0])
        m = transform_sending_to_first(f.n, basis)
        assert m.columns()[w:] == dense.columns
        assert dense.core_spectrum == wht(dense_core)
    # the eight seeded images and the 1,986 in-scope n = 4 tables whose
    # support spans a proper flat
    assert reducible == 8 + 1986


def test_reduce_rejects_out_of_scope():
    with pytest.raises(SpectrumScopeError):
        reduce_to_core(OR2)


def test_reduce_rejects_the_zero_function():
    with pytest.raises(SpectrumScopeError):
        reduce_to_core(BooleanFunction(3, 0))


@pytest.mark.parametrize("w_f", [(0, 1, 2), (0, 1, 5, 6), (0, 1, 4, 6)])
def test_masks_with_coefficient_f0_off_a_subspace_raise_a_violation(w_f):
    # three masks are no subspace; {0, 1, 5, 6} and {0, 1, 4, 6} have four
    # members, so a count alone passes them, and the transform refuses the
    # rows 5, 1 of the first with ValueError
    f = BooleanFunction.from_support(4, [0, 3, 9, 10])
    s = forged_w_spectrum(4, w_f)
    cls = classify(s)
    assert (cls.tag, cls.k, cls.m) == (TAG_TWO_SUBSPACE, 3, 2)
    for call in (reduce_to_core, decompose):
        with pytest.raises(TheoremViolationError, match="subspace"):
            call(f, s, cls)


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


def _is_mandated_partition(f, dec) -> bool:
    """Point-set check of a decomposition, independent of the library's
    verification: each piece's points are built here from its shift and
    basis; the dimensions are the mandated ones, the pieces are pairwise
    disjoint, and their union is the support."""
    k, m = dec.classification.k, dec.classification.m
    core_k = k - (f.n - affine_span(f.n, f.support()).dim)
    dims = sorted(p.dim for p in dec.pieces)
    if m == 1:
        mandated = dims == [f.n - k]
    else:
        mandated = dims == [f.n - k] * 2 or (core_k == 4 and dims == [f.n - k - 1] * 4)
    union = set()
    for piece in dec.pieces:
        pts = {piece.shift ^ x for x in oracle_span_points(list(piece.direction.basis))}
        if len(pts) != 1 << piece.dim or union & pts:
            return False
        union |= pts
    return mandated and union == f.support()


def test_decompose_partitions_the_support_into_mandated_flats():
    rng = SplitMix64(29)
    cases = [f for f, _, _ in _two_subspace_tables_up_to_n4()] + _seeded_reducible_images()
    for base in (
        tensor(two_affine(3, 2), delta(2)),
        tensor(two_affine(5, 2), delta(3)),
        tensor(counterexample_core(), delta(3)),
        tensor(two_affine(7, 4), delta(2)),
    ):
        for _ in range(3):
            m = random_invertible(base.n, rng)
            cases.append(shift(apply_transform(base, m), random_vector(base.n, rng)))
    for f in cases:
        assert _is_mandated_partition(f, decompose(f)), f


def test_structural_recovery_needs_no_partition_search(monkeypatch):
    # no search is left to fall back on: the pieces are the pieces of the
    # one core route, called once per input on the core of f, and lifted to
    # f through the reduction's trace
    assert not hasattr(structure, "find_flat_partition")
    route, reduce = structure._decompose_core, structure.reduce_to_core
    found, traces = [], []

    def recording(*args):
        found.append(route(*args))
        return found[-1]

    def reducing(*args):
        core, trace = reduce(*args)
        traces.append(trace)
        return core, trace

    monkeypatch.setattr(structure, "_decompose_core", recording)
    monkeypatch.setattr(structure, "reduce_to_core", reducing)
    rng = SplitMix64(41)
    for base in (
        counterexample_core(),
        counterexample_padded(8),
        tensor(counterexample_core(), delta(2)),
        two_affine(3, 2),
        tensor(two_affine(5, 2), delta(2)),
        two_affine(7, 3),
        tensor(two_affine(7, 4), delta(1)),
    ):
        for _ in range(3):
            m = random_invertible(base.n, rng)
            f = shift(apply_transform(base, m), random_vector(base.n, rng))
            found.clear()
            traces.clear()
            dec = decompose(f)
            assert _is_mandated_partition(f, dec), f
            assert len(found) == 1 and found[0] is not None
            (trace,) = traces
            assert dec.pieces == tuple(map(trace.lift, found[0]))
            # each piece is its core flat, lifted point by point, plus the
            # span of the kernel
            kernel = oracle_span_points(list(trace.kernel))
            for piece, flat in zip(dec.pieces, found[0]):
                lifted = {oracle_lift_point(trace, y) ^ v for y in flat.points() for v in kernel}
                assert set(piece.points()) == lifted


def _two_flat_cores():
    """(core, core spectrum, spectral sets) of the m = 2 core of every
    in-scope table at n <= 4, of two seeded images of two_affine(n, k)
    for each n = 5..12 and k >= 2, and of one for each n = 13..19 and
    k = 7..10, where the triple gap is the sum of a negative class of
    63 to 511 masks; none of them has the four-flat k = 4 profile."""
    rng = SplitMix64(43)
    cases = list(_two_subspace_tables_up_to_n4())
    sizes = [(n, k, 2) for n in range(5, 13) for k in range(2, (n + 1) // 2 + 1)]
    sizes += [(n, k, 1) for n in range(13, 20) for k in range(7, min(10, (n + 1) // 2) + 1)]
    for n, k, images in sizes:
        for _ in range(images):
            m = random_invertible(n, rng)
            f = shift(apply_transform(two_affine(n, k), m), random_vector(n, rng))
            cases.append((f, None, None))
    for f, s, cls in cases:
        core, trace = reduce_to_core(f, s, cls)
        yield core, trace.core_spectrum, spectral_sets(trace.core_spectrum)


def test_two_flat_pieces_match_the_coset_split_oracle():
    checked = 0
    for core, s, sets in _two_flat_cores():
        pieces = structure._two_flat_pieces(sets)
        assert pieces is not None
        assert pieces == oracle_two_flat_pieces(core, sets), core
        # the closed-form spectra of the two pieces add up to the core's
        total = [0] * (1 << core.n)
        for piece in pieces:
            # the masks orthogonal to every basis vector, one vector at a time
            perp = range(1 << core.n)
            for v in piece.direction.basis:
                perp = [a for a in perp if not dot(a, v)]
            indicator = indicator_spectrum(core.n, piece.shift, perp, core.n - piece.dim)
            total = list(map(add, total, indicator))
        assert tuple(total) == s.coeffs
        checked += 1
    assert checked == 2648  # 2,576 cores from n <= 4, 56 images to n = 12, 16 beyond


def test_decompose_raises_when_the_two_flat_route_fails(monkeypatch):
    route = structure._two_flat_pieces

    def swapped(sets):
        # the mandated dimensions, but with the shifts swapped they miss
        # the support of these inputs
        first, second = route(sets)
        return (
            AffineSubspace(first.shift, second.direction),
            AffineSubspace(second.shift, first.direction),
        )

    rng = SplitMix64(47)
    images = []
    for base in (two_affine(5, 2), two_affine(7, 3)):
        for _ in range(2):
            m = random_invertible(base.n, rng)
            images.append(shift(apply_transform(base, m), random_vector(base.n, rng)))
    def one_piece(sets):
        # a single flat: the pieces miss the mandated profile
        return route(sets)[:1]

    for patched in (one_piece, swapped):
        monkeypatch.setattr(structure, "_two_flat_pieces", patched)
        for f in images:
            with pytest.raises(TheoremViolationError):
                decompose(f)


def test_decompose_raises_when_the_core_route_raises(short_negative_class):
    # spectral_sets rejects the short class with ValueError, on the
    # two-flat route (k = 2, 3) and on the four-flat route (k = 4)
    for f in (two_affine(3, 2), two_affine(7, 3), counterexample_padded(8)):
        with pytest.raises(TheoremViolationError) as info:
            decompose(f)
        assert isinstance(info.value.__cause__, ValueError)


def test_decompose_raises_when_the_four_flat_route_peels_a_wrong_flat(monkeypatch):
    # _greedy_four_pieces raises on a peeled flat of the wrong dimension
    # itself: each flat comes back with one basis vector dropped
    peel = structure.max_flat_through

    def short(n, x, points):
        flat = peel(n, x, points)
        return AffineSubspace(flat.shift, Subspace(n, flat.direction.basis[1:]))

    monkeypatch.setattr(structure, "max_flat_through", short)
    with pytest.raises(TheoremViolationError, match="dimension 0, not 1"):
        decompose(image(counterexample_padded(8), 3))


@pytest.mark.parametrize("base", [two_affine(3, 2), two_affine(7, 3), two_affine(11, 5)])
def test_decompose_raises_when_the_classes_name_no_two_flats(swapped_classes, base):
    # the class sizes are right, so spectral_sets passes them; the subspace
    # reader or the verification refuses the pieces, never with a
    # ValueError or an IndexError
    for f in (base, image(base, 5), image(base, 6)):
        with pytest.raises(TheoremViolationError):
            decompose(f)


def test_decompose_raises_on_a_one_flat_spectrum_with_too_few_masks():
    # Parseval forces 2^k nonzero coefficients on an m = 1 spectrum
    f = affine_indicator(6, 3)
    s = wht(f)
    coeffs = list(s.coeffs)
    coeffs[max(a for a, c in enumerate(coeffs) if c)] = 0
    forged = Spectrum(6, tuple(coeffs))
    assert classify(forged) == classify(s) == Classification(TAG_RVL, 3, 1)
    with pytest.raises(TheoremViolationError):
        decompose(f, forged)


def test_decompose_raises_on_one_flat_rows_that_share_a_pivot():
    # 2^k masks whose members at indices 1 and 2, 4 and 6, have one pivot
    forged = Spectrum(3, (2, 0, 0, 0, 2, 0, 2, -2))
    assert classify(forged) == Classification(TAG_RVL, 2, 1)
    with pytest.raises(TheoremViolationError):
        decompose(affine_indicator(3, 2), forged)


def test_decompose_of_an_irreducible_image_builds_no_matrix(monkeypatch):
    calls = []
    for name in ("transform_sending_to_first", "restrict_first_bit", "apply_transform"):
        monkeypatch.setattr(structure, name, lambda *args, _n=name: calls.append(_n))
    rng = SplitMix64(31)
    f = shift(apply_transform(two_affine(8, 3), random_invertible(8, rng)), random_vector(8, rng))
    dec = decompose(f)
    assert calls == []
    assert _is_mandated_partition(f, dec)


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
        sub = linear_span(6, rest)
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


@pytest.mark.parametrize("weight", range(2, 7))
def test_exceptional_cores_at_dimension_6_are_one_class(weight):
    # every irreducible 8-point set on F_2^6 through 0 is a GL(6) image of
    # {0, e_1, ..., e_6, p}, with p fixed up to permutation by its weight;
    # only weight 6 is in scope: the counterexample core moved by all-ones
    p = (1 << weight) - 1
    f = BooleanFunction.from_support(6, [0, p] + [1 << i for i in range(6)])
    cls = classify(wht(f))
    if weight < 6:
        assert cls == Classification(TAG_OUT_OF_SCOPE, 5, 4)
        return
    assert cls == Classification(TAG_EXCEPTIONAL_K4, 4, 2, 7)
    assert shift(f, 0b111111) == counterexample_core()
    # k = 4 and |B + B| = 22 choose the four-flat route
    assert len(spectral_sets(wht(f)).double_sums) == 21
    rng = SplitMix64(weight)
    images = [f]
    for _ in range(3):
        images.append(apply_transform(f, random_invertible(6, rng)))
        images.append(shift(f, random_vector(6, rng)))
    for g in images:
        dec = decompose(g)
        assert dec.classification.tag == TAG_EXCEPTIONAL_K4
        assert [piece.dim for piece in dec.pieces] == [1] * 4


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
