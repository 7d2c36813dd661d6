import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spec.gf2 import (
    AffineSubspace,
    GF2Matrix,
    Subspace,
    affine_span,
    complement_generators,
    is_rref,
    iter_affine_masks,
    linear_span,
    max_flat_through,
    orthogonal_complement,
    rref,
    span_points,
    swap_masks,
    transform_sending_to_first,
    xor_translate,
)

from conftest import (
    dot,
    flat_masks_both_ways,
    identity_matrix,
    is_full_affine_subspace,
    iter_subspaces,
    oracle_apply,
    oracle_flat_partition,
    oracle_inverse,
    oracle_rank,
    oracle_shift,
    oracle_span_points,
    oracle_transform_sending_to_first,
    transpose_matrix,
)

CE_MINUS_CLASS = [1, 2, 4, 8, 16, 32, 63]


def test_dot_examples():
    # (1,1,0).(0,1,1) share exactly the middle coordinate
    assert dot(0b011, 0b110) == 1
    assert dot(0b101, 0) == 0
    assert dot(0b111, 0b111) == 1


def test_linear_span_empty_is_zero_subspace():
    s = linear_span(4, [])
    assert s.dim == 0
    assert s.points() == [0]


def test_linear_span_standard_vectors():
    s = linear_span(4, [1, 2])
    assert s.dim == 2
    assert sorted(s.points()) == [0, 1, 2, 3]


def test_linear_span_absorbs_dependent_vector():
    assert linear_span(4, [1, 2, 3]).dim == 2


def test_linear_span_rejects_a_bad_dimension_or_vector():
    for n in (-1, 25):
        with pytest.raises(ValueError, match="dimension"):
            linear_span(n, [])
    for v in (16, -1):
        with pytest.raises(ValueError, match="does not fit"):
            linear_span(4, [1, v])
    assert linear_span(4, [15]).basis == (15,)


def test_span_points_are_the_subset_sums_in_counting_order():
    rng = random.Random(11)
    cases = [[], [0], [5], [1, 2, 4], [3, 3], [1, 2, 3], [6, 0, 6, 5], [7, 1, 6, 1]]
    cases += [[rng.getrandbits(6) for _ in range(rng.randint(0, 8))] for _ in range(40)]
    for vectors in cases:
        assert span_points(vectors) == oracle_span_points(vectors), vectors
    # entry y is the sum over the set bits of y, repeats and zeros included
    assert span_points([]) == [0]
    assert span_points([3, 3]) == [0, 3, 3, 0]
    assert span_points(iter([4, 0, 1])) == [0, 4, 0, 4, 1, 5, 1, 5]


def test_linear_span_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 8)
        pts = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        s = linear_span(n, pts)
        assert linear_span(n, s.points()) == s
        extra = pts + [rng.randrange(1 << n)]
        bigger = linear_span(n, extra)
        assert all(bigger.contains(p) for p in s.points())


def test_affine_span_single_point():
    a = affine_span(5, [19])
    assert a.dim == 0
    assert a.points() == [19]


def test_affine_span_with_zero_is_linear():
    a = affine_span(4, [0, 6])
    assert a.shift == 0
    assert sorted(a.points()) == [0, 6]


def test_affine_span_of_counterexample_class_is_everything():
    a = affine_span(6, CE_MINUS_CLASS)
    assert a.dim == 6
    assert len(a.points()) == 64


def test_affine_span_contains_points_and_has_power_of_two_size():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        pts = {rng.randrange(1 << n) for _ in range(rng.randint(1, 8))}
        a = affine_span(n, pts)
        covered = set(a.points())
        assert pts <= covered
        assert len(covered) == 1 << a.dim


def test_affine_subspace_shift_is_minimum_of_coset():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 8)
        direction = linear_span(n, [rng.randrange(1 << n) for _ in range(3)])
        v = rng.randrange(1 << n)
        flat = AffineSubspace(v, direction)
        assert flat.shift == min(flat.points())
        assert flat.contains(v)


def test_orthogonal_complement_of_standard_span():
    v = linear_span(5, [1, 2])
    w = orthogonal_complement(v)
    assert w == linear_span(5, [4, 8, 16])


def test_orthogonal_complement_of_zero_subspace():
    w = orthogonal_complement(Subspace(3, ()))
    assert w.dim == 3


@given(st.integers(1, 8), st.data())
def test_orthogonal_complement_involution_and_dims(n, data):
    gens = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=5)
    )
    v = linear_span(n, gens)
    w = orthogonal_complement(v)
    assert v.dim + w.dim == n
    assert orthogonal_complement(w) == v
    for r in v.basis:
        for s in w.basis:
            assert dot(r, s) == 0


def test_is_full_affine_subspace():
    assert is_full_affine_subspace(4, [5, 5 ^ 3, 5 ^ 8, 5 ^ 11])
    assert not is_full_affine_subspace(4, [0, 1, 2])
    ce_support = [0, 31, 47, 55, 59, 61, 62, 63]
    assert not is_full_affine_subspace(6, ce_support)
    with pytest.raises(ValueError):
        is_full_affine_subspace(4, [])


def test_transform_sending_e1_to_e1_is_identity():
    assert transform_sending_to_first(4, (1,)) == identity_matrix(4)


def test_transform_rejects_zero():
    with pytest.raises(ValueError):
        transform_sending_to_first(4, (0,))


def test_transform_sending_to_first_needs_an_echelon_basis():
    # rows sharing a highest bit, a zero row, a vector too wide
    for basis in [(3, 2), (5, 4, 1), (2, 0), (16,)]:
        with pytest.raises(ValueError):
            transform_sending_to_first(4, basis)
    # echelon but not reduced: the pivot bit of 2 is set in 6 too, and
    # the closed form would give another L than elimination on (6, 2)
    with pytest.raises(ValueError):
        transform_sending_to_first(3, (6, 2))
    assert transform_sending_to_first(4, ()) == identity_matrix(4)
    assert transform_sending_to_first(3, (4, 2, 1)) == GF2Matrix.from_rows(3, [4, 2, 1])


def test_transform_moves_or_coefficient():
    # OR on two bits has scaled spectrum (3, -1, -1, -1); after the
    # transform for mask 3 the coefficient at e1 must equal F(3) = -1.
    from f2spec.boolfunc import BooleanFunction, apply_transform
    from f2spec.fourier import wht

    f = BooleanFunction(2, 0b1110)
    m = transform_sending_to_first(2, (3,))
    g = apply_transform(f, m)
    assert wht(g).coeffs[1] == wht(f).coeffs[3] == -1


def test_transform_matches_echelon_completion_oracle_up_to_n10():
    for n in range(1, 11):
        for alpha in range(1, 1 << n):
            expected = oracle_transform_sending_to_first(n, (alpha,))
            assert transform_sending_to_first(n, (alpha,)) == expected


def test_transform_matches_gauss_jordan_on_every_rref_basis_up_to_n5():
    bases = 0
    for n in range(6):
        for d in range(n + 1):
            for sub in iter_subspaces(n, d):
                expected = oracle_transform_sending_to_first(n, sub.basis)
                assert transform_sending_to_first(n, sub.basis) == expected
                bases += 1
    # the subspaces of F_2^n for n = 0..5: 1, 2, 5, 16, 67, 374
    assert bases == 465


def test_transform_matches_gauss_jordan_on_random_rref_bases_n6_to_n16():
    rng = random.Random(17)
    for n in range(6, 17):
        for _ in range(100):
            d = rng.randint(0, n)
            basis = rref(rng.getrandbits(n) for _ in range(d))
            expected = oracle_transform_sending_to_first(n, basis)
            assert transform_sending_to_first(n, basis) == expected


def test_transform_composed_with_inverse_is_identity_pointwise():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 8)
        alpha = rng.randrange(1, 1 << n)
        m = transform_sending_to_first(n, (alpha,))
        inverse = oracle_inverse(m)
        for _ in range(10):
            x = rng.randrange(1 << n)
            assert oracle_apply(inverse, oracle_apply(m, x)) == x
            assert oracle_apply(m, oracle_apply(inverse, x)) == x


def test_matrix_construction_rejects_singular():
    with pytest.raises(ValueError):
        GF2Matrix.from_rows(2, (1, 1))
    for n, rows in [(2, (1, 1)), (3, (1, 2, 3)), (3, (5, 0, 2)), (4, (15, 9, 6, 3))]:
        with pytest.raises(ValueError, match="singular"):
            GF2Matrix(n, rows)
    # a wrong row count or a row too wide is rejected too
    for n, rows in [(2, (1,)), (2, (1, 2, 3)), (2, (4, 1))]:
        with pytest.raises(ValueError):
            GF2Matrix(n, rows)


def test_matrix_rank_check_accepts_exactly_the_general_linear_group():
    # |GL(n, 2)| = prod (2^n - 2^i): 168 for n = 3, 20,160 for n = 4
    for n, order in [(3, 168), (4, 20_160)]:
        accepted = 0
        for rows in product(range(1 << n), repeat=n):
            try:
                GF2Matrix.from_rows(n, rows)
            except ValueError:
                assert oracle_rank(rows) < n
                continue
            assert oracle_rank(rows) == n
            accepted += 1
        assert accepted == order


def test_matrix_transpose_spectral_consistency():
    m = GF2Matrix.from_rows(3, (3, 6, 4))
    t = transpose_matrix(m)
    for i in range(3):
        for j in range(3):
            assert ((m.rows[i] >> j) & 1) == ((t.rows[j] >> i) & 1)


def gaussian_binomial(n, k):
    num = 1
    den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iter_subspaces_counts(n):
    for dim in range(n + 1):
        subs = list(iter_subspaces(n, dim))
        assert len(subs) == gaussian_binomial(n, dim)
        assert len(set(subs)) == len(subs)
        assert all(s.dim == dim for s in subs)


def test_iter_affine_masks_counts_and_sizes():
    for n in range(8):
        for dim in range(n + 1):
            masks = list(iter_affine_masks(n, dim))
            assert len(masks) == gaussian_binomial(n, dim) << (n - dim), (n, dim)
            assert all(m.bit_count() == 1 << dim for m in masks), (n, dim)
            assert len(set(masks)) == len(masks), (n, dim)


def test_affine_masks_of_dimension_0_are_the_points_in_order():
    for n in range(9):
        assert list(iter_affine_masks(n, 0)) == [1 << x for x in range(1 << n)]


def test_max_flat_through_finds_pair_in_counterexample_support():
    supp = [0, 31, 47, 55, 59, 61, 62, 63]
    flat = max_flat_through(6, 0, supp)
    assert flat.dim == 1  # no 2-flat lives inside this support
    assert set(flat.points()) <= set(supp)


def test_oracle_flat_partition_on_full_space():
    # F_2^2 splits into two parallel lines
    parts = oracle_flat_partition(2, [0, 1, 2, 3], 1, 2)
    assert parts is not None
    assert sorted(p.dim for p in parts) == [1, 1]
    union = sorted(q for p in parts for q in p.points())
    assert union == [0, 1, 2, 3]


def test_oracle_flat_partition_counts_mismatch():
    assert oracle_flat_partition(3, [0, 1, 2], 1, 2) is None


def test_oracle_flat_partition_impossible_shape():
    # three collinear-free points plus one cannot form a 2-flat unless they
    # XOR to zero
    assert oracle_flat_partition(3, [0, 1, 2, 4], 2, 1) is None
    assert oracle_flat_partition(3, [0, 1, 2, 3], 2, 1) is not None


def test_swap_masks_hold_the_points_with_the_stride_bit_clear():
    for n in range(0, 8):
        masks = swap_masks(n)
        assert len(masks) == n
        for q, m in enumerate(masks):
            assert m == sum(1 << x for x in range(1 << n) if not (x >> q) & 1)


def test_flat_mask_is_every_flat_up_to_f2_3_both_ways():
    for n in range(4):
        for d in range(n + 1):
            for sub in iter_subspaces(n, d):
                for shift in range(1 << n):
                    points = AffineSubspace(shift, sub).points()
                    expected = sum(1 << x for x in points)
                    assert flat_masks_both_ways(shift, sub.basis, n) == [expected] * 2


@st.composite
def rref_flats(draw, max_n):
    """(shift, rref basis, n): the rref rows of a few random vectors."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vectors = st.integers(min_value=0, max_value=(1 << n) - 1)
    return draw(vectors), rref(draw(st.lists(vectors, max_size=n))), n


@settings(max_examples=60, deadline=None)
@given(rref_flats(16))
def test_flat_mask_is_the_points_of_rref_flats_up_to_n16_both_ways(flat):
    shift, basis, n = flat
    points = AffineSubspace(shift, Subspace(n, basis)).points()
    assert flat_masks_both_ways(shift, basis, n) == [sum(1 << x for x in points)] * 2


@given(rref_flats(7))
def test_flat_mask_holds_the_points_that_meet_every_parity(flat):
    # the flat is the x with <r, x> = <r, shift> for every r orthogonal to
    # the basis; the parities are read off all 2^n vectors r
    shift, basis, n = flat
    rows = [r for r in range(1 << n) if not any(dot(r, v) for v in basis)]
    expected = sum(
        1 << x for x in range(1 << n) if all(dot(r, x) == dot(r, shift) for r in rows)
    )
    assert flat_masks_both_ways(shift, basis, n) == [expected] * 2


def test_is_rref_accepts_exactly_what_rref_gives():
    rng = random.Random(29)
    for _ in range(3000):
        n = rng.randrange(1, 8)
        rows = tuple(rng.getrandbits(n + rng.randrange(2)) for _ in range(rng.randrange(5)))
        if rng.random() < 0.5:
            rows = rref(rows)
        expected = rref(rows) == rows and all(0 < r < 1 << n for r in rows)
        assert is_rref(rows, n) == expected, (rows, n)
        if len(rows) > 1 and expected:
            assert not is_rref(rows[::-1], n)


@given(st.integers(min_value=1, max_value=9), st.data())
def test_xor_translate_matches_the_oracle(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert xor_translate(bits, a, n) == oracle_shift(n, bits, a)


def test_complement_generators_span_the_orthogonal_complement():
    for n in range(1, 6):
        for d in range(n + 1):
            for sub in iter_subspaces(n, d):
                gens = complement_generators(n, sub.basis)
                assert len(gens) == n - d
                assert all(dot(g, r) == 0 for g in gens for r in sub.basis)
                assert linear_span(n, gens) == orthogonal_complement(sub)


def test_matrix_columns_are_the_images_of_the_unit_vectors():
    rng = random.Random(3)
    for n in range(1, 9):
        while True:
            try:
                m = GF2Matrix.from_rows(n, [rng.getrandbits(n) for _ in range(n)])
                break
            except ValueError:
                continue
        assert m.columns() == tuple(oracle_apply(m, 1 << i) for i in range(n))
        assert span_points(m.columns()) == [oracle_apply(m, x) for x in range(1 << n)]
