"""The linear-pass table plumbing, the lane-packed butterfly, the
bitset greedy, the spectral reduction rules and the whole-mask flat
enumeration against their bit-at-a-time references in conftest,
exhaustively at small n and by hypothesis up to n = 12."""

import random
import tracemalloc
from itertools import product, zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2spec import fourier, structure
from f2spec.boolfunc import (
    BooleanFunction,
    apply_transform,
    restrict_first_bit,
    shift,
    tensor,
)
from f2spec.families import (
    affine_indicator,
    counterexample_padded,
    delta,
    generate,
    two_affine,
)
from f2spec.fourier import (
    Spectrum,
    butterfly,
    is_boolean_spectrum,
    wht,
)
from f2spec.gf2 import (
    AffineSubspace,
    bits_to_int,
    int_to_bits,
    iter_affine_masks,
    linear_span,
    max_flat_through,
    transform_sending_to_first,
)
from f2spec.harness import SplitMix64, random_invertible, random_vector

from conftest import (
    image,
    iter_subspaces,
    oracle_affine_masks,
    oracle_apply_transform,
    oracle_butterfly,
    oracle_dense_reduce,
    oracle_kill_number,
    oracle_max_flat_basis,
    oracle_restrict_first_bit,
    oracle_shift,
    oracle_subspaces,
    oracle_support,
    oracle_unpack,
    reference_affine_masks,
    shift_spectrum,
    transform_spectrum,
)


def oracle_wht(n: int, table: int) -> tuple[int, ...]:
    vals = oracle_unpack(table, 1 << n)
    oracle_butterfly(vals)
    return tuple(vals)


def check_plumbing(n: int, table: int, shifts, transforms) -> None:
    f = BooleanFunction(n, table)
    assert f.support() == oracle_support(n, table)
    assert list(int_to_bits(table, 1 << n)) == oracle_unpack(table, 1 << n)
    assert wht(f).coeffs == oracle_wht(n, table)
    g0, g1 = restrict_first_bit(f)
    assert (g0.table, g1.table) == oracle_restrict_first_bit(n, table)
    for a in shifts:
        assert shift(f, a).table == oracle_shift(n, table, a)
    for m in transforms:
        assert apply_transform(f, m).table == oracle_apply_transform(n, table, m)


def test_plumbing_matches_oracles_on_every_table_up_to_n3():
    for n in (1, 2, 3):
        size = 1 << n
        transforms = [transform_sending_to_first(n, (a,)) for a in range(1, size)]
        for table in range(1 << size):
            check_plumbing(n, table, range(size), transforms)


def test_plumbing_matches_oracles_on_every_n4_table():
    # every table, each with one shift and one transform_sending_to_first in
    # rotation: each of the 16 shifts meets 4096 tables, each transform
    # about 4369; the full cross product is a million calls per operation
    transforms = [transform_sending_to_first(4, (a,)) for a in range(1, 16)]
    for table in range(1 << 16):
        check_plumbing(4, table, [table % 16], [transforms[table % 15]])


def test_bits_round_trip():
    for size in (1, 2, 4, 8, 16, 64, 1 << 10):
        value = random.Random(size).getrandbits(size)
        assert bits_to_int(int_to_bits(value, size)) == value
        assert bits_to_int(bytearray(int_to_bits(value, size))) == value


def oracle_blocks(values, n: int) -> tuple[int, ...]:
    """The loop oracle applied to each consecutive block of 2^n entries."""
    out = []
    for lo in range(0, len(values), 1 << n):
        block = list(values[lo : lo + (1 << n)])
        oracle_butterfly(block)
        out += block
    return tuple(out)


# _BLOCK_LANES at 1, 2 and 4 lanes cuts every input whose groups are longer
# into blocks of that many lanes, and runs the block stages from that
# stride on; at its default, only groups of n > 14 are cut, and an input
# of shorter groups is one block, however many lanes it holds
BLOCK_LANES = (1, 2, 4, fourier._BLOCK_LANES)


def test_butterfly_matches_loop_oracle_on_integer_vectors(monkeypatch):
    # 1,500 groups at n = 4 are 24,000 lanes, one block past the default
    # _BLOCK_LANES; each table's spectrum is transformed back as well
    rng = random.Random(11)
    for block_lanes, n in product(BLOCK_LANES, range(0, 11)):
        monkeypatch.setattr(fourier, "_BLOCK_LANES", block_lanes)
        for blocks in (1, 2, 5, 1500) if n == 4 else (1, 2, 5):
            values = [rng.randint(-50, 50) for _ in range(blocks << n)]
            expected = oracle_blocks(values, n)
            assert butterfly(values, n) == expected
            assert butterfly(tuple(values), n) == expected
            raw = bytes(rng.randrange(256) for _ in range(blocks << n))
            assert butterfly(raw, n) == oracle_blocks(raw, n)
            table = bytes(rng.randrange(2) for _ in range(blocks << n))
            spectrum = butterfly(table, n)
            assert spectrum == oracle_blocks(table, n)
            assert butterfly(spectrum, n) == oracle_blocks(spectrum, n)


def test_butterfly_is_exact_on_both_sides_of_every_lane_width(monkeypatch):
    # stage i runs on a lane that holds peak * 2^(i+1) with its sign.  Each
    # peak below puts that bound on one side of the 8-, 16-, 32- or 64-bit
    # lane, or far past them, after j of the n stages.  With _STAGED_LANES
    # at 1 every call widens its lanes at stage j; at its default, these
    # short inputs run every stage on the lane of the last.  With
    # _BLOCK_LANES below 2^n, the block stages run on the lane of the last
    # stage, 8 to 64 bits wide or, for the peak 2^70, wider
    bounds = [(1 << k) - d for k in (7, 15, 31, 63) for d in (1, 0)] + [1 << 70]
    for block_lanes, staged_lanes, n in product(
        BLOCK_LANES, (1, fourier._STAGED_LANES), (0, 1, 3, 6)
    ):
        monkeypatch.setattr(fourier, "_BLOCK_LANES", block_lanes)
        monkeypatch.setattr(fourier, "_STAGED_LANES", staged_lanes)
        for peak in sorted({bound >> j for bound in bounds for j in range(n + 1)}):
            for blocks in (1, 3):
                for values in (
                    [peak] * (blocks << n),
                    [-peak] * (blocks << n),
                    [(-peak, peak, 0, -1)[i % 4] for i in range(blocks << n)],
                    [peak if i % 3 else -peak for i in range(blocks << n)],
                    [(peak, 0, peak >> 1)[i % 3] for i in range(blocks << n)],
                ):
                    expected = oracle_blocks(values, n)
                    assert butterfly(values, n) == expected, (block_lanes, n, peak)
                    assert butterfly(tuple(values), n) == expected, (block_lanes, n, peak)
                    if min(values) >= 0 and peak < 256:  # 0/1 or arbitrary bytes
                        assert butterfly(bytes(values), n) == expected, (block_lanes, n, peak)


@pytest.mark.parametrize("n", [16, 18])
def test_butterfly_round_trip_widens_a_01_table_through_every_lane(n):
    # a 0/1 table at n = 16 or 18 runs the 14 masked stages of each 2^14-lane
    # block, 6 on 8-bit lanes and 8 on 16, then the block stages on 32; its
    # spectrum, a tuple, runs its masked stages on 32-bit lanes and its
    # block stages on 64
    rng = random.Random(n)
    bits = bytes(rng.getrandbits(1) for _ in range(1 << n))
    assert 0 < sum(bits) < len(bits)
    assert len(bits) > fourier._BLOCK_LANES >= fourier._STAGED_LANES
    assert butterfly(butterfly(bits, n), n) == tuple(b << n for b in bits)


@pytest.mark.parametrize("n", [15, 17])
def test_butterfly_block_stages_match_loop_oracle_at_real_size(n):
    # one and two groups past the default block: 1 and 3 block stages on
    # the 0/1 table's 32-bit lanes, on bytes of up to 255, packed as ints,
    # and on the signed values' 64-bit lanes
    assert 1 << n > fourier._BLOCK_LANES
    rng = random.Random(n)
    table = bytes(rng.getrandbits(1) for _ in range(2 << n))
    raw = bytes(rng.randrange(256) for _ in range(2 << n))
    signed = [rng.randint(-(1 << 20), 1 << 20) for _ in range(2 << n)]
    for values in (table, raw, signed):
        expected = oracle_blocks(values, n)
        assert butterfly(values, n) == expected
        assert butterfly(values[: 1 << n], n) == expected[: 1 << n]


def test_is_boolean_spectrum_past_the_block_stages():
    f = image(counterexample_padded(16), 16)
    s = wht(f)
    assert is_boolean_spectrum(s)
    for position, step in ((0, 2), (12345, -2), ((1 << 16) - 1, 1 << 16)):
        coeffs = list(s.coeffs)
        coeffs[position] += step
        assert not is_boolean_spectrum(Spectrum(16, tuple(coeffs)))


def test_butterfly_of_nothing_and_of_ragged_lengths():
    for n in range(0, 5):
        assert butterfly([], n) == ()
        assert butterfly(b"", n) == ()
    for values, n in (([1, 2, 3], 2), (b"\x00\x01\x00", 1), ((1,) * 17, 4), ([5], 1)):
        with pytest.raises(ValueError):
            butterfly(values, n)


def test_is_boolean_spectrum_rejects_a_coefficient_past_every_lane():
    coeffs = [0] * 8
    coeffs[3] = -(1 << 70)
    assert not is_boolean_spectrum(Spectrum(3, tuple(coeffs)))
    coeffs[0] = 1 << 70
    assert not is_boolean_spectrum(Spectrum(3, tuple(coeffs)))


def test_max_flat_through_matches_set_greedy_exhaustively():
    for n in (1, 2, 3):
        for table in range(1, 1 << (1 << n)):
            supp = oracle_support(n, table)
            for point in supp:
                flat = max_flat_through(n, point, supp)
                expected = max_flat_through_reference(n, point, supp)
                assert flat == expected
    for table in range(1, 1 << 16):
        supp = oracle_support(4, table)
        point = min(supp)
        assert max_flat_through(4, point, supp) == max_flat_through_reference(4, point, supp)


def max_flat_through_reference(n, point, supp):
    return AffineSubspace(point, linear_span(n, oracle_max_flat_basis(point, supp)))


def test_spectral_rules_match_transforms_exhaustively_up_to_n3():
    for n in (1, 2, 3):
        size = 1 << n
        transforms = [transform_sending_to_first(n, (a,)) for a in range(1, size)]
        for table in range(1 << size):
            f = BooleanFunction(n, table)
            s = wht(f)
            for a in range(size):
                assert shift_spectrum(s, a) == wht(shift(f, a))
            for m in transforms:
                assert transform_spectrum(s, m) == wht(apply_transform(f, m))


def test_transform_sending_to_first_moves_every_rref_basis():
    rng = random.Random(5)
    bases = 0
    for n in range(1, 6):
        for d in range(1, n + 1):
            for sub in iter_subspaces(n, d):
                m = transform_sending_to_first(n, sub.basis)
                f = BooleanFunction(n, rng.getrandbits(1 << n))
                s = wht(f)
                g = wht(apply_transform(f, m))
                for i, beta in enumerate(sub.basis):
                    assert g.coeffs[1 << i] == s.coeffs[beta]
                assert transform_spectrum(s, m) == g
                bases += 1
    assert bases == 459


@st.composite
def tables_with_actions(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    table = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    seed = draw(st.integers(min_value=0, max_value=1 << 32))
    return n, table, a, random_invertible(n, SplitMix64(seed))


@settings(max_examples=60, deadline=None)
@given(tables_with_actions())
def test_plumbing_matches_oracles_hypothesis(case):
    n, table, a, m = case
    check_plumbing(n, table, [a], [m, transform_sending_to_first(n, (a or 1,))])


@settings(max_examples=40, deadline=None)
@given(tables_with_actions(max_n=10))
def test_spectral_rules_hypothesis(case):
    n, table, a, m = case
    f = BooleanFunction(n, table)
    s = wht(f)
    assert shift_spectrum(s, a) == wht(shift(f, a))
    assert transform_spectrum(s, m) == wht(apply_transform(f, m))


@settings(max_examples=60, deadline=None)
@given(tables_with_actions())
def test_max_flat_through_matches_set_greedy_hypothesis(case):
    n, table, a, _ = case
    supp = oracle_support(n, table | 1 << a)
    point = a
    assert max_flat_through(n, point, supp) == max_flat_through_reference(n, point, supp)


def test_max_flat_through_matches_set_greedy_on_decomposable_supports():
    # random tables rarely hold flats above dimension 2; the supports the
    # decomposition feeds in are unions of a few large flats
    rng = SplitMix64(23)
    for n in range(6, 11):
        for base in (counterexample_padded(n), two_affine(n, 3)):
            f = shift(apply_transform(base, random_invertible(n, rng)), random_vector(n, rng))
            supp = f.support()
            for point in (min(supp), max(supp)):
                expected = max_flat_through_reference(n, point, supp)
                assert max_flat_through(n, point, supp) == expected


def test_affine_masks_match_point_oracle_up_to_n6():
    for n in range(0, 7):
        for dim in range(-1, n + 2):
            assert list(iter_affine_masks(n, dim)) == list(oracle_affine_masks(n, dim))


def test_subspaces_match_per_bit_oracle_up_to_n7():
    for n in range(0, 8):
        for dim in range(-1, n + 2):
            assert list(iter_subspaces(n, dim)) == list(oracle_subspaces(n, dim))


@pytest.mark.parametrize(
    "n, dims",
    [(7, range(-1, 9)), (8, [1, 2, *range(4, 9)])],
    ids=["n7-all-dims", "n8-kill-search-dims"],
)
def test_affine_masks_match_subspace_reference(n, dims):
    # streamed side by side: F_2^8 has 3.2 million 4-flats; a missing or
    # extra mask at the end shows as the sentinel.  At n = 8, dim 1 has a
    # row 0 with 7 free coordinates, the longest chain of XOR steps that a
    # kill search meets, and dim 2 has 64 cosets per direction
    end = object()
    for dim in dims:
        new, old = iter_affine_masks(n, dim), reference_affine_masks(n, dim)
        assert all(a == b for a, b in zip_longest(new, old, fillvalue=end)), dim


@pytest.mark.parametrize("dim", [0, 1, 2, 4, 7])
def test_affine_masks_are_lazy(dim):
    # the first mask must not wait for a materialised list of directions:
    # pivots (7, 6, 5, 4) alone have 65,536 of them
    tracemalloc.start()
    try:
        first = next(iter_affine_masks(8, dim))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == next(reference_affine_masks(8, dim))
    assert peak < 64 << 10


def test_kill_number_matches_fold_oracle_on_every_table_up_to_n3():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert structure.kill_number(f) == oracle_kill_number(f)


@st.composite
def sparse_or_dense_tables(draw, min_n, max_n):
    # drawn integers are mostly sparse tables with kill number 1 or 2;
    # seeded uniform tables have larger ones
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    size = 1 << n
    dense = st.integers(0, 1 << 32).map(lambda seed: random.Random(seed).getrandbits(size))
    return n, draw(st.one_of(st.integers(0, (1 << size) - 1), dense))


@settings(max_examples=30, deadline=None)
@given(sparse_or_dense_tables(4, 7))
def test_kill_number_matches_fold_oracle_hypothesis(case):
    f = BooleanFunction(*case)
    assert structure.kill_number(f) == oracle_kill_number(f)


def test_kill_number_matches_fold_oracle_on_family_images():
    # the structured instances of the kill-search benchmark: their constant
    # flats are large, unlike a random table's
    rng = SplitMix64(31)
    for family, n, k in (
        ("affine", 8, 3),
        ("two-affine", 8, 3),
        ("counterexample-padded", 8, None),
        ("two-affine", 7, 2),
    ):
        base = generate(family, n=n, k=k)
        f = shift(apply_transform(base, random_invertible(n, rng)), random_vector(n, rng))
        assert structure.kill_number(f) == oracle_kill_number(f)


def test_decompose_transforms_and_classifies_once(monkeypatch):
    calls = {"wht": 0, "classify": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(structure, "wht", counted("wht", structure.wht))
    monkeypatch.setattr(structure, "classify", counted("classify", structure.classify))
    rng = SplitMix64(3)
    padded = tensor(two_affine(5, 2), delta(2))
    cases = [
        affine_indicator(6, 2),
        two_affine(7, 3),
        counterexample_padded(8),
        padded,  # a codimension-2 span
        shift(tensor(two_affine(5, 2), delta(1)), 1 << 5),  # 0 off the support
        tensor(counterexample_padded(7), delta(2)),
        shift(apply_transform(padded, random_invertible(7, rng)), random_vector(7, rng)),
    ]
    for f in cases:
        calls.update(wht=0, classify=0)
        structure.decompose(f)
        assert calls == {"wht": 1, "classify": 1}, f


def test_reduction_carries_the_core_spectrum_and_classification():
    rng = SplitMix64(17)
    bases = [
        tensor(two_affine(5, 2), delta(2)),
        tensor(two_affine(7, 3), delta(1)),
        tensor(counterexample_padded(6), delta(3)),
        two_affine(6, 3),
    ]
    for base in bases:
        for _ in range(3):
            n = base.n
            f = shift(apply_transform(base, random_invertible(n, rng)), random_vector(n, rng))
            s = wht(f)
            cls = structure.classify(s)
            core, trace = structure.reduce_to_core(f, s, cls)
            assert trace.core_spectrum == wht(core)
            # the core keeps every coefficient value and loses the
            # dimensions of the kernel and of the restriction; only the
            # restriction's w lowers k
            w = n - len(trace.kernel) - trace.core_n
            derived = structure._in_scope(cls.k - w, cls.m)
            assert derived == trace.core_classification == structure.classify(wht(core))
            # the dense route reaches the same classification with w inputs fewer
            _, dense = oracle_dense_reduce(f, s, cls)
            assert dense.core_n == n - w
            assert dense.core_classification == trace.core_classification

