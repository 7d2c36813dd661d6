"""The table maps that move a whole truth table through a linear map,
against conftest.gather, which reads the table at every point of the
span through its binary string: apply_transform by masked row sweeps,
restrict_first_bit by two folds, and the quotient that
structure.reduce_to_core reads at the pivots of its spectrum's span, by
folds or from the table's bytes.  Each must also stay small in memory at
the sizes where the point list used to dominate."""

import random
import tracemalloc
from itertools import compress, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from f2spec import boolfunc, structure
from f2spec.boolfunc import BooleanFunction, apply_transform, restrict_first_bit, shift, tensor
from f2spec.families import all_ones, two_affine
from f2spec.fourier import wht
from f2spec.gf2 import GF2Matrix, rref
from f2spec.harness import SplitMix64, random_invertible, random_vector

from conftest import gather, image


def assert_matches_gather(f: BooleanFunction, m: GF2Matrix) -> None:
    assert apply_transform(f, m) == gather(f, m.columns()), (f, m)


def counted_moves(monkeypatch) -> list[tuple[int, int]]:
    """The (a, b) of every masked move apply_transform makes, recorded."""
    calls: list[tuple[int, int]] = []
    move = boolfunc._move_where_odd

    def counting(table, a, b, swaps):
        calls.append((a, b))
        return move(table, a, b, swaps)

    monkeypatch.setattr(boolfunc, "_move_where_odd", counting)
    return calls


def test_apply_transform_is_the_gather_on_all_of_gl3_and_every_n3_table():
    matrices = []
    for rows in product(range(8), repeat=3):
        try:
            matrices.append(GF2Matrix(3, rows))
        except ValueError:
            continue
    assert len(matrices) == 168
    for m in matrices:
        for table in range(256):
            assert_matches_gather(BooleanFunction(3, table), m)


def test_apply_transform_is_the_gather_on_seeded_matrices_up_to_n14(monkeypatch):
    calls = counted_moves(monkeypatch)
    rng = random.Random(32)
    for n in range(4, 15):
        for seed in range(4):
            m = random_invertible(n, SplitMix64(1000 * n + seed))
            calls.clear()
            assert_matches_gather(BooleanFunction(n, rng.getrandbits(1 << n)), m)
            # at most one pivot swap and one clear per column
            assert len(calls) <= 2 * n


def test_apply_transform_is_the_gather_on_permutation_matrices():
    # a permutation matrix whose row c lacks bit c takes the pivot step at
    # column c: on every permutation of 4 coordinates but the identity,
    # and at column 0 of the seeded ones, which all move coordinate 0
    rng = random.Random(33)
    for perm in permutations(range(4)):
        m = GF2Matrix(4, tuple(1 << p for p in perm))
        for _ in range(8):
            assert_matches_gather(BooleanFunction(4, rng.getrandbits(16)), m)
    for n in range(5, 13):
        perm = list(range(n))
        while perm[0] == 0:
            rng.shuffle(perm)
        m = GF2Matrix(n, tuple(1 << p for p in perm))
        assert_matches_gather(BooleanFunction(n, rng.getrandbits(1 << n)), m)


def test_apply_transform_of_the_identity_moves_nothing(monkeypatch):
    calls = counted_moves(monkeypatch)
    for n in (0, 1, 6):
        f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
        assert apply_transform(f, GF2Matrix(n, tuple(1 << i for i in range(n)))) == f
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(0, 1 << 32), st.data())
def test_apply_transform_is_the_gather_hypothesis(n, seed, data):
    table = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    assert_matches_gather(BooleanFunction(n, table), random_invertible(n, SplitMix64(seed)))


def test_restrict_first_bit_is_the_gather_at_the_other_unit_vectors():
    # n = 1 to 16: a random table, all ones, and the top point alone
    rng = random.Random(34)
    for n in range(1, 17):
        size = 1 << n
        others = [1 << c for c in range(1, n)]
        for table in (rng.getrandbits(size), (1 << size) - 1, 1 << (size - 1)):
            f = BooleanFunction(n, table)
            assert restrict_first_bit(f) == (gather(f, others), gather(shift(f, 1), others)), f


def quotient_instances():
    """Seeded images of two_affine(5, 3) times the constant 1 on j more
    inputs, j = 0..6: the span of the nonzero positions has s = 5
    dimensions, so n - s = j crosses the one-point-in-16 threshold."""
    for j in range(7):
        base = tensor(two_affine(5, 3), all_ones(j))
        for seed in (j, j + 10):
            yield image(base, seed)


def test_the_reduction_reads_the_quotient_the_gather_reads(monkeypatch):
    # the quotient h that reduce_to_core reads at sigma's pivots is the
    # gather of the shifted f there: by folds while n - s <= 4, and from
    # the table's bytes, with no fold, past that
    reads, folds = [], []
    read, fold = structure._read_at_pivots, structure.fold

    def reading(g, pivots):
        h = read(g, pivots)
        reads.append((g, pivots, h))
        return h

    def folding(bits, p, m):
        folds.append(p)
        return fold(bits, p, m)

    monkeypatch.setattr(structure, "_read_at_pivots", reading)
    monkeypatch.setattr(structure, "fold", folding)
    seen = set()
    for f in quotient_instances():
        reads.clear()
        folds.clear()
        s = wht(f)
        structure.reduce_to_core(f, s)
        sigma = rref(compress(range(1 << f.n), s.coeffs))
        origin = min(f.support())
        pivots = [1 << (r.bit_length() - 1) for r in reversed(sigma)]
        [(g, used, h)] = reads
        assert g == shift(f, origin) and used == pivots
        assert h == gather(shift(f, origin), pivots), f
        gap = f.n - len(sigma)
        assert len(folds) == (gap if gap <= 4 else 0), (gap, folds)
        seen.add(gap)
    assert seen == set(range(7))


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_apply_transform_at_n20_stays_small():
    # the table is 128 KiB; the swap masks of n = 20 are 2.5 MiB more when
    # they are not cached yet.  A list of the 2^20 image points alone was
    # over 40 MiB
    f = BooleanFunction(20, random.Random(20).getrandbits(1 << 20))
    m = random_invertible(20, SplitMix64(20))
    assert traced_peak(lambda: apply_transform(f, m)) < 8 << 20


def test_the_reduction_of_a_two_affine_image_at_n18_stays_small():
    # s = 17, so the quotient is one fold of the shifted table (32 KiB)
    rng = SplitMix64(18)
    base = two_affine(18, 9)
    f = shift(apply_transform(base, random_invertible(18, rng)), random_vector(18, rng))
    s = wht(f)
    cls = structure.classify(s)
    assert traced_peak(lambda: structure.reduce_to_core(f, s, cls)) < 1 << 20
