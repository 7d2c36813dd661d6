import random
from fractions import Fraction
from math import comb

import pytest

from f2spec.addcomb import (
    LABA_NOT_APPLICABLE,
    LABA_SUBGROUP,
    LABA_VIOLATION,
    PointSet,
    affine_span_size,
    doubling_constant,
    even_zohar_bound,
    even_zohar_s,
    is_sum_free,
    laba_check,
    sumset,
)

from conftest import oracle_even_zohar_s

CE_MINUS_CLASS = PointSet.of(6, [1, 2, 4, 8, 16, 32, 63])


def brute_force_sumset(a: PointSet, b: PointSet) -> set[int]:
    return {x ^ y for x in a.members for y in b.members}


def test_sumset_with_singleton_zero():
    a = PointSet.of(3, [1, 5, 6])
    assert sumset(PointSet.of(3, [0]), a).members == a.members


def test_sumset_of_subspace_is_itself():
    h = PointSet.of(4, [0, 1, 2, 3])
    assert sumset(h, h).members == h.members


def test_sumset_counterexample_class_has_22_elements():
    # 21 distinct pairwise sums of the 7 elements, plus 0
    s = sumset(CE_MINUS_CLASS, CE_MINUS_CLASS)
    assert len(s) == 22
    assert s.members == brute_force_sumset(CE_MINUS_CLASS, CE_MINUS_CLASS)


def test_sumset_dimension_mismatch():
    with pytest.raises(ValueError):
        sumset(PointSet.of(3, [1]), PointSet.of(4, [1]))


def test_sumset_empty_operand():
    assert len(sumset(PointSet.of(3, []), PointSet.of(3, [1, 2]))) == 0


def test_iterated_sumset():
    double = sumset(CE_MINUS_CLASS, CE_MINUS_CLASS)
    assert len(double) == 22
    triple = sumset(double, CE_MINUS_CLASS)
    assert len(triple.members - CE_MINUS_CLASS.members) == 35


def test_doubling_constant_of_subspace_is_one():
    h = PointSet.of(4, [0, 5, 10, 15])
    assert doubling_constant(h) == 1


def test_doubling_constant_of_singleton_is_one():
    assert doubling_constant(PointSet.of(4, [9])) == 1


def test_doubling_constant_of_counterexample_class():
    assert doubling_constant(CE_MINUS_CLASS) == Fraction(22, 7)


def test_doubling_constant_rejects_empty():
    with pytest.raises(ValueError):
        doubling_constant(PointSet.of(3, []))


def test_sum_free_examples():
    assert is_sum_free(CE_MINUS_CLASS)
    assert not is_sum_free(PointSet.of(3, [0, 1]))
    assert not is_sum_free(PointSet.of(3, [1, 2, 3]))


def test_sum_free_matches_pair_enumeration():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 8)
        pts = PointSet.of(
            n, {rng.randrange(1 << n) for _ in range(rng.randint(1, 12))}
        )
        brute = any(
            x ^ y in pts.members for x in pts.members for y in pts.members
        )
        assert is_sum_free(pts) == (not brute)


def test_even_zohar_s_anchors():
    assert even_zohar_s(Fraction(46, 15)) == 5
    assert even_zohar_s(Fraction(1)) == 1
    assert even_zohar_s(Fraction(22, 7)) == 6
    with pytest.raises(ValueError):
        even_zohar_s(Fraction(1, 2))


def test_even_zohar_s_brackets_by_direct_evaluation():
    # s = 1 bracket is [1, 4/3); s = 2 is [4/3, 7/4); spot check the seams
    assert even_zohar_s(Fraction(4, 3)) == 2
    assert even_zohar_s(Fraction(133, 100)) == 1
    assert even_zohar_s(Fraction(2)) == 3


def test_even_zohar_s_matches_the_counting_oracle():
    grid = {Fraction(p, q) for q in range(1, 40) for p in range(q, 40 * q)}
    for k in grid:
        assert even_zohar_s(k) == oracle_even_zohar_s(k), k
    eps = Fraction(1, 10**9)
    for s in range(1, 3000):
        low = Fraction(comb(s, 2) + s + 1, s + 1)
        assert even_zohar_s(low) == s
        if s > 1:
            assert even_zohar_s(low - eps) == s - 1
        if s < 400:
            assert oracle_even_zohar_s(low) == s
            assert s == 1 or oracle_even_zohar_s(low - eps) == s - 1


def test_even_zohar_s_at_large_k():
    # out of reach of the counting loop, which needs about 2K steps
    assert even_zohar_s(Fraction(10**6)) == 1999999
    for k in (Fraction(10**6), Fraction(10**30 + 1, 3), Fraction(2**200 - 1, 7)):
        s = even_zohar_s(k)
        assert Fraction(comb(s, 2) + s + 1, s + 1) <= k
        assert k < Fraction(comb(s + 1, 2) + s + 2, s + 2)


def test_even_zohar_bound_anchors():
    assert even_zohar_bound(Fraction(46, 15)) == Fraction(92, 15)
    assert even_zohar_bound(Fraction(46, 15)) < 7
    assert even_zohar_bound(Fraction(22, 7)) == Fraction(64, 7)
    assert even_zohar_bound(Fraction(22, 7)) * 7 == 64
    assert even_zohar_bound(Fraction(1)) == 1


def test_laba_on_subspace():
    h = PointSet.of(4, [0, 1, 2, 3])
    assert laba_check(h) == LABA_SUBGROUP


def test_laba_on_punctured_subspace():
    # H \ {0} for |H| = 8: differences give back H, and 8 < 10.5
    h = PointSet.of(4, [1, 2, 3, 4, 5, 6, 7])
    assert laba_check(h) == LABA_SUBGROUP


def test_laba_not_applicable_for_standard_vectors():
    a = PointSet.of(4, [1, 2, 4, 8])
    # |A - A| = 7 >= 1.5 * 4
    assert len(sumset(a, a)) == 7
    assert laba_check(a) == LABA_NOT_APPLICABLE


def test_laba_never_violates_on_random_sets():
    rng = random.Random(43)
    for _ in range(500):
        n = rng.randint(1, 10)
        pts = PointSet.of(
            n, {rng.randrange(1 << n) for _ in range(rng.randint(1, 16))}
        )
        assert laba_check(pts) != LABA_VIOLATION


def test_span_bound_never_violated_on_random_sets():
    # |affine span| <= bound(doubling) * |A|, checked with exact fractions
    rng = random.Random(47)
    for _ in range(10_000):
        n = rng.randint(1, 10)
        size = rng.randint(1, 32)
        pts = PointSet.of(n, {rng.randrange(1 << n) for _ in range(size)})
        k = doubling_constant(pts)
        assert affine_span_size(pts) <= even_zohar_bound(k) * len(pts)


def test_sumset_commutes_and_associates():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 6)
        mk = lambda: PointSet.of(
            n, {rng.randrange(1 << n) for _ in range(rng.randint(0, 6))}
        )
        a, b, c = mk(), mk(), mk()
        assert sumset(a, b) == sumset(b, a)
        assert sumset(sumset(a, b), c) == sumset(a, sumset(b, c))
