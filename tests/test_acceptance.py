"""Acceptance criteria, one test per criterion.

Every quantity asserted here is exact (integers and reduced fractions); the
only tolerances are the two wall-clock budgets, which are generous.  Each
test prints a PASS line once its assertions have gone through, so running
`pytest tests/test_acceptance.py -v -s` gives one line per criterion.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from f2spec.addcomb import PointSet, doubling_constant, even_zohar_bound, even_zohar_s
from f2spec.boolfunc import BooleanFunction
from f2spec.families import counterexample_core, two_affine
from f2spec.fourier import Spectrum, is_boolean_spectrum, wht
from f2spec.harness import enumerate_verify, random_verify
from f2spec.structure import decompose, verify_decomposition

from conftest import (
    boolean_convolution_check,
    expected_two_affine_spectrum,
    naive_wht,
    oracle_flat_partition,
)


def test_criterion_1_exhaustive_verification_n4():
    start = time.perf_counter()
    report = enumerate_verify(4)
    elapsed = time.perf_counter() - start
    assert report.examined == 65536
    assert report.violations == []
    assert sum(report.counts.values()) == 65536
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 1 PASS: all 65536 tables verified with 0 violations "
        f"in {elapsed:.1f}s (counts: {report.counts})"
    )


def test_criterion_2_counterexample_reproduction():
    f = counterexample_core()
    assert sorted(f.support()) == [0, 31, 47, 55, 59, 61, 62, 63]

    coeffs = wht(f).coeffs
    histogram = Counter(coeffs)
    assert coeffs[0] == 8
    assert histogram == {8: 1, -4: 7, 4: 21, 0: 35}

    minus = PointSet.of(6, [a for a, c in enumerate(coeffs) if c == -4])
    plus = [a for a, c in enumerate(coeffs) if c == 4]
    assert len(minus) == 7 and len(plus) == 21
    double = {x ^ y for x in minus.members for y in minus.members}
    assert len(double) == 22
    assert doubling_constant(minus) == Fraction(22, 7)

    dec = decompose(f)
    assert verify_decomposition(f, dec)
    assert [p.dim for p in dec.pieces] == [1, 1, 1, 1]

    # exhaustive search: the support admits no split into two 2-flats
    assert oracle_flat_partition(6, f.support(), 2, 2) is None
    print("\nACCEPTANCE 2 PASS: counterexample support, spectrum histogram "
          "(8 / -4x7 / +4x21 / 0x35), 22/7 doubling, four verified 1-flats, "
          "and no two-2-flat split")


def test_criterion_3_span_bound_anchors():
    k1 = Fraction(46, 15)
    assert even_zohar_s(k1) == 5
    assert even_zohar_bound(k1) == 2 * k1 == Fraction(92, 15)
    assert even_zohar_bound(k1) < 7

    k2 = Fraction(22, 7)
    assert even_zohar_s(k2) == 6
    assert even_zohar_bound(k2) == Fraction(64, 7)
    assert even_zohar_bound(k2) * 7 == 64
    print("\nACCEPTANCE 3 PASS: s(46/15)=5 with bound 92/15 < 7; "
          "s(22/7)=6 with bound 64/7, span limit exactly 64")


def test_criterion_4_two_subspace_spectrum_formula():
    checked = 0
    for k in range(1, 5):
        for n in range(2 * k - 1, 9):
            f = two_affine(n, k)
            coeffs = list(wht(f).coeffs)
            assert coeffs == expected_two_affine_spectrum(n, k), (n, k)
            unit = 1 << (n - k)
            t = (1 << (k - 1)) - 1
            plus = sum(1 for a, c in enumerate(coeffs) if a and c == unit)
            minus = sum(1 for c in coeffs if c == -unit)
            assert plus == 3 * t and minus == t, (n, k)
            checked += 1
    print(f"\nACCEPTANCE 4 PASS: {checked} (n,k) instances match the "
          "closed-form spectrum entry-for-entry with class sizes 3t/t")


def test_criterion_5_randomized_structural_recovery():
    start = time.perf_counter()
    r1 = random_verify(8, 1000, seed=20240801, family="two-affine", k=3)
    assert r1.examined == 1000
    assert r1.violations == []
    assert r1.counts["TwoSubspace"] == 1000

    r2 = random_verify(8, 100, seed=20240802, family="counterexample-padded")
    assert r2.examined == 100
    assert r2.violations == []
    assert r2.counts["ExceptionalK4Candidate"] == 100
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: 1000 two-subspace + 100 exceptional "
          f"instances recovered and verified in {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert wht(f) == naive_wht(f)

    rng = random.Random(20240803)
    for _ in range(1000):
        n = rng.randint(1, 10)
        f = BooleanFunction(n, rng.randrange(1 << (1 << n)))
        assert wht(f) == naive_wht(f)

    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            s = wht(BooleanFunction(n, table))
            assert is_boolean_spectrum(s) and boolean_convolution_check(s)
    # the two 0/1 tests also agree on arbitrary integer spectra
    for _ in range(300):
        n = rng.randint(1, 3)
        s = Spectrum(n, tuple(rng.randint(-8, 8) for _ in range(1 << n)))
        assert boolean_convolution_check(s) == is_boolean_spectrum(s)
    print("\nACCEPTANCE 6 PASS: butterfly matches the direct-sum oracle "
          "(all f, n<=3; 1000 random f, n<=10); 0/1 spectrum tests agree")
