import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2spec.boolfunc import (
    BooleanFunction,
    apply_transform,
    restrict_first_bit,
    shift,
    tensor,
)
from f2spec.families import all_ones, counterexample_core, delta, two_affine
from f2spec.fourier import (
    Spectrum,
    boolean_cast,
    granularity,
    inverse_wht,
    is_boolean_spectrum,
    sparsity,
    wht,
)
from f2spec.gf2 import GF2Matrix, transform_sending_to_e1

from conftest import boolean_convolution_check, naive_wht, oracle_granularity

OR2 = BooleanFunction(2, 0b1110)


def test_wht_zero_function():
    assert wht(BooleanFunction(3, 0)).coeffs == (0,) * 8


def test_wht_delta_is_uniform():
    assert wht(delta(2)).coeffs == (1, 1, 1, 1)


def test_wht_or_matches_known_expansion():
    # f = x1 OR x2: f^ = (3/4, -1/4, -1/4, -1/4), scaled by 4
    assert wht(OR2).coeffs == (3, -1, -1, -1)


def test_wht_agrees_with_brute_force_exhaustively_small():
    for n in (1, 2):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert wht(f) == naive_wht(f)


def test_wht_agrees_with_naive_oracle_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = BooleanFunction(n, rng.randrange(1 << (1 << n)))
        assert wht(f) == naive_wht(f)


def test_inverse_round_trip_exhaustive_n_le_3():
    for n in (1, 2, 3):
        size = 1 << n
        for table in range(1 << size):
            f = BooleanFunction(n, table)
            vals = inverse_wht(wht(f))
            assert vals == tuple(Fraction((table >> x) & 1) for x in range(size))


def test_boolean_cast_recovers_or():
    assert boolean_cast(wht(OR2)) == OR2


def test_boolean_cast_rejects_halved_spectrum():
    # {0, 1} has spectrum (2, 0, 2, 0); halving makes the values {0, 1/2}
    s = Spectrum(2, (1, 0, 1, 0))
    with pytest.raises(ValueError):
        boolean_cast(s)


def test_granularity_examples():
    assert granularity(wht(OR2)) == 2
    assert granularity(Spectrum(2, (0, 0, 0, 0))) == 0
    assert granularity(wht(two_affine(5, 2))) == 2
    assert granularity(wht(all_ones(4))) == 0
    assert granularity(wht(delta(5))) == 5


def test_granularity_matches_fraction_denominators_exhaustive_n_le_3():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            s = wht(BooleanFunction(n, table))
            assert granularity(s) == oracle_granularity(s), (n, table)


@given(st.integers(1, 6), st.data())
def test_granularity_matches_fraction_denominators_arbitrary_spectra(n, data):
    coeffs = data.draw(
        st.lists(st.integers(-(1 << 12), 1 << 12), min_size=1 << n, max_size=1 << n)
    )
    s = Spectrum(n, tuple(coeffs))
    assert granularity(s) == oracle_granularity(s)


def test_sparsity_examples():
    assert sparsity(wht(all_ones(3))) == 1
    assert sparsity(wht(delta(2))) == 4
    assert sparsity(wht(OR2)) == 4


def test_is_boolean_spectrum_true_for_all_truth_tables():
    for table in range(1 << 8):
        assert is_boolean_spectrum(wht(BooleanFunction(3, table)))


def test_is_boolean_spectrum_zero_spectrum():
    assert is_boolean_spectrum(Spectrum(3, (0,) * 8))


def test_is_boolean_spectrum_detects_sign_flip():
    coeffs = list(wht(OR2).coeffs)
    coeffs[1] = -coeffs[1]
    assert not is_boolean_spectrum(Spectrum(2, tuple(coeffs)))
    assert not boolean_convolution_check(Spectrum(2, tuple(coeffs)))


def test_convolution_oracle_agrees_with_inversion_check():
    rng = random.Random(17)
    for n in (1, 2):
        for table in range(1 << (1 << n)):
            s = wht(BooleanFunction(n, table))
            assert boolean_convolution_check(s) == is_boolean_spectrum(s)
    # also on perturbed, non-0/1 spectra
    for _ in range(200):
        n = rng.randint(1, 3)
        coeffs = [rng.randint(-4, 4) for _ in range(1 << n)]
        s = Spectrum(n, tuple(coeffs))
        assert boolean_convolution_check(s) == is_boolean_spectrum(s)


def test_restriction_of_or():
    f0, f1 = restrict_first_bit(OR2)
    # f0(y) = OR(0, y) = y, f1(y) = OR(1, y) = 1
    assert f0 == BooleanFunction(1, 0b10)
    assert f1 == BooleanFunction(1, 0b11)
    assert wht(f0).coeffs == (1, -1)


def test_restriction_of_delta_and_ones():
    d0, d1 = restrict_first_bit(delta(3))
    assert d0 == delta(2)
    assert d1.is_zero
    o0, o1 = restrict_first_bit(all_ones(3))
    assert o0.is_one and o1.is_one


def test_restriction_at_n1_gives_constants():
    f0, f1 = restrict_first_bit(BooleanFunction(1, 0b01))
    assert f0.n == 0 and f1.n == 0
    assert f0.table == 1 and f1.table == 0


def test_restriction_spectra_identities_exhaustive():
    # 2 F0(b) = F(0,b) + F(1,b) and 2 F1(b) = F(0,b) - F(1,b), exactly,
    # along with the inverse relations, for every table of up to 4 inputs
    for n in (2, 3, 4):
        half = 1 << (n - 1)
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            coeffs = wht(f).coeffs
            f0, f1 = restrict_first_bit(f)
            c0 = wht(f0).coeffs
            c1 = wht(f1).coeffs
            for b in range(half):
                lo, hi = coeffs[2 * b], coeffs[2 * b + 1]
                assert 2 * c0[b] == lo + hi
                assert 2 * c1[b] == lo - hi
                # inverse relations recover the joint coefficients
                assert lo == (c0[b] + c1[b])
                assert hi == (c0[b] - c1[b])


def test_tensor_of_deltas():
    assert tensor(delta(2), delta(3)) == delta(5)


def test_tensor_with_all_ones_keeps_values():
    f = OR2
    h = tensor(f, all_ones(2))
    hc = wht(h).coeffs
    fc = wht(f).coeffs
    for a in range(4):
        assert hc[a] == fc[a] * 4  # same fractions: scale is 2^2
    assert all(hc[a] == 0 for a in range(4, 16))


def test_tensor_counterexample_padding_keeps_fractions():
    core = counterexample_core()
    h = tensor(core, all_ones(2))
    vals = {Fraction(c, 1 << 8) for c in wht(h).coeffs}
    assert vals == {Fraction(0), Fraction(1, 8), Fraction(1, 16), Fraction(-1, 16)}


def test_tensor_spectrum_is_product_exhaustive_small():
    for ta in range(16):
        for tb in range(4):
            f = BooleanFunction(2, ta)
            g = BooleanFunction(1, tb)
            h = tensor(f, g)
            hc = wht(h).coeffs
            fc = wht(f).coeffs
            gc = wht(g).coeffs
            for b in range(2):
                for a in range(4):
                    assert hc[a | (b << 2)] == fc[a] * gc[b]


def test_apply_identity_transform():
    m = GF2Matrix.identity(2)
    assert apply_transform(OR2, m) == OR2


def test_apply_swap_exchanges_coefficients():
    swap = GF2Matrix.from_rows(2, (2, 1))
    g = apply_transform(OR2, swap)
    assert g == OR2  # OR is symmetric
    f = BooleanFunction(2, 0b0100)  # indicator of (0,1)
    gc = wht(apply_transform(f, swap)).coeffs
    fc = wht(f).coeffs
    assert gc[1] == fc[2] and gc[2] == fc[1]


def test_transform_spectrum_permutation_rule():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        f = BooleanFunction(n, rng.randrange(1 << (1 << n)))
        while True:
            try:
                m = GF2Matrix.from_rows(
                    n, tuple(rng.randrange(1 << n) for _ in range(n))
                )
                break
            except ValueError:
                continue
        g = apply_transform(f, m)
        gc = wht(g).coeffs
        fc = wht(f).coeffs
        mt_inv = m.transpose().inverse()
        for b in range(1 << n):
            assert gc[b] == fc[mt_inv.apply(b)]
        assert sorted(gc) == sorted(fc)


def test_shift_identity_and_delta():
    assert shift(OR2, 0) == OR2
    d = delta(2)
    s = shift(d, 3)
    assert s == BooleanFunction(2, 0b1000)
    sc = wht(s).coeffs
    for a in range(4):
        assert sc[a] == (-1 if (a & 3).bit_count() & 1 else 1)


def test_shift_of_or_flips_signs_by_character():
    h = shift(OR2, 3)
    assert h.table == 0b0111
    hc = wht(h).coeffs
    fc = wht(OR2).coeffs
    for a in range(4):
        sign = -1 if (a & 3).bit_count() & 1 else 1
        assert hc[a] == sign * fc[a]


@given(st.integers(1, 7), st.data())
def test_parseval_and_peak_bound(n, data):
    table = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    f = BooleanFunction(n, table)
    coeffs = wht(f).coeffs
    assert sum(c * c for c in coeffs) == f.weight << n
    assert all(abs(c) <= coeffs[0] for c in coeffs)


def test_transform_then_inverse_transform_restores():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 6)
        f = BooleanFunction(n, rng.randrange(1 << (1 << n)))
        alpha = rng.randrange(1, 1 << n)
        m = transform_sending_to_e1(n, alpha)
        assert apply_transform(apply_transform(f, m), m.inverse()) == f
