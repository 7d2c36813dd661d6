from collections import Counter

import pytest

from f2spec.families import (
    affine_indicator,
    all_ones,
    counterexample_core,
    counterexample_padded,
    delta,
    generate,
    intro_fk,
    intro_gk,
    two_affine,
)
from f2spec.fourier import granularity, wht
from f2spec.gf2 import linear_span

from conftest import expected_two_affine_spectrum


def test_delta_spectrum_is_uniform():
    assert wht(delta(3)).coeffs == (1,) * 8


def test_affine_indicator_basic():
    f = affine_indicator(4, 2)
    assert f.weight == 4
    assert all(x & 3 == 1 for x in f.support())
    assert granularity(wht(f)) == 2


def test_two_affine_support_shape():
    f = two_affine(5, 2)
    supp = f.support()
    assert len(supp) == 16
    piece_a = {x for x in range(32) if x & 3 == 2}
    piece_b = {x for x in range(32) if x & 0b110 == 0}
    assert supp == piece_a | piece_b
    assert not (piece_a & piece_b)


def test_two_affine_rejects_bad_parameters():
    with pytest.raises(ValueError):
        two_affine(4, 3)  # needs n >= 2k-1
    with pytest.raises(ValueError):
        two_affine(4, 0)


def test_two_affine_k1_is_all_ones():
    assert two_affine(3, 1) == all_ones(3)


@pytest.mark.parametrize("n,k", [(3, 2), (5, 2), (5, 3), (7, 3), (7, 4), (8, 4)])
def test_two_affine_spectrum_matches_indicator_sum(n, k):
    assert list(wht(two_affine(n, k)).coeffs) == expected_two_affine_spectrum(n, k)


def test_counterexample_core_support():
    f = counterexample_core()
    assert sorted(f.support()) == [0, 31, 47, 55, 59, 61, 62, 63]
    assert all(x.bit_count() in (0, 5, 6) for x in f.support())


def test_counterexample_padded_support_and_values():
    f = counterexample_padded(8)
    assert f.weight == 32
    core_points = {0, 31, 47, 55, 59, 61, 62, 63}
    assert f.support() == {x | (j << 6) for x in core_points for j in range(4)}
    with pytest.raises(ValueError):
        counterexample_padded(5)


def test_intro_pair_have_equal_coefficient_multisets():
    f = intro_fk(3)
    g = intro_gk(3)
    cf = Counter(wht(f).coeffs)
    cg = Counter(wht(g).coeffs)
    assert cf == cg == Counter({0: 4, -2: 3, 6: 1})


def test_intro_pair_spectral_supports():
    # both spectral supports span dimension 2; the three nonconstant masks
    # of each always sum to zero, which is forced for any 0/1 function of
    # this coefficient shape
    f_masks = [a for a, c in enumerate(wht(intro_fk(3)).coeffs) if c and a]
    g_masks = [a for a, c in enumerate(wht(intro_gk(3)).coeffs) if c and a]
    assert f_masks == [1, 2, 3]
    assert g_masks == [3, 5, 6]
    assert linear_span(3, f_masks).dim == 2
    assert linear_span(3, g_masks).dim == 2


def test_intro_fk_is_or_of_first_two():
    f = intro_fk(4)
    assert all((x & 3 != 0) == bool(f.value(x)) for x in range(16))


def test_intro_gk_is_not_all_equal():
    g = intro_gk(3)
    assert sorted(g.support()) == [1, 2, 3, 4, 5, 6]


def test_generate_dispatch_and_errors():
    assert generate("delta", n=3) == delta(3)
    assert generate("two-affine", n=5, k=2) == two_affine(5, 2)
    assert generate("counterexample-core") == counterexample_core()
    with pytest.raises(ValueError):
        generate("counterexample-core", n=7)
    with pytest.raises(ValueError):
        generate("delta")
    with pytest.raises(ValueError):
        generate("no-such-family", n=3)


def test_generate_refuses_k_on_a_family_that_takes_none():
    # only affine and two-affine take k; the others built without it
    for family in ("counterexample-core", "counterexample-padded", "intro-fk", "intro-gk", "delta"):
        assert generate(family, n=6).n == 6
        with pytest.raises(ValueError, match="takes no --k"):
            generate(family, n=6, k=3)
