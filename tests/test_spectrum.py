import io
import json
import random
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2spec import cli, fourier, jsonio, structure
from f2spec.boolfunc import (
    BooleanFunction,
    apply_transform,
    restrict_first_bit,
    shift,
    tensor,
)
from f2spec.families import (
    affine_indicator,
    all_ones,
    counterexample_core,
    counterexample_padded,
    delta,
    two_affine,
)
from f2spec.fourier import (
    Spectrum,
    butterfly,
    coefficient_values,
    granularity,
    is_boolean_spectrum,
    nonzero_items,
    sparsity,
    wht,
)
from f2spec.gf2 import GF2Matrix, fold, int_to_bits, rref, transform_sending_to_first

from conftest import (
    boolean_convolution_check,
    gather,
    identity_matrix,
    image,
    naive_wht,
    oracle_apply,
    oracle_granularity,
    oracle_inverse,
    shift_spectrum,
    transpose_matrix,
)

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


def test_classify_folds_the_granularity_from_its_own_value_set(monkeypatch):
    # classify reads k from the set of values it builds anyway, through the
    # fold that granularity uses, and never builds a second set
    sets = []

    class CountingSet(set):
        def __init__(self, *args):
            super().__init__(*args)
            sets.append(self)

    monkeypatch.setattr(structure, "set", CountingSet, raising=False)
    monkeypatch.setattr(fourier, "set", CountingSet, raising=False)
    for table in range(1, 1 << 16, 97):
        s = wht(BooleanFunction(4, table))
        sets.clear()
        k = structure.classify(s).k
        assert len(sets) == 1
        assert k == oracle_granularity(s) == granularity(s)


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
    assert o0.table == o1.table == 0b1111


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
    m = identity_matrix(2)
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
        mt_inv = oracle_inverse(transpose_matrix(m))
        for b in range(1 << n):
            assert gc[b] == fc[oracle_apply(mt_inv, b)]
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
        m = transform_sending_to_first(n, (alpha,))
        assert apply_transform(apply_transform(f, m), oracle_inverse(m)) == f


def inner_product_bent(n: int) -> BooleanFunction:
    """x1 x2 + x3 x4 + ... on an even n: every coefficient is +-2^(n/2)."""
    pairs = [(1 << i) | (1 << (i + 1)) for i in range(0, n, 2)]
    table = sum(
        1 << x for x in range(1 << n) if sum((x & p) == p for p in pairs) & 1
    )
    return BooleanFunction(n, table)


def sparse_images():
    """Seeded images of one flat (16 nonzero coefficients), two flats and
    four flats at n = 13, 14, 16 and 17, and the constant function, whose
    one nonzero coefficient is F(0); the last two sizes run block stages."""
    for n in (13, 14, 16, 17):
        for i, base in enumerate((affine_indicator(n, 4), two_affine(n, 3), counterexample_padded(n))):
            yield image(base, 100 * n + i)
        yield all_ones(n)


@pytest.mark.parametrize("f", list(sparse_images()))
def test_wht_carries_the_nonzero_positions_of_a_sparse_spectrum(f):
    s = wht(f)
    assert s.nonzero == tuple(compress(range(1 << f.n), s.coeffs))


def test_wht_carries_nothing_below_the_size_cut_or_on_a_dense_spectrum():
    rng = random.Random(12)
    assert wht(image(two_affine(12, 3), 1)).nonzero is None
    for n in (13, 14, 16):
        assert wht(BooleanFunction(n, rng.getrandbits(1 << n))).nonzero is None
    assert wht(inner_product_bent(14)).nonzero is None
    # at most one lane in 16 nonzero: 2^9 of 2^13 is sparse, 2^10 is not
    assert len(wht(affine_indicator(13, 9)).nonzero) == 1 << 9
    assert wht(affine_indicator(13, 10)).nonzero is None


@pytest.mark.parametrize(
    "f",
    [image(two_affine(14, 3), 3), image(counterexample_padded(16), 4), all_ones(14),
     inner_product_bent(14), image(affine_indicator(13, 4), 5), delta(13)],
)
def test_a_transform_and_its_copy_from_a_tuple_agree(f):
    s = wht(f)
    t = Spectrum(f.n, s.coeffs)
    assert t.nonzero is None
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
    assert list(nonzero_items(s)[0]) == list(nonzero_items(t)[0])
    assert coefficient_values(s) == coefficient_values(t)
    cls = structure.classify(s)
    assert cls == structure.classify(t)
    assert granularity(s) == granularity(t)
    assert sparsity(s) == sparsity(t)
    if cls.tag in structure.IN_SCOPE_TAGS:
        ours = jsonio.decomposition_to_obj(structure.decompose(f, s))
        assert ours == jsonio.decomposition_to_obj(structure.decompose(f, t))


@pytest.mark.parametrize(
    "f", [inner_product_bent(4), OR2, delta(3), all_ones(3), BooleanFunction(3, 0)]
)
def test_coefficient_values_add_zero_only_when_a_coefficient_vanishes(f):
    # the bent function and the point have no zero coefficient; the
    # constant function has one nonzero coefficient, the zero map none
    s = wht(f)
    sparse = Spectrum.sparse(f.n, *map(tuple, nonzero_items(s)))
    assert coefficient_values(sparse) == set(s.coeffs)
    assert structure.classify(sparse) == structure.classify(s)
    assert granularity(sparse) == granularity(s)


class NoPass(Spectrum):
    """A sparse spectrum that fails any read of all its 2^n coefficients."""

    __slots__ = ()

    @property
    def coeffs(self):
        raise AssertionError("a pass over all 2^n coefficients")


def no_stream(positions, values, size):
    raise AssertionError("a stream of all 2^n coefficients")


@pytest.mark.parametrize(
    "base",
    [affine_indicator(14, 4), two_affine(14, 3), counterexample_padded(14), two_affine(13, 7)],
)
def test_readers_of_carried_positions_make_no_pass_over_the_coefficients(base, monkeypatch):
    # one flat, two flats and four flats on a spectral quotient (s < n),
    # and two flats whose spectrum spans F_2^13 (s = n)
    f = image(base, 9)
    s = wht(f)
    guarded = NoPass.sparse(f.n, s.nonzero, s._values)
    # nor does any reader stream the zeros between its values
    monkeypatch.setattr(fourier, "_with_zeros", no_stream)
    cls = structure.classify(guarded)
    assert cls == structure.classify(s)
    assert granularity(guarded) == granularity(s)
    assert sparsity(guarded) == sparsity(s)
    assert structure.decompose(f, guarded) == structure.decompose(f, s)
    if cls.m == 2:
        # the core spectrum is sparse, and the class split reads only its
        # positions and values
        _, trace = structure.reduce_to_core(f, guarded, cls)
        core_s = trace.core_spectrum
        core_guarded = NoPass.sparse(core_s.n, core_s.nonzero, core_s._values)
        core_cls = trace.core_classification
        sets = structure.spectral_sets(core_guarded, core_cls)
        assert sets == structure.spectral_sets(Spectrum(core_s.n, core_s.coeffs), core_cls)
        assert core_guarded._coeffs is None
    out, ref = io.StringIO(), io.StringIO()
    jsonio.write_spectrum(guarded, out, nonzero_only=True)
    jsonio.write_spectrum(s, ref, nonzero_only=True)
    assert out.getvalue() == ref.getvalue()
    assert guarded._coeffs is None


def test_shift_spectrum_carries_the_positions():
    # the shift oracle that the reduction tests compare the core spectrum
    # with: a sign flip keeps the nonzero positions of a sparse spectrum
    f = image(two_affine(14, 3), 6)
    s = wht(f)
    assert s.nonzero is not None
    for a in (0, 1, 12345):
        moved = shift_spectrum(s, a)
        assert moved.nonzero == s.nonzero == wht(shift(f, a)).nonzero
        assert moved == wht(shift(f, a))
    assert shift_spectrum(Spectrum(3, wht(OR2).coeffs * 2), 5).nonzero is None


def dense_transform(f):
    """f's spectrum in the dense form, straight from the butterfly."""
    return Spectrum(f.n, butterfly(int_to_bits(f.table, 1 << f.n), f.n))


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_a_sparse_transform_has_the_coeffs_equality_and_hash_of_the_dense_one(n):
    # 2^(n-4) nonzero coefficients is one in 16, the most the sparse form
    # takes; 2^(n-3) is dense
    for k, sparse in ((n - 4, True), (n - 3, False)):
        f = image(affine_indicator(n, k), n + k)
        s, dense = wht(f), dense_transform(f)
        assert (s.nonzero is not None) == sparse
        assert wht(f) == s  # two sparse forms compare without building coeffs
        assert s == dense and dense == s and hash(wht(f)) == hash(dense)
        assert s.coeffs == dense.coeffs and repr(s) == repr(dense)
        fresh = wht(f)
        assert list(fourier.iter_coefficients(fresh)) == list(dense.coeffs)
        assert all(fourier.coefficient(fresh, a) == c for a, c in enumerate(dense.coeffs))
        other = wht(image(affine_indicator(n, k), n + k + 1))
        assert other != s and s != other
        # a shift off the support's directions flips signs at the same positions
        moved = wht(next(g for g in (shift(f, 1 << j) for j in range(n)) if g != f))
        assert moved.nonzero == fresh.nonzero and moved != fresh and fresh != moved


def test_no_command_on_a_sparse_input_unpacks_the_lanes(tmp_path, monkeypatch, capsys):
    f = image(counterexample_padded(16), 16)
    path = tmp_path / "f.json"
    table = f.table.to_bytes(1 << 13, "little").hex()
    path.write_text(json.dumps({"n": 16, "truth_table_hex": table}))
    dense = dense_transform(f)
    ref = io.StringIO()
    jsonio.write_spectrum(dense, ref, nonzero_only=True)
    expected = {
        "decompose": jsonio.dumps(jsonio.decomposition_to_obj(structure.decompose(f, dense))),
        "classify": jsonio.dumps(jsonio.classification_to_obj(structure.classify(dense))),
        "granularity": jsonio.dumps({"granularity": granularity(dense)}),
        "sparsity": jsonio.dumps({"sparsity": sparsity(dense)}),
    }

    unpack_lanes = fourier._unpack

    def unpack(blocks, width):
        # wht runs the butterfly on f's quotient, whose 2^(16 - d) lanes
        # it may unpack; f's own 2^16 lanes are never unpacked
        if sum(map(len, blocks)) * 8 // width >= 1 << 16:
            raise AssertionError("the lanes of a sparse spectrum were unpacked")
        return unpack_lanes(blocks, width)

    monkeypatch.setattr(fourier, "_unpack", unpack)
    for command, out in expected.items():
        assert cli.main([command, "--in", str(path)]) == 0
        assert capsys.readouterr().out == out + "\n"
    assert cli.main(["spectrum", "--nonzero-only", "--in", str(path)]) == 0
    assert capsys.readouterr().out == ref.getvalue()


@pytest.mark.parametrize("f", [image(counterexample_padded(14), 3), all_ones(13), delta(14)])
def test_the_full_spectrum_of_a_sparse_transform_streams_its_zeros(f):
    # the constant function's one coefficient is F(0), and the point's
    # spectrum has no zero, so it is dense
    s = wht(f)
    out, ref = io.StringIO(), io.StringIO()
    jsonio.write_spectrum(s, out)
    jsonio.write_spectrum(dense_transform(f), ref)
    assert out.getvalue() == ref.getvalue()
    assert (s.nonzero is None) == (f == delta(14))
    assert s.nonzero is None or s._coeffs is None  # no tuple of 2^n entries


# wht's quotient route: the search for invariant directions and the
# transform of f's quotient, against the dense butterfly and against the
# full transform's lanes, which wht read before the search existed


def full_lanes_transform(f):
    """f's spectrum from the butterfly on all 2^n lanes, in the form wht
    gives when it runs no search."""
    return fourier._lane_spectrum(int_to_bits(f.table, 1 << f.n), f.n)


def planted(g: BooleanFunction, d: int) -> BooleanFunction:
    """f(x) = g(x's first g.n coordinates) on g.n + d inputs: f is invariant
    along the last d unit vectors."""
    table = g.table
    for i in range(d):
        table |= table << (1 << (g.n + i))
    return BooleanFunction(g.n + d, table)


def counted_translates(monkeypatch):
    """A list that xor_translate, as the search calls it, appends to: the
    translate a, and the bit length of the int it moves."""
    calls = []
    translate = fourier.xor_translate

    def counting(bits, a, n):
        calls.append((a, bits.bit_length()))
        return translate(bits, a, n)

    monkeypatch.setattr(fourier, "xor_translate", counting)
    return calls


def assert_matches_the_full_transform(f):
    s, dense, full = wht(f), dense_transform(f), full_lanes_transform(f)
    assert s.nonzero is None or s._coeffs is None  # no tuple of 2^n entries
    assert s.coeffs == dense.coeffs and hash(s) == hash(dense)
    assert s == full and (s.nonzero is None) == (full.nonzero is None)
    return s


@pytest.mark.parametrize("n", [12, 13, 14, 15, 16])
def test_a_spectrum_has_two_forms_and_a_sparse_one_never_builds_its_coefficients(n):
    # every producer: wht below the size cut, wht's dense lane read (a
    # random table), its sparse lane read and its quotient route, and the
    # core spectrum of reduce_to_core
    f = image(two_affine(n, 3), n)
    s = wht(f)
    core, trace = structure.reduce_to_core(f, s)
    spectra = [(f, s, n == 12), (core, trace.core_spectrum, False)]
    if n > 12:
        assert len(fourier._invariant_rows(f.table, n)[0]) >= fourier._SPARSE_BITS
        g = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
        spectra += [(f, full_lanes_transform(f), False), (g, wht(g), True)]
    for g, s, dense in spectra:
        assert (s.nonzero is None) == dense
        if dense:
            continue
        copy = Spectrum(s.n, tuple(fourier.iter_coefficients(s)))
        assert s == copy and copy == s
        assert hash(s) == hash(copy) and repr(s) == repr(copy)
        assert eval(repr(s), {"Spectrum": Spectrum}) == s
        assert all(fourier.coefficient(s, a) == c for a, c in enumerate(copy.coeffs))
        assert structure.classify(s) == structure.classify(copy)
        assert structure.decompose(g, s) == structure.decompose(g, copy)
        for nonzero_only in (False, True):
            out, ref = io.StringIO(), io.StringIO()
            jsonio.write_spectrum(s, out, nonzero_only)
            jsonio.write_spectrum(copy, ref, nonzero_only)
            assert out.getvalue() == ref.getvalue()
        assert s._coeffs is None


def searched(f) -> tuple[int, ...]:
    """The rows _invariant_rows keeps on f, once the quotient it returns
    with them is checked against boolfunc.gather at the unit vectors off
    their pivots."""
    rows, quotient = fourier._invariant_rows(f.table, f.n)
    pivots = sum(1 << (r.bit_length() - 1) for r in rows)
    assert quotient == gather(f, [1 << c for c in range(f.n) if not pivots >> c & 1]).table, f
    return rows


def invariant_dim(f) -> int:
    """dim K: n minus the rank of the nonzero coefficient positions."""
    return f.n - len(rref(nonzero_items(dense_transform(f))[0]))


def planted_image(n: int, d: int, points: int | None, seed: int) -> BooleanFunction:
    """g on n - d inputs, with points support points or (None) a random
    table, its weight cut to a multiple of 2^(4 - d) so that f's is one of
    16 and the search runs; f is g planted on d more inputs, then pushed
    through a random invertible map and shift."""
    rng = random.Random(seed)
    size = 1 << (n - d)
    if points is None:
        table = rng.getrandbits(size)
    else:
        table = reduce(or_, (1 << rng.randrange(size) for _ in range(points)))
    while table.bit_count() % (1 << max(0, 4 - d)):
        table &= table - 1
    return image(planted(BooleanFunction(n - d, table), d), seed)


def check_planted(n: int, d: int, points: int | None, seed: int) -> BooleanFunction:
    """planted_image(n, d, points, seed): wht(f) must match the dense
    butterfly and the full transform, and every row it finds must leave f
    as it is.  Returns f."""
    f = planted_image(n, d, points, seed)
    s = assert_matches_the_full_transform(f)
    rows = searched(f)
    assert len(rows) <= invariant_dim(f)
    assert all(shift(f, r) == f for r in rows)
    if len(rows) >= 4:
        assert s.nonzero is not None
    return f


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(13, 16),
    d=st.integers(0, 16),
    points=st.one_of(st.none(), st.integers(1, 40)),
    seed=st.integers(0, 2**32),
)
@example(n=16, d=3, points=None, seed=3)
@example(n=16, d=3, points=24, seed=3)
@example(n=16, d=4, points=None, seed=4)
@example(n=16, d=4, points=24, seed=4)
@example(n=17, d=4, points=32, seed=17)
def test_the_quotient_transform_matches_the_dense_butterfly(n, d, points, seed):
    # the n = 17 example takes the quotient route on 2^13 entries, whose own
    # transform scans its lanes and finds its spectrum dense
    check_planted(n, min(d, n), points, seed)


@pytest.mark.parametrize("d", range(14))
def test_a_planted_subspace_of_each_dimension_at_n_13(d):
    # a sparse g, whose support moved by x0 holds few candidates besides
    # K, so the search finds all of K, on either side of dim K = 4
    f = check_planted(13, d, max(1, min(32, (1 << 11) >> d)), d)
    assert len(searched(f)) == invariant_dim(f)


QUOTIENT_FAMILIES = [
    ("two-affine-3", lambda n: two_affine(n, 3)),
    ("two-affine-5", lambda n: two_affine(n, 5)),
    ("counterexample-padded", counterexample_padded),
    ("two-affine-embedded-3", lambda n: tensor(two_affine(n - 2, 3), delta(2))),
]


@pytest.mark.parametrize("n", [13, 14, 15, 16])
@pytest.mark.parametrize("name,family", QUOTIENT_FAMILIES, ids=[q[0] for q in QUOTIENT_FAMILIES])
def test_every_decompose_large_family_takes_the_quotient_route_with_all_of_k(n, name, family):
    for seed in (n, n + 100):
        f = image(family(n), seed)
        s = assert_matches_the_full_transform(f)
        assert len(searched(f)) == invariant_dim(f) >= 4
        assert s.nonzero is not None


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_the_zero_and_all_ones_tables(n):
    zero = assert_matches_the_full_transform(BooleanFunction(n, 0))
    assert zero.nonzero == () and fourier._invariant_rows(0, n) == ((), 0)
    ones = assert_matches_the_full_transform(all_ones(n))
    assert ones.nonzero == (0,) and ones._values == (1 << n,)
    assert searched(all_ones(n)) == tuple(1 << i for i in reversed(range(n)))


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_random_tables_of_weight_0_mod_16_use_up_the_budget_and_fall_back(n, monkeypatch):
    rng = random.Random(n)
    calls = counted_translates(monkeypatch)
    for _ in range(3):
        table = rng.getrandbits(1 << n)
        while table.bit_count() % 16:
            table &= table - 1
        f = BooleanFunction(n, table)
        calls.clear()
        assert fourier._invariant_rows(table, n) == ((), table)
        assert len(calls) == 1 + 2 * fourier._SEARCH_FAILURES
        assert assert_matches_the_full_transform(f).nonzero is None


def test_a_table_with_k_of_dim_4_that_uses_up_the_budget_is_transformed_whole(monkeypatch):
    # a random g on 12 inputs planted on 4 more: dim K = 4, but the search
    # tries non-members of K first, and stops after its failures
    f = image(planted(BooleanFunction(12, random.Random(4).getrandbits(1 << 12)), 4), 4)
    assert invariant_dim(f) == 4
    calls = counted_translates(monkeypatch)
    rows, _ = fourier._invariant_rows(f.table, 16)
    assert len(rows) < 4
    assert len(calls) == 1 + len(rows) + 2 * fourier._SEARCH_FAILURES
    s = assert_matches_the_full_transform(f)
    assert s.nonzero is not None and len(s.nonzero) <= 1 << 12


@pytest.mark.parametrize("n", [13, 16])
def test_the_search_moves_the_table_a_bounded_number_of_times(n, monkeypatch):
    # one move by x0, one per kept direction (at most n), and two per
    # failed try
    bound = 1 + n + 2 * fourier._SEARCH_FAILURES
    tables = [
        all_ones(n),
        image(counterexample_padded(n), n),
        image(tensor(two_affine(n - 3, 4), delta(3)), n),
        image(planted(BooleanFunction(n - 4, random.Random(n).getrandbits(1 << (n - 4))), 4), n),
        BooleanFunction(n, random.Random(n).getrandbits(1 << n) & -16),
    ]
    calls = counted_translates(monkeypatch)
    for f in tables:
        calls.clear()
        wht(f)
        assert len(calls) <= bound


def test_the_fold_at_each_coordinate_is_the_gather_at_the_other_unit_vectors():
    # every coordinate p of every table size from 2^1 to 2^17 entries: a
    # random table, all ones, and the top point alone, whose bytes end in
    # the one set bit
    rng = random.Random(31)
    for m in range(1, 18):
        size = 1 << m
        for bits in (rng.getrandbits(size), (1 << size) - 1, 1 << (size - 1)):
            f = BooleanFunction(m, bits)
            for p in range(m):
                folded = gather(f, [1 << c for c in range(m) if c != p])
                assert fold(bits, p, m) == folded.table, (m, p, bits)


@pytest.mark.parametrize("n", [16, 18])
@pytest.mark.parametrize("name,family", QUOTIENT_FAMILIES, ids=[q[0] for q in QUOTIENT_FAMILIES])
def test_each_kept_direction_is_checked_on_half_the_table_of_the_one_before(
    n, name, family, monkeypatch
):
    # a keep folds the quotient and the candidates once each, at the same
    # coordinate, down from 2^m entries to 2^(m - 1): so after j - 1 keeps
    # every move, the check of the j-th kept direction among them, is of
    # an int of at most 2^(n - j + 1) bits, and none is of the whole table
    # after the first keep
    calls = counted_translates(monkeypatch)
    def folding(bits, p, m):
        calls.append(("fold", m))
        return fold(bits, p, m)

    monkeypatch.setattr(fourier, "fold", folding)
    for seed in (n, n + 100):
        f = image(family(n), seed)
        calls.clear()
        rows = searched(f)
        assert len(rows) == invariant_dim(f) >= 4
        folds = [m for a, m in calls if a == "fold"]
        assert folds == [m for m in range(n, n - len(rows), -1) for _ in range(2)]
        done = 0  # folds so far, two per keep
        for a, bits in calls:
            if a == "fold":
                done += 1
            else:
                assert bits <= 1 << (n - done // 2), (name, seed, calls)
        assert max(bits for a, bits in calls if a != "fold") > 1 << (n - 1)


def planted_tables():
    """400 planted images with dim K >= 4: n = 13..16 and d = 4..8, where
    each odd seed's g is a random table, whose quotient has dense support,
    and each even seed's is 1 to 40 points."""
    for seed in range(400):
        points = None if seed % 2 else 1 + seed // 2 % 40
        yield planted_image(13 + seed % 4, 4 + seed // 4 % 5, points, seed)


def test_the_search_reaches_the_quotient_route_on_as_many_planted_tables_as_before():
    # a search that tried the smallest candidate first and stopped after 4
    # failed tries kept d >= 4 directions on 192 of these tables, 6 of
    # them with a random g; this one keeps them on 212, 21 with a random
    # g.  192 is the floor
    reached = sum(len(fourier._invariant_rows(f.table, f.n)[0]) >= 4 for f in planted_tables())
    assert reached >= 192
