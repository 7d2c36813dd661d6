"""decompose on the spectral quotient against the dense route it replaced.

decompose reduces f to its core through h on F_2^s (s the dimension of
the span of the nonzero coefficient positions), recovers the pieces there
and checks them on f with bitmasks; conftest.oracle_dense_decompose
reduces f itself, without the quotient, and checks point sets.  The two must give the same JSON wherever the pieces are
unique (the one-flat and two-flat routes); the greedy four-flat route may
pick another partition of the same support.
"""

import functools
import importlib.util
import sys
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f2spec import gf2, jsonio, structure
from f2spec.boolfunc import BooleanFunction, shift, tensor
from f2spec.errors import TheoremViolationError
from f2spec.families import (
    affine_indicator,
    counterexample_core,
    counterexample_padded,
    delta,
    two_affine,
)
from f2spec.fourier import wht
from f2spec.gf2 import (
    AffineSubspace,
    Subspace,
    affine_span,
    complement_generators,
    flat_mask,
    linear_span,
    rref,
)
from f2spec.harness import SplitMix64, random_vector
from f2spec.structure import (
    IN_SCOPE_TAGS,
    TAG_EXCEPTIONAL_K4,
    TAG_RVL,
    TAG_TWO_SUBSPACE,
    Decomposition,
    classify,
    decompose,
    reduce_to_core,
    verify_decomposition,
)

from conftest import (
    FLAT_MASK_WAYS,
    dot,
    flat_masks_both_ways,
    gather,
    image,
    iter_subspaces,
    naive_wht,
    oracle_dense_decompose,
    oracle_dense_reduce,
    oracle_classify,
    oracle_lift_point,
    oracle_pieces_cover_exactly,
    oracle_shift,
    shift_spectrum,
)

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def assert_matches_dense(f, s=None, cls=None):
    """decompose(f) against the dense oracle: identical JSON, except that a
    four-flat partition need only be verified, with the same piece
    dimensions and the same union as the oracle's."""
    dec = decompose(f, s, cls)
    ref = oracle_dense_decompose(f, s, cls)
    if len(ref.pieces) == 4:
        assert verify_decomposition(f, dec)
        assert sorted(p.dim for p in dec.pieces) == sorted(p.dim for p in ref.pieces)
        union = {x for p in dec.pieces for x in p.points()}
        assert union == {x for p in ref.pieces for x in p.points()} == f.support()
    else:
        assert jsonio.decomposition_to_obj(dec) == jsonio.decomposition_to_obj(ref), f


@st.composite
def family_images(draw, max_n=12):
    """A seeded image of one of the three decompose-large families:
    two-affine, counterexample-padded, or two-affine on n - 2 inputs
    embedded in a codimension-2 subspace."""
    family = draw(st.sampled_from(["two-affine", "counterexample-padded", "embedded"]))
    seed = draw(st.integers(min_value=0, max_value=1 << 32))
    if family == "counterexample-padded":
        base = counterexample_padded(draw(st.integers(min_value=6, max_value=max_n)))
    else:
        inner_max = max_n - 2 if family == "embedded" else max_n
        n = draw(st.integers(min_value=3, max_value=inner_max))
        base = two_affine(n, draw(st.integers(min_value=2, max_value=(n + 1) // 2)))
        if family == "embedded":
            base = tensor(base, delta(2))
    return image(base, seed)


def two_disjoint_flats(n, k, j, c):
    """1 on c + U and on V, two (n-k)-flats whose constraint spaces
    U^perp = span(e_1..e_k) and V^perp = span(e_(k-j+1)..e_(2k-j)) meet in
    j dimensions.  They are disjoint exactly when c has a set bit among the
    j shared positions; j = k makes them parallel."""
    u_perp = (1 << k) - 1
    v_perp = u_perp << (k - j)
    assert 1 <= j <= k and 2 * k - j <= n and c & u_perp & v_perp
    points = [x ^ c for x in range(1 << n) if not x & u_perp]
    points += [x for x in range(1 << n) if not x & v_perp]
    return BooleanFunction.from_support(n, points)


@st.composite
def two_flat_images(draw, max_n=10):
    """A seeded image of two disjoint (n-k)-flats with 1 <= j <= k and
    2k - j <= n, for j = dim(U^perp & V^perp): every pair of disjoint flats
    of equal dimension is such an image."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    j = draw(st.integers(min_value=max(1, 2 * k - n), max_value=k))
    shared = draw(st.integers(min_value=k - j, max_value=k - 1))
    c = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) | 1 << shared
    return image(two_disjoint_flats(n, k, j, c), draw(st.integers(min_value=0, max_value=1 << 32)))


@functools.cache
def _in_scope_tables_up_to_n4():
    cases = []
    for n in range(1, 5):
        for table in range(1, 1 << (1 << n)):
            f = BooleanFunction(n, table)
            s = wht(f)
            cls = classify(s)
            if cls.tag in IN_SCOPE_TAGS:
                cases.append((f, s, cls))
    return tuple(cases)


# ------------------------------------------------------------------ parity

def test_parity_with_the_dense_route_on_every_in_scope_table_up_to_n4():
    cases = _in_scope_tables_up_to_n4()
    assert len(cases) == 2948
    for f, s, cls in cases:
        assert_matches_dense(f, s, cls)


@settings(max_examples=60, deadline=None)
@given(family_images())
def test_parity_with_the_dense_route_on_family_images(f):
    assert_matches_dense(f)


@settings(max_examples=200, deadline=None)
@given(two_flat_images())
def test_parity_with_the_dense_route_on_two_disjoint_flats(f):
    assert_matches_dense(f)
    assert verify_decomposition(f, decompose(f))


# the m = 2 cores of k = 2, 3 and 4, the counterexample core among them
SMALL_CORES = (two_affine(3, 2), two_affine(5, 3), two_affine(7, 4), counterexample_core())


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        two_flat_images(),
        st.builds(image, st.sampled_from(SMALL_CORES), st.integers(0, 1 << 32)),
    )
)
def test_spectral_sets_are_the_signed_classes_of_the_dense_core_spectrum(f):
    s = wht(f)
    cls = classify(s)
    assume(cls.m == 2)  # parallel flats are one flat
    core, trace = reduce_to_core(f, s, cls)
    dense = naive_wht(core)
    u = 1 << (core.n - oracle_classify(dense).k)
    classes = tuple(frozenset(a for a, c in enumerate(dense.coeffs) if c == v) for v in (u, -u))
    assert structure.spectral_sets(trace.core_spectrum, trace.core_classification) == classes
    assert structure.spectral_sets(dense) == classes


def test_two_disjoint_flats_decompose_by_their_shape_for_every_j():
    # parallel flats (j = k) are one (n-k+1)-flat; otherwise two (n-k)-flats,
    # tagged ExceptionalK4Candidate when k = 4 even though the core has two
    # pieces
    seen = set()
    for n in range(2, 9):
        for k in range(1, n + 1):
            for j in range(max(1, 2 * k - n), k + 1):
                for seed in range(2):
                    f = image(two_disjoint_flats(n, k, j, 1 << (k - 1)), 100 * n + 10 * k + seed)
                    dec = decompose(f)
                    assert_matches_dense(f)
                    cls = dec.classification
                    if j == k:
                        assert (cls.tag, cls.k) == (TAG_RVL, k - 1)
                        assert [p.dim for p in dec.pieces] == [n - k + 1]
                    else:
                        tag = TAG_EXCEPTIONAL_K4 if k == 4 else TAG_TWO_SUBSPACE
                        assert (cls.tag, cls.k) == (tag, k)
                        assert [p.dim for p in dec.pieces] == [n - k] * 2
                    seen.add((cls.tag, j >= 2))
    assert len(seen) == 6


def _decompose_large_inputs(seed, workdir, monkeypatch):
    """The input files of the benchmark's decompose-large workload."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workloads.DecomposeLarge().build(seed, workdir)
    return sorted(workdir.glob("decompose-*.json"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parity_with_the_dense_route_on_the_decompose_large_inputs(
    seed, tmp_path, monkeypatch
):
    paths = _decompose_large_inputs(seed, tmp_path, monkeypatch)
    assert len(paths) == 16
    for path in paths:
        assert_matches_dense(jsonio.load_function(str(path)))


def test_a_short_negative_class_in_the_quotient_core_raises(short_negative_class):
    # s < n here, and the embedded image still has two reducible directions
    # inside the quotient
    for base in (two_affine(9, 3), tensor(two_affine(7, 3), delta(2)), counterexample_padded(9)):
        f = image(base, 7)
        sigma = rref(compress(range(1 << f.n), wht(f).coeffs))
        assert len(sigma) < f.n
        with pytest.raises(TheoremViolationError) as info:
            decompose(f)
        assert isinstance(info.value.__cause__, ValueError)


# ---------------------------------------------------------------- quotient

@st.composite
def in_scope_images(draw, max_n=10):
    """Seeded images of in-scope instances up to n = max_n: one flat, two
    flats (also embedded in a codimension-2 subspace) or four."""
    kind = draw(st.sampled_from(["affine", "family"]))
    if kind == "family":
        return draw(family_images(max_n))
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n))
    return image(affine_indicator(n, k), draw(st.integers(min_value=0, max_value=1 << 32)))


def quotient(f):
    s = wht(f)
    sigma = rref(compress(range(1 << f.n), s.coeffs))
    origin = min(f.support())
    pivots = [1 << (r.bit_length() - 1) for r in reversed(sigma)]
    h = gather(shift(f, origin), pivots)
    return s, sigma, origin, h


@settings(max_examples=60, deadline=None)
@given(in_scope_images())
def test_f_is_h_of_the_projection(f):
    s, sigma, origin, h = quotient(f)
    n = f.n
    assert h.n == len(sigma) and h.value(0) == 1
    # f is constant on the cosets of the annihilator of sigma's span
    for v in complement_generators(n, sigma):
        assert oracle_shift(n, f.table, v) == f.table
    # and f(x) = h(pi(x + origin)), pi reading the coordinates <sigma_i, x>
    rows = sigma[::-1]
    for x in range(1 << n):
        y = sum(dot(r, x ^ origin) << i for i, r in enumerate(rows))
        assert f.value(x) == h.value(y)
    # the core spectrum gathered from f's is the core's own, and h has
    # the same k and m
    core, trace = structure.reduce_to_core(f, s)
    assert trace.core_spectrum == wht(core)
    cls, h_cls = classify(s), classify(wht(h))
    assert (h_cls.tag, h_cls.k, h_cls.m) == (cls.tag, cls.k, cls.m)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.data())
def test_two_affine_quotients_have_at_most_2k_minus_1_dimensions(n, data):
    k = data.draw(st.integers(min_value=2, max_value=(n + 1) // 2))
    f = image(two_affine(n, k), data.draw(st.integers(min_value=0, max_value=1 << 32)))
    _, sigma, _, h = quotient(f)
    assert len(sigma) == h.n <= 2 * k - 1


@settings(max_examples=40, deadline=None)
@given(in_scope_images())
def test_decompose_with_a_spectrum_makes_no_transform(f):
    s = wht(f)
    cls = classify(s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "wht", lambda *args: pytest.fail("wht was called"))
        dec = decompose(f, s, cls)
    assert verify_decomposition(f, dec)


def test_measured_quotient_dimensions_of_the_bench_families():
    cases = (
        (two_affine(14, 3), 5),
        (two_affine(16, 5), 9),
        (counterexample_padded(14), 6),
        (tensor(two_affine(14, 3), delta(2)), 7),
    )
    for base, s in cases:
        _, sigma, _, h = quotient(image(base, 3))
        assert len(sigma) == h.n == s


def test_subspace_rows_reads_the_rref_rows_of_every_subspace():
    for n in range(1, 6):
        for d in range(n + 1):
            for sub in iter_subspaces(n, d):
                points = sorted(sub.points())
                assert structure._subspace_rows(points, "the points") == sub.basis


@pytest.mark.parametrize(
    "members",
    [
        [0, 1, 5, 6],  # closed under no sum of its rows 1 and 5
        [0, 1, 4, 7],  # 1 + 4 = 5 is missing
        [0, 1, 2],  # not a power of two
        [1, 2, 3, 4],  # no 0
        [],
    ],
)
def test_subspace_rows_rejects_a_list_that_is_no_sorted_subspace(members):
    with pytest.raises(TheoremViolationError, match="the points do not form a subspace"):
        structure._subspace_rows(members, "the points")


def test_rows_of_a_subspace_of_sigma_read_at_its_pivots_are_rref_rows():
    # reduce_to_core takes W's members at indices 1, 2, 4, ... in
    # increasing order as its rref rows, checks that their sums in binary
    # counting order are all of W, and reads the rows at sigma's pivots to
    # get them in h's coordinates: for every subspace W' of F_2^s, the
    # image W of W' under beta -> sum beta_i sigma_i gives back W''s rows
    rng = SplitMix64(71)
    checked = 0
    for n in range(1, 6):
        for s in range(n + 1):
            for _ in range(3):
                sigma = ()
                while len(sigma) < s:
                    sigma = rref((*sigma, random_vector(n, rng)))
                rows = sigma[::-1]
                pivots = [1 << (r.bit_length() - 1) for r in rows]
                alphas = [0]
                for r in rows:
                    alphas += [a ^ r for a in alphas]
                for d in range(s + 1):
                    for sub in iter_subspaces(s, d):
                        w = sorted(alphas[beta] for beta in sub.points())
                        w_rows = tuple(w[1 << j] for j in reversed(range(d)))
                        assert w_rows == rref(w)
                        span = [0]
                        for r in reversed(w_rows):
                            span += [x ^ r for x in span]
                        assert span == w
                        read = tuple(
                            sum(1 << i for i, p in enumerate(pivots) if r & p) for r in w_rows
                        )
                        assert read == sub.basis
                        checked += 1
    assert checked > 1000


def assert_w_and_core_spectrum_read_off_h(f, s=None, cls=None):
    """W's rref rows, as reduce_to_core hands them to the transform, and
    the core spectrum it gathers from f's, against the same read off
    wht(h): W the masks where H equals H(0), and the core spectrum H at the
    masks with every pivot bit of W clear, in increasing order."""
    _, _, _, h = quotient(f)
    hs = wht(h).coeffs
    basis = rref(b for b in range(1, len(hs)) if hs[b] == hs[0])
    pivot_bits = sum(1 << (r.bit_length() - 1) for r in basis)
    kept = tuple(hs[b] for b in range(len(hs)) if not b & pivot_bits)
    seen = []
    send = structure.transform_sending_to_first

    def recording(n, rows):
        seen.append(tuple(rows))
        return send(n, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "transform_sending_to_first", recording)
        _, trace = structure.reduce_to_core(f, s, cls)
    assert seen == ([basis] if basis else []), f
    core_s = trace.core_spectrum
    assert core_s.coeffs == kept, f
    assert core_s.nonzero == tuple(compress(range(1 << core_s.n), core_s.coeffs)), f
    return len(basis)


def test_w_and_core_spectrum_match_h_on_every_m2_table_at_n4():
    cases = [c for c in _in_scope_tables_up_to_n4() if c[0].n == 4 and c[2].m == 2]
    assert len(cases) == 2520
    ws = {assert_w_and_core_spectrum_read_off_h(*case) for case in cases}
    assert ws == {0, 1}


@settings(max_examples=60, deadline=None)
@given(in_scope_images())
def test_w_and_core_spectrum_match_h_on_in_scope_images(f):
    assert_w_and_core_spectrum_read_off_h(f)


def test_w_and_core_spectrum_match_h_at_s_equal_n_with_w_2():
    # two_affine(9, 5) spans F_2^9 in its spectrum, so with two inputs
    # confined to 0 the spectrum still spans F_2^11 (s = n) and w = 2: the
    # core spectrum keeps only f's positions clear at both W pivots
    base = tensor(two_affine(9, 5), delta(2))
    for f in (base, image(base, 11)):
        _, sigma, _, h = quotient(f)
        assert len(sigma) == h.n == 11
        assert assert_w_and_core_spectrum_read_off_h(f) == 2


def test_core_spectrum_at_s_equal_n_with_w_0_is_f_shifted():
    # two_affine(19, 10) spans F_2^19 in its spectrum and is irreducible,
    # so the core spectrum is f's shifted by the origin, read off f's 2,045
    # nonzero positions alone
    f = image(two_affine(19, 10), 5)
    s = wht(f)
    assert s.nonzero is not None and len(s.nonzero) == 2045
    _, trace = structure.reduce_to_core(f, s)
    assert (trace.core_n, trace.kernel) == (19, ())
    assert trace.core_spectrum == shift_spectrum(s, trace.shift)
    assert trace.core_spectrum.nonzero == s.nonzero


def test_quotient_lift_keeps_the_dimension_and_lifts_every_point():
    # the one reduction is the quotient followed by the dense restriction
    # of h: the same core, and a trace that lifts through both at once
    rng = SplitMix64(61)
    for base in (tensor(two_affine(5, 3), delta(2)), counterexample_padded(8), two_affine(8, 3)):
        f = image(base, rng.below(1 << 30))
        _, sigma, origin, h = quotient(f)
        core, trace = structure.reduce_to_core(f)
        h_core, h_trace = oracle_dense_reduce(h)
        assert core == h_core and trace.core_spectrum == h_trace.core_spectrum
        pivots = [r.bit_length() - 1 for r in reversed(sigma)]

        def through_h(y):
            z = oracle_lift_point(h_trace, y)
            return origin ^ sum(1 << p for i, p in enumerate(pivots) if (z >> i) & 1)

        assert all(
            oracle_lift_point(trace, y) == through_h(y) for y in range(1 << core.n)
        )
        kernel = linear_span(f.n, complement_generators(f.n, sigma))
        assert linear_span(f.n, trace.kernel) == kernel
        assert len(trace.kernel) == kernel.dim
        for _ in range(4):
            gens = [random_vector(core.n, rng) for _ in range(rng.below(core.n + 1))]
            flat = AffineSubspace(random_vector(core.n, rng), linear_span(core.n, gens))
            lifted = trace.lift(flat)
            assert lifted.dim == flat.dim + kernel.dim
            points = {through_h(y) ^ v for y in flat.points() for v in kernel.points()}
            assert set(lifted.points()) == points


# ------------------------------------------------------------ verification

def _corrupted(dec):
    """Decompositions near dec, nearly all invalid: each piece moved by a
    unit vector, the pieces' shifts swapped (another valid partition when
    the core has k = 2), a piece halved, a piece repeated, a basis vector
    doubled, and the last piece moved into a space of one more dimension."""
    pieces = dec.pieces
    n = pieces[0].n
    out = []
    for i, p in enumerate(pieces):
        for q in range(n):
            moved = AffineSubspace(p.shift ^ (1 << q), p.direction)
            if moved != p:
                out.append((*pieces[:i], moved, *pieces[i + 1 :]))
    if len(pieces) > 1:
        a, b, *rest = pieces
        out.append((AffineSubspace(b.shift, a.direction), AffineSubspace(a.shift, b.direction), *rest))
        out.append((a, a, *rest))
    first = pieces[0]
    if first.dim:
        top, *others = first.direction.basis
        out.append((AffineSubspace(first.shift, Subspace(n, tuple(others))), *pieces[1:]))
        dependent = Subspace(n, (top, top, *others[1:]))
        out.append((AffineSubspace(first.shift, dependent), *pieces[1:]))
    last = pieces[-1]
    wider = AffineSubspace(last.shift | 1 << n, Subspace(n + 1, last.direction.basis))
    out.append((*pieces[:-1], wider))
    return [Decomposition(tuple(ps), dec.classification) for ps in out]


def oracle_verify(f, dec):
    """The point-set check: pieces in f's space, mandated dimensions, each
    basis independent, and the pieces' point sets partition the support."""
    if any(p.n != f.n for p in dec.pieces):
        return False
    independent = all(
        affine_span(f.n, p.points()).dim == p.dim for p in dec.pieces
    )
    return (
        independent
        and structure._pieces_match_mandate(dec.pieces, f.n, dec.classification)
        and oracle_pieces_cover_exactly(dec.pieces, f.support())
    )


def test_bitmask_verification_matches_the_point_set_oracle():
    cases = [f for f, _, _ in _in_scope_tables_up_to_n4()[::7]]
    rng = SplitMix64(67)
    for base in (two_affine(7, 3), counterexample_padded(7), tensor(two_affine(5, 2), delta(2))):
        cases.append(image(base, rng.below(1 << 30)))
    checked = rejected = 0
    for f in cases:
        dec = decompose(f)
        assert verify_decomposition(f, dec) and oracle_verify(f, dec)
        # the same pieces leave out a point added to the support
        zeros = ~f.table & ((1 << (1 << f.n)) - 1)
        if zeros:
            wider = BooleanFunction(f.n, f.table | (zeros & -zeros))
            assert not verify_decomposition(wider, dec) and not oracle_verify(wider, dec)
        for bad in _corrupted(dec):
            assert verify_decomposition(f, bad) == oracle_verify(f, bad), (f, bad)
            checked += 1
            rejected += not oracle_verify(f, bad)
    assert rejected > checked // 2


def test_verification_rejects_a_piece_of_another_dimension():
    f = two_affine(5, 2)
    dec = decompose(f)
    wide = tuple(AffineSubspace(p.shift, Subspace(6, p.direction.basis)) for p in dec.pieces)
    assert not verify_decomposition(f, Decomposition(wide, dec.classification))
    # one line of four from F_2^7 among lines of F_2^6: the ambient check
    # comes before the four-flat mandate, which spans the pieces in F_2^6
    f = counterexample_padded(6)
    dec = decompose(f)
    assert len(dec.pieces) == 4
    odd = (*dec.pieces[:-1], AffineSubspace(67, Subspace(7, (1,))))
    assert not verify_decomposition(f, Decomposition(odd, dec.classification))


def test_verification_rejects_a_dependent_basis():
    # three basis vectors claim a 3-flat, but they span a plane that is the
    # whole support; the classification claims the one-flat profile of k = 1
    f = affine_indicator(4, 2)
    plane = decompose(f).pieces[0]
    a, b = plane.direction.basis
    claimed = AffineSubspace(plane.shift, Subspace(4, (a, b, a ^ b)))
    assert claimed.points() and set(claimed.points()) == f.support()
    dec = Decomposition((claimed,), structure.Classification(structure.TAG_RVL, 1, 1))
    assert not verify_decomposition(f, dec)
    assert not oracle_verify(f, dec)


# ---------------------------------------- the two ways to build a piece mask

def point_mask(piece):
    return sum(1 << x for x in piece.points())


def verdicts_both_ways(f, dec):
    """verify_decomposition with flat_mask forced each way of
    FLAT_MASK_WAYS in turn."""
    verdicts = []
    with pytest.MonkeyPatch.context() as mp:
        for way in FLAT_MASK_WAYS.values():
            mp.setattr(gf2, "_DOUBLING_MAX_N", way)
            verdicts.append(verify_decomposition(f, dec))
    return verdicts


def assert_both_ways_agree(f, dec, forgeries):
    for p in dec.pieces:
        assert flat_masks_both_ways(p.shift, p.direction.basis, f.n) == [point_mask(p)] * 2
    assert verdicts_both_ways(f, dec) == [True, True]
    for bad in forgeries:
        verdict = oracle_verify(f, bad)
        assert verdicts_both_ways(f, bad) == [verdict, verdict], (f, bad)


def test_both_ways_agree_on_every_piece_up_to_n4():
    # every piece of every in-scope table at n <= 4, where the doubling is
    # the way taken; forgeries of every fifth table
    for i, (f, s, cls) in enumerate(_in_scope_tables_up_to_n4()):
        dec = decompose(f, s, cls)
        assert_both_ways_agree(f, dec, _corrupted(dec) if i % 5 == 0 else ())


@settings(max_examples=60, deadline=None)
@given(st.one_of(in_scope_images(), two_flat_images()))
def test_both_ways_agree_on_images_up_to_n10(f):
    dec = decompose(f)
    assert_both_ways_agree(f, dec, _corrupted(dec))


@pytest.mark.parametrize("way", FLAT_MASK_WAYS.values(), ids=FLAT_MASK_WAYS.keys())
@pytest.mark.parametrize("n", [6, 14])
def test_forged_pieces_fail_both_ways(monkeypatch, way, n):
    monkeypatch.setattr(gf2, "_DOUBLING_MAX_N", way)
    f = image(two_affine(n, 3), n)
    dec = decompose(f)
    assert verify_decomposition(f, dec)
    a, b = dec.pieces
    rows = a.direction.basis
    top, second, *rest = rows

    def rejected(*pieces, g=f):
        return not verify_decomposition(g, Decomposition(pieces, dec.classification))

    # a dependent basis: a repeated row, and one dimension too few
    assert rejected(AffineSubspace(a.shift, Subspace(n, (top, top, *rest))), b)
    # the same flat, on a basis not in rref form: the top row holds the
    # second one's pivot, or the rows come by increasing pivot
    skewed = AffineSubspace(a.shift, Subspace(n, (top ^ second, second, *rest)))
    assert point_mask(skewed) == point_mask(a)
    assert rejected(skewed, b)
    assert rejected(AffineSubspace(a.shift, Subspace(n, rows[::-1])), b)
    # a basis row outside F_2^n
    assert rejected(AffineSubspace(a.shift, Subspace(n, (top | 1 << n, second, *rest))), b)
    # overlapping pieces: one twice, or a translate of one meeting the other
    assert rejected(a, a)
    assert rejected(a, AffineSubspace(a.shift ^ top, b.direction))
    # overlapping pieces of the mandated profile, on a table that is their
    # union: only the disjointness of the masks refuses them
    met = AffineSubspace(a.shift, b.direction)
    assert rejected(a, met, g=BooleanFunction(n, point_mask(a) | point_mask(met)))
    # a missing point: the support has one point the pieces leave out
    zeros = ~f.table & ((1 << (1 << n)) - 1)
    assert rejected(a, b, g=BooleanFunction(n, f.table | (zeros & -zeros)))
    # a wrong profile: each piece halved, four flats where k = 3
    halves = []
    for p in (a, b):
        first, *others = p.direction.basis
        sub = linear_span(n, others)
        halves += [AffineSubspace(p.shift, sub), AffineSubspace(p.shift ^ first, sub)]
    assert rejected(*halves)


def ways_taken(monkeypatch, pieces, n):
    """For each piece, the xor_translate and complement_generators calls
    that flat_mask makes for it: (len(basis), 0) when it doubles, (0, 1)
    when it goes coordinate by coordinate."""
    calls = []

    def counted(name):
        inner = getattr(gf2, name)

        def call(*args):
            calls.append(name)
            return inner(*args)

        return call

    for name in ("xor_translate", "complement_generators"):
        monkeypatch.setattr(gf2, name, counted(name))
    taken = []
    for p in pieces:
        calls.clear()
        assert flat_mask(p.shift, p.direction.basis, n) == point_mask(p)
        taken.append((calls.count("xor_translate"), calls.count("complement_generators")))
    monkeypatch.undo()
    return taken


def test_the_way_is_chosen_by_n_alone(monkeypatch):
    # the benchmark's kinds of pieces at n = 14 and 16, and a point and a
    # line at n = 16, which the doubling builds in a few short steps, go
    # coordinate by coordinate; the same kinds at n = 8 and 12 double, one
    # translate per basis row
    assert gf2._DOUBLING_MAX_N == 12
    for n in (8, 12, 14, 16):
        bases = (two_affine(n, 3), counterexample_padded(n), tensor(two_affine(n - 2, 3), delta(2)))
        pieces = [p for base in bases for p in decompose(image(base, n)).pieces]
        if n == 16:
            pieces += [
                AffineSubspace(12345, Subspace(n, ())),
                AffineSubspace(3, Subspace(n, (1 << 15 | 1,))),
            ]
        expected = [(0, 1) if n > 12 else (p.dim, 0) for p in pieces]
        assert ways_taken(monkeypatch, pieces, n) == expected
