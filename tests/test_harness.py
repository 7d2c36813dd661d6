from collections import Counter

import pytest

from f2spec import fourier, harness, structure
from f2spec.boolfunc import BooleanFunction, apply_transform, tensor
from f2spec.errors import TheoremViolationError
from f2spec.families import counterexample_padded, delta
from f2spec.fourier import sparsity, wht
from f2spec.gf2 import iter_affine_masks
from f2spec.harness import (
    SplitMix64,
    enumerate_verify,
    enumerate_verify_range,
    granularity_sparsity_holds,
    merge_reports,
    random_invertible,
    random_verify,
)
from f2spec.structure import classify

from conftest import oracle_apply, oracle_inverse, oracle_random_invertible_rows


def test_splitmix64_reference_outputs():
    # published reference outputs of the splitmix64 recurrence
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_below_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.below(1000) for _ in range(20)] == [b.below(1000) for _ in range(20)]
    with pytest.raises(ValueError):
        a.below(0)


def test_random_invertible_is_invertible_and_seeded():
    rng = SplitMix64(7)
    m = random_invertible(6, rng)
    rng2 = SplitMix64(7)
    m2 = random_invertible(6, rng2)
    assert m == m2
    inverse = oracle_inverse(m)
    for i in range(6):
        e = 1 << i
        assert oracle_apply(inverse, oracle_apply(m, e)) == e


def test_random_invertible_matches_an_oracle_sampler():
    # the same SplitMix64 stream, rejected by an independent rank check:
    # the same rows, after the same number of draws
    for n in range(5, 13):
        for seed in range(200):
            rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
            m = random_invertible(n, rng)
            assert m.rows == oracle_random_invertible_rows(n, oracle_rng)
            assert rng.next_u64() == oracle_rng.next_u64()


def test_enumerate_verify_n1_counts():
    r = enumerate_verify(1)
    assert r.examined == 4
    assert r.violations == []
    assert r.counts == {
        "Trivial": 1,
        "RvL": 3,
        "TwoSubspace": 0,
        "ExceptionalK4Candidate": 0,
        "OutOfScope": 0,
    }


def test_enumerate_verify_n2_counts():
    r = enumerate_verify(2)
    assert r.examined == 16
    assert r.violations == []
    # 11 affine-subspace indicators: 4 points + 6 pairs + the whole plane
    assert r.counts["RvL"] == 11
    assert r.counts["Trivial"] == 1
    assert r.counts["OutOfScope"] == 4
    assert r.counts["TwoSubspace"] == 0


def test_enumerate_verify_n3_counts():
    r = enumerate_verify(3)
    assert r.examined == 256
    assert r.violations == []
    # single-subspace instances = number of affine subspaces of F_2^3
    assert r.counts["RvL"] == 51
    # every 4-point set that is not itself a flat splits into two lines
    assert r.counts["TwoSubspace"] == 70 - 14
    assert r.counts["OutOfScope"] == 148


def test_enumerate_verify_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_verify(5)


def test_enumerate_verify_transforms_classifies_and_verifies_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    counted_wht = counted("wht", fourier.wht)
    counted_classify = counted("classify", structure.classify)
    for module in (fourier, structure, harness):
        monkeypatch.setattr(module, "wht", counted_wht)
    for module in (structure, harness):
        monkeypatch.setattr(module, "classify", counted_classify)
    monkeypatch.setattr(
        structure,
        "verify_decomposition",
        counted("verify_decomposition", structure.verify_decomposition),
    )
    monkeypatch.setattr(harness, "butterfly", counted("butterfly", harness.butterfly))
    r = enumerate_verify(3)
    assert r.violations == []
    in_scope = r.counts["RvL"] + r.counts["TwoSubspace"] + r.counts["ExceptionalK4Candidate"]
    assert in_scope == 107
    assert (calls["wht"], calls["classify"], calls["verify_decomposition"]) == (0, 256, in_scope)
    # all 256 tables fit in one chunk: one transform and one round trip
    assert calls["butterfly"] == 2


def test_enumerate_verify_range_rejects_bad_arguments():
    for n, start, stop in (
        (4, -3, 2),  # negative tables
        (5, 0, 4),  # past the exhaustive limit
        (0, 0, 1),
        (4, 5, 3),  # stop before start
        (4, 0, (1 << 16) + 1),  # past the last table
        (2, 16, 17),
    ):
        with pytest.raises(ValueError):
            enumerate_verify_range(n, start, stop)
    empty = enumerate_verify_range(4, 7, 7)
    assert empty.examined == 0
    assert empty.violations == []
    assert set(empty.counts.values()) == {0}
    assert enumerate_verify_range(2, 16, 16).examined == 0


def test_chunked_range_matches_merged_ranges():
    # 1000..3100 spans three chunks, none aligned to a multiple of 1,024
    whole = enumerate_verify_range(4, 1000, 3100)
    merged = merge_reports(
        enumerate_verify_range(4, 1000, 2048), enumerate_verify_range(4, 2048, 3100)
    )
    assert whole.examined == merged.examined == 2100
    assert whole.counts == merged.counts
    assert whole.violations == merged.violations == []


@pytest.mark.parametrize(
    "corrupt",
    [lambda v: v + 1, lambda v: v - 1, lambda v: 256],
    ids=["plus-one", "minus-one-below-byte-range", "256-above-byte-range"],
)
def test_round_trip_failure_names_only_the_corrupted_table(monkeypatch, corrupt):
    real = harness.butterfly
    seen = []

    def corrupt_round_trip(values, n):
        out = real(values, n)
        seen.append(len(values))
        if len(seen) == 2:  # the round trip of the first chunk
            lanes = list(out)
            lanes[37 * 16 + 5] = corrupt(lanes[37 * 16 + 5])
            return tuple(lanes)
        return out

    monkeypatch.setattr(harness, "butterfly", corrupt_round_trip)
    r = enumerate_verify_range(4, 1000, 3000)
    assert r.examined == 2000
    assert r.violations == [(1037, "round_trip")]


# tables that a test forces to fail each check; 1290 and 2400 are 2-flats,
# in scope with k + m = 3, whose shape (k, s) = (2, 4) is made to fail the
# granularity/sparsity relation, so 1290 fails three checks and 2400 two
FORCED_ROUND_TRIP = {1100, 2400}
FORCED_SHAPE = (2, 4)
FORCED_KILL = {1290, 2049}
FORCED_DECOMPOSE = {1025, 1290, 2310}
CHECK_ORDER = ["round_trip", "parseval", "granularity_sparsity", "kill_bound", "decomposition_failed"]


def force_violations(monkeypatch):
    """Make the forced tables fail: corrupt one lane of their round trips
    (the butterfly's second call on a chunk, which gets coefficients, not
    bits), and replace the three checks that the harness calls."""
    real_butterfly = harness.butterfly
    real_kill = harness.first_constant_codim
    real_decompose = harness.decompose

    def butterfly(values, n):
        out = real_butterfly(values, n)
        if isinstance(values, bytes):
            return out
        size = 1 << n
        lanes = list(out)
        for offset in range(0, len(lanes), size):
            # the round trip gives back 2^n * f(x), so each slice names its table
            table = sum(v // size << x for x, v in enumerate(lanes[offset : offset + size]))
            if table in FORCED_ROUND_TRIP:
                lanes[offset + 3] += 1
        return tuple(lanes)

    def holds(gran, s):
        return (gran, s) != FORCED_SHAPE and granularity_sparsity_holds(gran, s)

    def first_constant_codim(table, masks_by_codim):
        return None if table in FORCED_KILL else real_kill(table, masks_by_codim)

    def decompose(f, spectrum=None, cls=None):
        if f.table in FORCED_DECOMPOSE:
            raise TheoremViolationError("forced for the test")
        return real_decompose(f, spectrum, cls)

    monkeypatch.setattr(harness, "butterfly", butterfly)
    monkeypatch.setattr(harness, "granularity_sparsity_holds", holds)
    monkeypatch.setattr(harness, "first_constant_codim", first_constant_codim)
    monkeypatch.setattr(harness, "decompose", decompose)


def per_table_violations(n, start, stop):
    """The violations the checks give one table at a time, in table order
    and, within a table, in the order the checks are listed."""
    masks = [list(iter_affine_masks(n, n - c)) for c in range(n + 1)]
    out = []
    for table in range(start, stop):
        s = wht(BooleanFunction(n, table))
        cls = classify(s)
        if table in FORCED_ROUND_TRIP:
            out.append((table, "round_trip"))
        if sum(c * c for c in s.coeffs) != s.coeffs[0] << n:
            out.append((table, "parseval"))
        if not table:
            continue
        if not harness.granularity_sparsity_holds(cls.k, sparsity(s)):
            out.append((table, "granularity_sparsity"))
        if (
            cls.k + cls.m <= n
            and harness.first_constant_codim(table, masks[: cls.k + cls.m]) is None
        ):
            out.append((table, "kill_bound"))
        if cls.tag in structure.IN_SCOPE_TAGS:
            try:
                harness.decompose(BooleanFunction(n, table), s, cls)
            except TheoremViolationError:
                out.append((table, "decomposition_failed"))
    return out


def test_violations_come_table_by_table_in_check_order(monkeypatch):
    force_violations(monkeypatch)
    # 1000..3047 is two chunks, 1000..2023 and 2024..3047; the halves split
    # at 2000 and chunk differently
    whole = enumerate_verify_range(4, 1000, 3048)
    expected = per_table_violations(4, 1000, 3048)
    assert whole.violations == expected
    merged = merge_reports(
        enumerate_verify_range(4, 1000, 2000), enumerate_verify_range(4, 2000, 3048)
    )
    assert merged.violations == whole.violations
    assert merged.counts == whole.counts
    # the forcing is live: failures in both chunks, interleaved checks, and
    # one table that fails three of them
    tables = [table for table, _ in expected]
    checks = [check for _, check in expected]
    assert tables.count(1290) == 3
    assert set(checks) == set(CHECK_ORDER) - {"parseval"}
    assert checks != sorted(checks, key=CHECK_ORDER.index)
    assert min(tables) < 2024 <= max(tables)
    # the relation, checked once per (k, sparsity) in a chunk, still flags
    # every table of the forced shape, and no other
    shaped = set()
    for table in range(1000, 3048):
        s = wht(BooleanFunction(4, table))
        if (classify(s).k, sparsity(s)) == FORCED_SHAPE:
            shaped.add(table)
    flagged = {table for table, check in whole.violations if check == "granularity_sparsity"}
    assert len(shaped) > 2 and flagged == shaped


def test_the_relation_is_checked_once_per_k_and_sparsity_in_a_chunk(monkeypatch):
    calls = []

    def recording(gran, s):
        calls.append((gran, s))
        return granularity_sparsity_holds(gran, s)

    monkeypatch.setattr(harness, "granularity_sparsity_holds", recording)
    r = enumerate_verify_range(4, 0, 2048)
    assert r.violations == []
    # the chunks are 0..1023 and 1024..2047; the zero table has no shape
    expected = Counter()
    for lo in (0, 1024):
        spectra = [wht(BooleanFunction(4, table)) for table in range(max(lo, 1), lo + 1024)]
        expected.update({(classify(s).k, sparsity(s)) for s in spectra})
    assert Counter(calls) == expected
    assert max(expected.values()) == 2  # shapes that both chunks meet are checked in each


def test_enumerate_verify_transforms_a_bounded_chunk_per_call(monkeypatch):
    real = harness.butterfly
    sizes = []

    def recording(values, n):
        sizes.append(len(values))
        return real(values, n)

    monkeypatch.setattr(harness, "butterfly", recording)
    r = enumerate_verify(4)
    assert r.violations == [] and r.examined == 1 << 16
    assert max(sizes) <= 1024 * 16
    # 64 chunks of 1,024 tables, each transformed and round-tripped once
    assert len(sizes) == 2 * 64


def tables_with_kill_scan(n):
    """The nonzero tables on n inputs whose bound k + m - 1 is below n, so
    that the points do not meet it by themselves."""
    tables = []
    for table in range(1, 1 << (1 << n)):
        cls = classify(wht(BooleanFunction(n, table)))
        if cls.k + cls.m <= n:
            tables.append(table)
    return tables


def test_enumerate_verify_kill_bound_check_is_live():
    # with no flats to scan, no table that needs the scan meets the bound
    r = enumerate_verify_range(2, 0, 16, [[], [], []])
    assert r.violations == [(table, "kill_bound") for table in tables_with_kill_scan(2)]
    assert r.violations


@pytest.mark.parametrize("n", [3, 4])
def test_kill_bound_scans_only_when_k_plus_m_is_at_most_n(monkeypatch, n):
    # k + m > n admits the points, on which every table is constant: the
    # scan runs on the other tables alone, and a scan that finds nothing
    # fails exactly those
    scanned = []

    def no_constant_flat(table, masks_by_codim):
        scanned.append(table)
        return None

    monkeypatch.setattr(harness, "first_constant_codim", no_constant_flat)
    r = enumerate_verify_range(n, 0, 1 << (1 << n))
    want = tables_with_kill_scan(n)
    assert scanned == want
    assert r.violations == [(table, "kill_bound") for table in want]
    assert len(want) == {3: 43, 4: 1131}[n]


def test_partial_reports_merge_to_full_run():
    full = enumerate_verify_range(3, 0, 256)
    a = enumerate_verify_range(3, 0, 100)
    b = enumerate_verify_range(3, 100, 256)
    merged = merge_reports(a, b)
    assert merged.examined == full.examined == 256
    assert merged.counts == full.counts
    assert merged.violations == full.violations
    # merge is symmetric
    swapped = merge_reports(b, a)
    assert swapped.counts == merged.counts


def test_classification_counts_invariant_under_fixed_transform():
    n = 3
    m = random_invertible(n, SplitMix64(12345))
    plain = Counter()
    moved = Counter()
    for table in range(1 << (1 << n)):
        f = BooleanFunction(n, table)
        plain[classify(wht(f)).tag] += 1
        moved[classify(wht(apply_transform(f, m))).tag] += 1
    assert plain == moved


def test_n4_two_subspace_census_matches_flat_pair_oracle():
    # brute-force oracle: distinct unions of two disjoint, non-parallel
    # 2-flats (840) plus 4-point sets that are not flats (1820 - 140)
    from itertools import combinations

    from conftest import iter_subspaces

    flats = []
    for sub in iter_subspaces(4, 2):
        pts = sub.points()
        seen = set()
        for rep in range(16):
            if rep in seen:
                continue
            coset = frozenset(rep ^ p for p in pts)
            seen |= coset
            flats.append((coset, sub))
    assert len(flats) == 140
    unions = set()
    for (c1, v1), (c2, v2) in combinations(flats, 2):
        if not (c1 & c2) and v1 != v2:
            unions.add(c1 | c2)
    expected = len(unions) + (1820 - 140)
    census = Counter()
    for table in range(1 << 16):
        census[classify(wht(BooleanFunction(4, table))).tag] += 1
    assert census["TwoSubspace"] == expected == 2520
    assert census["RvL"] == 307  # = number of affine subspaces of F_2^4
    assert census["ExceptionalK4Candidate"] == 0


def test_granularity_sparsity_predicate():
    assert granularity_sparsity_holds(0, 1)  # the all-ones function
    assert granularity_sparsity_holds(3, 8)  # a point: s = 2^k
    assert granularity_sparsity_holds(2, 5)  # needs k = 3 > granularity
    assert not granularity_sparsity_holds(9, 2)  # 2^9 > 4: impossible shape


def test_random_verify_deterministic_and_clean():
    r1 = random_verify(6, 50, seed=2)
    r2 = random_verify(6, 50, seed=2)
    assert r1.examined == 50
    assert r1.violations == []
    assert r1.counts == r2.counts and r1.violations == r2.violations
    r3 = random_verify(6, 50, seed=3)
    assert r3.violations == []


def test_random_verify_family_pinned():
    r = random_verify(7, 25, seed=11, family="two-affine", k=3)
    assert r.violations == []
    assert r.counts["TwoSubspace"] == 25


def test_random_verify_counterexample_family():
    r = random_verify(6, 10, seed=13, family="counterexample-padded")
    assert r.violations == []
    assert r.counts["ExceptionalK4Candidate"] == 10


def test_random_verify_parameter_validation():
    with pytest.raises(ValueError):
        random_verify(4, 10, seed=1)
    with pytest.raises(ValueError):
        random_verify(6, 0, seed=1)


def test_a_failing_core_route_is_recorded_as_a_violation(short_negative_class):
    r = enumerate_verify_range(3, 0, 256)
    two_subspace = [
        table
        for table in range(1, 256)
        if classify(wht(BooleanFunction(3, table))).m == 2
    ]
    assert two_subspace
    assert r.violations == [(table, "decomposition_failed") for table in two_subspace]


def test_random_verify_accepts_four_pieces_of_an_embedded_exceptional_core(monkeypatch):
    # k = 6 overall with a k = 4 core: four 3-flats are the mandated profile
    embedded = tensor(counterexample_padded(8), delta(2))
    monkeypatch.setattr(harness, "generate", lambda family, n=None, k=None: embedded)
    r = random_verify(10, 3, seed=4, family="counterexample-padded")
    assert r.violations == []
    assert r.counts["TwoSubspace"] == 3


def test_random_verify_violation_replays_the_failing_input(monkeypatch):
    seen = []
    real = harness.decompose

    def fail_second(g):
        seen.append(g)
        if len(seen) == 2:
            raise TheoremViolationError("forced for the test")
        return real(g)

    monkeypatch.setattr(harness, "decompose", fail_second)
    r = random_verify(7, 4, seed=5, family="two-affine", k=3)
    assert len(r.violations) == 1
    label, check = r.violations[0]
    assert check == "two-affine:decomposition_failed"
    assert BooleanFunction(7, label) == seen[1]
