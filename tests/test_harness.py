from collections import Counter

import pytest

from f2spec import fourier, harness, structure
from f2spec.boolfunc import BooleanFunction, apply_transform, tensor
from f2spec.errors import TheoremViolationError
from f2spec.families import counterexample_padded, delta
from f2spec.fourier import wht
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
    for i in range(6):
        e = 1 << i
        assert m.apply_inverse(m.apply(e)) == e


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
    r = enumerate_verify(3)
    assert r.violations == []
    in_scope = r.counts["RvL"] + r.counts["TwoSubspace"] + r.counts["ExceptionalK4Candidate"]
    assert in_scope == 107
    assert (calls["wht"], calls["classify"], calls["verify_decomposition"]) == (0, 256, in_scope)


def test_enumerate_verify_kill_bound_check_is_live():
    # with no flats to scan, no table can meet the kill-number bound
    r = enumerate_verify_range(2, 0, 16, [[], [], []])
    assert r.violations == [(table, "kill_bound") for table in range(1, 16)]


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

    from f2spec.gf2 import iter_subspaces

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
