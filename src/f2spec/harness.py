"""Exhaustive and randomized verification of the decomposition theory.

The exhaustive verifier walks every truth table of a small dimension and
checks, per function: exact transform round-trip, Parseval, the 0/1
spectrum test, the kill-number bound, the granularity/sparsity relation,
and -- for in-scope spectra -- that decompose finds a decomposition.  The
tables go through the lane-packed butterfly a chunk at a time: each chunk
is transformed in one call and round-tripped in a second, whose result
must be 2^n * f(x) entry for entry.  Each check then runs as one pass over
the chunk's tables, and each table is classified once, in one map of
classify over the chunk's spectra.  classify caches its verdict per
shape (n, F(0), value set) and hands out one shared frozen
Classification per (tag, k, m, t), so a pass over all 65,536 tables at
n = 4 classifies 79 shapes and builds 21 Classifications.  The
granularity/sparsity relation depends on (k, sparsity) alone and is
checked once per distinct pair in a chunk.  decompose takes a
table's spectrum and classification, and returns only decompositions
that passed structure.verify_decomposition (mandated piece profile,
exact cover), so that check runs once per table, inside decompose.  The
kill-number bound uses structure.first_constant_codim, the scan behind
kill_number, and runs it only when k + m <= n: otherwise the bound admits
the points, on each of which every table is constant.  The library calls
go through this module's globals, looked up at call time, so a replaced
function sees every call.

enumerate_verify_range covers one contiguous range of truth tables;
merge_reports folds partial reports of one space associatively.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import repeat
from operator import attrgetter, mul

from .boolfunc import BooleanFunction, apply_transform, shift
from .errors import InputFormatError, TheoremViolationError
from .families import (
    FAMILY_AFFINE,
    FAMILY_COUNTEREXAMPLE_PADDED,
    FAMILY_TWO_AFFINE,
    generate,
)
from .fourier import Spectrum, butterfly, wht
from .gf2 import _ASCII_TO_BIT, GF2Matrix, iter_affine_masks
from .structure import (
    IN_SCOPE_TAGS,
    TAG_EXCEPTIONAL_K4,
    TAG_OUT_OF_SCOPE,
    TAG_RVL,
    TAG_TRIVIAL,
    TAG_TWO_SUBSPACE,
    classify,
    decompose,
    first_constant_codim,
)

ALL_TAGS = (
    TAG_TRIVIAL,
    TAG_RVL,
    TAG_TWO_SUBSPACE,
    TAG_EXCEPTIONAL_K4,
    TAG_OUT_OF_SCOPE,
)

# tables per butterfly call in enumerate_verify_range.  At n = 4 a chunk
# is 16,384 lanes; all 65,536 tables in one call would hold 2^20 lanes and
# their coefficient tuples at once, which took the peak RSS of
# `verify --n 4` from 18 to 49 MiB and ran slower
_CHUNK_TABLES = 1024

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Portable 64-bit generator so reports reproduce across languages.

    State update and output, all modulo 2^64:

        state = state + 0x9E3779B97F4A7C15
        z = state
        z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z XOR (z >> 27)) * 0x94D049BB133111EB
        output = z XOR (z >> 31)
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _SPLITMIX_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-enough draw in [0, bound); bound must be positive."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def random_vector(n: int, rng: SplitMix64) -> int:
    return rng.below(1 << n)


def random_invertible(n: int, rng: SplitMix64) -> GF2Matrix:
    """Rejection-sample an invertible matrix: draw all n rows from rng,
    then keep them if they are independent, else draw n more."""
    while True:
        rows = tuple(rng.below(1 << n) for _ in range(n))
        try:
            return GF2Matrix.from_rows(n, rows)
        except ValueError:
            continue


@dataclass
class VerificationReport:
    n: int
    mode: str
    examined: int = 0
    counts: dict[str, int] = field(
        default_factory=lambda: {tag: 0 for tag in ALL_TAGS}
    )
    violations: list[tuple[int, str]] = field(default_factory=list)
    timing_ms: dict[str, float] = field(default_factory=dict)
    seed: int | None = None

    def ok(self) -> bool:
        return not self.violations


def merge_reports(a: VerificationReport, b: VerificationReport) -> VerificationReport:
    """Commutative, associative fold of partial reports over one space."""
    if a.n != b.n or a.mode != b.mode:
        raise ValueError("reports cover different spaces")
    out = VerificationReport(a.n, a.mode, seed=a.seed if a.seed is not None else b.seed)
    out.examined = a.examined + b.examined
    for tag in ALL_TAGS:
        out.counts[tag] = a.counts.get(tag, 0) + b.counts.get(tag, 0)
    out.violations = a.violations + b.violations
    for key in set(a.timing_ms) | set(b.timing_ms):
        out.timing_ms[key] = a.timing_ms.get(key, 0.0) + b.timing_ms.get(key, 0.0)
    return out


def granularity_sparsity_holds(gran: int, s: int) -> bool:
    """Sparsity-granularity relation for a nonzero 0/1 function.

    Some integer k must make every coefficient a multiple of 1/2^k while
    2^(k/2) <= s <= 2^k.  The smallest admissible k is max(gran, ceil(log2 s));
    only the lower inequality remains to check there.  Pinning k to the
    granularity itself would be too strong: a function can have granularity 2
    with five nonzero coefficients, and 5 > 2^2.
    """
    if s < 1:
        return False
    k0 = max(gran, (s - 1).bit_length())
    return 1 << k0 <= s * s


def enumerate_verify_range(
    n: int, start: int, stop: int, masks_by_codim: list[list[int]] | None = None
) -> VerificationReport:
    """Verify the truth tables start..stop-1 on n inputs; see enumerate_verify.
    masks_by_codim[c] lists the point masks of the codimension-c flats.

    The tables go through the butterfly _CHUNK_TABLES at a time: one call
    transforms a chunk, and a second call on its coefficients must give
    back 2^n * f(x) for every entry of every table (round trip and 0/1
    range at once), checked as one bytes comparison with the chunk's bits
    scaled by 2^n.  Only when that comparison fails are the failing tables
    located.  The kill-number bound scans the flats of codimension below
    k + m only when k + m <= n; a larger bound admits the points, so it
    holds without a scan (1,131 of the 65,535 nonzero tables at n = 4 need
    one).

    Past the two butterfly calls, each check is one pass over the chunk:
    Parseval on the flat coefficient tuple; the spectra, one map of
    classify and one Counter of tags; granularity/sparsity, with the
    sparsity read as 2^n minus the zeros of each table's coefficients and
    the relation looked up once per distinct (k, sparsity) in the chunk;
    the kill bound; decompose on the in-scope tables.  Each phase is timed
    once per chunk.  A failure is kept as (table, rank of its check, name) and the
    chunk's failures are sorted before they are reported, so violations
    come table by table, and within a table in the order the checks are
    listed above, whatever the chunk boundaries.
    """
    check_exhaustive_args(n)
    if not 0 <= start <= stop <= 1 << (1 << n):
        raise ValueError(f"table range must satisfy 0 <= start <= stop <= 2^(2^{n})")
    size = 1 << n
    # 0/1 bytes to 0/2^n bytes: n <= 4 keeps 2^n in a byte
    scale = bytes.maketrans(b"\x01", bytes((size,)))
    report = VerificationReport(n, "exhaustive")
    if masks_by_codim is None:
        masks_by_codim = [list(iter_affine_masks(n, n - c)) for c in range(n + 1)]
    timing = {"transform": 0.0, "classify": 0.0, "decompose": 0.0, "kill": 0.0}
    counts: Counter[str] = Counter()
    t_all = time.perf_counter()
    for lo in range(start, stop, _CHUNK_TABLES):
        hi = min(lo + _CHUNK_TABLES, stop)
        tables = range(lo, hi)
        t0 = time.perf_counter()
        # one format pass: tables hi - 1 down to lo, each written most
        # significant bit first; read backwards, that is every table's bits
        # least significant first, table lo first
        digits = (f"{{:0{size}b}}" * (hi - lo)).format(*range(hi - 1, lo - 1, -1))
        bits = digits[::-1].encode().translate(_ASCII_TO_BIT)
        coeffs = butterfly(bits, n)
        back = butterfly(coeffs, n)
        try:
            round_trip_ok = bytes(back) == bits.translate(scale)
        except ValueError:  # an entry outside 0..255 is no 2^n * f(x)
            round_trip_ok = False
        # (table, rank, check), ranked in the order the checks are listed
        # for one table; sorted once the chunk is done
        failed: list[tuple[int, int, str]] = []
        if not round_trip_ok:
            bad = {lo + i // size for i, (u, b) in enumerate(zip(back, bits)) if u != size * b}
            failed += [(table, 0, "round_trip") for table in bad]
        del back
        # size-tuples of the flat coefficient tuple, one per table
        table_coeffs = list(zip(*[iter(coeffs)] * size))
        squares = map(sum, zip(*[iter(map(mul, coeffs, coeffs))] * size))
        failed += [
            (table, 1, "parseval")
            for table, square, f0 in zip(tables, squares, coeffs[::size])
            if square != f0 << n
        ]
        t1 = time.perf_counter()
        timing["transform"] += t1 - t0
        spectra = list(map(Spectrum, repeat(n, hi - lo), table_coeffs))
        classes = list(map(classify, spectra))
        counts.update(map(attrgetter("tag"), classes))
        # one call per distinct (k, sparsity) in the chunk
        holds = cache(granularity_sparsity_holds)
        failed += [
            (table, 2, "granularity_sparsity")
            for table, cls, coeffs in zip(tables, classes, table_coeffs)
            if table and not holds(cls.k, size - coeffs.count(0))
        ]
        t2 = time.perf_counter()
        timing["classify"] += t2 - t1
        # f is constant on some flat of codimension at most k + m - 1;
        # when k + m > n the points are among those flats, so only
        # k + m <= n needs the scan
        failed += [
            (table, 3, "kill_bound")
            for table, cls in zip(tables, classes)
            if table
            and cls.k + cls.m <= n
            and first_constant_codim(table, masks_by_codim[: cls.k + cls.m]) is None
        ]
        t3 = time.perf_counter()
        timing["kill"] += t3 - t2
        for table, spectrum, cls in zip(tables, spectra, classes):
            if cls.tag in IN_SCOPE_TAGS and table:
                try:
                    decompose(BooleanFunction(n, table), spectrum, cls)
                except TheoremViolationError:
                    failed.append((table, 4, "decomposition_failed"))
        timing["decompose"] += time.perf_counter() - t3
        failed.sort()
        report.violations += [(table, check) for table, _, check in failed]
        report.examined += hi - lo
    for tag, count in counts.items():
        report.counts[tag] += count
    timing["total"] = time.perf_counter() - t_all
    report.timing_ms = {k: v * 1000.0 for k, v in timing.items()}
    return report


def check_exhaustive_args(n: int) -> None:
    """Raise InputFormatError unless enumerate_verify(n) accepts n."""
    if not 1 <= n <= 4:
        raise InputFormatError("exhaustive verification is limited to 1 <= n <= 4")


def enumerate_verify(n: int) -> VerificationReport:
    """Check every one of the 2^(2^n) truth tables on n <= 4 inputs.

    A correct build reports zero violations.
    """
    check_exhaustive_args(n)
    return enumerate_verify_range(n, 0, 1 << (1 << n))


def check_random_args(
    n: int, count: int, family: str | None = None, k: int | None = None
) -> None:
    """Raise InputFormatError unless random_verify can draw every instance
    it is asked for and every instance is in scope; called before any work,
    so a later error is never a bad argument.

    An invertible transform and a shift move coefficients and flip their
    signs but keep F(0) and every magnitude, so the base instance of a
    family decides the classification of all its images.
    """
    if not 5 <= n <= 12:
        raise InputFormatError("randomized verification expects 5 <= n <= 12")
    if count < 1:
        raise InputFormatError("count must be at least 1")
    if k is not None:
        # a pinned k applies to the affine and two-affine draws
        checked = [family] if family is not None else [FAMILY_AFFINE, FAMILY_TWO_AFFINE]
    elif family in (None, FAMILY_AFFINE, FAMILY_TWO_AFFINE):
        checked = []  # k is drawn in range
    else:
        checked = [family]
    for fam in checked:
        try:
            base = generate(fam, n=n, k=k)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        if classify(wht(base)).tag == TAG_OUT_OF_SCOPE:
            raise InputFormatError(f"every instance of {fam!r} is out of scope")


def random_verify(
    n: int,
    count: int,
    seed: int,
    family: str | None = None,
    k: int | None = None,
) -> VerificationReport:
    """Decompose `count` randomly transformed and shifted instances.

    Instances come from the named family (or a seeded mix), pushed through a
    random invertible transform and a random shift, both drawn from the
    documented generator, so a seed pins the whole run.
    """
    check_random_args(n, count, family, k)
    rng = SplitMix64(seed)
    report = VerificationReport(n, "random", seed=seed)
    t_all = time.perf_counter()
    choices = [FAMILY_AFFINE, FAMILY_TWO_AFFINE]
    if n >= 6:
        choices.append(FAMILY_COUNTEREXAMPLE_PADDED)
    for _ in range(count):
        fam = family if family is not None else choices[rng.below(len(choices))]
        if fam == FAMILY_AFFINE:
            kk = k if k is not None else 1 + rng.below(n)
        elif fam == FAMILY_TWO_AFFINE:
            kk = k if k is not None else 2 + rng.below((n + 1) // 2 - 1)
        else:
            kk = None
        base = generate(fam, n=n, k=kk)
        transform = random_invertible(n, rng)
        offset = random_vector(n, rng)
        g = shift(apply_transform(base, transform), offset)
        report.examined += 1
        label = g.table  # the failing input itself: BooleanFunction(n, label)
        try:
            dec = decompose(g)
        except TheoremViolationError:
            report.violations.append((label, f"{fam}:decomposition_failed"))
            continue
        report.counts[dec.classification.tag] += 1
    report.timing_ms = {"total": (time.perf_counter() - t_all) * 1000.0}
    return report
