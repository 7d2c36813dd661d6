"""The four benchmark workloads and their output checks.

Each workload builds its inputs in `build` (from the run seed, where the
workload has random inputs), then hands out cycles of timed operations.  A
cycle is a fixed mix of inputs, so a run that measures whole cycles does the
same kind of work on every seed.  Checks run outside the timed region and
use the benchmark's own arithmetic, never the library's verifier.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from f2spec import boolfunc, cli, families, fourier, gf2, harness, structure

IN_SCOPE = ("RvL", "TwoSubspace", "ExceptionalK4Candidate")


@dataclass
class Op:
    """One timed call covering `count` operations.

    `check` receives the call's result and returns how many of those
    operations failed the benchmark's own output check.
    """

    count: int
    run: Callable[[], object]
    check: Callable[[object], int]


def derive_seed(seed: int, *parts: object) -> int:
    """A sub-seed that depends only on the run seed and the given labels."""
    return random.Random("/".join(map(str, (seed, *parts)))).getrandbits(48)


def random_invertible(n: int, rng: random.Random) -> gf2.GF2Matrix:
    """Rejection-sampled invertible matrix, drawn by the benchmark itself so
    that the inputs do not change when the library's own sampler does."""
    while True:
        try:
            return gf2.GF2Matrix.from_rows(n, [rng.getrandbits(n) for _ in range(n)])
        except ValueError:
            continue


def random_image(f: boolfunc.BooleanFunction, rng: random.Random) -> boolfunc.BooleanFunction:
    """f pushed through a random invertible transform and a random shift."""
    g = boolfunc.apply_transform(f, random_invertible(f.n, rng))
    return boolfunc.shift(g, rng.getrandbits(f.n))


def support_of(table: int) -> set[int]:
    bits = bin(table)[:1:-1]
    return {x for x, b in enumerate(bits) if b == "1"}


class Workload:
    name = ""
    trace_cycles = 1  # cycles in the fixed work of a traced pass

    def build(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        raise NotImplementedError

    def cross_check(self, stats) -> list[str]:
        """Problems found comparing the traced spans with the program's own
        timings; called right after a traced pass."""
        return []


class ExhaustiveN4(Workload):
    """All 65,536 truth tables on 4 inputs, as `verify --n 4` runs them."""

    name = "exhaustive-n4"
    RANGE = 1024
    TABLES = 1 << 16
    CENSUS = {
        "Trivial": 1,
        "RvL": 307,
        "TwoSubspace": 2520,
        "ExceptionalK4Candidate": 0,
        "OutOfScope": 62708,
    }

    def build(self, seed: int, workdir: Path) -> None:
        # the seed is unused: every run covers the whole space
        self.masks = [list(gf2.iter_affine_masks(4, 4 - c)) for c in range(5)]
        self.report = None

    def cycle(self, index: int) -> list[Op]:
        return [
            Op(self.RANGE, partial(self._verify_range, lo), self._check)
            for lo in range(0, self.TABLES, self.RANGE)
        ]

    def _verify_range(self, lo: int):
        part = harness.enumerate_verify_range(4, lo, lo + self.RANGE, self.masks)
        self.report = part if lo == 0 else harness.merge_reports(self.report, part)
        return part

    def _check(self, part) -> int:
        failed = len({table for table, _ in part.violations})
        failed = max(failed, self.RANGE - part.examined)
        if self.report.examined == self.TABLES:
            counts = self.report.counts
            failed += sum(max(0, want - counts.get(tag, 0)) for tag, want in self.CENSUS.items())
        return failed

    def cross_check(self, stats) -> list[str]:
        """The harness times each phase itself; the spans of the library calls
        it makes inside a phase must fit in that phase and fill a real share."""
        timing = self.report.timing_ms
        caller = "harness.enumerate_verify_range"
        problems = []
        for phase, fn in (
            ("transform", "fourier.butterfly"),
            ("classify", "structure.classify"),
            ("decompose", "structure.decompose"),
        ):
            stat = stats.get(fn)
            span_ms = stat.callers.get(caller, [0, 0])[1] / 1e6 if stat else 0.0
            share = span_ms / timing[phase] if timing[phase] else 0.0
            print(f"cross-check {phase}: harness {timing[phase]:.1f} ms, {fn} spans {span_ms:.1f} ms ({share:.0%})")
            if not 0.2 <= share <= 1.01:
                problems.append(f"{fn} spans cover {share:.0%} of the harness {phase} phase")
        own = stats[caller].self_ns / 1e6
        print(f"cross-check kill: harness {timing['kill']:.1f} ms inside {caller} self time {own:.1f} ms")
        if timing["kill"] > own * 1.01:
            problems.append("harness kill phase exceeds the range verifier's self time")
        return problems


class RandomN8(Workload):
    """The two acceptance runs of `random_verify` at n = 8, in seeded batches.

    The acceptance test runs 1000 two-affine k = 3 instances and 100
    counterexample-padded ones; a batch keeps that 10:1 mix.  One timed call
    runs a batch of each family, each with its own seed derived from the run
    seed.  The two families cost different amounts, so timing them as
    separate calls would split the latencies into two groups and leave the
    median in the gap between them.
    """

    name = "random-n8"
    RUNS = (("two-affine", 3, 40), ("counterexample-padded", None, 4))  # (family, k, count)
    trace_cycles = 20

    def build(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def cycle(self, index: int) -> list[Op]:
        seeds = [derive_seed(self.seed, index, family) for family, _, _ in self.RUNS]
        count = sum(c for _, _, c in self.RUNS)
        return [Op(count, partial(self._batches, seeds), self._check)]

    def _batches(self, seeds: list[int]):
        # looked up at call time, so a traced pass sees the wrapped function
        return [
            harness.random_verify(8, count, seed, family=family, k=k)
            for seed, (family, k, count) in zip(seeds, self.RUNS)
        ]

    def _check(self, reports) -> int:
        failed = 0
        for report, (_, _, count) in zip(reports, self.RUNS):
            landed = report.counts["TwoSubspace"] + report.counts["ExceptionalK4Candidate"]
            failed += min(count, max(count - landed, len(report.violations)))
        return failed


class DecomposeLarge(Workload):
    """`f2spec decompose` on hex-table JSON files at n = 14 and 16."""

    name = "decompose-large"
    # (family, k); "two-affine-embedded" lives in a codimension-2 subspace
    KINDS = (
        ("two-affine", 3),
        ("two-affine", 5),
        ("counterexample-padded", None),
        ("two-affine-embedded", 3),
    )
    # random images of each kind per cycle, by n: more of the cheaper n = 14
    # calls put the median latency inside one dense group of similar calls
    IMAGES = ((14, 3), (16, 1))

    def build(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.ops = []
        for n, images in self.IMAGES:
            for i, ((family, k), _) in enumerate(itertools.product(self.KINDS, range(images))):
                base, dims = self._instance(family, n, k)
                f = random_image(base, rng)
                path = workdir / f"decompose-{n}-{i}.json"
                data = f.table.to_bytes((1 << n) // 8, "little").hex()
                path.write_text(json.dumps({"n": n, "truth_table_hex": data}))
                check = partial(self._check, support_of(f.table), dims)
                self.ops.append(Op(1, partial(self._decompose, str(path)), check))

    @staticmethod
    def _instance(family: str, n: int, k: int | None):
        """The untransformed input and the piece dimensions it must decompose into."""
        if family == "two-affine-embedded":
            # two-affine on n - 2 inputs times the point indicator on 2 more:
            # decomposition first strips two reducible directions
            inner = families.generate("two-affine", n=n - 2, k=k)
            return boolfunc.tensor(inner, families.generate("delta", n=2)), [n - 2 - k] * 2
        if family == "counterexample-padded":
            return families.generate(family, n=n), [n - 5] * 4
        return families.generate(family, n=n, k=k), [n - k] * 2

    def cycle(self, index: int) -> list[Op]:
        return self.ops

    @staticmethod
    def _decompose(path: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["decompose", "--in", path])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    @staticmethod
    def _check(support: set[int], dims: list[int], result: tuple[int, str]) -> int:
        code, text = result
        if code != 0:
            return 1
        pieces = json.loads(text)["pieces"]
        if sorted(len(p["basis"]) for p in pieces) != dims:
            return 1
        union: set[int] = set()
        for piece in pieces:
            points = {piece["shift"]}
            for b in piece["basis"]:
                points |= {x ^ b for x in points}
            if len(points) != 1 << len(piece["basis"]) or points & union:
                return 1
            union |= points
        return 0 if union == support else 1


class KillSearch(Workload):
    """Spectrum statistics and the exhaustive kill number at n = 7 and 8.

    The random tables are at n = 7 and the same in every run: the kill search
    stops at the first constant flat in enumeration order, so its cost on a
    fresh random table varies by about 60%, which would swamp any change
    between two commits.  A random table at n = 8 takes about 6 s, a single
    call whose own run-to-run noise moved ops_per_s by 12%, so n = 8 is
    covered by the family instances, which the run seed moves.
    """

    name = "kill-search"
    RANDOM_N = 7
    RANDOM_TABLES = 24
    TABLE_SEED = 2021
    FAMILIES = (  # (family, n, k, (granularity, m)) with F(0) = m / 2^granularity
        ("affine", 8, 3, (3, 1)),
        ("two-affine", 8, 3, (3, 2)),
        ("counterexample-padded", 8, None, (4, 2)),
        ("two-affine", 7, 2, (2, 2)),
    )

    def build(self, seed: int, workdir: Path) -> None:
        tables = random.Random(self.TABLE_SEED)
        n = self.RANDOM_N
        self.ops = [
            self._op(boolfunc.BooleanFunction(n, tables.getrandbits(1 << n)), None)
            for _ in range(self.RANDOM_TABLES)
        ]
        rng = random.Random(seed)
        for family, n, k, km in self.FAMILIES:
            self.ops.append(self._op(random_image(families.generate(family, n=n, k=k), rng), km))

    def cycle(self, index: int) -> list[Op]:
        return self.ops

    def _op(self, f, km) -> Op:
        return Op(1, partial(self._analyse, f), partial(self._check, f.n, bin(f.table).count("1"), km))

    @staticmethod
    def _analyse(f):
        s = fourier.wht(f)
        cls = structure.classify(s)
        fourier.granularity(s)
        return s.coeffs, cls, fourier.sparsity(s), structure.kill_number(f)

    @staticmethod
    def _check(n: int, weight: int, km, result) -> int:
        coeffs, cls, sparsity, kill = result
        ok = coeffs[0] == weight and sum(c * c for c in coeffs) == weight << n
        ok = ok and sparsity == sum(1 for c in coeffs if c)
        if km is not None:
            ok = ok and (cls.k, cls.m) == km
        if cls.tag in IN_SCOPE:
            ok = ok and kill <= cls.k + cls.m - 1
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (ExhaustiveN4, RandomN8, DecomposeLarge, KillSearch)}
