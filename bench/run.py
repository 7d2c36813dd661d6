"""f2spec benchmark: one workload per run, end to end or traced per layer.

    python3 bench/run.py --workload exhaustive-n4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The metric names and units come from BENCHMARK.json at the repository root.
`--trace 0` measures whole cycles of a workload for about `--seconds` and
reports the end-to-end metrics.  `--trace 1` runs a fixed amount of work
three times (traced, untraced, traced), checks that both traced passes give
identical counters, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are for people.
The exit code is 1 when any output check or self-check fails and 2 when
the library source is missing.  `--workload all` runs each workload in a
fresh interpreter, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
IMPORT_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import f2spec.cli"


def header() -> dict:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


class SpeedGauge:
    """Scales timings to a reference machine speed.

    On a shared host the speed of one core drifts by 10-20% over seconds to
    minutes, and the drift slows most interpreted code alike.  The gauge
    times a fixed pure-Python loop before and after each timed call; the
    call's time is divided by (loop time / REFERENCE_NS), so reported times
    are what the call would take at the reference speed.  On a 2-vCPU Xeon
    host this cut the run-to-run spread of a full n = 4 pass from +-12% (raw)
    to +-2.5% (scaled); it helps less on calls of a second or more, whose
    speed changes while they run.  The raw ops_per_s, op_p50_ms and setup_s
    are printed alongside the scaled ones.
    """

    ITERATIONS = 20_000
    REFERENCE_NS = 1_500_000

    def __init__(self) -> None:
        for _ in range(5):  # let the interpreter specialise the loop
            self.factor()

    def factor(self) -> float:
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(self.ITERATIONS):
            acc += i * i
        return (time.perf_counter_ns() - t0) / self.REFERENCE_NS


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy_ns: float = 0.0  # inside timed calls, scaled to the reference speed
    raw_ns: int = 0
    errors: int = 0
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[int] = field(default_factory=list)


def run_ops(ops, tally: Tally, gauge: SpeedGauge) -> None:
    """Run timed calls in order and check each outside the timing.  A call
    that raises counts all its operations as failed; its time still counts."""
    before = gauge.factor()
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            result = op.run()
            raised = False
        except Exception:
            raised = True
            report_failure(tally)
        elapsed = time.perf_counter_ns() - t0
        after = gauge.factor()
        scaled = elapsed * 2 / (before + after)
        before = after
        tally.raw_ns += elapsed
        tally.busy_ns += scaled
        tally.latencies.append(scaled)
        tally.raw_latencies.append(elapsed)
        failed = op.count
        if not raised:
            try:
                failed = op.check(result)
            except Exception:
                report_failure(tally)
        tally.attempted += op.count
        tally.failed += failed


def report_failure(tally: Tally) -> None:
    """Print the traceback of the first few failures only."""
    tally.errors += 1
    if tally.errors <= 3:
        traceback.print_exc(limit=3, file=sys.stderr)


def time_setup(workload, seed: int, workdir: Path, gauge: SpeedGauge) -> float:
    """Median over repeated set-ups of: a fresh interpreter importing the
    library (spawn to exit), plus building this workload's inputs."""
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = gauge.factor()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(SRC)], check=True, timeout=120)
        workload.build(seed, workdir)
        elapsed = time.perf_counter() - t0
        samples.append(elapsed * 2 / (before + gauge.factor()))
        raw.append(elapsed)
    print(f"raw setup_s {statistics.median(raw):.6g}")
    return statistics.median(samples)


def measure(workload, seconds: float, tally: Tally, gauge: SpeedGauge) -> dict:
    """Whole cycles until the next one would overshoot `seconds` by more than half."""
    index = 0
    start = time.perf_counter()
    while True:
        run_ops(workload.cycle(index), tally, gauge)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            break
    passed = tally.attempted - tally.failed
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = tally.latencies
    values = {
        # per second inside timed calls: the checks and gauge loops between
        # calls are not the program's work, so they stay out of the rate
        "ops_per_s": passed / (tally.busy_ns / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "peak_rss_mb": peak_kib / 1024,
        "ok_ratio": passed / tally.attempted,
    }
    print(f"measured {index} cycles, {len(lat)} timed calls, {elapsed:.2f} s wall, "
          f"{tally.raw_ns / 1e9:.2f} s in calls ({tally.busy_ns / 1e9:.2f} s at reference speed)")
    print(f"raw ops_per_s {passed / (tally.raw_ns / 1e9):.6g}")
    print(f"raw op_p50_ms {statistics.median(tally.raw_latencies) / 1e6:.6g}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6f} ({tally.failed} of {tally.attempted} ops)")
    if len(lat) >= 100:
        print(f"op_p90_ms {statistics.quantiles(lat, n=10)[-1] / 1e6:.4f} (informational)")
    return values


def trace(workload, tally: Tally, gauge: SpeedGauge, problems: list[str]) -> dict:
    ops = [op for i in range(workload.trace_cycles) for op in workload.cycle(i)]

    def timed_pass(tracer: Tracer | None = None) -> float:
        before = tally.busy_ns
        with tracer or contextlib.nullcontext():
            run_ops(ops, tally, gauge)
        return tally.busy_ns - before

    first, second = Tracer(layers.WATCHES), Tracer(layers.WATCHES)
    first_ns = timed_pass(first)
    problems += workload.cross_check(first.stats)
    untraced_ns = timed_pass()
    second_ns = timed_pass(second)

    if counters(first) != counters(second):
        problems.append("two traced passes over the same inputs gave different counters")
    for name in layers.required_calls(workload.name):
        if name not in first.stats or first.stats[name].calls == 0:
            problems.append(f"{name} recorded no call on {workload.name}")

    values = {"trace_overhead_ratio": (first_ns + second_ns) / 2 / untraced_ns}
    for entry in layers.LAYER_MAP:
        for fn in entry.functions:
            for kind in entry.stats:
                values[f"{fn}.{kind}"] = layer_value(first, fn, kind)
    print_spans(first, untraced_ns)
    return values


def layer_value(tracer: Tracer, fn: str, kind: str) -> float:
    stat = tracer.stats.get(fn)
    if kind == "calls":
        return stat.calls if stat else 0
    if kind == "self_ms":
        return stat.self_ns / 1e6 if stat else 0.0
    outer, inner, field_name = layers.RATIOS[kind]
    calls = tracer.stats[outer].calls if outer in tracer.stats else 0
    return getattr(tracer.watch(outer, inner), field_name) / calls if calls else 0.0


def counters(tracer) -> dict:
    out = {name: (s.calls, s.yields) for name, s in tracer.stats.items()}
    out.update({(w.outer, w.inner): (w.total, w.hits) for w in tracer.watches})
    return out


def print_spans(tracer, untraced_ns: float) -> None:
    print(f"untraced pass {untraced_ns / 1e6:.1f} ms at reference speed; spans by self time:")
    print(f"{'function':<45} {'calls':>10} {'yields':>9} {'self_ms':>11} {'total_ms':>11}")
    for s in sorted(tracer.stats.values(), key=lambda s: -s.self_ns):
        if s.calls:
            print(f"{s.name:<45} {s.calls:>10} {s.yields:>9} {s.self_ns / 1e6:>11.2f} {s.total_ns / 1e6:>11.2f}")


def run_one(args, spec: dict) -> int:
    if not (SRC / "f2spec" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import f2spec

    if Path(f2spec.__file__).resolve().parent != (SRC / "f2spec").resolve():
        print(f"error: imported f2spec from {f2spec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print("header", json.dumps({**header(), "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    problems: list[str] = []
    gauge = SpeedGauge()
    try:
        setup_s = time_setup(workload, args.seed, workdir, gauge)
        if args.trace:
            values = trace(workload, tally, gauge, problems)
            wanted = spec["per_layer"]
        else:
            values = {"setup_s": setup_s, **measure(workload, args.seconds, tally, gauge)}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<50} {values[m['name']]:>16.6f} {m['unit']}")
    correct = tally.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh interpreter, so set-up and memory are its own."""
    worst = 0
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        worst = max(worst, done.returncode)
        try:
            results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
    print(json.dumps({"workloads": results}))
    return worst


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
