import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import f2spec

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_LAYERS = BENCH / "layers.py"

# The public names of the package.  A name joins or leaves this list on
# purpose: tests-only helpers and oracles live in tests/conftest.py.
PUBLIC_API = [
    "AffineSubspace",
    "BooleanFunction",
    "Classification",
    "Decomposition",
    "GF2Matrix",
    "InputFormatError",
    "LABA_NOT_APPLICABLE",
    "LABA_SUBGROUP",
    "LABA_VIOLATION",
    "PointSet",
    "ReductionTrace",
    "Spectrum",
    "SpectrumScopeError",
    "SplitMix64",
    "Subspace",
    "TheoremViolationError",
    "VerificationReport",
    "affine_span",
    "apply_transform",
    "classify",
    "decompose",
    "doubling_constant",
    "enumerate_verify",
    "even_zohar_bound",
    "even_zohar_s",
    "generate",
    "granularity",
    "is_boolean_spectrum",
    "is_sum_free",
    "kill_number",
    "laba_check",
    "linear_span",
    "merge_reports",
    "orthogonal_complement",
    "random_verify",
    "reduce_to_core",
    "restrict_first_bit",
    "shift",
    "sparsity",
    "spectral_sets",
    "sumset",
    "tensor",
    "transform_sending_to_first",
    "triangle_neighbors",
    "verify_decomposition",
    "wht",
]


def test_public_api_is_pinned():
    assert sorted(f2spec.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in PUBLIC_API:
        assert hasattr(f2spec, name), name


def test_every_call_the_traced_bench_requires_is_a_public_function(monkeypatch):
    # the traced bench fails a run on which a required name records no
    # call; a rename in the library fails here, in the tests, as well
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    for workload in (layers.EXHAUSTIVE, layers.RANDOM, layers.LARGE, layers.KILL):
        names = layers.required_calls(workload)
        assert names, workload
        for name in names:
            module, *path = name.split(".")
            obj = importlib.import_module(f"f2spec.{module}")
            for attr in path:
                assert not attr.startswith("_") and hasattr(obj, attr), name
                obj = getattr(obj, attr)
            assert inspect.isfunction(obj), name


def test_every_call_the_traced_bench_requires_records_a_call(monkeypatch, tmp_path):
    # the same check as the traced bench's, on fewer ops: a route that
    # stops making a required call fails here as well.  The first op of
    # exhaustive-n4, random-n8 and kill-search makes every call each one
    # requires; decompose-large's route-specific calls come from different
    # input kinds, so all 16 of its ops run.
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("layers", "tracer", "workloads")
    try:
        layers, tracer, workloads = map(importlib.import_module, names)
        for workload in (layers.EXHAUSTIVE, layers.RANDOM, layers.LARGE, layers.KILL):
            bench = workloads.WORKLOADS[workload]()
            bench.build(1, tmp_path)
            ops = bench.cycle(0)
            if workload != layers.LARGE:
                ops = ops[:1]
            with tracer.Tracer(layers.WATCHES) as spans:
                results = [op.run() for op in ops]
            assert [op.check(result) for op, result in zip(ops, results)] == [0] * len(ops)
            stats = spans.stats
            missing = [n for n in layers.required_calls(workload) if n not in stats or not stats[n].calls]
            assert missing == [], workload
    finally:
        for name in names:
            sys.modules.pop(name, None)
