"""Which per-layer metric should move which end-to-end metric, on which workload.

The traced run checks that every function named here records at least one
call on each workload in its `moves` list, so a wrapper that silently stops
seeing a layer fails the run instead of reporting zeros.  `flat` lists the
pairings where a change to that layer is predicted to leave the end-to-end
metric unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

EXHAUSTIVE = "exhaustive-n4"
RANDOM = "random-n8"
LARGE = "decompose-large"
KILL = "kill-search"


@dataclass(frozen=True)
class Entry:
    functions: tuple[str, ...]
    stats: tuple[str, ...]
    moves: tuple[tuple[str, str], ...]  # (end-to-end metric, workload)
    flat: tuple[tuple[str, str], ...] = ()
    required: bool = True  # each function must record a call on its workloads


LAYER_MAP = (
    Entry(("fourier.butterfly",), ("calls", "self_ms"), (("ops_per_s", EXHAUSTIVE),)),
    Entry(("fourier.wht",), ("calls", "self_ms"), (("op_p50_ms", LARGE),)),
    Entry(("structure.classify",), ("calls", "self_ms"), (("ops_per_s", EXHAUSTIVE),)),
    Entry(("harness.enumerate_verify_range",), ("self_ms",), (("ops_per_s", EXHAUSTIVE),)),
    Entry(
        (
            "boolfunc.shift",
            "boolfunc.apply_transform",
            "boolfunc.restrict_first_bit",
            "boolfunc.BooleanFunction.support",
        ),
        ("calls", "self_ms"),
        (("op_p50_ms", LARGE),),
        flat=(("ops_per_s", EXHAUSTIVE),),
    ),
    Entry(
        ("gf2.max_flat_through", "gf2.affine_span", "gf2.rref"),
        ("calls", "self_ms"),
        (("op_p50_ms", LARGE),),
    ),
    # The exhaustive partition search runs only when structural recovery fails
    # its own verification, which no input here triggers (fallback_ratio
    # reads 0); its counters are reported but a call is not required.
    Entry(
        ("gf2.find_flat_partition",),
        ("calls", "self_ms"),
        (("op_p50_ms", LARGE),),
        required=False,
    ),
    Entry(("gf2.GF2Matrix.from_rows",), ("calls",), (("ops_per_s", RANDOM),)),
    Entry(("harness.random_invertible",), ("draws_per_matrix",), (("ops_per_s", RANDOM),)),
    Entry(("families.generate",), ("self_ms",), (("ops_per_s", RANDOM),)),
    Entry(("harness.random_verify",), ("self_ms",), (("ops_per_s", RANDOM),)),
    Entry(
        (
            "structure.reduce_to_core",
            "structure.spectral_sets",
            "structure.verify_decomposition",
            "structure.decompose",
        ),
        ("self_ms",),
        (("ops_per_s", RANDOM), ("op_p50_ms", LARGE)),
    ),
    Entry(
        ("structure.decompose",),
        ("wht_per_call", "fallback_ratio"),
        (("ops_per_s", RANDOM), ("op_p50_ms", LARGE)),
    ),
    Entry(
        ("structure.kill_number",),
        ("calls", "self_ms"),
        (("ops_per_s", KILL),),
        flat=(("ops_per_s", RANDOM), ("op_p50_ms", LARGE)),
    ),
    Entry(
        ("gf2.iter_affine_masks",),
        ("masks_per_kill",),
        (("ops_per_s", KILL),),
        flat=(("ops_per_s", RANDOM), ("op_p50_ms", LARGE)),
    ),
    Entry(
        ("jsonio.load_function", "jsonio.decomposition_to_obj", "jsonio.dumps", "cli.main"),
        ("self_ms",),
        (("op_p50_ms", LARGE),),
        flat=(("ops_per_s", EXHAUSTIVE), ("ops_per_s", RANDOM), ("ops_per_s", KILL)),
    ),
)

# (outer, inner, inner counter): work of `inner` counted inside each `outer` call
WATCHES = (
    ("structure.decompose", "fourier.wht", "calls"),
    ("structure.decompose", "gf2.find_flat_partition", "calls"),
    ("harness.random_invertible", "gf2.GF2Matrix.from_rows", "calls"),
    ("structure.kill_number", "gf2.iter_affine_masks", "yields"),
)

# stat -> (outer, inner, watch field); the metric is field / outer calls
RATIOS = {
    "wht_per_call": ("structure.decompose", "fourier.wht", "total"),
    "fallback_ratio": ("structure.decompose", "gf2.find_flat_partition", "hits"),
    "draws_per_matrix": ("harness.random_invertible", "gf2.GF2Matrix.from_rows", "total"),
    "masks_per_kill": ("structure.kill_number", "gf2.iter_affine_masks", "total"),
}


def required_calls(workload: str) -> list[str]:
    """Functions that must record a call on this workload's traced run."""
    names: list[str] = []
    for entry in LAYER_MAP:
        if entry.required and any(w == workload for _, w in entry.moves):
            names += [f for f in entry.functions if f not in names]
    return names
