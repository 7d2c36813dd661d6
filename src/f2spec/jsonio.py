"""JSON wire formats for functions, spectra, decompositions and reports.

Function files carry either an explicit support list or a hex-packed truth
table; points are encoded with the first input coordinate at the least
significant bit.  Canonical output is the sorted support form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .addcomb import PointSet
from .boolfunc import BooleanFunction
from .errors import InputFormatError
from .fourier import Spectrum
from .gf2 import MAX_DIMENSION, bits_to_int
from .harness import VerificationReport
from .structure import Classification, Decomposition


def _require_dimension(obj: dict) -> int:
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_DIMENSION:
        raise InputFormatError(f'"n" must be an integer in 1..{MAX_DIMENSION}')
    return n


def function_from_obj(obj: Any) -> BooleanFunction:
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    n = _require_dimension(obj)
    has_support = "support" in obj
    has_hex = "truth_table_hex" in obj
    if has_support == has_hex:
        raise InputFormatError('provide exactly one of "support" or "truth_table_hex"')
    size = 1 << n
    if has_support:
        support = obj["support"]
        if not isinstance(support, list):
            raise InputFormatError('"support" must be a list of integers')
        flags = bytearray(size)
        for x in support:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < size:
                raise InputFormatError(f"support point {x!r} outside 0..{size - 1}")
            if flags[x]:
                raise InputFormatError(f"duplicate support point {x}")
            flags[x] = 1
        return BooleanFunction(n, bits_to_int(flags))
    hex_str = obj["truth_table_hex"]
    if not isinstance(hex_str, str):
        raise InputFormatError('"truth_table_hex" must be a string')
    nbytes = max(1, size // 8)
    try:
        raw = bytes.fromhex(hex_str)
    except ValueError as exc:
        raise InputFormatError(f"bad hex string: {exc}") from exc
    if len(raw) != nbytes:
        raise InputFormatError(
            f"truth table for n={n} needs exactly {nbytes} bytes, got {len(raw)}"
        )
    table = int.from_bytes(raw, "little")
    if table >> size:
        raise InputFormatError("truth table has bits beyond 2^n entries")
    return BooleanFunction(n, table)


def load_function(path: str) -> BooleanFunction:
    return function_from_obj(_load(path))


def load_point_set(path: str) -> PointSet:
    f = function_from_obj(_load(path))
    return PointSet(f.n, f.support())


def _load(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def function_to_obj(f: BooleanFunction) -> dict:
    return {"n": f.n, "support": sorted(f.support())}


def point_set_to_obj(s: PointSet) -> dict:
    return {"n": s.n, "support": sorted(s.members)}


def spectrum_to_obj(s: Spectrum, nonzero_only: bool = False) -> dict:
    coeffs = [
        {"alpha": a, "num": c}
        for a, c in enumerate(s.coeffs)
        if c or not nonzero_only
    ]
    return {"n": s.n, "den_log2": s.n, "coeffs": coeffs}


def classification_to_obj(cls: Classification) -> dict:
    return {"tag": cls.tag, "k": cls.k, "m": cls.m, "t": cls.t}


def decomposition_to_obj(dec: Decomposition) -> dict:
    return {
        "classification": dec.classification.tag,
        "k": dec.classification.k,
        "pieces": [
            {"shift": p.shift, "basis": sorted(p.direction.basis)}
            for p in dec.pieces
        ],
        "verified": True,  # decompose returns only verified decompositions
    }


def fraction_to_obj(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def report_to_obj(r: VerificationReport) -> dict:
    out = {
        "n": r.n,
        "mode": r.mode,
        "examined": r.examined,
        "counts": dict(r.counts),
        "violations": [{"table": t, "check": c} for t, c in r.violations],
        "timing_ms": {k: round(v, 3) for k, v in r.timing_ms.items()},
    }
    if r.seed is not None:
        out["seed"] = r.seed
    return out


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2)
