"""Exact Fourier analysis and affine-subspace structure of Boolean functions
on F_2^n: bit-packed GF(2) algebra, integer Walsh-Hadamard spectra,
set-addition bounds, spectrum classification with verified decomposition,
and exhaustive/randomized theorem verification."""

from .addcomb import (
    LABA_NOT_APPLICABLE,
    LABA_SUBGROUP,
    LABA_VIOLATION,
    PointSet,
    doubling_constant,
    even_zohar_bound,
    even_zohar_s,
    is_sum_free,
    laba_check,
    sumset,
)
from .boolfunc import (
    BooleanFunction,
    apply_transform,
    restrict_first_bit,
    shift,
    tensor,
)
from .errors import InputFormatError, SpectrumScopeError, TheoremViolationError
from .families import generate
from .fourier import (
    Spectrum,
    granularity,
    is_boolean_spectrum,
    sparsity,
    wht,
)
from .gf2 import (
    AffineSubspace,
    GF2Matrix,
    Subspace,
    affine_span,
    linear_span,
    orthogonal_complement,
    transform_sending_to_first,
)
from .harness import (
    SplitMix64,
    VerificationReport,
    enumerate_verify,
    merge_reports,
    random_verify,
)
from .structure import (
    Classification,
    Decomposition,
    ReductionTrace,
    classify,
    decompose,
    kill_number,
    reduce_to_core,
    spectral_sets,
    triangle_neighbors,
    verify_decomposition,
)

__all__ = [
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

__version__ = "0.1.0"
