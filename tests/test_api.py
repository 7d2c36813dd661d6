import f2spec

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
    "SpectralSets",
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
