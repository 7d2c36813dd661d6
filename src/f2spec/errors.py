"""Exception types shared across the package.

The CLI maps these onto its exit codes: input problems exit 2, spectra the
decomposition theory does not cover exit 3, and a failed postcondition
check (which would falsify one of the verified statements) exits 4.
"""


class InputFormatError(ValueError):
    """Malformed or out-of-range user input (JSON files, CLI parameters)."""


class SpectrumScopeError(ValueError):
    """The spectrum lies outside the classified families."""


class TheoremViolationError(RuntimeError):
    """A decomposition route failed, or its pieces failed the postcondition."""
