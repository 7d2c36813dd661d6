"""Canonical instance generators used by the tests, the verifier and the CLI."""

from __future__ import annotations

from .boolfunc import BooleanFunction, tensor
from .gf2 import check_dimension

FAMILY_AFFINE = "affine"
FAMILY_TWO_AFFINE = "two-affine"
FAMILY_COUNTEREXAMPLE_CORE = "counterexample-core"
FAMILY_COUNTEREXAMPLE_PADDED = "counterexample-padded"
FAMILY_INTRO_FK = "intro-fk"
FAMILY_INTRO_GK = "intro-gk"
FAMILY_DELTA = "delta"

FAMILIES = (
    FAMILY_AFFINE,
    FAMILY_TWO_AFFINE,
    FAMILY_COUNTEREXAMPLE_CORE,
    FAMILY_COUNTEREXAMPLE_PADDED,
    FAMILY_INTRO_FK,
    FAMILY_INTRO_GK,
    FAMILY_DELTA,
)


def _tile(block: int, width: int, n: int) -> int:
    """Table of 2^n bits repeating a block of `width` bits (a power of two
    at most 2^n), by doubling: log2(2^n / width) shifts."""
    size = 1 << n
    while width < size:
        block |= block << width
        width <<= 1
    return block


def delta(n: int) -> BooleanFunction:
    """Indicator of the single point 0; every scaled coefficient is 1."""
    check_dimension(n)
    return BooleanFunction(n, 1)


def all_ones(n: int) -> BooleanFunction:
    check_dimension(n)
    return BooleanFunction(n, (1 << (1 << n)) - 1)


def affine_indicator(n: int, k: int) -> BooleanFunction:
    """Indicator of a codimension-k affine subspace: x_1 = 1, x_2..x_k = 0.

    For k = 0 this is the all-ones function.
    """
    check_dimension(n)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return all_ones(n)
    # within each block of 2^k points only x = e_1 has x_1..x_k = 1, 0..0
    return BooleanFunction(n, _tile(0b10, 1 << k, n))


def two_affine(n: int, k: int) -> BooleanFunction:
    """Disjoint union of two dimension n-k affine subspaces in the standard
    position: one is e_k + {x : x_1..x_k = 0}, the other {x : x_k..x_{2k-1} = 0}.

    Their constraint spaces overlap in exactly the line through e_k, which is
    the configuration with the smallest possible spectral intersection.
    Requires n >= 2k-1; k = 1 degenerates to the all-ones function.
    """
    check_dimension(n)
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2 * k - 1:
        raise ValueError("need n >= 2k-1")
    ek = 1 << (k - 1)
    # first piece: x_1..x_k = e_k, the point ek in each block of 2^k;
    # second piece: x_k..x_{2k-1} = 0, the first ek points of each block of
    # 2^(2k-1)
    first = _tile(1 << ek, 1 << k, n)
    second = _tile((1 << ek) - 1, 1 << (2 * k - 1), n)
    return BooleanFunction(n, first | second)


def counterexample_core() -> BooleanFunction:
    """The 6-bit function supported on the vectors of weight 0, 5 and 6.

    Its support splits into four disjoint 1-dimensional affine subspaces but
    not into two 2-dimensional ones, even though the spectrum values alone
    would allow the latter.
    """
    ones = 63
    support = [0, ones] + [ones ^ (1 << i) for i in range(6)]
    return BooleanFunction.from_support(6, support)


def counterexample_padded(n: int) -> BooleanFunction:
    """counterexample_core tensored with the all-ones function on n-6 bits."""
    if n < 6:
        raise ValueError("need n >= 6")
    core = counterexample_core()
    if n == 6:
        return core
    return tensor(core, all_ones(n - 6))


def intro_fk(n: int) -> BooleanFunction:
    """OR of the first two coordinates, embedded in n >= 2 variables."""
    check_dimension(n)
    if n < 2:
        raise ValueError("need n >= 2")
    return BooleanFunction(n, _tile(0b1110, 4, n))


def intro_gk(n: int) -> BooleanFunction:
    """Not-all-equal on the first three coordinates, embedded in n >= 3 variables."""
    check_dimension(n)
    if n < 3:
        raise ValueError("need n >= 3")
    return BooleanFunction(n, _tile(0b01111110, 8, n))


def generate(family: str, n: int | None = None, k: int | None = None) -> BooleanFunction:
    """Build a named instance; n and k are required per family as documented.
    Only affine and two-affine take k: ValueError when another family is
    given one, rather than building it without k."""
    if family == FAMILY_AFFINE:
        _need(n, "n"), _need(k, "k")
        return affine_indicator(n, k)
    if family == FAMILY_TWO_AFFINE:
        _need(n, "n"), _need(k, "k")
        return two_affine(n, k)
    if k is not None and family in FAMILIES:
        raise ValueError(f"the {family} family takes no --k")
    if family == FAMILY_COUNTEREXAMPLE_CORE:
        if n is not None and n != 6:
            raise ValueError("counterexample-core is fixed at n = 6")
        return counterexample_core()
    if family == FAMILY_COUNTEREXAMPLE_PADDED:
        _need(n, "n")
        return counterexample_padded(n)
    if family == FAMILY_INTRO_FK:
        _need(n, "n")
        return intro_fk(n)
    if family == FAMILY_INTRO_GK:
        _need(n, "n")
        return intro_gk(n)
    if family == FAMILY_DELTA:
        _need(n, "n")
        return delta(n)
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")


def _need(value, name: str) -> None:
    if value is None:
        raise ValueError(f"this family requires --{name}")
