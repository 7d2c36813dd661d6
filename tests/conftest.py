"""Shared independent oracles for the test suite.

These are deliberately written from first principles (indicator-spectrum
sums, brute-force enumeration) rather than through the library's own fast
paths, so the two can check each other.
"""

from __future__ import annotations

from fractions import Fraction

from f2spec.boolfunc import BooleanFunction
from f2spec.fourier import Spectrum


def indicator_spectrum(n: int, shift: int, perp_points: list[int], codim: int) -> list[int]:
    """Scaled spectrum of one affine-subspace indicator.

    F(a) = 2^(n-codim) * (-1)^<a, shift> on the constraint space, 0 elsewhere.
    """
    coeffs = [0] * (1 << n)
    for a in perp_points:
        sign = -1 if (a & shift).bit_count() & 1 else 1
        coeffs[a] = sign << (n - codim)
    return coeffs


def span_points(gens: list[int]) -> list[int]:
    pts = [0]
    for g in gens:
        pts += [p ^ g for p in pts]
    return pts


def expected_two_affine_spectrum(n: int, k: int) -> list[int]:
    """Sum of the two indicator spectra of the standard two-subspace instance.

    The instance is 1_{e_k + V1} + 1_{V2} with constraint spaces
    span(e_1..e_k) and span(e_k..e_{2k-1}); adding the two closed-form
    indicator spectra is an independent route to the same coefficients.
    """
    ek = 1 << (k - 1)
    v1_perp = span_points([1 << i for i in range(k)])
    v2_perp = span_points([1 << i for i in range(k - 1, 2 * k - 1)])
    a = indicator_spectrum(n, ek, v1_perp, k)
    b = indicator_spectrum(n, 0, v2_perp, k)
    return [x + y for x, y in zip(a, b)]


def naive_wht(f: BooleanFunction) -> Spectrum:
    """Direct-summation oracle: F(a) = sum over the support of (-1)^<a,x>.

    Quadratic in 2^n; kept deliberately independent of the butterfly so the
    two implementations can check each other.
    """
    size = 1 << f.n
    supp = [x for x in range(size) if (f.table >> x) & 1]
    coeffs = []
    for a in range(size):
        acc = 0
        for x in supp:
            acc += -1 if (a & x).bit_count() & 1 else 1
        coeffs.append(acc)
    return Spectrum(f.n, tuple(coeffs))


def boolean_convolution_check(s: Spectrum) -> bool:
    """Quadratic 0/1 test: 2^n F(a) = sum_b F(b) F(a+b) for every a."""
    size = 1 << s.n
    c = s.coeffs
    for a in range(size):
        acc = 0
        for b in range(size):
            acc += c[b] * c[a ^ b]
        if acc != c[a] << s.n:
            return False
    return True


def oracle_granularity(s: Spectrum) -> int:
    """Largest k such that some coefficient F(a) / 2^n has denominator 2^k."""
    return max(
        (Fraction(c, 1 << s.n).denominator.bit_length() - 1 for c in s.coeffs if c),
        default=0,
    )


# ---- bit-at-a-time reference versions of the table plumbing -----------
# These are the straightforward loops the library used before its linear
# passes; the fast paths must reproduce them exactly.


def oracle_unpack(table: int, size: int) -> list[int]:
    """Truth-table bits, one shift per entry."""
    return [(table >> i) & 1 for i in range(size)]


def oracle_butterfly(values: list[int]) -> None:
    """In-place radix-2 butterfly with the classic nested loops."""
    size = len(values)
    h = 1
    while h < size:
        for i in range(0, size, h << 1):
            for j in range(i, i + h):
                x = values[j]
                y = values[j + h]
                values[j] = x + y
                values[j + h] = x - y
        h <<= 1


def oracle_support(n: int, table: int) -> frozenset[int]:
    return frozenset(x for x in range(1 << n) if (table >> x) & 1)


def oracle_shift(n: int, table: int, a: int) -> int:
    """Table of x -> f(x + a)."""
    out = 0
    for x in range(1 << n):
        if (table >> (x ^ a)) & 1:
            out |= 1 << x
    return out


def oracle_apply_transform(n: int, table: int, m) -> int:
    """Table of x -> f(Mx), with the images of M built by doubling."""
    size = 1 << n
    images = [0] * size
    for i in range(n):
        col = m.apply(1 << i)
        step = 1 << i
        for x in range(step):
            images[x | step] = images[x] ^ col
    out = 0
    for x in range(size):
        if (table >> images[x]) & 1:
            out |= 1 << x
    return out


def oracle_restrict_first_bit(n: int, table: int) -> tuple[int, int]:
    """Tables of (f(0, y), f(1, y))."""
    t0 = 0
    t1 = 0
    for y in range(1 << (n - 1)):
        pair = (table >> (2 * y)) & 3
        t0 |= (pair & 1) << y
        t1 |= (pair >> 1) << y
    return t0, t1


def oracle_max_flat_basis(point: int, points) -> list[int]:
    """Greedy basis of a maximal flat through point inside the set: scan the
    differences in increasing order, keep each whose translate of the span
    built so far stays inside the set."""
    available = frozenset(points)
    deltas = frozenset(p ^ point for p in available)
    span = {0}
    basis: list[int] = []
    for cand in sorted(deltas):
        if cand == 0 or cand in span:
            continue
        new = {cand ^ s for s in span}
        if new <= deltas:
            span |= new
            basis.append(cand)
    return basis
