"""Command-line interface.

Exit codes: 0 success, 2 malformed input, 3 spectrum outside the
decomposable families, 4 verification failure (a falsified postcondition).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, TextIO

from . import jsonio
from .addcomb import (
    PointSet,
    doubling_constant,
    even_zohar_bound,
    even_zohar_s,
    is_sum_free,
    laba_check,
    sumset,
)
from .errors import InputFormatError, SpectrumScopeError, TheoremViolationError
from .families import FAMILIES, generate
from .fourier import granularity, sparsity, wht
from .gf2 import MAX_DIMENSION
from .harness import enumerate_verify, random_verify
from .structure import classify, decompose, kill_number

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCOPE = 3
EXIT_VIOLATION = 4

# sumset, doubling, sumfree and laba each form all |A| |B| sums; at the cap
# one run takes 1-2 s
MAX_SET_PAIRS = 1 << 24


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    main call in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="f2spec",
        description="Exact spectra and affine-subspace structure of Boolean "
        "functions on F_2^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--in", dest="path", required=True, help="function JSON file")

    p = sub.add_parser("spectrum", help="scaled Fourier coefficients of a function")
    with_input(p)
    p.add_argument(
        "--nonzero-only",
        action="store_true",
        help="emit only the nonzero coefficients (canonical form)",
    )

    p = sub.add_parser("classify", help="spectrum-shape classification")
    with_input(p)

    p = sub.add_parser("decompose", help="affine-subspace decomposition of the support")
    with_input(p)

    p = sub.add_parser("granularity", help="maximum coefficient granularity")
    with_input(p)

    p = sub.add_parser("sparsity", help="number of nonzero coefficients")
    with_input(p)

    p = sub.add_parser("kill-number", help="least codimension of a constant subspace")
    with_input(p)

    p = sub.add_parser("generate", help="build a named instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("addcomb", help="set-addition utilities")
    asub = p.add_subparsers(dest="addcomb_command", required=True)
    q = asub.add_parser("sumset", help="pointwise sum of two sets")
    q.add_argument("--a", required=True, help="first set (function JSON, support = set)")
    q.add_argument("--b", required=True, help="second set")
    q = asub.add_parser("doubling", help="doubling constant |A+A|/|A|")
    q.add_argument("--in", dest="path", required=True)
    q = asub.add_parser("sumfree", help="whether (A+A) misses A")
    q.add_argument("--in", dest="path", required=True)
    q = asub.add_parser("laba", help="difference-set subgroup criterion")
    q.add_argument("--in", dest="path", required=True)
    q = asub.add_parser("fk", help="span-size bound from a doubling constant")
    q.add_argument("--num", type=int, required=True)
    q.add_argument("--den", type=int, required=True)

    p = sub.add_parser("verify", help="exhaustive or randomized theorem verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--random", type=int, default=None, metavar="COUNT")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--k", type=int, default=None)

    return parser


def _emit(obj) -> None:
    _write(lambda out: print(jsonio.dumps(obj), file=out))


def _write(write: Callable[[TextIO], None]) -> None:
    """write(sys.stdout), then a flush.  A reader that closes the pipe early
    has read all it wants, so the command keeps its exit code; fd 1 then
    points at os.devnull, so that the interpreter's exit flush of what is
    left in the buffer raises nothing."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "addcomb":
        return _run_addcomb(args)
    if cmd == "verify":
        return _run_verify(args)
    if cmd == "generate":
        # the file format starts at n = 1 (jsonio), so no command could read n = 0
        if args.n is not None and args.n < 1:
            raise InputFormatError("--n must be at least 1")
        try:
            f = generate(args.family, n=args.n, k=args.k)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        _emit(jsonio.function_to_obj(f))
        return EXIT_OK
    # every other command reads one function from --in
    f = jsonio.load_function(args.path)
    if cmd == "spectrum":
        s = wht(f)
        _write(lambda out: jsonio.write_spectrum(s, out, nonzero_only=args.nonzero_only))
    elif cmd == "classify":
        _emit(jsonio.classification_to_obj(classify(wht(f))))
    elif cmd == "decompose":
        _emit(jsonio.decomposition_to_obj(decompose(f)))
    elif cmd == "granularity":
        _emit({"granularity": granularity(wht(f))})
    elif cmd == "sparsity":
        _emit({"sparsity": sparsity(wht(f))})
    elif cmd == "kill-number":
        _emit({"kill_number": kill_number(f)})
    return EXIT_OK


def _check_pairs(a: PointSet, b: PointSet) -> None:
    """Reject operands that would form more than MAX_SET_PAIRS sums."""
    pairs = len(a) * len(b)
    if pairs > MAX_SET_PAIRS:
        raise InputFormatError(
            f"the sets would form {pairs} sums; the limit is {MAX_SET_PAIRS}"
        )


def _run_addcomb(args: argparse.Namespace) -> int:
    sub = args.addcomb_command
    if sub == "sumset":
        a = jsonio.load_point_set(args.a)
        b = jsonio.load_point_set(args.b)
        _check_pairs(a, b)
        try:
            _emit(jsonio.point_set_to_obj(sumset(a, b)))
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
    elif sub == "doubling":
        s = jsonio.load_point_set(args.path)
        _check_pairs(s, s)
        if not s.members:
            raise InputFormatError("the set must be nonempty")
        _emit(jsonio.fraction_to_obj(doubling_constant(s)))
    elif sub == "sumfree":
        s = jsonio.load_point_set(args.path)
        _check_pairs(s, s)
        _emit({"sum_free": is_sum_free(s)})
    elif sub == "laba":
        s = jsonio.load_point_set(args.path)
        _check_pairs(s, s)
        if not s.members:
            raise InputFormatError("the set must be nonempty")
        _emit({"verdict": laba_check(s)})
    elif sub == "fk":
        if args.den <= 0 or args.num <= 0:
            raise InputFormatError("--num and --den must be positive")
        k = Fraction(args.num, args.den)
        if k < 1:
            raise InputFormatError("the doubling constant must be at least 1")
        # |A + A| <= min(|A|^2, 2^n), so K <= 2^(n/2) for every subset of
        # F_2^n: no set the library accepts has a larger K
        k_max = 1 << (MAX_DIMENSION // 2)
        if k > k_max:
            raise InputFormatError(
                f"no subset of F_2^{MAX_DIMENSION} has a doubling constant "
                f"above {k_max}"
            )
        bound = even_zohar_bound(k)
        _emit(
            {
                "s": even_zohar_s(k),
                "bound_num": bound.numerator,
                "bound_den": bound.denominator,
            }
        )
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    # the run checks its own arguments (InputFormatError); any other error
    # it raises keeps its own exit code
    if args.random is None:
        given = [
            f"--{name}" for name in ("family", "k", "seed") if getattr(args, name) is not None
        ]
        if given:
            raise InputFormatError(f"{', '.join(given)}: allowed only with --random")
        report = enumerate_verify(args.n)
    else:
        seed = 0 if args.seed is None else args.seed
        report = random_verify(
            args.n, args.random, seed, family=args.family, k=args.k
        )
    _emit(jsonio.report_to_obj(report))
    return EXIT_OK if report.ok() else EXIT_VIOLATION


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpectrumScopeError as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except TheoremViolationError as exc:
        print(f"VERIFICATION FAILURE: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
