"""The console-script smoke table: one row per case, each with its output pinned.

Run `python tests/smoke.py` after `pip install .`.  Every row runs through
the installed `f2spec` executable; the script prints each failing row with
its actual exit code and digest, and exits 1 if any row failed.
tests/test_smoke.py runs the same rows in process through `cli.main`.
After the rows, the script closes a pipe on `f2spec spectrum` after 100
bytes and checks for exit 0 and an empty stderr, once.

A row holds:
- how its input file is built: the argv of an `f2spec generate` call, or a
  builder that returns the file's text (None when the command reads no file);
- the argv, with IN standing for the input file's path;
- the expected exit code;
- the sha256 of stdout, with a verification report's `timing_ms` block
  removed;
- an optional predicate on stdout and the stdout of the rows before it;
- one line saying why the row exists.

When a change alters a row's output on purpose, copy the digest that the
failure prints into the row.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

from f2spec import jsonio
from f2spec.boolfunc import BooleanFunction, apply_transform, shift, tensor
from f2spec.families import delta, two_affine
from f2spec.harness import SplitMix64, random_invertible, random_vector

IN = "IN"

# jsonio.dumps indents a report's keys by two spaces, and timing_ms holds a
# flat object of numbers, so this removes exactly that block
_TIMING = re.compile(r'^  "timing_ms": \{[^{}]*\},?\n', re.M)


def _embedded_12_3() -> str:
    return jsonio.dumps(jsonio.function_to_obj(tensor(two_affine(12, 3), delta(2))))


def _embedded_10_3() -> str:
    return jsonio.dumps(jsonio.function_to_obj(tensor(two_affine(10, 3), delta(4))))


def _embedded_9_5() -> str:
    return jsonio.dumps(jsonio.function_to_obj(tensor(two_affine(9, 5), delta(2))))


def _image(f: BooleanFunction, seed: int) -> BooleanFunction:
    rng = SplitMix64(seed)
    return shift(apply_transform(f, random_invertible(f.n, rng)), random_vector(f.n, rng))


def _k3_14() -> str:
    return jsonio.dumps(jsonio.function_to_obj(_image(tensor(two_affine(12, 5), delta(2)), 14)))


def _k4_14() -> str:
    return jsonio.dumps(jsonio.function_to_obj(_image(tensor(two_affine(11, 4), delta(3)), 14)))


def _two_affine_14_7() -> str:
    return jsonio.dumps(jsonio.function_to_obj(_image(two_affine(14, 7), 5)))


def _tensor_8_4_6() -> str:
    return jsonio.dumps(jsonio.function_to_obj(_image(tensor(two_affine(8, 4), delta(6)), 6)))


def _random_8() -> str:
    table = random.Random(8).getrandbits(256).to_bytes(32, "little")
    return json.dumps({"n": 8, "truth_table_hex": table.hex()})


def _not_json() -> str:
    return '{"n": 3,'


def _census_n4(out: str, seen: dict[str, str]) -> bool:
    report = json.loads(out)
    census = {
        "Trivial": 1,
        "RvL": 307,
        "TwoSubspace": 2520,
        "ExceptionalK4Candidate": 0,
        "OutOfScope": 62708,
    }
    return report["counts"] == census and report["violations"] == []


def _same_report_as_first_n4(out: str, seen: dict[str, str]) -> bool:
    a, b = json.loads(out), json.loads(seen["verify-4"])
    del a["timing_ms"], b["timing_ms"]
    return a == b


def _kill_number_4(out: str, seen: dict[str, str]) -> bool:
    return json.loads(out) == {"kill_number": 4}


def _pieces_9_9(out: str, seen: dict[str, str]) -> bool:
    return sorted(len(p["basis"]) for p in json.loads(out)["pieces"]) == [9, 9]


def _nonzero_list_is_full_without_zeros(out: str, seen: dict[str, str]) -> bool:
    full = json.loads(out)
    full["coeffs"] = [e for e in full["coeffs"] if e["num"]]
    return json.loads(seen["spectrum-nonzero-ce-16"]) == full


@dataclass(frozen=True)
class Case:
    name: str
    source: tuple[str, ...] | Callable[[], str] | None
    argv: tuple[str, ...]
    code: int
    sha256: str
    why: str
    check: Callable[[str, dict[str, str]], bool] | None = None


def _generate(family: str, n: int | None = None, k: int | None = None) -> tuple[str, ...]:
    argv = ("--family", family)
    if n is not None:
        argv += ("--n", str(n))
    if k is not None:
        argv += ("--k", str(k))
    return argv


DECOMPOSE = ("decompose", "--in", IN)
CE_16 = _generate("counterexample-padded", 16)
CE_20 = _generate("counterexample-padded", 20)
CE_22 = _generate("counterexample-padded", 22)
AFFINE_4_2 = _generate("affine", 4, 2)
CORE = _generate("counterexample-core")

CASES = (
    Case("verify-3", None, ("verify", "--n", "3"), 0,
         "4eaed6e9d9aabfbf448a9023b48ac5e473d58aacc2005e4e7560cdae93f99ab2",
         "exhaustive verification at n = 3"),
    Case("verify-4", None, ("verify", "--n", "4"), 0,
         "3156926a2c1ef470a234ebbfac0ca9824787e5a65657f26df7284e1fce4e80e4",
         "the census of all 65,536 tables at n = 4, with no violation",
         _census_n4),
    Case("verify-4-again", None, ("verify", "--n", "4"), 0,
         "3156926a2c1ef470a234ebbfac0ca9824787e5a65657f26df7284e1fce4e80e4",
         "a second run's report agrees with the first in all but timing_ms",
         _same_report_as_first_n4),
    Case("verify-8-random", None, ("verify", "--n", "8", "--random", "200", "--seed", "1"), 0,
         "ddec06d8a59208cb37a745616bc5fe8a6dc6f0778d56aa3f711073e6887a859a",
         "shifted and transformed images go through all three routes"),
    Case("verify-12-random", None, ("verify", "--n", "12", "--random", "100", "--seed", "3"), 0,
         "d8ec9cca0d586fbb04a9e075fdfc66f34fe64b29941eb175baabe2f8d540c282",
         "n = 12, the top of random mode's range, checks the rank of its largest matrices"),
    Case("decompose-affine-8", _generate("affine", 8, 3), DECOMPOSE, 0,
         "e03e00e0139751b7f65e1f12115b7dd43ae5b71e0be7e21b5373fd00f87c2cbc",
         "one flat: the one-flat route"),
    Case("decompose-two-affine-8", _generate("two-affine", 8, 3), DECOMPOSE, 0,
         "7310bec19c3dee573a68ce8e430497fa548ccc36d3d09add48d6893b4a4426a3",
         "two flats: the two-flat route"),
    Case("kill-two-affine-8", _generate("two-affine", 8, 3), ("kill-number", "--in", IN), 0,
         "9131dc4e426012872c0ab69f51c53ea6cf477e08a7f8c539af7c135cb894609d",
         "the kill number answers at n = 8, its cap"),
    Case("kill-two-affine-9", _generate("two-affine", 9, 3), ("kill-number", "--in", IN), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "the kill number refuses n = 9 as bad input"),
    Case("kill-random-8", _random_8, ("kill-number", "--in", IN), 0,
         "4c23b70828838dd1a52706d6ba774c8ecf7f935ca9b986af2f37552dce95494b",
         "a uniform random n = 8 table has no large constant flat, so the scan reads every "
         "flat of lower codimension than its answer, pinned from the tests' oracle_kill_number",
         _kill_number_4),
    Case("decompose-ce-8", _generate("counterexample-padded", 8), DECOMPOSE, 0,
         "8412d67348995e255b15c4c2bcdcda8971940c86df8cf5967df692f9e07c7f4c",
         "four flats: the four-flat route"),
    Case("decompose-two-affine-9-5", _generate("two-affine", 9, 5), DECOMPOSE, 0,
         "b0e567e65a0c98abff97c5724a43f049fec887c61a86ab0a0afb44acd2400053",
         "s = n and w = 0: already irreducible, so the core pieces lift back through "
         "unit-vector pivots and columns"),
    Case("decompose-embedded-14", _embedded_12_3, DECOMPOSE, 0,
         "fefc5f7c094fc21b0b99442d37279ed8f3acb6f6e98bb76561423fea82c4c047",
         "two_affine(12, 3) ⊗ δ₂, which no family builds: s = 7 < n = 14 and w = 2, so "
         "the reduction both quotients and restricts, and each piece lifts through both"),
    Case("decompose-codim4-14", _embedded_10_3, DECOMPOSE, 0,
         "253d1fa9141750bd83d3181f66ceb7aab8cd6ec36005d48b419403f90a014f34",
         "two_affine(10, 3) ⊗ δ₄, unimaged: every direction of K lies in the low 10 "
         "coordinates, so each fold of wht's search squeezes 16 blocks instead of truncating"),
    Case("decompose-embedded-11", _embedded_9_5, DECOMPOSE, 0,
         "f7a4f435ef79598505817ced34d33cb5499dc2be6710f70457431c77b9d634c9",
         "two_affine(9, 5) ⊗ δ₂: s = n = 11 and w = 2, so W is read off f's nonzero "
         "coefficients and the core spectrum off f's nonzero positions"),
    Case("decompose-two-affine-19-10", _generate("two-affine", 19, 10), DECOMPOSE, 0,
         "8b6955aed4b58d974871f86d15a05d563efcb2e46ad5fa436cbd92dd22e4afe6",
         "s = n and w = 0 at n = 19: the core spectrum is f's nonzero positions alone"),
    Case("decompose-ce-18", _generate("counterexample-padded", 18), DECOMPOSE, 0,
         "ea21d61dd7d94f5bfc456bf30d418bfe3a05313bb8ab8be315493679ab549c39",
         "the four-flat route on a spectral quotient of 6 inputs at n = 18"),
    Case("decompose-two-affine-18", _generate("two-affine", 18, 3), DECOMPOSE, 0,
         "38a54c423a6f939d7a8e08ad3e4c4a5e55dc9955980960abdf31e92446dd410d",
         "the two-flat route on a spectral quotient of 5 inputs at n = 18"),
    Case("decompose-two-affine-18-9", _generate("two-affine", 18, 9), DECOMPOSE, 0,
         "e2bbdbdc70debf2248766b166439df6b08b27e6be83edc44b3697470eea5e168",
         "s = 17, the largest spectral quotient here (gf2.span_points lists its 2^17 "
         "points), must give two pieces of dimension 9",
         _pieces_9_9),
    Case("decompose-two-affine-14-7-image", _two_affine_14_7, DECOMPOSE, 0,
         "c1ec81745c17c9ac336d2f6e16ecb487486bc86101901c15b45c78654e7f13a2",
         "an image of two_affine(14, 7): s = 13 and w = 0, so the reduction's quotient is one "
         "fold of the shifted table"),
    Case("decompose-tensor-14-image", _tensor_8_4_6, DECOMPOSE, 0,
         "72946ce2fa4a5ea8daba557ac0178a4bb9abb5c0e0e7e0f4ba31938c03cb754f",
         "an image of two_affine(8, 4) ⊗ δ₆: s = 13 and w = 6, so the quotient is one fold, "
         "then apply_transform moves its 2^13 entries and six restrict_first_bit calls leave "
         "the core"),
    Case("decompose-ce-20", CE_20, DECOMPOSE, 0,
         "ef15b0eb603586a0df20f83f3a2cc9e63c7e226d5eac184a6da0f4c39eef7629",
         "at n = 20 the butterfly widens each 2^14-lane block from 8 to 16 bits in its "
         "masked stages and to 32 bits before its 6 block stages"),
    Case("spectrum-nonzero-ce-20", CE_20, ("spectrum", "--in", IN, "--nonzero-only"), 0,
         "ac6e3052cf11949ffccec622c7356930eb693cb413b726dc512fc11bbcb814f5",
         "the positions and values of the sparse form that the transform returns at n = 20"),
    Case("classify-ce-20", CE_20, ("classify", "--in", IN), 0,
         "2fe972d100947c3d95fca1ffee731a4209474e053799444861419271f41727f4",
         "classify reads only the sparse form at n = 20"),
    Case("granularity-ce-20", CE_20, ("granularity", "--in", IN), 0,
         "8de29b1da2289bccff6baa82d47aaefb1f00c76a9a88d1e77310c0482a8623e8",
         "granularity reads only the sparse form at n = 20"),
    Case("sparsity-ce-20", CE_20, ("sparsity", "--in", IN), 0,
         "a4548037cff6fd304ebc91e679b2043b66c4c003d576c6e60d3904173d5c04ba",
         "sparsity reads only the sparse form at n = 20"),
    Case("decompose-ce-22", CE_22, DECOMPOSE, 0,
         "b226542523e9f1da588eaf4b57291d9a733dbded03aa8d2830bd8393aa3a3d2e",
         "at n = 22 the butterfly runs 8 block stages"),
    Case("spectrum-nonzero-ce-22", CE_22, ("spectrum", "--in", IN, "--nonzero-only"), 0,
         "f709ce98f7ed528e4d3a702dd5cfa5031a76c6f8e3f8be21bb9f5f7897fc06de",
         "the nonzero list after 8 block stages at n = 22"),
    Case("decompose-two-affine-10-2", _generate("two-affine", 10, 2), DECOMPOSE, 0,
         "cbb1ae6bb7ce5ba3327e2ce4615fd8e33cde495a206771d088035f3da4d3f3f4",
         "a core with k = 2, whose shared mask gamma is min(B) + min(P), not the sum of B"),
    Case("decompose-delta-20", _generate("delta", 20), DECOMPOSE, 0,
         "715ae7d94e6db7930c9c5f16fc41c9e4b5dba56293eac50922c649c8556049dd",
         "the one-flat route on a spectrum with no zero coefficient: the positions are "
         "counted and skipped through, never listed"),
    Case("spectrum-nonzero-ce-16", CE_16, ("spectrum", "--in", IN, "--nonzero-only"), 0,
         "3a2e9f9c3a922e6406197a128e49a1c4eeb43e4540c18adb169948681e7f408f",
         "the nonzero list at n = 16, compared with the full spectrum in the next row"),
    Case("spectrum-ce-16", CE_16, ("spectrum", "--in", IN), 0,
         "80be9556af92b8456c80f6cda332512865ef9e249bf7179f061f88baef9470a5",
         "the full spectrum with its zero entries dropped is the nonzero list",
         _nonzero_list_is_full_without_zeros),
    Case("spectrum-nonzero-k3-14", _k3_14, ("spectrum", "--in", IN, "--nonzero-only"), 0,
         "5c3fa49ab8530c19880fa407599fc8bf8d72ed13264785d1568eeb639aaf5d9c",
         "an image of two_affine(12, 5) ⊗ δ₂: its weight, 256, is a multiple of 16, but dim K "
         "= 3, so wht searches for invariant directions and then transforms all 2^14 lanes"),
    Case("classify-k4-14", _k4_14, ("classify", "--in", IN), 0,
         "1e142425e97fe93ef0ad744064f79ef7e1a5dbf5fa39b3310c770c22b2775bbe",
         "an image of two_affine(11, 4) ⊗ δ₃: dim K = 4, the least that wht transforms as a "
         "quotient, here on 2^10 entries"),
    Case("addcomb-sumset", CORE, ("addcomb", "sumset", "--a", IN, "--b", IN), 0,
         "dfc50092f8be24c80345c09f3f9187600ef1b9c56da9a261f508620c1b483994",
         "A + A of the counterexample core: 8 points, no 4 on a 2-flat, so 1 + 28 sums"),
    Case("addcomb-doubling", CORE, ("addcomb", "doubling", "--in", IN), 0,
         "73420a6896bc359a2c64576e4dea0d6cf5a6f87ba7f4e42b297e15d1da515544",
         "the core's doubling constant, 29/8, as a reduced fraction"),
    Case("addcomb-sumfree", AFFINE_4_2, ("addcomb", "sumfree", "--in", IN), 0,
         "f7f26d339793dfc198b5bf80b8fe127d66c42eb4b3923018c33f5c62f65f9ae6",
         "a coset that misses 0 is sum-free"),
    Case("addcomb-laba", AFFINE_4_2, ("addcomb", "laba", "--in", IN), 0,
         "9e18df33cd2e2f733a3a92ae82898195cbcbca39cccf1303fef99318ca2931d6",
         "a coset's difference set is a subgroup"),
    Case("addcomb-fk-22-7", None, ("addcomb", "fk", "--num", "22", "--den", "7"), 0,
         "f105c2962182ef85157f4e8edced74c2a93617dd733124495e4f9b6243d82b6c",
         "the bound at K = 22/7, the bottom of s = 6's bracket, is 64/7"),
    Case("addcomb-fk-4096", None, ("addcomb", "fk", "--num", "4096", "--den", "1"), 0,
         "37c9c6508589d7a5abdc2b8bd4e99efff11fc446699db07d7fdcc6369e171f6f",
         "K = 2^12, the largest doubling constant of a subset of F_2^24, is accepted"),
    Case("decompose-intro-fk", _generate("intro-fk", 6), ("decompose", "--in", IN), 3,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "an OR is outside the decomposable families: exit 3"),
    Case("decompose-not-json", _not_json, ("decompose", "--in", IN), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "a file that is not valid JSON is bad input: exit 2"),
    Case("generate-delta-k", None, ("generate", "--family", "delta", "--n", "4", "--k", "3"), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "a family that takes no k refuses one as bad input instead of ignoring it"),
    Case("verify-random-ce-k", None,
         ("verify", "--n", "8", "--random", "3", "--family", "counterexample-padded", "--k", "3"), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "random mode refuses a k for a family that takes none before any draw"),
    Case("generate-n-0", None, ("generate", "--family", "delta", "--n", "0"), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "generate refuses n = 0, which the file format and so every other command refuses"),
    Case("verify-flags-need-random", None,
         ("verify", "--n", "4", "--family", "affine", "--k", "2", "--seed", "9"), 2,
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "--family, --k and --seed need --random, and are refused before any work"),
)


def digest(out: str) -> str:
    """sha256 of stdout with a verification report's timing_ms removed."""
    return hashlib.sha256(_TIMING.sub("", out).encode()).hexdigest()


def run(invoke: Callable[[list[str]], tuple[int, str]], workdir: str) -> list[str]:
    """Run every row through invoke(argv) -> (exit code, stdout).

    Each input file is built once, in workdir.  Returns one line per failing
    row, naming it and giving its actual exit code and digest.
    """
    inputs: dict[object, str] = {}
    seen: dict[str, str] = {}
    failures = []
    for case in CASES:
        argv = list(case.argv)
        if case.source is not None:
            if case.source not in inputs:
                if callable(case.source):
                    text = case.source()
                else:
                    code, text = invoke(["generate", *case.source])
                    if code:
                        failures.append(f"{case.name}: its input's generate exited {code}")
                        continue
                path = os.path.join(workdir, f"input-{len(inputs)}.json")
                with open(path, "w") as fp:
                    fp.write(text)
                inputs[case.source] = path
            argv = [inputs[case.source] if a == IN else a for a in argv]
        code, out = invoke(argv)
        seen[case.name] = out
        actual = digest(out)
        problems = []
        if code != case.code:
            problems.append(f"expected exit {case.code}")
        if actual != case.sha256:
            problems.append("digest differs")
        if case.check is not None:
            try:
                held = case.check(out, seen)
            except (ValueError, KeyError, TypeError):  # output of the wrong shape
                held = False
            if not held:
                problems.append(f"{case.check.__name__} fails")
        if problems:
            problems.append(f"exit {code}, sha256 {actual}")
            failures.append(f"{case.name}: {'; '.join(problems)}")
    return failures


def _installed(argv: list[str]) -> tuple[int, str]:
    done = subprocess.run(["f2spec", *argv], stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def _closed_pipe(workdir: str) -> str | None:
    """A reader that closes stdout after 100 bytes of a 2 MB spectrum: the
    installed f2spec must exit 0 and write nothing to stderr.  None when it
    does, else the failure line.  Not a row: the in-process runner cannot
    close a pipe."""
    path = os.path.join(workdir, "closed-pipe-input.json")
    with open(path, "w") as fp:
        code = subprocess.run(["f2spec", "generate", *CE_16], stdout=fp).returncode
    if code:
        return f"closed-pipe: its input's generate exited {code}"
    proc = subprocess.Popen(
        ["f2spec", "spectrum", "--in", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    if proc.returncode or err:
        return f"closed-pipe: exit {proc.returncode}, stderr {err.decode(errors='replace')!r}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        failures = run(_installed, workdir)
        pipe_failure = _closed_pipe(workdir)
    for line in failures:
        print(line)
    print(f"{len(CASES) - len(failures)} of {len(CASES)} smoke rows pass")
    if pipe_failure is not None:
        print(pipe_failure)
    return 1 if failures or pipe_failure is not None else 0


if __name__ == "__main__":
    sys.exit(main())
