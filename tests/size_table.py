"""Print the rows of README's size table, one CLI call per measured run.

    python tests/size_table.py                  # n = 20, 22 and 24
    python tests/size_table.py --n 16 18 --runs 3

Each run is a fresh interpreter running `python -m f2spec.cli` on this
checkout's src/: wall time includes interpreter start-up, and peak RSS is
the child's ru_maxrss, read from os.wait4.  A child's ru_maxrss starts at
the resident size of the process that forked it, so the inputs are built
in a process of their own, and this one never holds a large table.  Every
input is a seeded random linear image (a random invertible matrix, then a
random shift) of the named instance, written as truth_table_hex JSON to a
temporary directory.
The columns, as in README:

- `decompose` on a counterexample-padded image;
- `decompose` on two-affine k = 3 in codimension 2 (two_affine(n - 2, 3)
  times the point indicator on 2 more inputs): all runs over three images;
- `decompose` on an image of two_affine(n, n/2), whose spectrum spans
  s = n - 1 dimensions and whose invariant directions are too few for
  `wht`'s quotient: the full transform, then the reduction's quotient by
  one fold;
- `decompose` on an image of two_affine(n - n/2, n/4) times the point
  indicator on n/2 more inputs (n/2 and n/4 rounded down): the full
  transform too, then one fold when 4 divides n (s = n - 1; more
  otherwise), `apply_transform` on the 2^s entries of the quotient and
  n/2 `restrict_first_bit`;
- `classify` on a uniform random table, `random.Random(1).getrandbits(2^n)`
  (no image): the full transform, with a dense spectrum;
- `spectrum --nonzero-only` on the counterexample-padded image;
- `spectrum`, all 2^n entries, on the same image, with the size of its
  JSON, which is read from a pipe and counted, not stored.

Each cell is the median of the runs' wall times and of their peak RSS.
pytest does not collect this file, as its name does not start with test_.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def write_inputs(directory: str, n: int) -> None:
    """The row's input files: ce.json, the counterexample-padded image,
    codim2-0.json .. codim2-2.json, the three embedded two-affine images,
    the worst-case images two-affine.json and tensor.json, and the uniform
    random table random.json."""
    from f2spec.boolfunc import apply_transform, shift, tensor
    from f2spec.families import counterexample_padded, delta, two_affine
    from f2spec.harness import SplitMix64, random_invertible, random_vector

    def write_table(table: int, name: str) -> None:
        data = table.to_bytes(max(1, (1 << n) // 8), "little").hex()
        Path(directory, name).write_text(json.dumps({"n": n, "truth_table_hex": data}))

    def write(f, name: str, seed: int) -> None:
        rng = SplitMix64(seed)
        g = shift(apply_transform(f, random_invertible(n, rng)), random_vector(n, rng))
        write_table(g.table, name)

    write(counterexample_padded(n), "ce.json", n)
    embedded = tensor(two_affine(n - 2, 3), delta(2))
    for i in range(3):
        write(embedded, f"codim2-{i}.json", n + i)
    write(two_affine(n, n // 2), "two-affine.json", 5)
    write(tensor(two_affine(n - n // 2, n // 4), delta(n // 2)), "tensor.json", 6)
    write_table(random.Random(1).getrandbits(1 << n), "random.json")


def run(argv: list[str]) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB and bytes of stdout of one CLI call."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "f2spec.cli", *argv], stdout=subprocess.PIPE, env=ENV)
    size = 0
    while chunk := proc.stdout.read(1 << 20):
        size += len(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024, size


def cell(paths: list[str], command: list[str], runs: int, json_size: bool = False) -> str:
    results = [run([*command, "--in", p]) for p in paths for _ in range(runs)]
    wall = statistics.median(r[0] for r in results)
    rss = statistics.median(r[1] for r in results)
    text = f"{wall:.2f} s, {rss:.0f} MiB"
    if json_size:
        text += f" ({results[0][2] / 1e6:.0f} MB of JSON)"
    return text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[20, 22, 24])
    parser.add_argument("--runs", type=int, default=5, help="runs per input and column")
    args = parser.parse_args()
    print("| n | `decompose`, counterexample-padded | `decompose`, two-affine k = 3 in codim 2 "
          "| `decompose`, two-affine k = n/2 | `decompose`, two-affine k = n/4 times a point "
          "| `classify`, uniform random table "
          "| `spectrum --nonzero-only` | `spectrum` (all 2^n entries) |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    writer = "import sys; sys.path.insert(0, sys.argv[1]); import size_table; size_table.write_inputs(sys.argv[2], int(sys.argv[3]))"
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            here = str(Path(__file__).resolve().parent)
            subprocess.run([sys.executable, "-c", writer, here, tmp, str(n)], env=ENV, check=True)
            ce = [str(Path(tmp, "ce.json"))]
            codim2 = [str(Path(tmp, f"codim2-{i}.json")) for i in range(3)]
            cells = [
                cell(ce, ["decompose"], args.runs),
                cell(codim2, ["decompose"], args.runs),
                cell([str(Path(tmp, "two-affine.json"))], ["decompose"], args.runs),
                cell([str(Path(tmp, "tensor.json"))], ["decompose"], args.runs),
                cell([str(Path(tmp, "random.json"))], ["classify"], args.runs),
                cell(ce, ["spectrum", "--nonzero-only"], args.runs),
                cell(ce, ["spectrum"], args.runs, json_size=True),
            ]
            print(f"| {n} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
