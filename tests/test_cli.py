import argparse
import json
import os
import random
import subprocess
import sys

import pytest

from f2spec import cli, harness, jsonio, structure
from f2spec.boolfunc import BooleanFunction
from f2spec.errors import InputFormatError, SpectrumScopeError, TheoremViolationError
from f2spec.families import generate, two_affine
from f2spec.fourier import wht
from f2spec.structure import check_kill_args

from conftest import forged_w_spectrum


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_generate_and_spectrum_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "two-affine", "--n", "5", "--k", "2")
    assert code == 0
    fn = json.loads(out)
    assert fn["n"] == 5 and len(fn["support"]) == 16
    path = write_json(tmp_path, "f.json", fn)

    code, out, _ = run_cli(capsys, "spectrum", "--in", path, "--nonzero-only")
    assert code == 0
    spectrum_obj = json.loads(out)
    assert spectrum_obj["den_log2"] == 5
    assert all(entry["num"] != 0 for entry in spectrum_obj["coeffs"])
    alphas = [e["alpha"] for e in spectrum_obj["coeffs"]]
    assert alphas == sorted(alphas)
    assert spectrum_obj["coeffs"][0] == {"alpha": 0, "num": 16}

    code, out, _ = run_cli(capsys, "spectrum", "--in", path)
    assert code == 0
    full = json.loads(out)
    assert len(full["coeffs"]) == 32


def test_classify_decompose_and_scalars(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--family", "counterexample-core")
    path = write_json(tmp_path, "ce.json", json.loads(out))

    code, out, _ = run_cli(capsys, "classify", "--in", path)
    assert code == 0
    assert json.loads(out) == {"tag": "ExceptionalK4Candidate", "k": 4, "m": 2, "t": 7}

    code, out, _ = run_cli(capsys, "decompose", "--in", path)
    assert code == 0
    dec = json.loads(out)
    assert dec["verified"] is True
    assert len(dec["pieces"]) == 4
    assert all(len(p["basis"]) == 1 for p in dec["pieces"])

    code, out, _ = run_cli(capsys, "granularity", "--in", path)
    assert code == 0 and json.loads(out) == {"granularity": 4}

    code, out, _ = run_cli(capsys, "sparsity", "--in", path)
    assert code == 0 and json.loads(out) == {"sparsity": 29}

    code, out, _ = run_cli(capsys, "kill-number", "--in", path)
    assert code == 0 and json.loads(out) == {"kill_number": 2}


def test_truth_table_hex_input(tmp_path, capsys):
    # OR on 2 bits: table bits 1110 -> byte 0x0e
    path = write_json(tmp_path, "or.json", {"n": 2, "truth_table_hex": "0e"})
    code, out, _ = run_cli(capsys, "spectrum", "--in", path, "--nonzero-only")
    assert code == 0
    spectrum_obj = json.loads(out)
    assert [e["num"] for e in spectrum_obj["coeffs"]] == [3, -1, -1, -1]


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "classify", "--in", str(bad))
    assert code == 2 and err

    path = write_json(tmp_path, "dup.json", {"n": 2, "support": [1, 1]})
    code, _, err = run_cli(capsys, "classify", "--in", path)
    assert code == 2

    path = write_json(tmp_path, "both.json", {"n": 2, "support": [], "truth_table_hex": "00"})
    code, _, _ = run_cli(capsys, "classify", "--in", path)
    assert code == 2

    code, _, _ = run_cli(capsys, "generate", "--family", "delta")
    assert code == 2


def test_generate_refuses_k_on_a_family_that_takes_none(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "delta", "--n", "4", "--k", "3")
    assert code == 2 and out == "" and "takes no --k" in err


def test_generate_refuses_n_below_1_which_no_command_reads(tmp_path, capsys):
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "generate", "--family", "delta", "--n", n)
        assert code == 2 and out == "" and "--n must be at least 1" in err
    # n = 1, the least the file format takes, round-trips through a command
    code, out, _ = run_cli(capsys, "generate", "--family", "delta", "--n", "1")
    assert code == 0
    code, out, _ = run_cli(capsys, "sparsity", "--in", write_json(tmp_path, "d1.json", json.loads(out)))
    assert code == 0 and json.loads(out) == {"sparsity": 2}


def test_input_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'\xff\xfe{"n": 2, "support": []}')
    code, out, err = run_cli(capsys, "classify", "--in", str(bad))
    assert code == 2 and not out and "UTF-8" in err


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli(capsys, "classify", "--in", str(deep))
    assert code == 2 and not out and "too deeply" in err


def test_exit_code_3_on_out_of_scope(tmp_path, capsys):
    path = write_json(tmp_path, "or.json", {"n": 2, "support": [1, 2, 3]})
    code, _, err = run_cli(capsys, "decompose", "--in", path)
    assert code == 3 and "out of scope" in err


def test_exit_code_4_on_violation(tmp_path, capsys, monkeypatch):
    def boom(_f):
        raise TheoremViolationError("forced for the test")

    monkeypatch.setattr(cli, "decompose", boom)
    path = write_json(tmp_path, "f.json", {"n": 2, "support": [0, 1]})
    code, _, err = run_cli(capsys, "decompose", "--in", path)
    assert code == 4 and "VERIFICATION FAILURE" in err


def test_exit_code_4_when_the_core_route_raises(tmp_path, capsys, short_negative_class):
    path = write_json(tmp_path, "f.json", jsonio.function_to_obj(two_affine(5, 2)))
    code, out, err = run_cli(capsys, "decompose", "--in", path)
    assert code == 4 and out == "" and "VERIFICATION FAILURE" in err


def test_exit_code_4_when_the_masks_with_coefficient_f0_are_no_subspace(
    tmp_path, capsys, monkeypatch
):
    # the reduction reads W off the spectrum, and a W that is not a
    # subspace is a violation, not a crash
    forged = forged_w_spectrum(4, (0, 1, 5, 6))
    monkeypatch.setattr(structure, "wht", lambda _f: forged)
    path = write_json(tmp_path, "f.json", {"n": 4, "support": [0, 3, 9, 10]})
    code, out, err = run_cli(capsys, "decompose", "--in", path)
    assert code == 4 and out == "" and "subspace" in err


def test_addcomb_subcommands(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", {"n": 3, "support": [1, 2]})
    b = write_json(tmp_path, "b.json", {"n": 3, "support": [4]})
    code, out, _ = run_cli(capsys, "addcomb", "sumset", "--a", a, "--b", b)
    assert code == 0
    assert json.loads(out) == {"n": 3, "support": [5, 6]}

    code, out, _ = run_cli(capsys, "addcomb", "doubling", "--in", a)
    assert code == 0 and json.loads(out) == {"num": 1, "den": 1}

    code, out, _ = run_cli(capsys, "addcomb", "sumfree", "--in", a)
    assert code == 0 and json.loads(out) == {"sum_free": True}

    code, out, _ = run_cli(capsys, "addcomb", "laba", "--in", a)
    assert code == 0
    assert json.loads(out)["verdict"] in ("Subgroup", "NotApplicable")

    code, out, _ = run_cli(capsys, "addcomb", "fk", "--num", "22", "--den", "7")
    assert code == 0
    assert json.loads(out) == {"s": 6, "bound_num": 64, "bound_den": 7}

    code, _, _ = run_cli(capsys, "addcomb", "fk", "--num", "1", "--den", "2")
    assert code == 2


def test_addcomb_fk_rejects_a_doubling_constant_no_set_has(capsys):
    # |A + A| <= min(|A|^2, 2^24) caps K at 2^12 = 4096
    code, _, err = run_cli(capsys, "addcomb", "fk", "--num", "8000", "--den", "1")
    assert code == 2 and "4096" in err
    code, out, _ = run_cli(capsys, "addcomb", "fk", "--num", "4096", "--den", "1")
    assert code == 0 and json.loads(out)["s"] == 8191


def test_addcomb_set_commands_cap_the_number_of_sums(tmp_path, capsys):
    # 4,096 points form 4,096^2 = 2^24 sums, the cap; one more point is
    # rejected before any sum is formed
    at_cap = write_json(tmp_path, "a.json", {"n": 13, "support": list(range(4096))})
    over = write_json(tmp_path, "b.json", {"n": 13, "support": list(range(4097))})
    code, out, _ = run_cli(capsys, "addcomb", "doubling", "--in", at_cap)
    assert code == 0 and json.loads(out) == {"num": 1, "den": 1}
    for sub in ("doubling", "sumfree", "laba"):
        code, _, err = run_cli(capsys, "addcomb", sub, "--in", over)
        assert code == 2 and str(cli.MAX_SET_PAIRS) in err
    code, _, err = run_cli(capsys, "addcomb", "sumset", "--a", at_cap, "--b", over)
    assert code == 2 and str(cli.MAX_SET_PAIRS) in err
    code, _, _ = run_cli(capsys, "addcomb", "sumset", "--a", over, "--b", over)
    assert code == 2


def test_addcomb_dimension_mismatch_is_input_error(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", {"n": 3, "support": [1]})
    b = write_json(tmp_path, "b.json", {"n": 4, "support": [1]})
    code, _, _ = run_cli(capsys, "addcomb", "sumset", "--a", a, "--b", b)
    assert code == 2


def test_verify_exhaustive_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["examined"] == 16
    assert report["violations"] == []
    assert report["counts"]["RvL"] == 11


def test_verify_random_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "6", "--random", "5", "--seed", "9"
    )
    assert code == 0
    report = json.loads(out)
    assert report["examined"] == 5 and report["seed"] == 9


def test_verify_bad_n(capsys):
    code, _, _ = run_cli(capsys, "verify", "--n", "30")
    assert code == 2
    for family_args in (
        ["two-affine", "--k", "9"],
        ["counterexample-core"],
        ["intro-fk"],  # every instance is out of scope
        ["intro-gk"],
    ):
        argv = ["verify", "--n", "8", "--random", "5", "--family", *family_args]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2


def test_verify_random_refuses_k_on_a_family_that_takes_none(capsys, monkeypatch):
    # refused by check_random_args, before any draw
    def never(*_args):
        raise AssertionError("random_invertible ran")

    monkeypatch.setattr(harness, "random_invertible", never)
    argv = ["verify", "--n", "8", "--random", "3", "--family", "counterexample-padded", "--k", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "takes no --k" in err


def test_verify_random_flags_need_random(capsys, monkeypatch):
    # refused before any work: the exhaustive run is never started
    def never(_n):
        raise AssertionError("enumerate_verify ran")

    monkeypatch.setattr(cli, "enumerate_verify", never)
    for flags in (["--family", "affine", "--k", "2", "--seed", "9"], ["--seed", "0"], ["--k", "2"]):
        code, out, err = run_cli(capsys, "verify", "--n", "4", *flags)
        assert code == 2 and out == ""
        assert "only with --random" in err and flags[0] in err


def test_argument_checks_raise_input_format_error():
    cases = (
        lambda: harness.check_exhaustive_args(5),
        lambda: harness.check_random_args(13, 5),
        lambda: harness.check_random_args(8, 0),
        lambda: harness.check_random_args(8, 5, "two-affine", 9),  # generate refuses k
        lambda: harness.check_random_args(8, 5, "counterexample-core"),  # fixed at n = 6
        lambda: harness.check_random_args(8, 5, "intro-fk"),  # out of scope
        lambda: check_kill_args(9),
    )
    for case in cases:
        with pytest.raises(InputFormatError):
            case()


def test_verify_random_checks_its_arguments_once(capsys, monkeypatch):
    # the pinned family's base instance is classified by the check alone
    classified = []
    classify = harness.classify

    def counting(s):
        classified.append(s.n)
        return classify(s)

    monkeypatch.setattr(harness, "classify", counting)
    argv = ["verify", "--n", "6", "--random", "3", "--family", "counterexample-padded"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and classified == [6]


def test_verify_library_error_is_not_bad_input(capsys, monkeypatch):
    def out_of_scope(_f):
        raise SpectrumScopeError("forced for the test")

    monkeypatch.setattr(harness, "decompose", out_of_scope)
    code, _, err = run_cli(capsys, "verify", "--n", "6", "--random", "3")
    assert code != 2
    assert code == 3 and "out of scope" in err


def test_kill_number_rejects_oversized_input(tmp_path, capsys):
    path = write_json(tmp_path, "big.json", {"n": 9, "support": [0]})
    code, _, _ = run_cli(capsys, "kill-number", "--in", path)
    assert code == 2


def test_kill_number_library_error_is_not_bad_input(tmp_path, capsys, monkeypatch):
    def broken(_f):
        raise ValueError("forced for the test")

    monkeypatch.setattr(cli, "kill_number", broken)
    path = write_json(tmp_path, "f.json", {"n": 3, "support": [0, 5]})
    with pytest.raises(ValueError, match="forced for the test"):
        cli.main(["kill-number", "--in", path])


def spectrum_reference_text(f, nonzero_only):
    coeffs = [
        {"alpha": a, "num": c}
        for a, c in enumerate(wht(f).coeffs)
        if c or not nonzero_only
    ]
    return json.dumps({"n": f.n, "den_log2": f.n, "coeffs": coeffs}, indent=2) + "\n"


def test_spectrum_output_matches_json_dumps(tmp_path, capsys):
    # n = 13 writes two full chunks of 4096 entries, --nonzero-only a ragged
    # last one; the zero function leaves "coeffs": [] under --nonzero-only.
    # The sparse spectra at n = 13 and 16 (16- and 32-bit lanes) list the
    # positions they carry, the dense random ones scan all coefficients
    rng = random.Random(13)
    for f in (
        BooleanFunction(3, 0),
        BooleanFunction(2, 0b1110),
        BooleanFunction(13, rng.getrandbits(1 << 13)),
        two_affine(13, 3),
        two_affine(16, 3),
        BooleanFunction(16, rng.getrandbits(1 << 16)),
    ):
        path = write_json(tmp_path, "f.json", jsonio.function_to_obj(f))
        for flags in ((), ("--nonzero-only",)):
            code, out, _ = run_cli(capsys, "spectrum", "--in", path, *flags)
            assert code == 0
            assert out == spectrum_reference_text(f, bool(flags))


def test_a_reader_that_closes_stdout_early_leaves_exit_0_and_no_traceback(tmp_path):
    # the spectrum at n = 16 is about 2 MB, far past a pipe's buffer, so the
    # command is still writing when the pipe closes
    path = write_json(
        tmp_path, "ce-16.json", jsonio.function_to_obj(generate("counterexample-padded", 16))
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "f2spec.cli", "spectrum", "--in", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


def without_timing(report_obj):
    return {key: value for key, value in report_obj.items() if key != "timing_ms"}


def test_one_process_reuses_the_parser_across_commands(capsys):
    # each call starts from the parser's defaults, whatever the call before
    # it set: k is None again after --k 2, and --random None after --random 3
    code, out, _ = run_cli(capsys, "generate", "--family", "two-affine", "--n", "5", "--k", "2")
    assert code == 0
    assert out == jsonio.dumps(jsonio.function_to_obj(two_affine(5, 2))) + "\n"

    code, out, _ = run_cli(capsys, "generate", "--family", "counterexample-core")
    assert code == 0
    assert out == jsonio.dumps(jsonio.function_to_obj(generate("counterexample-core"))) + "\n"

    with pytest.raises(SystemExit) as usage:
        cli.main(["decompose"])
    assert usage.value.code == 2
    assert "--in" in capsys.readouterr().err

    argv = ["verify", "--n", "8", "--random", "3", "--seed", "1", "--family", "two-affine", "--k", "3"]
    code, out, _ = run_cli(capsys, *argv)
    expected = harness.random_verify(8, 3, 1, family="two-affine", k=3)
    assert code == 0
    assert without_timing(json.loads(out)) == without_timing(jsonio.report_to_obj(expected))

    code, out, _ = run_cli(capsys, "verify", "--n", "3")
    report = json.loads(out)
    assert code == 0
    assert report["mode"] == "exhaustive" and "seed" not in report
    assert without_timing(report) == without_timing(jsonio.report_to_obj(harness.enumerate_verify(3)))


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # subparsers are ArgumentParsers too, so every parser of the tree counts
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        path = write_json(tmp_path, "f.json", {"n": 3, "support": [0, 5]})
        code, _, _ = run_cli(capsys, "sparsity", "--in", path)
        assert code == 0
        one_tree = len(built)
        assert built.count("f2spec") == 1
        for argv in (["granularity", "--in", path], ["kill-number", "--in", path]):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
        assert len(built) == one_tree
    finally:
        cli._build_parser.cache_clear()
