import json

from f2spec import cli, harness
from f2spec.errors import SpectrumScopeError, TheoremViolationError


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
