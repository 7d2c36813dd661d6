"""Every row of the console-script smoke table (tests/smoke.py), in process."""

from f2spec import cli

import smoke


def test_every_smoke_row_matches_its_pin(tmp_path, capsys):
    def invoke(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    failures = smoke.run(invoke, str(tmp_path))
    assert not failures, "\n".join(failures)
