"""The README's command-line examples, rerun and compared byte for byte.

``tests/golden`` holds, for each command, its stdout (``<name>.stdout``),
the report it writes with ``--json`` (``<name>.report``) and its exit code
(``exit_codes.json``).  None of these commands touches LAPACK (closed form,
enumeration, verify, noether on the closed form, scale-info), so the files
do not depend on the BLAS build.  A change that alters this output on
purpose rewrites the files from the new output (stdout, report, exit code)
and says so.
"""

import json
from pathlib import Path

import pytest

from tsvar import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())

COMMANDS = {
    "solve_quadratic": ["solve", "problems/quadratic.json"],
    "solve_quartic_enumerate": [
        "solve",
        "problems/quartic.json",
        "--enumerate=-1,0,1",
        "--filter-second-el",
    ],
    "verify_quartic": ["verify", "problems/quartic.json", "--first-el", "--second-el"],
    "noether_quadratic_solve": [
        "noether",
        "problems/quadratic.json",
        "--solve",
        "--sweep",
        "25",
    ],
    "scale_info_quadratic": ["scale-info", "problems/quadratic.json"],
}


def test_every_command_has_golden_files():
    assert set(EXIT_CODES) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    report = tmp_path / "report"
    code = cli.main(COMMANDS[name] + ["--json", str(report)])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == EXIT_CODES[name]
    assert captured.out == (GOLDEN / f"{name}.stdout").read_text()
    assert report.read_bytes() == (GOLDEN / f"{name}.report").read_bytes()
