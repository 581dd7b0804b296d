"""Smoke test: every study script in ``scripts/`` runs with its default
arguments and exits 0, and the timing scripts run ``--against`` a source
tree.  And ``newton_sweep.py --compare`` exits 1 exactly when a solved
row is lost or moves too far."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_with_defaults(script):
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def sweep_row(index, verdict, values=None, message=""):
    row = {"index": index, "body": "v1^2", "verdict": verdict, "message": message}
    return row if values is None else {**row, "values": values}


OLD_SWEEP = [
    sweep_row(0, "ok", [[0.0], [1.0], [2.0]]),
    sweep_row(1, "NoConvergence", message="no convergence after 50 Newton step(s)"),
]
NEW_SWEEPS = {
    # a solved row moved within 1e-12 (1 + max|q_old|), and an unsolved
    # row's verdict changed, which does not count
    "within": (0, [
        sweep_row(0, "ok", [[0.0], [1.0], [2.0 + 2e-12]]),
        sweep_row(1, "SingularSystem", message="jacobian is singular"),
    ]),
    "ok to SingularSystem": (1, [
        sweep_row(0, "SingularSystem", message="jacobian is singular"),
        OLD_SWEEP[1],
    ]),
    "moved by 1e-11": (1, [
        sweep_row(0, "ok", [[0.0], [1.0 + 3e-11], [2.0]]),
        OLD_SWEEP[1],
    ]),
}


@pytest.mark.parametrize("case", sorted(NEW_SWEEPS))
def test_newton_sweep_compare_exits_1_on_an_offending_row(case, tmp_path):
    code, new_rows = NEW_SWEEPS[case]
    paths = []
    for name, rows in (("old", OLD_SWEEP), ("new", new_rows)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(row) + "\n" for row in rows))
    proc = run_script(ROOT / "scripts" / "newton_sweep.py", "--compare", *paths)
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert ("offending: 0:" in proc.stdout) == bool(code)


@pytest.mark.parametrize(
    "script, args",
    [
        ("kernel_timing.py", ["--repeat", "1", "--sizes", "21"]),
        ("enumeration_timing.py", ["--repeat", "1"]),
        ("startup_timing.py", ["--repeat", "1"]),
        ("call_timing.py", ["--repeat", "1"]),
    ],
    ids=["kernel_timing.py", "enumeration_timing.py", "startup_timing.py", "call_timing.py"],
)
def test_timing_against_a_source_tree(script, args):
    # this tree against itself: both columns and a ratio on every row
    proc = run_script(ROOT / "scripts" / script, *args, "--against", "src")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert rows and all(float(row.split()[-1]) > 0 for row in rows)
