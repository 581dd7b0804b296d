"""Smoke test: every script in ``scripts/`` runs with its default
arguments and exits 0, and ``ab_timing.py`` runs ``--against`` a source
tree, each of its five families of cases checked on its own.  And
``newton_sweep.py --compare`` exits 1 exactly when a solved row is lost
or moves too far."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
_spec = importlib.util.spec_from_file_location("ab_timing", ROOT / "scripts" / "ab_timing.py")
AB_TIMING = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(AB_TIMING)
# ab_timing.py's runs are checked one family of cases at a time; a family's
# test id is the name of the script whose cases it took over
FAMILIES = {
    "parse_timing.py": ("parse", set()),
    "kernel_timing.py": ("kernel", set()),
    "enumeration_timing.py": ("enumeration", {"hits", "frames", "rows"}),
    "call_timing.py": ("call", {"exit"}),
    "startup_timing.py": ("startup", set()),
}
DEFAULT_RUNS = sorted([p.name for p in SCRIPTS if p.name != "ab_timing.py"] + list(FAMILIES))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


def run_script(script, *args, **variables):
    env = dict(os.environ, **variables)
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


def ab_timing_record(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert {"python", "numpy", "blas", "blas_threads", "cpu", "nproc"} <= set(record)
    assert {name.split()[0] for name in AB_TIMING.CASES} == {f for f, _ in FAMILIES.values()}
    assert [case["case"] for case in record["cases"]] == list(AB_TIMING.CASES)
    return record


def family_cases(record: dict, name: str) -> list:
    family, extra = FAMILIES[name]
    cases = [case for case in record["cases"] if case["case"].split()[0] == family]
    assert cases and all(set(case["extra"]) == extra for case in cases)
    return cases


@pytest.fixture(scope="module")
def ab_timing_defaults():
    # one default run, one tree, for all five families
    return ab_timing_record(run_script(ROOT / "scripts" / "ab_timing.py"))


@pytest.fixture(scope="module")
def ab_timing_against_itself():
    # this tree against itself, one pair per case, for all five families
    return ab_timing_record(
        run_script(ROOT / "scripts" / "ab_timing.py", "--repeat", "1", "--against", "src")
    )


@pytest.mark.parametrize("name", DEFAULT_RUNS)
def test_script_runs_with_defaults(name, request):
    if name in FAMILIES:
        record = request.getfixturevalue("ab_timing_defaults")
        assert record["repeat"] == 1 and len(record["trees"]) == 1
        for case in family_cases(record, name):
            assert len(case["median_s"]) == 1 and case["median_s"][0] > 0
            assert case["ratio"] is None and case["interval"] is None
        return
    proc = run_script(ROOT / "scripts" / name)
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
    # in development mode a file left to the garbage collector warns
    proc = run_script(
        ROOT / "scripts" / "newton_sweep.py", "--compare", *paths, PYTHONDEVMODE="1"
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert ("offending: 0:" in proc.stdout) == bool(code)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_timing_against_a_source_tree(name, ab_timing_against_itself):
    record = ab_timing_against_itself
    assert len(record["trees"]) == 2 and record["trees"][0] == record["trees"][1]
    for case in family_cases(record, name):
        assert len(case["median_s"]) == 2 and min(case["median_s"]) > 0
        assert case["ratio"] > 0 and case["interval"] is None


def test_sign_interval():
    assert AB_TIMING.sign_interval([1.0] * 31) == [1.0, 1.0]
    near = 0.9 + 0.02 * np.sin(np.arange(31))
    assert AB_TIMING.sign_interval(near)[1] < 1
    # 2 P(B <= 9) = 0.029 and 2 P(B <= 10) = 0.071 for B ~ Binomial(31, 1/2)
    assert AB_TIMING.sign_interval(np.arange(31.0, 0.0, -1.0)) == [10.0, 22.0]
    assert AB_TIMING.sign_interval(np.arange(1.0, 7.0)) == [1.0, 6.0]
    for n in range(1, 6):
        assert AB_TIMING.sign_interval([0.9] * n) is None
