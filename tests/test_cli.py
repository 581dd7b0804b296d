import json
from pathlib import Path

import numpy as np
import pytest

from tsvar import cli

ROOT = Path(__file__).resolve().parents[1]
QUADRATIC = ROOT / "problems" / "quadratic.json"
QUARTIC = ROOT / "problems" / "quartic.json"


def write_problem(tmp_path, name="problem.json", **overrides):
    base = {
        "version": "tsvar/1",
        "scale": {"uniform": {"a": 0.0, "b": 1.0, "h": 0.125}},
        "n": 1,
        "lagrangian": "v1^2",
        "q_a": 0.0,
        "q_b": 2.0,
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return str(path)


class TestSolve:
    def test_quadratic_closed_form(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["solve", str(QUADRATIC), "--json", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "method: closed_form" in captured
        report = cli.load_report(out)
        points = np.array(report["points"])
        values = np.array(report["values"])[:, 0]
        assert np.max(np.abs(values - 2.0 * points)) <= 1e-12
        assert report["action"] == 4.0
        assert report["first_el"] <= 1e-12
        assert report["second_el"] <= 1e-12

    def test_newton_fallback_for_quartic(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, lagrangian="(v1^2 - 1)^2", q_a=0.0, q_b=1.0
        )
        code = cli.main(["solve", path])
        captured = capsys.readouterr().out
        assert code == 0
        assert "method: newton" in captured

    def test_enumerate_counts(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, lagrangian="(v1^2 - 1)^2", q_a=0.0, q_b=0.0
        )
        code = cli.main(
            ["solve", path, "--enumerate=-1,0,1", "--filter-second-el"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "first-EL extremals: 1107" in captured
        assert "second-EL survivors: 71" in captured

    def test_enumerate_writes_json_lines(self, tmp_path):
        path = write_problem(
            tmp_path, lagrangian="(v1^2 - 1)^2", q_a=0.0, q_b=0.0
        )
        out = tmp_path / "cands.jsonl"
        code = cli.main(
            [
                "solve",
                path,
                "--enumerate=-1,0,1",
                "--filter-second-el",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        rows = cli.load_report(out)
        assert len(rows) == 71
        assert all(row["first_el"] <= 1e-8 for row in rows)

    def test_malformed_lagrangian_exit_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian="v1 +")
        code = cli.main(["solve", path])
        assert code == 2
        assert "position 4" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert cli.main(["solve", "no-such-file.json"]) == 2

    def test_exp_overflow_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 1.0, "h": 0.25}},
            lagrangian="exp(1000*v1)",
        )
        assert cli.main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert "error: result overflows in 'exp(1000.0 * v1)'" in err

    def test_no_convergence_exit_3(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            lagrangian="(v1^2 - 1)^2 + u1^2",
            q_a=0.0,
            q_b=0.5,
            solver={"max_iter": 1, "tol": 1e-14},
        )
        code = cli.main(["solve", path])
        assert code == 3
        assert "history" in capsys.readouterr().err


class TestVerify:
    def test_quartic_candidate_first_pass_second_fail(self, capsys):
        assert cli.main(["verify", str(QUARTIC), "--first-el"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert cli.main(["verify", str(QUARTIC), "--second-el"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_affine_passes_all_three(self, tmp_path):
        path = write_problem(
            tmp_path,
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        code = cli.main(
            ["verify", path, "--first-el", "--second-el", "--erdmann"]
        )
        assert code == 0

    def test_erdmann_on_non_autonomous_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            lagrangian="t*v1^2",
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        code = cli.main(["verify", path, "--erdmann"])
        assert code == 2
        assert "autonomous" in capsys.readouterr().err

    def test_power_overflow_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            lagrangian="v1^400 + u1^2",
            q_b=20.0,
            trajectory={"slopes": [20.0] * 8},
        )
        assert cli.main(["verify", path]) == 2
        assert "error: result overflows in 'v1^400.0'" in capsys.readouterr().err

    def test_missing_trajectory_exit_2(self, tmp_path):
        path = write_problem(tmp_path)
        assert cli.main(["verify", path]) == 2

    def test_default_checks_both_equations(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        assert cli.main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "first_el" in out and "second_el" in out


class TestNoether:
    def test_quadratic_conserved_zero(self, tmp_path, capsys):
        out = tmp_path / "noether.json"
        code = cli.main(
            ["noether", str(QUADRATIC), "--solve", "--json", str(out)]
        )
        assert code == 0
        report = cli.load_report(out)
        assert set(report) == {"invariance", "conserved", "deviation"}
        assert report["deviation"] <= 1e-12
        assert np.allclose(report["conserved"], 0.0, atol=1e-12)

    def test_sweep_reports_invariance_failure(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            transformation={"tau": "t", "xi": ["0"]},
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        code = cli.main(["noether", path, "--sweep", "5"])
        assert code == 0
        out = capsys.readouterr().out
        invariance = float(out.split("invariance: ")[1].splitlines()[0])
        assert invariance > 0.1

    def test_missing_transformation_exit_2(self, tmp_path):
        path = write_problem(
            tmp_path,
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        assert cli.main(["noether", path, "--solve"]) == 2

    def test_tol_gates_exit_code(self, tmp_path):
        # non-extremal trajectory: deviation is large
        path = write_problem(
            tmp_path,
            transformation={"tau": "1", "xi": ["1"]},
            trajectory={"values": [0.0, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0]},
        )
        assert cli.main(["noether", path]) == 0
        assert cli.main(["noether", path, "--tol", "1e-8"]) == 1


class TestScaleInfo:
    def test_mixed_scale_table(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"points": [0.0, 1.0, 1.5, 2.0], "gaps": ["S", "D", "D"]},
            q_b=1.0,
        )
        out = tmp_path / "info.json"
        assert cli.main(["scale-info", path, "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "LEFT_SCATTERED+RIGHT_DENSE" in text
        report = cli.load_report(out)
        assert report["mu"] == [1.0, 0.0, 0.0, 0.0]
        assert report["exact_discrete"] is False


class TestRoundTrip:
    def test_reports_reload_bit_for_bit(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(QUADRATIC), "--json", str(out)]) == 0
        first = cli.load_report(out)
        (tmp_path / "copy.json").write_text(json.dumps(first))
        second = cli.load_report(tmp_path / "copy.json")
        assert first == second

    def test_problem_schema_version_checked(self, tmp_path):
        path = write_problem(tmp_path, version="tsvar/2")
        assert cli.main(["solve", path]) == 2
