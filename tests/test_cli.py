import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stdout
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from helpers import load_report
from tsvar import (
    Lagrangian, TimeScale, check_conservation, cli, enumerate_slope_extremals, solve
)
from tsvar.expr import FUNCTIONS
from tsvar.solver import MAX_DENSE
from tsvar.variational import MAX_DIM

ROOT = Path(__file__).resolve().parents[1]
QUADRATIC = ROOT / "problems" / "quadratic.json"
QUARTIC = ROOT / "problems" / "quartic.json"


def child_env(**variables) -> dict:
    """The environment of a child interpreter that imports tsvar from this
    tree, with ``variables`` set."""
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


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
        report = load_report(out)
        points = np.array(report["points"])
        values = np.array(report["values"])[:, 0]
        assert np.max(np.abs(values - 2.0 * points)) <= 1e-12
        assert report["action"] == 4.0
        assert report["first_el"] <= 1e-12
        assert report["second_el"] <= 1e-12

    def test_newton_fallback_for_quartic(self, tmp_path, capsys):
        # the quartic reads u as well as v: Newton's
        path = write_problem(
            tmp_path, lagrangian="(v1^2 - 1)^2 + u1^2", q_a=0.0, q_b=1.0
        )
        code = cli.main(["solve", path])
        captured = capsys.readouterr().out
        assert code == 0
        assert "method: newton" in captured

    @pytest.mark.parametrize(
        "lagrangian, scale, q_b",
        [
            ("exp(v1)", {"uniform": {"a": 0, "b": 1, "h": 0.1}}, 10.0),
            ("v1^2 + v1", {"dense": {"a": 0, "b": 1, "resolution": 9}}, 0.5),
        ],
    )
    def test_slope_only_closed_form(self, lagrangian, scale, q_b, tmp_path, capsys):
        # once a Newton failure (exit 3) and a refusal of the dense scale
        # (exit 2): L reads only the slope, so the affine guess is the answer
        path = write_problem(
            tmp_path, lagrangian=lagrangian, scale=scale, q_a=0.0, q_b=q_b
        )
        code = cli.main(["solve", path])
        captured = capsys.readouterr().out
        assert code == 0
        assert "method: closed_form" in captured

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
        rows = load_report(out)
        assert len(rows) == 71
        assert all(row["first_el"] <= 1e-8 for row in rows)

    def test_malformed_lagrangian_exit_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, lagrangian="v1 +")
        code = cli.main(["solve", path])
        assert code == 2
        assert "position 4" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert cli.main(["solve", "no-such-file.json"]) == 2

    def test_empty_path_exit_2(self, capsys):
        code, err = run_cli(["solve", ""], capsys)
        assert code == 2
        assert err == "error: cannot read : [Errno 2] No such file or directory: ''\n"

    def test_exp_overflow_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 1.0, "h": 0.25}},
            lagrangian="exp(1000*v1)",
        )
        assert cli.main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert "error: result overflows in 'exp(1000 * v1)'" in err

    @pytest.mark.parametrize("flags", [[], ["--enumerate=-1,0,1"]])
    def test_out_of_range_literal_exit_2(self, flags, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 1.0, "h": 0.25}},
            lagrangian="v1^2 + 1e309*u1",
            q_b=1.0,
        )
        assert cli.main(["solve", *flags, path]) == 2
        err = capsys.readouterr().err
        assert err == "error: number 1e309 is out of range at position 7\n"

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

    def test_fractional_max_iter_exit_2(self, tmp_path, capsys):
        # rejected, not truncated to 2
        path = write_problem(
            tmp_path, lagrangian="v1^2 + u1^2", solver={"max_iter": 2.5}
        )
        code = cli.main(["solve", path])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: bad 'max_iter': 2.5 is not an integer\n"

    def test_overflowing_residual_exit_3(self, tmp_path, capsys):
        # the affine guess's first-EL rows overflow: no step can be solved
        # for; the outer quotient's inf - inf is nan without a warning
        path = write_problem(tmp_path, lagrangian="1e300*v1^2*u1^3", q_b=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", path])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: residual has non-finite entries\n"

    @pytest.mark.parametrize(
        "points, lagrangian, q_a, q_b",
        [
            ([-1e308, 0.0, 1e308], "v1^2", 3.0, 5.0),
            ([-1e308, 0.0, 1e308], "v1^2 + u1^2", 3.0, 5.0),
            ([0.0, 1e200, 2e200], "v1^2", 1e200, 1e200),
        ],
    )
    def test_overflowing_affine_extremal_exit_2(
        self, points, lagrangian, q_a, q_b, tmp_path, capsys
    ):
        # b - a or b*q_a overflows, so c*t + k is not finite: an input error,
        # named before the kernel or Newton reads the guess, and no warning
        path = write_problem(
            tmp_path, scale={"points": points}, lagrangian=lagrangian, q_a=q_a, q_b=q_b
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["solve", path])
        assert code == 2 and caught == []
        err = capsys.readouterr().err
        assert err == "error: result overflows in the affine extremal c*t + k\n"

    def test_overflowing_hamiltonian_without_warning(self, tmp_path, capsys):
        # Newton converges, but L = v1 * u1 overflows at 3 of 4 frames: the
        # action is -inf and the Hamiltonian's inf - inf makes second_el nan,
        # an exit 2 naming the first of them before anything is printed
        points = [
            0.14557293063291543, 0.4841463723815471, 0.829583735194998,
            1.5311197387222544, 1.8119018593106655,
        ]
        path = write_problem(
            tmp_path, scale={"points": points}, lagrangian="v1 * u1",
            q_a=1e300, q_b=1e-300,
        )
        report = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", path, "--json", str(report)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: action is not finite: -inf\n")
        assert not report.exists()

    def test_once_differentiable_lagrangian_exit_2(self, tmp_path, capsys):
        # |u1|^1.5 is differentiable once at u1 = 0 but not twice; the
        # affine guess from -1 to 1 meets 0 at the interior point t = 0.5,
        # where Newton's Jacobian reads L_uu
        path = write_problem(
            tmp_path, lagrangian="(u1^2)^0.75 + v1^2", q_a=-1.0, q_b=1.0
        )
        assert cli.main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: power not twice differentiable at zero base in '(u1^2)^0.75'\n"
        )

    def test_once_non_differentiable_lagrangian_exit_2(self, tmp_path, capsys):
        # u1^0.5 has no first partial at u1 = q_b = 0, which the residual reads
        path = write_problem(tmp_path, lagrangian="u1^0.5 + v1^2", q_a=1.0, q_b=0.0)
        assert cli.main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert err == "error: non-differentiable power at zero base in 'u1^0.5'\n"

    def test_overflowing_jacobian_exit_3(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            scale={"points": [k * 1e-160 for k in range(6)]},
            lagrangian="v1^2 + u1^2",
            q_b=1e-9,
        )
        assert cli.main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: jacobian has non-finite entries\n"

    def test_jacobian_overflowing_where_the_hessian_does_not_exit_3(
        self, tmp_path, capsys
    ):
        # gaps of 1e-156: the action's Hessian is finite, the residual's
        # Jacobian, a further 1/mu, is not, so there is no rounding floor
        path = write_problem(
            tmp_path,
            scale={"points": [k * 1e-156 for k in range(8)]},
            lagrangian="v1^2 + 0.5*u1^4",
            q_b=1e-82,
        )
        assert cli.main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: jacobian has non-finite entries\n"

    def test_trial_step_outside_the_domain_exit_3(self, tmp_path, capsys):
        # the affine guess is inside L's domain and a later trial step is
        # not: that trial fails and is halved, and the solve ends at a
        # singular Hessian, not as an input error
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 1.0, "h": 0.038461538461538464}},
            lagrangian="log(v1^2 + 1) + exp(u1)",
            q_b=5.0,
        )
        assert cli.main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: jacobian condition estimate exceeds 1e+14\n"

    def test_overflowing_action_is_inf_without_a_warning(self, tmp_path, capsys):
        # gaps of 1e9: mu * L overflows in the action's terms, which is inf
        # as the kernel's own products are, not a RuntimeWarning; the CLI
        # names the infinite action, an exit 2
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 8e9, "h": 1e9}},
            lagrangian="v1^2 + 1e300*u1^2",
            q_b=1.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", path]) == 2
        assert capsys.readouterr() == ("", "error: action is not finite: inf\n")

    def test_overflowing_quotient_in_a_trial_step_exit_3(self, tmp_path, capsys):
        # trial steps whose dL/dv quotients overflow are failed trials, as an
        # overflowing residual is, not a RuntimeWarning
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.5, "b": 2.5, "h": 0.5}},
            n=2,
            lagrangian="exp(v1/3)*u2 + v1^2 + exp(v2/3)*u1 + v2^2",
            q_a=[-121.1, -182.7],
            q_b=[118.8, 328.3],
        )
        assert cli.main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: no convergence after 22 Newton")

    def test_unhashable_gap_kind_exit_2(self, tmp_path, capsys):
        scale = {"points": [0.0, 0.25, 0.5, 0.75, 1.0], "gaps": ["S", ["S"], "D", "S"]}
        path = write_problem(tmp_path, scale=scale)
        assert cli.main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad scale: unknown gap kind ['S'] (expected 'S' or 'D')\n"

    def test_lagrangian_twice_differentiable_where_newton_reads_it_exit_0(
        self, tmp_path, capsys
    ):
        # u1^1.5 has no second partial at u1 = q_b = 0, nor t^1.5 at t = 0,
        # but Newton's Jacobian reads neither
        for body, q_b in (("u1^1.5 + v1^2", 0.0), ("t^1.5*v1^2 + u1^2", 2.0)):
            path = write_problem(tmp_path, lagrangian=body, q_a=1.0, q_b=q_b)
            assert cli.main(["solve", path]) == 0
            assert capsys.readouterr().out.startswith("method: newton\n")

    @pytest.mark.parametrize(
        "q_a, q_b", [(12345.6, 12345.9), (100000.1, 100000.4), (54321.7, 54322.0)]
    )
    def test_enumeration_with_large_boundary_values_exit_0(
        self, q_a, q_b, tmp_path, capsys
    ):
        path = write_problem(
            tmp_path,
            scale={"points": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]},
            lagrangian="v1^2 + u1^2",
            q_a=q_a,
            q_b=q_b,
        )
        assert cli.main(["solve", path, "--enumerate=-1,0,1"]) == 0
        assert capsys.readouterr().out.startswith("first-EL extremals: ")


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

    def test_erdmann_names_the_point_as_a_plain_float(self, tmp_path, capsys):
        # dL/dt = v1^2 first moves on the last gap, at t = 0.875
        path = write_problem(
            tmp_path,
            lagrangian="t*v1^2",
            trajectory={"values": [0, 0, 0, 0, 0, 0, 0, 0, 2.0]},
        )
        code, err = run_cli(["verify", path, "--erdmann"], capsys)
        assert code == 2
        assert err == (
            "error: lagrangian is not autonomous: dL/dt = 2.560e+02 at t = 0.875\n"
        )

    def test_power_overflow_exit_2(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            lagrangian="v1^400 + u1^2",
            q_b=20.0,
            trajectory={"slopes": [20.0] * 8},
        )
        assert cli.main(["verify", path]) == 2
        assert "error: result overflows in 'v1^400'" in capsys.readouterr().err

    def test_overflowing_quotient_exit_2(self, tmp_path, capsys):
        # q_delta overflows to inf over gaps of 1e-300, and then v1^2 does
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 4e-300, "h": 1e-300}},
            q_b=0.0,
            trajectory={"values": [0.0, 1e10, -1e10, 1.0, 0.0]},
        )
        assert cli.main(["verify", path]) == 2
        assert capsys.readouterr().err == "error: result overflows in 'v1^2'\n"

    def test_missing_trajectory_exit_2(self, tmp_path):
        path = write_problem(tmp_path)
        assert cli.main(["verify", path]) == 2

    @pytest.mark.parametrize(
        "flags",
        [[], ["--first-el", "--second-el", "--erdmann"]],
        ids=["default", "all"],
    )
    def test_one_evaluation_per_run(self, flags, count_calls, capsys):
        calls = count_calls(Lagrangian, "partials")
        assert cli.main(["verify", str(QUARTIC), *flags]) == 1
        assert len(calls) == 1

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
        report = load_report(out)
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

    def test_overflowing_products_without_warning(self, tmp_path, capsys):
        # L overflows to inf, so H tau_delta is inf * 0 = nan, and so does
        # L_u xi_sigma: the invariance is nan and the conserved quantity inf,
        # an exit 2 naming the invariance before anything is printed
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 0.0, "b": 1.0, "h": 0.25}},
            lagrangian="1e300*u1^2 + v1^2",
            q_b=1.0,
            trajectory={"values": [0, 1e5, -1e5, 1e5, 1]},
            transformation={"tau": "1", "xi": ["1e10*q1"]},
        )
        report = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["noether", path, "--json", str(report)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: invariance is not finite: nan\n")
        assert not report.exists()
        # the given trajectory's invariance is 0, but 6e306*u1^2 overflows
        # on the sweep's first draw from [-6, 6]: that nan is not dropped by
        # the largest magnitude
        path = write_problem(
            tmp_path,
            lagrangian="6e306*u1^2 + v1^2",
            q_b=5.0,
            trajectory={"values": [0.0] * 8 + [5.0]},
            transformation={"tau": "0", "xi": ["1"]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["noether", path]) == 0
            capsys.readouterr()
            assert cli.main(["noether", path, "--sweep", "1"]) == 2
        assert capsys.readouterr() == ("", "error: invariance is not finite: nan\n")
        # u1^3 and H = -u1^3 are finite, from -1.66e308 to 1.66e308, but
        # their spread overflows: the deviation is an exit 2, and Erdmann's
        # spread of the same H a verify fail
        path = write_problem(
            tmp_path,
            lagrangian="u1^3",
            q_b=0.0,
            trajectory={"values": [0.0, 5.5e102, -5.5e102] + [0.0] * 6},
            transformation={"tau": "1", "xi": ["0"]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["noether", path]) == 2
            assert capsys.readouterr().err == "error: deviation is not finite: inf\n"
            assert cli.main(["verify", path, "--erdmann"]) == 1
        assert capsys.readouterr() == ("erdmann: inf FAIL\n", "")

    def test_sweep_with_a_span_past_half_the_float_range(self, tmp_path, capsys):
        # |q_a| + |q_b| = 1e308: a draw over [-span, span] would have a range
        # past the largest float, which numpy's uniform refuses with an
        # OverflowError; capped, the draw overflows v1^2, an exit 2
        path = write_problem(
            tmp_path,
            q_a=5e307,
            q_b=5e307,
            trajectory={"values": [5e307] * 9},
            transformation={"tau": "1", "xi": ["1"]},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["noether", path, "--sweep", "1"]) == 2
        assert capsys.readouterr().err == "error: result overflows in 'v1^2'\n"

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
        report = load_report(out)
        assert report["mu"] == [1.0, 0.0, 0.0, 0.0]
        assert report["exact_discrete"] is False

    def test_classes_match_classify(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        for n in (3, 4, 7, 30):
            points = np.cumsum(rng.uniform(0.1, 1.0, n)).tolist()
            gaps = rng.choice(["S", "D"], n - 1).tolist()
            path = write_problem(tmp_path, scale={"points": points, "gaps": gaps})
            out = tmp_path / "info.json"
            assert cli.main(["scale-info", path, "--json", str(out)]) == 0
            scale = cli.load_problem(path).problem.scale
            labels = [scale.classify(i).label for i in range(n)]
            assert load_report(out)["classes"] == labels
            rows = capsys.readouterr().out.splitlines()[3:]
            assert [row.split()[1] for row in rows] == labels

    def test_all_four_point_classes_pinned(self, tmp_path, capsys):
        # every point class, and a dense last gap (so kappa keeps every point)
        path = write_problem(
            tmp_path,
            scale={
                "points": [0.0, 0.5, 1.25, 1.5, 1.75, 2.1, 2.4],
                "gaps": ["S", "S", "D", "D", "S", "D"],
            },
            q_b=1.0,
        )
        out = tmp_path / "info.json"
        assert cli.main(["scale-info", path, "--json", str(out)]) == 0
        assert capsys.readouterr().out == (
            "points: 7   span: [0, 2.4]\n"
            "exact discrete: False\n"
            "      t  class  mu\n"
            "             0  LEFT_DENSE+RIGHT_SCATTERED  0.5\n"
            "           0.5  ISOLATED  0.75\n"
            "          1.25  LEFT_SCATTERED+RIGHT_DENSE  0\n"
            "           1.5  DENSE  0\n"
            "          1.75  LEFT_DENSE+RIGHT_SCATTERED  0.35\n"
            "           2.1  LEFT_SCATTERED+RIGHT_DENSE  0\n"
            "           2.4  DENSE  0\n"
        )
        assert out.read_text() == (
            '{"command": "scale-info", "scale": {"points": [0.0, 0.5, 1.25, 1.5, '
            '1.75, 2.1, 2.4], "gaps": ["S", "S", "D", "D", "S", "D"]}, "mu": [0.5, '
            '0.75, 0.0, 0.0, 0.3500000000000001, 0.0, 0.0], "classes": '
            '["LEFT_DENSE+RIGHT_SCATTERED", "ISOLATED", "LEFT_SCATTERED+RIGHT_DENSE", '
            '"DENSE", "LEFT_DENSE+RIGHT_SCATTERED", "LEFT_SCATTERED+RIGHT_DENSE", '
            '"DENSE"], "kappa_length": 7, "exact_discrete": false}'
        )

    @pytest.mark.parametrize(
        "path", [QUADRATIC, ROOT / "missing.json"], ids=["file", "missing"]
    )
    def test_module_form_runs_main(self, path, capsys):
        # python -m tsvar.cli prints and exits as the in-process call does
        argv = ["scale-info", str(path)]
        proc = subprocess.run(
            [sys.executable, "-m", "tsvar.cli", *argv],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, *captured)
        assert code == (0 if path.exists() else 2)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_pipe_ends_as_cat_does(self, tmp_path):
        # scale-info on 10001 points prints more than a pipe holds; the
        # reader takes one line and closes the pipe (as | head -1 does), and
        # the command ends by SIGPIPE's default action, with no traceback
        path = write_problem(tmp_path, scale={"uniform": {"a": 0, "b": 1, "h": 1e-4}})
        proc = subprocess.Popen(
            [sys.executable, "-m", "tsvar.cli", "scale-info", path],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"points: 10001   span: [0, 1]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert b"Traceback" not in err


class TestRoundTrip:
    def test_reports_reload_bit_for_bit(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(QUADRATIC), "--json", str(out)]) == 0
        first = load_report(out)
        (tmp_path / "copy.json").write_text(json.dumps(first))
        second = load_report(tmp_path / "copy.json")
        assert first == second

    def test_problem_schema_version_checked(self, tmp_path):
        path = write_problem(tmp_path, version="tsvar/2")
        assert cli.main(["solve", path]) == 2


FIVE_POINT = {
    "version": "tsvar/1",
    "scale": {"uniform": {"a": 0.0, "b": 1.0, "h": 0.25}},
    "n": 1,
    "lagrangian": "v1^2 + u1^2",
    "q_a": 0.0,
    "q_b": 1.0,
    "trajectory": {"values": [0.0, 0.25, 0.5, 0.75, 1.0]},
    "transformation": {"tau": "1", "xi": ["1"]},
    "solver": {"tol": 1e-10, "max_iter": 50, "max_halvings": 20, "fd_step": 1e-7},
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"q_a": float("nan")},
            {"q_a": None},
            {"q_b": float("inf")},
            {"trajectory": {"values": [0.0, float("nan"), 0.5, 0.75, 1.0]}},
            {"trajectory": {"values": [0.0, 0.25, 0.5, 0.75, float("nan")]}},
            {"trajectory": {"slopes": [1.0, None, 1.0, 1.0]}},
        ],
    )
    def test_problem_file_rejects_non_finite(self, overrides, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**FIVE_POINT, **overrides}))
        code, err = run_cli(["verify", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    def test_tol_rejects_nan(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", str(QUARTIC), "--tol", "nan"])
        assert exc.value.code == 2
        assert "error: argument --tol: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "solve", "noether", "scale-info"])
    def test_tol_rejects_negative(self, command, capsys):
        # a negative tolerance would fail every check, or keep no extremal
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(QUARTIC), "--tol", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --tol: must be finite and non-negative, got -1.0" in err
        # reported by the subcommand's parser, as argparse's own errors are
        assert err.startswith(f"usage: tsvar {command} [-h]")
        assert f"\ntsvar {command}: error: argument --tol: " in err

    @pytest.mark.parametrize("flag, value", [("--sweep", "-3"), ("--seed", "-1")])
    def test_noether_counts_reject_negative(self, flag, value, capsys):
        # a negative sweep would skip the sweep and still exit 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["noether", str(QUADRATIC), "--solve", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be non-negative, got {value}" in err
        assert err.startswith("usage: tsvar noether [-h]")
        assert f"\ntsvar noether: error: argument {flag}: " in err

    def test_zero_tol_is_valid(self, capsys):
        assert cli.main(["verify", str(QUARTIC), "--first-el", "--tol", "0"]) == 0
        argv = ["solve", str(QUARTIC), "--enumerate=-1,0,1", "--tol", "0"]
        assert cli.main(argv) == 0
        assert "first-EL extremals: 1107" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "overrides",
        [
            {  # the product 1.7e308 * mu_0 overflows
                "scale": {"points": [
                    -3.6726095527168456, 1.9874465223722417,
                    2.5076343099927376, 3.750875502437257,
                ]},
                "lagrangian": "log(u1) + v1^2",
                "q_a": 2.0,
                "q_b": -1e300,
                "trajectory": {"slopes": [[1.7e308], [0.0], [2.0]]},
            },
            {  # every product is finite, and their sum overflows
                "scale": {"points": [0.0, 1.0, 2.0, 3.0]},
                "trajectory": {"slopes": [1e308, 1e308, 0.0]},
            },
        ],
        ids=["product", "sum"],
    )
    @pytest.mark.parametrize("command", ["solve", "verify", "noether", "scale-info"])
    def test_slope_list_expanding_past_the_float_range(
        self, command, overrides, tmp_path, capsys
    ):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**FIVE_POINT, **overrides}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = run_cli([command, str(path)], capsys)
        assert code == 2
        assert err == "error: trajectory from the 'slopes' entry must be finite\n"

    @pytest.mark.parametrize(
        "flags, shown", [([], True), (["--json", "report.json"], True),
                         (["--filter-second-el"], False)],
        ids=["printed", "written", "filtered out"],
    )
    def test_enumeration_checks_the_rows_it_shows(self, flags, shown, tmp_path, capsys):
        # the one first-EL extremal, the zero word, has action -inf and
        # second-EL nan; the second-EL filter drops it, and nothing is shown
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "scale": {"points": [-0.5, -0.25, 0.25]},
            "lagrangian": "(1e-300)^0.5 / 0.5 - 1e200*1e200",
            "q_a": -1.5,
            "q_b": -1.5,
        }))
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", str(path), "--enumerate=-1,0,1", *flags])
        out, err = capsys.readouterr()
        if shown:
            assert (code, out, err) == (2, "", "error: action is not finite: -inf\n")
            assert not (tmp_path / "report.json").exists()
        else:
            assert (code, err) == (0, "")
            assert "second-EL survivors: 0" in out

    def test_enumeration_rejects_nan_letter(self, capsys):
        code, err = run_cli(
            ["solve", str(QUARTIC), "--enumerate=nan,0", "--filter-second-el"], capsys
        )
        assert code == 2
        assert err.startswith("error: alphabet letters must be finite")


MALFORMED = {
    "top-level array": [1, 2],
    "solver list": {**FIVE_POINT, "solver": [1]},
    "null n": {**FIVE_POINT, "n": None},
    "q_a object": {**FIVE_POINT, "q_a": {}},
    "slopes object": {**FIVE_POINT, "trajectory": {"slopes": {}}},
    "generator numbers": {**FIVE_POINT, "transformation": {"tau": 1, "xi": [2]}},
    "xi number": {**FIVE_POINT, "transformation": {"tau": "1", "xi": 5}},
    "lagrangian number": {**FIVE_POINT, "lagrangian": 5},
    "q_a beyond float range": {**FIVE_POINT, "q_a": 10**400},
    "tol beyond float range": {**FIVE_POINT, "solver": {"tol": 10**400}},
    "points beyond float range": {**FIVE_POINT, "scale": {"points": [0, 1, 10**400]}},
    "h beyond float range": {
        **FIVE_POINT, "scale": {"uniform": {"a": 0, "b": 1, "h": 10**400}}
    },
}


NUMBER_FIELDS = {
    "q_a": lambda x: {"q_a": x},
    "q_b": lambda x: {"q_b": x},
    "values": lambda x: {"trajectory": {"values": [0.0, x, 0.5, 0.75, 1.0]}},
    "slopes": lambda x: {"trajectory": {"slopes": [[1.0], [x], [1.0], [1.0]]}},
    "tol": lambda x: {"solver": {"tol": x}},
    "points": lambda x: {"scale": {"points": [0.0, x, 2.0]}},
    "h": lambda x: {"scale": {"uniform": {"a": 0.0, "b": 1.0, "h": x}}},
    "resolution": lambda x: {"scale": {"dense": {"a": 0.0, "b": 1.0, "resolution": x}}},
}


@pytest.mark.parametrize("value", [True, "1"], ids=repr)
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_boolean_or_string_number_exit_2(field, value, tmp_path, capsys):
    # float() would read true as 1 and "1" as 1: the field is named instead
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**FIVE_POINT, **NUMBER_FIELDS[field](value)}))
    code, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and f"'{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_problem_file_exit_2(name, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, err = run_cli(["solve", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b'{\r\n  "n": 1,\r\n  "q_a": \r\n}', b'{\r  "n": 1,\r  "q_a": \r}', b'{"n": 1\xff}'],
    ids=["CRLF", "CR", "not UTF-8"],
)
def test_file_is_decoded_as_in_text_mode(content, tmp_path, capsys):
    # universal newlines, so an error is placed at the same line and char,
    # and the locale's encoding, so an undecodable byte is the same error
    path = tmp_path / "p.json"
    path.write_bytes(content)
    try:
        with open(path) as file:
            json.loads(file.read())
    except json.JSONDecodeError as exc:
        want = f"error: {path} is not valid JSON: {exc}\n"
    except UnicodeDecodeError as exc:
        want = f"error: {exc}\n"
    else:  # an encoding that decodes every byte
        want = "error: problem file is missing 'scale'\n"
    assert run_cli(["scale-info", str(path)], capsys) == (2, want)


INPUT_ERRORS = {
    "invalid JSON": (["solve"], None, "is not valid JSON: "),
    "bad alphabet": (["solve", "--enumerate=a,b"], {}, "error: bad alphabet: "),
    "noether without a trajectory": (
        ["noether"],
        {"transformation": {"tau": "1", "xi": ["1"]}},
        "error: noether needs a trajectory in the problem file (or --solve)\n",
    ),
    "enumeration on a dense scale": (
        ["solve", "--enumerate=-1,0,1"],
        {"scale": {"dense": {"a": 0.0, "b": 1.0, "resolution": 9}}},
        "error: enumeration needs an exact discrete scale\n",
    ),
    "enumeration with n = 2": (
        ["solve", "--enumerate=-1,0,1"],
        {"n": 2, "lagrangian": "v1^2 + v2^2", "q_a": [0.0, 0.0], "q_b": [2.0, 2.0]},
        "error: enumeration is implemented for one-dimensional problems\n",
    ),
    "max_iter 0": (
        ["solve"], {"solver": {"max_iter": 0}}, "error: max_iter must be at least 1\n"
    ),
    "tol 0": (
        ["solve"], {"solver": {"tol": 0}}, "error: tol must be positive and finite\n"
    ),
}


TRAJECTORY = [0.0, 0.25, 0.5, 0.75, 1.0]
UNKNOWN_KEYS = {
    "top level": (
        {"transfromation": {"tau": "1", "xi": ["1"]}},
        "unknown key 'transfromation' in the problem file",
    ),
    "solver": ({"solver": {"tolerance": 1e-3}}, "unknown key 'tolerance' in 'solver'"),
    "transformation": (
        {"transformation": {"tau": "1", "xi": ["1"], "eta": "0"}},
        "unknown key 'eta' in 'transformation'",
    ),
    "trajectory": (
        {"trajectory": {"values": TRAJECTORY, "weights": TRAJECTORY}},
        "unknown key 'weights' in 'trajectory' beside 'values'",
    ),
    "both trajectory forms": (
        {"trajectory": {"slopes": [1.0] * 4, "values": TRAJECTORY}},
        "unknown key 'slopes' in 'trajectory' beside 'values'",
    ),
    "scale": (
        {"scale": {"points": [0.0, 0.25, 0.5, 0.75, 1.0], "gap": ["S"] * 4}},
        "bad scale: unknown key 'gap' in 'scale'",
    ),
    "gaps beside uniform": (
        {"scale": {"uniform": {"a": 0, "b": 1, "h": 0.25}, "gaps": ["D"] * 4}},
        "bad scale: unknown key 'gaps' in 'scale' beside 'uniform'",
    ),
    "points beside dense": (
        {"scale": {"points": [0.0, 0.5, 1.0], "dense": {"a": 0, "b": 1, "resolution": 5}}},
        "bad scale: unknown key 'points' in 'scale' beside 'dense'",
    ),
    "uniform": (
        {"scale": {"uniform": {"a": 0, "b": 1, "h": 0.25, "step": 0.5}}},
        "bad scale: unknown key 'step' in 'uniform'",
    ),
    "dense": (
        {"scale": {"dense": {"a": 0, "b": 1, "resolution": 5, "n": 5}}},
        "bad scale: unknown key 'n' in 'dense'",
    ),
    "points misspelt": (
        {"scale": {"pointz": [0, 0.5, 1]}}, "bad scale: unknown key 'pointz' in 'scale'"
    ),
    "values misspelt": (
        {"trajectory": {"valuez": TRAJECTORY}}, "unknown key 'valuez' in 'trajectory'"
    ),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_key_exit_2(case, tmp_path, capsys):
    # the loader names the first key it does not read, whichever command runs
    overrides, message = UNKNOWN_KEYS[case]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**FIVE_POINT, **overrides}))
    for command in ("solve", "verify", "noether", "scale-info"):
        assert run_cli([command, str(path)], capsys) == (2, f"error: {message}\n")


def test_an_empty_scale_or_trajectory_names_its_forms(tmp_path, capsys):
    path = tmp_path / "p.json"
    for overrides, message in (
        ({"scale": {}}, "bad scale: scale object needs 'points', 'uniform', or 'dense'"),
        ({"trajectory": {}}, "trajectory needs either 'values' or 'slopes'"),
    ):
        path.write_text(json.dumps({**FIVE_POINT, **overrides}))
        assert run_cli(["solve", str(path)], capsys) == (2, f"error: {message}\n")


# the keys the loader reads in each object, by the name its errors give it
LOADER_KEYS = {
    "the problem file": cli._PROBLEM,
    "'scale'": (*cli._POINTS, *cli._SHORTHANDS),
    **{repr(kind): keys for kind, (_, keys) in cli._SHORTHANDS.items()},
    "'trajectory'": cli._TRAJECTORY,
    "'transformation'": cli._TRANSFORMATION,
    "'solver'": (*cli._SOLVER, *cli._RETIRED),
}
POINTS_FILE = {**FIVE_POINT, "scale": {"points": TRAJECTORY, "gaps": ["S"] * 4}}
DENSE_FILE = {**FIVE_POINT, "scale": {"dense": {"a": 0.0, "b": 1.0, "resolution": 5}}}
SLOPES_FILE = {**FIVE_POINT, "trajectory": {"slopes": [0.25] * 4}}
HOLDERS = [  # each object's name, a file that holds it, and its path there
    ("the problem file", FIVE_POINT, ()),
    ("'scale'", POINTS_FILE, ("scale",)),
    ("'scale'", FIVE_POINT, ("scale",)),
    ("'scale'", DENSE_FILE, ("scale",)),
    ("'uniform'", FIVE_POINT, ("scale", "uniform")),
    ("'dense'", DENSE_FILE, ("scale", "dense")),
    ("'trajectory'", FIVE_POINT, ("trajectory",)),
    ("'trajectory'", SLOPES_FILE, ("trajectory",)),
    ("'transformation'", FIVE_POINT, ("transformation",)),
    ("'solver'", FIVE_POINT, ("solver",)),
]


def misspell(rng, key, keys) -> str:
    """key after one edit, a letter inserted, deleted or replaced, that is
    neither empty nor one of keys."""
    while True:
        i, letter = rng.randrange(len(key) + 1), rng.choice("abcdefghijklmnopqrstuvwxyz_")
        head, tail = key[:i], key[i:]
        word = rng.choice([head + letter + tail, head + tail[1:], head + letter + tail[1:]])
        if word and word not in keys:
            return word


def misspelt_keys() -> list:
    """Every key of every object in HOLDERS, each misspelt once, from a seed
    of their own."""
    rng, cases = random.Random(20261021), []
    for name, problem, path in HOLDERS:
        obj = reduce(dict.__getitem__, path, problem)
        cases += [(name, problem, path, key, misspell(rng, key, LOADER_KEYS[name])) for key in obj]
    return cases


MISSPELT = misspelt_keys()


def test_misspelt_keys_cover_every_key_the_loader_reads():
    covered = {}
    for name, _, _, key, _ in MISSPELT:
        covered.setdefault(name, set()).add(key)
    assert covered == {name: set(keys) for name, keys in LOADER_KEYS.items()}


@pytest.mark.parametrize(
    "name, problem, path, key, word", MISSPELT, ids=[f"{c[0]} {c[3]}->{c[4]}" for c in MISSPELT]
)
def test_misspelt_key_exit_2(name, problem, path, key, word, tmp_path, capsys):
    problem = json.loads(json.dumps(problem))  # a deep copy
    obj = reduce(dict.__getitem__, path, problem)
    obj[word] = obj.pop(key)
    file = tmp_path / "p.json"
    file.write_text(json.dumps(problem))
    message = f"unknown key {word!r} in {name}"
    if path[:1] == ("scale",):
        message = f"bad scale: {message}"
    for command in ("solve", "verify", "noether", "scale-info"):
        assert run_cli([command, str(file)], capsys) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "command",
    [["solve"], ["verify", "--erdmann"], ["noether", "--solve", "--sweep", "2"], ["scale-info"]],
    ids=" ".join,
)
def test_retired_solver_keys_leave_the_output_unchanged(command, tmp_path, capsys):
    # FIVE_POINT's solver holds max_halvings and fd_step beside tol and max_iter
    path, report = tmp_path / "p.json", tmp_path / "report.json"
    results = []
    for solver in (FIVE_POINT["solver"], {"tol": 1e-10, "max_iter": 50}):
        path.write_text(json.dumps({**FIVE_POINT, "solver": solver}))
        code = cli.main([*command, str(path), "--json", str(report)])
        results.append((code, capsys.readouterr(), report.read_bytes()))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)  # verify fails the affine trajectory


class Pairs(list):
    """A decoded JSON object as its (key, value) pairs, repeated keys kept."""


def test_readme_schema_lists_the_loaders_keys():
    # the README's tsvar/1 block, its comments removed, read as JSON; a key
    # listed twice shows two forms of one object
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Problem file schema (`tsvar/1`)", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
    listed = {}

    def walk(name, pairs):
        for key, value in pairs:
            listed.setdefault(name, set()).add(key)
            if isinstance(value, Pairs):
                walk(key, value)

    walk("problem", json.loads(re.sub("//.*", "", block), object_pairs_hook=Pairs))
    loader = {
        "problem": cli._PROBLEM,
        "scale": (*cli._POINTS, *cli._SHORTHANDS),
        **{kind: keys for kind, (_, keys) in cli._SHORTHANDS.items()},
        "trajectory": cli._TRAJECTORY,
        "transformation": cli._TRANSFORMATION,
        "solver": (*cli._SOLVER, *cli._RETIRED),
    }
    assert listed == {name: set(keys) for name, keys in loader.items()}
    retired = {
        key
        for line in block.splitlines() if "retired" in line
        for key in re.findall(r'"(\w+)":', line.split("//")[0])
    }
    assert retired == set(cli._RETIRED)


@pytest.mark.parametrize("key", ["scale", "lagrangian", "q_a", "q_b"])
def test_missing_required_key_exit_2(key, tmp_path, capsys):
    problem = {**FIVE_POINT}
    del problem[key]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, err = run_cli(["verify", str(path)], capsys)
    assert code == 2
    assert err == f"error: problem file is missing {key!r}\n"


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exit_2(case, tmp_path, capsys):
    command, overrides, message = INPUT_ERRORS[case]
    path = write_problem(tmp_path, **(overrides or {}))
    if overrides is None:
        Path(path).write_text('{"version": "tsvar/1",')
    code, err = run_cli([*command, path], capsys)
    assert code == 2
    assert err.startswith("error: ") and message in err


def test_file_nested_past_the_decoder_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, err = run_cli(["scale-info", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {path} is nested too deeply")


@pytest.mark.parametrize(
    "command",
    [["solve"], ["solve", "--enumerate=0,0.5,1"], ["verify"], ["noether"], ["scale-info"]],
    ids=" ".join,
)
def test_unwritable_json_path_exit_2(command, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(FIVE_POINT))
    report = tmp_path / "missing" / "report.json"
    code, err = run_cli([*command, str(path), "--json", str(report)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {report}: ")


REPLACEMENTS = {
    "null": None,
    "number": 2,
    "string": "x",
    "list": [1, 2],
    "object": {},
    "nan": float("nan"),
    "1e400": "<1e400>",  # written as the bare literal 1e400, which parses to inf
    "deep list": "<deep list>",  # written as a list nested 10^5 deep
}
# text that json.dumps cannot write, put in place of its placeholder string
RAW = {'"<1e400>"': "1e400", '"<deep list>"': "[" * 100000 + "]" * 100000}


def dumps_raw(obj) -> str:
    text = json.dumps(obj)
    for placeholder, raw in RAW.items():
        text = text.replace(placeholder, raw)
    return text


FIELDS = [(key,) for key in FIVE_POINT] + [
    (section, key)
    for section in ("solver", "trajectory", "transformation")
    for key in FIVE_POINT[section]
]


@pytest.mark.parametrize("field", FIELDS, ids=".".join)
@pytest.mark.parametrize("kind", sorted(REPLACEMENTS))
def test_mutated_problem_file_never_tracebacks(field, kind, tmp_path, capsys):
    obj = json.loads(json.dumps(FIVE_POINT))
    owner = obj if len(field) == 1 else obj[field[0]]
    owner[field[-1]] = REPLACEMENTS[kind]
    path = tmp_path / "p.json"
    path.write_text(dumps_raw(obj))
    for command in ("solve", "verify", "noether", "scale-info"):
        code, err = run_cli([command, str(path)], capsys)
        assert code in {0, 1, 2, 3}, (command, code)
        assert "Traceback" not in err


# the nested scale fields, one base scale per form; each has five points
# so that FIVE_POINT's trajectory fits
SCALE_FORMS = {
    "points": {"points": [0.0, 0.25, 0.5, 0.75, 1.0], "gaps": ["S", "S", "D", "S"]},
    "uniform": {"uniform": {"a": 0.0, "b": 1.0, "h": 0.25}},
    "dense": {"dense": {"a": 0.0, "b": 1.0, "resolution": 5}},
}
SCALE_FIELDS = [("uniform", ())] + [
    (form, path)
    for form, scale in SCALE_FORMS.items()
    for key, value in scale.items()
    for path in [(key,)] + [(key, sub) for sub in (value if form != "points" else ())]
]
SCALE_REPLACEMENTS = {
    **REPLACEMENTS,
    "nested list": [[0.0, 0.5], [1.0]],
    "bools": [True, False, True, True],
    "unhashable kind": ["S", ["S"], "D", "S"],
}


@pytest.mark.parametrize(
    "form, path", SCALE_FIELDS, ids=[".".join(("scale",) + p) for _, p in SCALE_FIELDS]
)
@pytest.mark.parametrize("kind", sorted(SCALE_REPLACEMENTS))
def test_mutated_scale_never_tracebacks(form, path, kind, tmp_path, capsys):
    obj = {**FIVE_POINT, "scale": json.loads(json.dumps(SCALE_FORMS[form]))}
    owner, key = obj, "scale"
    for step in path:
        owner, key = owner[key], step
    owner[key] = SCALE_REPLACEMENTS[kind]
    path = tmp_path / "p.json"
    path.write_text(dumps_raw(obj))
    for command in ("solve", "verify", "scale-info"):
        code, err = run_cli([command, str(path)], capsys)
        assert code in {0, 1, 2, 3}, (command, code)
        assert "Traceback" not in err


# A seeded fuzz of problem files built from the schema: every scale form,
# n = 1 and 2, bodies over every function and power rule, and extreme
# numbers in every numeric field
FUZZ_EXTREMES = [0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 0, 1, -2, 3]
FUZZ_ORDINARY = [0.25, -0.5, 1.0, 2.0, -1.5]
FUZZ_BODIES = [
    "v1^2", "v1^2 + u1^2", "(v1^2 - 1)^2 + u1^2", "t*v1^2", "exp(v1) + u1^2",
    "1e300*v1*v1", "v1 * u1", "1e300*u1^2 + v1^2", "log(u1) + v1^2",
    "sqrt(v1^2 + 1) + u1^2", "v1^4 - u1^3", "t*u1", "cos(u1) + v1^2/2",
]
FUZZ_LEAVES = ["2", "0.5", "1e300", "1e-300", "5e-324", "1e200*1e200", "0"]
FUZZ_EXPONENTS = ["2", "3", "-1", "0", "0.5", "1.5", "-2", "(t - t + 2)", "(t - t + 0.5)", "v1"]
FUZZ_TAUS = ["1", "0", "t", "2*t + 1", "1e300*t", "q1"]
FUZZ_XIS = ["0", "1", "q{i}", "1e10*q{i}", "t*q{i}", "exp(q{i})", "log(q{i})"]
FUZZ_COMMANDS = [
    ["solve"],
    ["solve", "--enumerate=-1,0,1"],
    ["solve", "--enumerate=-1,0,1", "--filter-second-el"],
    ["verify", "--first-el", "--second-el"],
    ["verify", "--erdmann"],
    ["noether"],
    ["noether", "--solve", "--sweep", "2"],
    ["scale-info"],
]


def fuzz_number(rng):
    return rng.choice(FUZZ_EXTREMES if rng.random() < 0.1 else FUZZ_ORDINARY)


def fuzz_scale(rng):
    """A scale entry of one of the four forms, and the point count it is
    meant to have."""
    form = rng.choice(["points", "points", "gaps", "uniform", "uniform", "dense"])
    a, k = fuzz_number(rng), rng.randint(2, 8)
    extreme = rng.random() < 0.2
    span = rng.choice([1e-300, 1e300, 1.7e308] if extreme else [1.0, 0.5, 3])
    if form == "uniform":
        h = span / k if rng.random() < 0.8 else fuzz_number(rng)
        return {"uniform": {"a": a, "b": a + span, "h": h}}, k + 1
    if form == "dense":
        resolution = rng.choice([k + 1, k + 1, k + 1, 2, 0, -1, 1.5, 1e300, 5e-324])
        return {"dense": {"a": a, "b": a + span, "resolution": resolution}}, k + 1
    factors = [1, 0.5, 2] + ([1e-300, 1e300] if extreme else [])
    points = [a]
    for _ in range(k):
        points.append(points[-1] + span / k * rng.choice(factors))
    if form == "points":
        return {"points": points}, k + 1
    return {"points": points, "gaps": [rng.choice("SD") for _ in range(k)]}, k + 1


def fuzz_body(rng, n, depth=3):
    names = ["t", *(f"{c}{i}" for c in "uv" for i in range(1, n + 1))]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + FUZZ_LEAVES)
    r = rng.random()
    if r < 0.45:
        op = rng.choice("+-*/")
        return f"({fuzz_body(rng, n, depth - 1)} {op} {fuzz_body(rng, n, depth - 1)})"
    if r < 0.75:
        return f"({fuzz_body(rng, n, depth - 1)})^{rng.choice(FUZZ_EXPONENTS)}"
    return f"{rng.choice(FUNCTIONS)}({fuzz_body(rng, n, depth - 1)})"


def fuzz_problem(rng) -> dict:
    n = rng.choice([1, 1, 2])
    scale, N = fuzz_scale(rng)
    body = rng.choice(FUZZ_BODIES) if rng.random() < 0.5 else fuzz_body(rng, n)
    if n == 2 and rng.random() < 0.5:
        body += " + v2^2 + u2^2"
    q_a, q_b = ([fuzz_number(rng) for _ in range(n)] for _ in "ab")
    obj = {"version": "tsvar/1", "scale": scale, "n": n, "lagrangian": body}
    obj["q_a"], obj["q_b"] = (q[0] if n == 1 and rng.random() < 0.5 else q for q in (q_a, q_b))
    r = rng.random()
    if r < 0.5:
        rows = [[fuzz_number(rng) for _ in range(n)] for _ in range(N)]
        if rng.random() < 0.8:  # on the boundary values, for verify and noether
            rows[0], rows[-1] = q_a, q_b
        obj["trajectory"] = {"values": rows}
    elif r < 0.8:
        obj["trajectory"] = {"slopes": [[fuzz_number(rng) for _ in range(n)] for _ in range(N - 1)]}
    if rng.random() < 0.9:
        xi = [rng.choice(FUZZ_XIS).format(i=i + 1) for i in range(n)]
        obj["transformation"] = {"tau": rng.choice(FUZZ_TAUS), "xi": xi}
    if rng.random() < 0.5:
        tol = rng.choice([1e-300, 1e-10, 1.0, 5e-324, 0])
        obj["solver"] = {"tol": tol, "max_iter": rng.choice([1, 5, 50, 0])}
    return obj


def test_seeded_fuzz_ends_in_a_documented_exit(tmp_path, capsys):
    # every command on 400 seeded files, under warnings as errors: an exit
    # code of 0-3, no exception, and no nan or inf printed by a solve
    # (plain or enumerating) or noether that exits 0
    rng, path = random.Random(20261020), tmp_path / "p.json"
    codes = Counter()
    for case in range(400):
        obj = fuzz_problem(rng)
        path.write_text(json.dumps(obj))
        for command in FUZZ_COMMANDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = cli.main([*command, str(path)])
                except Exception as exc:  # noqa: BLE001 - named with the file
                    raise AssertionError((case, command, obj)) from exc
            out = capsys.readouterr().out
            assert code in {0, 1, 2, 3}, (case, command, obj)
            codes[command[0], code] += 1
            if code == 0 and command[0] in ("solve", "noether"):
                assert not re.search(r"\b(nan|inf)\b", out), (case, command, obj)
    # the files reach every command's results, not only its input errors
    assert all(codes[command[0], 0] >= 20 for command in FUZZ_COMMANDS), codes


class TestDimensionGuard:
    @pytest.fixture(autouse=True)
    def no_lagrangian(self, monkeypatch):
        # these files must be rejected before any Lagrangian (and its 2n
        # variable names) is built
        def refuse(*args, **kwargs):
            pytest.fail("Lagrangian built for a file with a bad dimension")

        monkeypatch.setattr(cli, "Lagrangian", refuse)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n": 1e9}, "error: q_a must have 1000000000 component(s)"),
            ({"n": 2, "q_a": [0.0, 0.0]}, "error: q_b must have 2 component(s)"),
            ({"n": 0}, "error: dimension must be at least 1"),
            ({"n": -3, "q_a": [], "q_b": []}, "error: dimension must be at least 1"),
            ({"n": 2.5}, "error: bad 'n': 2.5 is not an integer"),
            (
                {"n": MAX_DIM + 1, "q_a": [0.0] * (MAX_DIM + 1), "q_b": [0.0] * (MAX_DIM + 1)},
                f"error: dimension {MAX_DIM + 1} exceeds {MAX_DIM}",
            ),
        ],
    )
    def test_boundary_vectors_checked_before_lagrangian(
        self, overrides, message, tmp_path, capsys
    ):
        path = write_problem(tmp_path, **overrides)
        code, err = run_cli(["solve", path], capsys)
        assert code == 2
        assert err == message + "\n"


# files whose Newton solve would allocate about 3 GB in one array: H dense
# at N = 10001 and 20001, and at n = 1000, N = 101 the Hessian pass's seeds
# (its dense H would take 78 GB); and the floats that the bound names, the
# larger of the two
OVER_DENSE = {
    "n2-N10001": (
        {"n": 2, "lagrangian": "v1^2 + v2^2 + t*u1^2", "q_a": [0, 0], "q_b": [1, 1]},
        {"uniform": {"a": 0, "b": 1, "h": 1e-4}},
        399920004,
    ),
    "quartic-N20001": (
        {"lagrangian": "(v1^2 - 1)^2 + 0.01*u1^2", "q_a": 0, "q_b": 1},
        {"uniform": {"a": 0, "b": 2, "h": 1e-4}},
        399960001,
    ),
    "n1000-N101": (
        {"n": 1000, "lagrangian": "u1^2 + v1^2", "q_a": [0] * 1000, "q_b": [1] * 1000},
        {"uniform": {"a": 0, "b": 1, "h": 0.01}},
        9801000000,
    ),
}


@pytest.mark.parametrize("name", sorted(OVER_DENSE))
def test_newton_over_the_dense_bound_exit_2(name, tmp_path):
    # in a child with one BLAS thread and 3e6 KiB of address space (ulimit
    # -v 3000000), each solve ends in the bound's one line and exit 2, not
    # in numpy's MemoryError and a traceback
    pytest.importorskip("resource")  # the child's
    overrides, scale, size = OVER_DENSE[name]
    path = write_problem(tmp_path, scale=scale, **overrides)
    limit = 3_000_000 * 1024
    code = (
        f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from tsvar.cli import main_entry; main_entry()"
    )
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", path],
        env=child_env(**threads),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: Newton needs {size} floats in one array, above {MAX_DENSE}\n"


DEEP = {
    "parentheses": "(" * 400 + "v1" + ")" * 400,
    "unary minus": "-" * 1200 + "v1^2",
    "long sum": "+".join(["v1^2"] * 3000),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_expression_exit_2(name, tmp_path, capsys):
    # each would overflow the interpreter's recursion limit in the parser,
    # the evaluator or the printer
    body = DEEP[name]
    for command, overrides in (
        ("verify", {"lagrangian": body}),
        ("noether", {"transformation": {"tau": body.replace("v1", "q1"), "xi": "1"}}),
    ):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**FIVE_POINT, **overrides}))
        code, err = run_cli([command, str(path)], capsys)
        assert code == 2, command
        assert err.startswith("error: expression nests deeper than 100 levels")


class TestPointCap:
    @pytest.fixture(autouse=True)
    def no_linspace(self, monkeypatch):
        # these scales must be rejected before their points are allocated
        def refuse(*args, **kwargs):
            pytest.fail("linspace called for a scale over the point cap")

        monkeypatch.setattr(np, "linspace", refuse)

    @pytest.mark.parametrize(
        "scale",
        [
            '{"dense": {"a": 0, "b": 1, "resolution": 1e10}}',
            '{"dense": {"a": 0, "b": 1, "resolution": 1e400}}',
            '{"uniform": {"a": 0, "b": 1, "h": 1e-12}}',
            '{"uniform": {"a": 0, "b": 1, "h": 1e-320}}',
        ],
    )
    def test_scale_over_the_cap_exit_2(self, scale, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(
            '{"scale": %s, "lagrangian": "v1^2", "q_a": 0, "q_b": 1}' % scale
        )
        code, err = run_cli(["scale-info", str(path)], capsys)
        assert code == 2
        assert err.startswith("error: bad scale:") and "1000000" in err


@pytest.mark.parametrize(
    "scale, message",
    [
        ({"points": "x"}, "could not convert string to float: 'x'"),
        ({"uniform": {"a": "x", "b": 1, "h": 0.25}}, "could not convert string"),
        ({"dense": {"a": 0, "b": "1/2", "resolution": 5}}, "could not convert string"),
        ({"points": [[0.0, 1.0], [2.0], [3.0]]}, "setting an array element"),
        ({"uniform": {"b": 1, "h": 0.25}}, "'uniform' is missing 'a'"),
        ({"dense": {"a": 0, "b": 1}}, "'dense' is missing 'resolution'"),
        ({"uniform": [0, 1, 0.25]}, "'uniform' must be an object"),
    ],
    ids=["points", "uniform.a", "dense.b", "nested", "no a", "no resolution", "list"],
)
def test_scale_conversion_error_is_a_bad_scale(scale, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**FIVE_POINT, "scale": scale}))
    code, err = run_cli(["scale-info", str(path)], capsys)
    assert code == 2
    assert err.startswith(f"error: bad scale: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["scale-info", "solve", "verify", "noether"])
def test_spacing_that_overflows_is_a_bad_scale(command, tmp_path, capsys):
    # finite points whose spacing overflows, under every warning as an error
    path = tmp_path / "p.json"
    scale = {"points": [-1.7e308, 1.6e308, 1.7e308]}
    path.write_text(json.dumps({**FIVE_POINT, "scale": scale}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, str(path)])
    assert code == 2
    assert capsys.readouterr() == ("", "error: bad scale: point spacing must be finite\n")


@pytest.mark.parametrize(
    "points, message",
    [
        ([[0, 1], [2, 3], [4, 5]], "points must be a non-empty 1-D sequence"),
        ([0, 1], "a time scale needs at least three points"),
    ],
    ids=["two-dimensional", "two points"],
)
def test_points_of_the_wrong_shape_are_named(points, message, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**FIVE_POINT, "scale": {"points": points}}))
    code, err = run_cli(["scale-info", str(path)], capsys)
    assert code == 2
    assert err == f"error: bad scale: {message}\n"


class TestScaleObject:
    """The scale object of a problem file, read by ``cli._scale``."""

    @pytest.mark.parametrize(
        "scale",
        [
            {"points": [0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0], "gaps": ["S"] + ["D"] * 5},
            {"uniform": {"a": 0, "b": 1, "h": 0.125}},
            {"dense": {"a": 0, "b": 1, "resolution": 11}},
        ],
        ids=["mixed", "uniform", "dense"],
    )
    def test_round_trip_through_scale_info(self, scale, tmp_path):
        # the scale object of a scale-info report, written into a problem
        # file, loads back to an equal scale
        path, report = write_problem(tmp_path, scale=scale), tmp_path / "report.json"
        assert cli.main(["scale-info", path, "--json", str(report)]) == 0
        copy = write_problem(tmp_path, "copy.json", scale=load_report(report)["scale"])
        original = cli.load_problem(path).problem.scale
        assert cli.load_problem(copy).problem.scale == original

    def test_uniform_shorthand(self):
        obj = {"uniform": {"a": 0, "b": 1, "h": 0.125}}
        assert cli._scale(obj) == TimeScale.uniform(0, 1, 0.125)

    def test_dense_shorthand(self):
        obj = {"dense": {"a": 0, "b": 1, "resolution": 11}}
        assert cli._scale(obj) == TimeScale.dense_interval(0, 1, 11)

    def test_missing_gaps_defaults_scattered(self):
        T = cli._scale({"points": [0, 1, 2, 3]})
        assert T.is_exact_discrete


class TestParserReuse:
    """One parser serves every main call of a process."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_an_option_does_not_carry_over(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        out = tmp_path / "report.json"
        assert cli.main(["verify", path, "--tol", "1e-3", "--json", str(out)]) == 0
        assert load_report(out)["tol"] == 1e-3
        assert cli.main(["verify", path, "--json", str(out)]) == 0
        assert load_report(out)["tol"] == 1e-8  # the exact-scale default

    def test_nan_tol_exits_2_after_a_successful_call(self, capsys):
        assert cli.main(["scale-info", str(QUADRATIC)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", str(QUARTIC), "--tol", "nan"])
        assert exc.value.code == 2
        assert "error: argument --tol: must be finite" in capsys.readouterr().err


class TestDenseResolution:
    def write(self, tmp_path, resolution):
        path = tmp_path / "p.json"
        path.write_text(
            '{"scale": {"dense": {"a": 0, "b": 1, "resolution": %s}}, '
            '"lagrangian": "v1^2", "q_a": 0, "q_b": 1}' % resolution
        )
        return path

    def test_non_integral_resolution_exit_2(self, tmp_path, capsys):
        code, err = run_cli(["scale-info", str(self.write(tmp_path, "3.7"))], capsys)
        assert code == 2
        assert err == "error: bad scale: resolution 3.7 is not an integer\n"

    @pytest.mark.parametrize("resolution", ["11", "11.0"])
    def test_integral_resolution_accepted(self, resolution, tmp_path, capsys):
        code = cli.main(["scale-info", str(self.write(tmp_path, resolution))])
        assert code == 0
        assert capsys.readouterr().out.startswith("points: 11 ")


class TestTables:
    CELLS = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, -1.7976931348623157e308,
             123456789012345.0, 0.1 + 0.2, np.nan, np.inf, -np.inf]

    def test_one_pass_equals_the_per_row_format(self, capsys):
        # "%12.12g" is f"{_fmt(x):>12}" and "%.12g" is _fmt(x), cell for cell
        x = np.array(self.CELLS)
        y = np.roll(x, 3)
        labels = [f"c{i}" for i in range(x.size)]
        cli._write_table("  %12.12g  %s  %.12g\n", x, labels, y)
        fmt = cli._fmt
        rows = zip(x, labels, y)
        want = "".join(f"  {fmt(a):>12}  {s}  {fmt(b)}\n" for a, s, b in rows)
        assert capsys.readouterr().out == want

    def test_two_dimensional_column_and_no_rows(self, capsys):
        t, Q = np.array(self.CELLS), np.column_stack([self.CELLS, self.CELLS[::-1]])
        cli._write_table("  %12.12g  %.12g  %.12g\n", t, Q)
        fmt = cli._fmt
        rows = zip(t, Q)
        want = "".join(f"  {fmt(a):>12}  {fmt(b)}  {fmt(c)}\n" for a, (b, c) in rows)
        cli._write_table("%.12g\n", np.empty(0))
        assert capsys.readouterr().out == want


class TestBlocks:
    """Tables and reports are written ``cli._BLOCK`` rows or array entries
    at a time; every byte is what one formatting pass over all rows and
    ``json.dumps`` of the payload's ``tolist()`` give."""

    SIZES = [1023, 1024, 1025, 2049]

    def write(self, tmp_path, N, gaps, **overrides):
        rng = np.random.default_rng(N)
        points = np.cumsum(rng.uniform(0.01, 1.0, N)) * np.pi
        kinds = rng.choice(["S", "D"], N - 1) if gaps == "mixed" else ["S"] * (N - 1)
        scale = {"points": points.tolist(), "gaps": list(kinds)}
        return write_problem(tmp_path, scale=scale, **overrides)

    def run(self, argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main([*argv, "--json", str(out)]) == 0
        return capsys.readouterr().out, out.read_text()

    @staticmethod
    def one_pass(row, *columns):
        cells = np.column_stack([np.asarray(c, dtype=object) for c in columns])
        return row * len(cells) % tuple(cells.ravel().tolist())

    def test_block_is_1024(self):
        # SIZES sit on either side of one and two blocks
        assert cli._BLOCK == 1024

    @pytest.mark.parametrize("N", SIZES)
    def test_scale_info(self, N, tmp_path, capsys):
        path = self.write(tmp_path, N, "mixed")
        stdout, report = self.run(["scale-info", path], tmp_path, capsys)
        scale = cli.load_problem(path).problem.scale
        labels = [scale.classify(i).label for i in range(N)]
        head = (
            f"points: {N}   span: [{cli._fmt(scale.a)}, {cli._fmt(scale.b)}]\n"
            "exact discrete: False\n      t  class  mu\n"
        )
        row = "  %12.12g  %s  %.12g\n"
        assert stdout == head + self.one_pass(row, scale.points, labels, scale.mus)
        payload = {
            "command": "scale-info",
            "scale": json.loads(Path(path).read_text())["scale"],
            "mu": scale.mus.tolist(),
            "classes": labels,
            "kappa_length": scale.kappa_length,
            "exact_discrete": False,
        }
        assert report == json.dumps(payload)

    @pytest.mark.parametrize("N", SIZES)
    def test_noether(self, N, tmp_path, capsys):
        values = np.sin(np.arange(N) * 0.37).tolist()
        path = self.write(
            tmp_path,
            N,
            "scattered",
            lagrangian="v1^2 + u1^2",
            trajectory={"values": values},
            transformation={"tau": "1", "xi": ["0"]},
        )
        stdout, report = self.run(["noether", path], tmp_path, capsys)
        loaded = cli.load_problem(path)
        r = check_conservation(
            loaded.problem, loaded.trajectory, loaded.transformation
        )
        conserved = r.conserved.values[:, 0]
        points = r.conserved.base.points[: r.conserved.valid]
        fmt = cli._fmt
        assert stdout == (
            f"invariance: {fmt(r.invariance_magnitude)}\n"
            "conserved quantity per point:\n"
            + self.one_pass("  %12.12g  %.12g\n", points, conserved)
            + f"deviation: {fmt(r.conservation_deviation)}\n"
        )
        payload = {
            "invariance": r.invariance_magnitude,
            "conserved": conserved.tolist(),
            "deviation": r.conservation_deviation,
        }
        assert report == json.dumps(payload)

    @pytest.mark.parametrize("N", SIZES)
    def test_closed_form_solve(self, N, tmp_path, capsys):
        path = self.write(tmp_path, N, "mixed", lagrangian="v1^2 + 0.5*v1", q_b=3.0)
        stdout, report = self.run(["solve", path], tmp_path, capsys)
        p = cli.load_problem(path).problem
        c = solve(p)
        values = c.trajectory.values
        fmt = cli._fmt
        assert stdout == (
            "method: closed_form\n      t  q1\n"
            + self.one_pass("  %12.12g  %.12g\n", p.scale.points, values)
            + f"action: {fmt(c.action)}\nfirst_el: {fmt(c.first_el)}\n"
            + f"second_el: {fmt(c.second_el)}\n"
        )
        payload = {
            "command": "solve",
            "method": "closed_form",
            "points": p.scale.points.tolist(),
            "values": values.tolist(),
            "action": c.action,
            "first_el": c.first_el,
            "second_el": c.second_el,
        }
        assert report == json.dumps(payload)

    def test_unfiltered_quartic_enumeration(self, tmp_path, capsys):
        stdout, report = self.run(
            ["solve", str(QUARTIC), "--enumerate=-1,0,1"], tmp_path, capsys
        )
        cands = enumerate_slope_extremals(cli.load_problem(QUARTIC).problem, [-1, 0, 1])
        assert len(cands) == 1107
        assert stdout.startswith("first-EL extremals: 1107\n")
        assert stdout.endswith("  ... 1087 more\n")
        rows = (
            {
                "slopes": cands.slopes[i].tolist(),
                "values": cands.values[i].tolist(),
                "action": float(cands.action[i]),
                "first_el": float(cands.first_el[i]),
                "second_el": float(cands.second_el[i]),
                "provenance": "ENUMERATED",
            }
            for i in range(len(cands))
        )
        assert report == "\n".join(json.dumps(row) for row in rows) + "\n"

    def test_empty_enumeration_report_is_one_newline(self, tmp_path, capsys):
        path = write_problem(tmp_path, q_b=100.0)
        argv = ["solve", path, "--enumerate=-1,0,1"]
        stdout, report = self.run(argv, tmp_path, capsys)
        assert stdout == (
            "first-EL extremals: 0\n  slopes | action | first_el | second_el\n"
        )
        assert report == "\n"

    def test_report_memory_is_bounded_by_the_input(self, tmp_path):
        # the traced peak of a long scale-info --json stays within 3 times
        # that of decoding its problem file: no N-length list of floats or
        # of their text is built for the report or the table
        path = self.write(tmp_path, 20001, "mixed")
        text = Path(path).read_text()
        out = str(tmp_path / "report.json")
        tracemalloc.start()
        try:
            json.loads(text)
            decoded = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
                assert cli.main(["scale-info", path, "--json", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * decoded, (peak, decoded)


class TestPerCallPath:
    """A call reads its file with open() and calls numpy's C functions and
    array methods: it enters no Python function of pathlib, nor of numpy's
    wrapper modules fromnumeric, shape_base, function_base and stride_tricks
    (numpy.core.* and numpy.lib.* in numpy 1.x, numpy._core.* and
    numpy.lib._*_impl in numpy 2)."""

    WRAPPERS = ("fromnumeric", "shape_base", "function_base", "stride_tricks")

    def wrapped(self, module: str) -> bool:
        top, last = module.partition(".")[0], module.rpartition(".")[2]
        return top == "pathlib" or (
            top == "numpy" and any(name in last for name in self.WRAPPERS)
        )

    def entered(self, argv) -> set[tuple[str, str]]:
        """The (module, function) of every Python frame that a second call
        of ``cli.main(argv)`` enters from pathlib or those numpy modules."""
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0  # fills lazy caches
        seen, previous = set(), sys.getprofile()

        def profile(frame, event, arg):
            if event == "call":
                seen.add((frame.f_globals.get("__name__", ""), frame.f_code.co_name))

        sys.setprofile(profile)
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            sys.setprofile(previous)
        assert code == 0
        return {(module, name) for module, name in seen if self.wrapped(module)}

    def test_module_names_matched(self):
        for module in ("pathlib", "numpy.core.fromnumeric", "numpy._core.shape_base",
                       "numpy.lib.function_base", "numpy.lib._shape_base_impl",
                       "numpy.lib._stride_tricks_impl"):
            assert self.wrapped(module)
        for module in ("numpy._core._methods", "numpy._core.numeric", "json", "tsvar.cli"):
            assert not self.wrapped(module)

    def test_newton_solve(self, tmp_path):
        points = np.linspace(1.0, 2.0, 61).tolist()
        path = write_problem(
            tmp_path, scale={"points": points}, lagrangian="t*v1^2 + u1^2"
        )
        argv = ["solve", path, "--json", str(tmp_path / "report.json")]
        assert self.entered(argv) == set()

    def test_enumeration(self, tmp_path):
        argv = ["solve", str(QUARTIC), "--enumerate=-1,0,1", "--filter-second-el",
                "--json", str(tmp_path / "report.json")]
        assert self.entered(argv) == set()

    def test_scale_info_on_a_uniform_scale(self):
        assert self.entered(["scale-info", str(QUADRATIC)]) == set()

    def test_closed_form_solve_on_a_uniform_scale(self, tmp_path):
        argv = ["solve", str(QUADRATIC), "--json", str(tmp_path / "report.json")]
        assert self.entered(argv) == set()

    def test_noether_sweep(self):
        argv = ["noether", str(QUADRATIC), "--solve", "--sweep", "2"]
        assert self.entered(argv) == set()

    def test_verify_all_three(self, tmp_path):
        path = write_problem(
            tmp_path,
            trajectory={"values": [0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
        )
        argv = ["verify", path, "--first-el", "--second-el", "--erdmann"]
        assert self.entered(argv) == set()

    def test_verify_with_an_exponent_over_frames(self, tmp_path):
        path = write_problem(
            tmp_path,
            lagrangian="u1^t + v1^2",
            q_a=1.0,
            q_b=3.0,
            trajectory={"values": [1, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0]},
        )
        argv = ["verify", path, "--first-el", "--tol", "1e300"]
        assert self.entered(argv) == set()

    def test_newton_solve_with_an_exponent_over_frames(self, tmp_path):
        path = write_problem(
            tmp_path,
            scale={"uniform": {"a": 1.0, "b": 2.0, "h": 0.125}},
            lagrangian="v1^2 + t^u1",
        )
        assert self.entered(["solve", path]) == set()
