import json
from pathlib import Path

import numpy as np
import pytest

from tsvar import Lagrangian, cli

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

    def test_overflowing_residual_exit_3(self, tmp_path, capsys):
        # the affine guess's first-EL rows overflow, so the Jacobian holds NaN
        path = write_problem(tmp_path, lagrangian="1e300*v1^2*u1^3", q_b=100.0)
        with pytest.warns(RuntimeWarning):
            code = cli.main(["solve", path])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: jacobian has non-finite entries\n"

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
        assert "error: result overflows in 'v1^400.0'" in capsys.readouterr().err

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
            assert cli.load_report(out)["classes"] == labels
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
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_problem_file_exit_2(name, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code, err = run_cli(["solve", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


REPLACEMENTS = {
    "null": None,
    "number": 2,
    "string": "x",
    "list": [1, 2],
    "object": {},
    "nan": float("nan"),
}
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
    path.write_text(json.dumps(obj))
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
    "1e400": "<1e400>",  # written as the bare literal 1e400, which parses to inf
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
    path.write_text(json.dumps(obj).replace('"<1e400>"', "1e400"))
    for command in ("solve", "verify", "scale-info"):
        code, err = run_cli([command, str(path)], capsys)
        assert code in {0, 1, 2, 3}, (command, code)
        assert "Traceback" not in err


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
        ],
    )
    def test_boundary_vectors_checked_before_lagrangian(
        self, overrides, message, tmp_path, capsys
    ):
        path = write_problem(tmp_path, **overrides)
        code, err = run_cli(["solve", path], capsys)
        assert code == 2
        assert err == message + "\n"


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
