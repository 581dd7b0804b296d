"""Batch front end: read a problem file, run a subcommand, emit a table
plus optional machine-readable JSON.

Problem files are JSON with schema version "tsvar/1":

    {
      "version": "tsvar/1",
      "scale": {"points": [...], "gaps": ["S", ...]}
               | {"uniform": {"a": .., "b": .., "h": ..}}
               | {"dense": {"a": .., "b": .., "resolution": ..}},
      "n": 1,
      "lagrangian": "v1^2",
      "q_a": 0.0, "q_b": 2.0,
      "trajectory": {"values": [...]} | {"slopes": [...]},
      "transformation": {"tau": "1", "xi": ["1"]},
      "solver": {"tol": 1e-10, "max_iter": 50}
    }

Exit codes: 0 success/pass, 1 verification fail, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expr import ExprError
from .noether import Transformation, check_conservation, invariance_residual
from .solver import (
    NewtonOptions,
    NoConvergence,
    SingularSystem,
    affine_extremal,
    enumerate_slope_extremals,
    filter_second_el,
    solve_newton,
    straight_line_guess,
)
from .timescale import GridFunction, TimeScale, TimeScaleError
from .variational import (
    Lagrangian,
    VariationalProblem,
    action,
    erdmann_deviation,
    first_el_residual,
    second_el_residual,
)

SCHEMA_VERSION = "tsvar/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class ProblemFileError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass
class LoadedProblem:
    problem: VariationalProblem
    trajectory: GridFunction | None
    transformation: Transformation | None
    newton: NewtonOptions
    raw: dict


def _vector(value, n: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (n,):
        raise ProblemFileError(f"{what} must have {n} component(s)")
    return arr


def _trajectory_from_entry(
    entry: dict, problem: VariationalProblem
) -> GridFunction:
    scale = problem.scale
    n = problem.dim
    if "values" in entry:
        vals = np.asarray(entry["values"], dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (scale.n, n):
            raise ProblemFileError(
                f"trajectory values must be {scale.n} x {n}, got {vals.shape}"
            )
        return GridFunction(scale, vals)
    if "slopes" in entry:
        slopes = np.asarray(entry["slopes"], dtype=float)
        if slopes.ndim == 1:
            slopes = slopes[:, None]
        if slopes.shape != (scale.n - 1, n):
            raise ProblemFileError(
                f"slope list must be {scale.n - 1} x {n}, got {slopes.shape}"
            )
        return GridFunction.from_slopes(scale, problem.q_a, slopes)
    raise ProblemFileError("trajectory needs either 'values' or 'slopes'")


def load_problem(path: str | Path) -> LoadedProblem:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    version = obj.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ProblemFileError(f"unsupported schema version {version!r}")
    for key in ("scale", "lagrangian", "q_a", "q_b"):
        if key not in obj:
            raise ProblemFileError(f"problem file is missing {key!r}")
    try:
        scale = TimeScale.from_json(obj["scale"])
    except (TimeScaleError, KeyError, TypeError) as exc:
        raise ProblemFileError(f"bad scale: {exc}") from exc
    n = int(obj.get("n", 1))
    lagrangian = Lagrangian(n, str(obj["lagrangian"]))
    problem = VariationalProblem(
        scale,
        lagrangian,
        _vector(obj["q_a"], n, "q_a"),
        _vector(obj["q_b"], n, "q_b"),
    )
    trajectory = None
    if "trajectory" in obj:
        trajectory = _trajectory_from_entry(obj["trajectory"], problem)
    transformation = None
    if "transformation" in obj:
        tspec = obj["transformation"]
        if "tau" not in tspec or "xi" not in tspec:
            raise ProblemFileError("transformation needs 'tau' and 'xi'")
        transformation = Transformation.from_text(n, tspec["tau"], tspec["xi"])
    sopts = obj.get("solver", {})
    newton = NewtonOptions(
        tol=float(sopts.get("tol", 1e-10)),
        max_iter=int(sopts.get("max_iter", 50)),
        max_halvings=int(sopts.get("max_halvings", 20)),
        fd_step=float(sopts.get("fd_step", 1e-7)),
    )
    return LoadedProblem(problem, trajectory, transformation, newton, obj)


def default_tol(scale: TimeScale) -> float:
    """Extremality threshold: 1e-8 on exact scales, 10*h on dense grids."""
    if scale.is_exact_discrete:
        return 1e-8
    dense = scale.mus[:-1] == 0.0
    return 10.0 * float(np.max(np.diff(scale.points)[dense]))


def _write_json(path: str | None, payload) -> None:
    if path:
        Path(path).write_text(json.dumps(payload))


def load_report(path: str | Path):
    """Re-read a report written by --json (object or JSON-lines)."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def _detects_quadratic_slope(lagrangian: Lagrangian) -> bool:
    """Numerically probe for a pure quadratic form in v with no t, u coupling.

    Eight random probe frames (t, u, v, w) are checked at once.
    """
    n = lagrangian.dim
    probes = np.random.default_rng(0).uniform(-1, 1, (8, 1 + 3 * n))
    t, u, v, w = np.split(probes, [1, 1 + n, 1 + 2 * n], axis=1)
    t = t[:, 0]
    delta = 0.5
    try:
        _, d1, d2, _ = lagrangian.partials(t, u, v)
        at_rest, _, _, d3_at_rest = lagrangian.partials(t, u, np.zeros_like(v))
        g = [lagrangian.partials(t, u, v + s * delta * w)[0] for s in range(4)]
    except ExprError:
        return False
    must_vanish = np.column_stack([d1, d2, at_rest, d3_at_rest])
    third = g[3] - 3 * g[2] + 3 * g[1] - g[0]
    return not (
        np.any(np.abs(must_vanish) > 1e-9)
        or np.any(np.abs(third) > 1e-8 * np.maximum(1.0, np.max(np.abs(g), axis=0)))
    )


def _print_trajectory(q: GridFunction) -> None:
    print("      t  " + "  ".join(f"q{k + 1}" for k in range(q.dim)))
    for i in range(q.valid):
        row = "  ".join(_fmt(x) for x in q.values[i])
        print(f"  {_fmt(q.base.points[i]):>12}  {row}")


def _solve_trajectory(loaded: LoadedProblem) -> tuple[GridFunction, str]:
    p = loaded.problem
    if _detects_quadratic_slope(p.lagrangian):
        return affine_extremal(p), "closed_form"
    return solve_newton(p, straight_line_guess(p), loaded.newton), "newton"


def cmd_solve(args) -> int:
    loaded = load_problem(args.file)
    p = loaded.problem
    tol = args.tol if args.tol is not None else default_tol(p.scale)
    if args.enumerate_alphabet is not None:
        try:
            alphabet = [float(s) for s in args.enumerate_alphabet.split(",") if s.strip()]
        except ValueError as exc:
            raise ProblemFileError(f"bad alphabet: {exc}") from exc
        cands = enumerate_slope_extremals(p, alphabet, tol=tol)
        print(f"first-EL extremals: {len(cands)}")
        shown = cands
        if args.filter_second_el:
            shown = filter_second_el(p, cands, tol=tol)
            print(f"second-EL survivors: {len(shown)}")
        print("  slopes | action | first_el | second_el")
        for c in list(shown)[:20]:
            slopes = ",".join(_fmt(s) for s in (c.slopes or ()))
            print(
                f"  [{slopes}] | {_fmt(c.action)} | {_fmt(c.first_el)}"
                f" | {_fmt(c.second_el)}"
            )
        if len(shown) > 20:
            print(f"  ... {len(shown) - 20} more")
        if args.json_path:
            Path(args.json_path).write_text(shown.to_json_lines() + "\n")
        return EXIT_OK
    q, method = _solve_trajectory(loaded)
    act = action(p, q)
    r1 = first_el_residual(p, q)
    r2 = second_el_residual(p, q)
    print(f"method: {method}")
    _print_trajectory(q)
    print(f"action: {_fmt(act)}")
    print(f"first_el: {_fmt(r1.magnitude)}")
    print(f"second_el: {_fmt(r2.magnitude)}")
    _write_json(
        args.json_path,
        {
            "command": "solve",
            "method": method,
            "points": [float(t) for t in p.scale.points],
            "values": [[float(x) for x in row] for row in q.values],
            "action": act,
            "first_el": r1.magnitude,
            "second_el": r2.magnitude,
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = load_problem(args.file)
    p = loaded.problem
    if loaded.trajectory is None:
        raise ProblemFileError("verify needs a trajectory in the problem file")
    q = loaded.trajectory
    tol = args.tol if args.tol is not None else default_tol(p.scale)
    selected = []
    if args.first_el:
        selected.append("first_el")
    if args.second_el:
        selected.append("second_el")
    if args.erdmann:
        selected.append("erdmann")
    if not selected:
        selected = ["first_el", "second_el"]
    results = []
    for kind in selected:
        if kind == "first_el":
            mag = first_el_residual(p, q).magnitude
        elif kind == "second_el":
            mag = second_el_residual(p, q).magnitude
        else:
            mag = erdmann_deviation(p, q)
        ok = mag <= tol
        results.append({"kind": kind, "magnitude": mag, "pass": bool(ok)})
        print(f"{kind}: {_fmt(mag)} {'PASS' if ok else 'FAIL'}")
    _write_json(
        args.json_path,
        {"command": "verify", "tol": tol, "results": results},
    )
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_FAIL


def cmd_noether(args) -> int:
    loaded = load_problem(args.file)
    p = loaded.problem
    if loaded.transformation is None:
        raise ProblemFileError("noether needs a transformation in the problem file")
    tr = loaded.transformation
    if loaded.trajectory is not None:
        q = loaded.trajectory
    elif args.solve:
        q, _method = _solve_trajectory(loaded)
    else:
        raise ProblemFileError(
            "noether needs a trajectory in the problem file (or --solve)"
        )
    report = check_conservation(p, q, tr)
    invariance = report.invariance_magnitude
    if args.sweep > 0:
        rng = np.random.default_rng(args.seed)
        span = 1.0 + float(np.max(np.abs(p.q_a)) + np.max(np.abs(p.q_b)))
        for _ in range(args.sweep):
            values = rng.uniform(-span, span, size=(p.scale.n, p.dim))
            random_q = GridFunction(p.scale, values)
            res = invariance_residual(p, random_q, tr)
            invariance = max(invariance, res.magnitude)
    print(f"invariance: {_fmt(invariance)}")
    print("conserved quantity per point:")
    for i in range(report.conserved.valid):
        t = report.conserved.base.points[i]
        print(f"  {_fmt(t):>12}  {_fmt(report.conserved.values[i, 0])}")
    print(f"deviation: {_fmt(report.conservation_deviation)}")
    payload = report.to_json()
    payload["invariance"] = invariance
    _write_json(args.json_path, payload)
    if args.tol is not None and report.conservation_deviation > args.tol:
        return EXIT_FAIL
    return EXIT_OK


def cmd_scale_info(args) -> int:
    loaded = load_problem(args.file)
    scale = loaded.problem.scale
    print(f"points: {scale.n}   span: [{_fmt(scale.a)}, {_fmt(scale.b)}]")
    print(f"exact discrete: {scale.is_exact_discrete}")
    print("      t  class  mu")
    for i in range(scale.n):
        cls = scale.classify(i).label
        print(f"  {_fmt(scale.points[i]):>12}  {cls}  {_fmt(scale.mu(i))}")
    _write_json(
        args.json_path,
        {
            "command": "scale-info",
            "scale": scale.to_json(),
            "mu": scale.mus.tolist(),
            "classes": [scale.classify(i).label for i in range(scale.n)],
            "kappa_length": scale.kappa_length,
            "exact_discrete": scale.is_exact_discrete,
        },
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Variational calculus on time scales: solve, verify, noether.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (JSON, schema tsvar/1)")
    common.add_argument("--json", dest="json_path", help="write a JSON report here")
    common.add_argument("--tol", type=float, default=None, help="tolerance override")

    solve = sub.add_parser("solve", parents=[common], help="compute an extremal")
    solve.add_argument(
        "--enumerate",
        dest="enumerate_alphabet",
        metavar="CSV",
        help="brute-force slope sequences over this comma-separated alphabet",
    )
    solve.add_argument("--filter-second-el", action="store_true")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser(
        "verify", parents=[common], help="check residuals of a given trajectory"
    )
    verify.add_argument("--first-el", action="store_true", dest="first_el")
    verify.add_argument("--second-el", action="store_true", dest="second_el")
    verify.add_argument("--erdmann", action="store_true")
    verify.set_defaults(func=cmd_verify)

    noether = sub.add_parser(
        "noether", parents=[common], help="invariance and conserved quantity"
    )
    noether.add_argument("--sweep", type=int, default=0, metavar="K")
    noether.add_argument("--seed", type=int, default=0)
    noether.add_argument(
        "--solve", action="store_true", help="solve for the trajectory first"
    )
    noether.set_defaults(func=cmd_noether)

    info = sub.add_parser("scale-info", parents=[common], help="describe the scale")
    info.set_defaults(func=cmd_scale_info)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProblemFileError, ExprError, TimeScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SingularSystem, NoConvergence) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
