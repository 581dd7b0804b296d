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
    enumerate_slope_extremals,
    filter_second_el,
    solve,
)
from .timescale import GridFunction, PointClass, TimeScale, TimeScaleError
from .variational import Lagrangian, VariationalProblem, _along

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


def _field(obj: dict, key: str, convert, default=None):
    """convert(obj[key]), or the default if absent; a wrong type names the key."""
    if key not in obj:
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"bad {key!r}: {exc}") from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("must be a JSON object")
    return value


def _vector(obj: dict, key: str, n: int) -> np.ndarray:
    arr = np.atleast_1d(_field(obj, key, _floats))
    if arr.shape != (n,):
        raise ProblemFileError(f"{key} must have {n} component(s)")
    return arr


def _trajectory_from_entry(entry: dict, problem: VariationalProblem) -> GridFunction:
    scale = problem.scale
    n = problem.dim
    for key, rows, what in (
        ("values", scale.n, "trajectory values"),
        ("slopes", scale.n - 1, "slope list"),
    ):
        if key not in entry:
            continue
        arr = _field(entry, key, _floats)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape != (rows, n):
            raise ProblemFileError(f"{what} must be {rows} x {n}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ProblemFileError(f"{what} must be finite")
        if key == "values":
            return GridFunction(scale, arr)
        return GridFunction.from_slopes(scale, problem.q_a, arr)
    raise ProblemFileError("trajectory needs either 'values' or 'slopes'")


def load_problem(path: str | Path) -> LoadedProblem:
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{path} must hold a JSON object")
    version = obj.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ProblemFileError(f"unsupported schema version {version!r}")
    for key in ("scale", "lagrangian", "q_a", "q_b"):
        if key not in obj:
            raise ProblemFileError(f"problem file is missing {key!r}")
    try:
        scale = TimeScale.from_json(_field(obj, "scale", _object))
    except (ValueError, TypeError) as exc:  # TimeScaleError is a ValueError
        raise ProblemFileError(f"bad scale: {exc}") from exc
    n = _field(obj, "n", int, 1)
    if n < 1:
        raise ProblemFileError("dimension must be at least 1")
    q_a, q_b = _vector(obj, "q_a", n), _vector(obj, "q_b", n)  # checks n cheaply
    lagrangian = Lagrangian(n, str(obj["lagrangian"]))
    problem = VariationalProblem(scale, lagrangian, q_a, q_b)
    trajectory = None
    if "trajectory" in obj:
        trajectory = _trajectory_from_entry(_field(obj, "trajectory", _object), problem)
    transformation = None
    if "transformation" in obj:
        tspec = _field(obj, "transformation", _object)
        if "tau" not in tspec or "xi" not in tspec:
            raise ProblemFileError("transformation needs 'tau' and 'xi'")
        tau, xi = tspec["tau"], tspec["xi"]
        xi = [xi] if isinstance(xi, str) else xi
        strings = isinstance(xi, list) and all(isinstance(s, str) for s in [tau, *xi])
        if not strings:
            raise ProblemFileError("transformation 'tau' and 'xi' must be strings")
        transformation = Transformation.from_text(n, tau, xi)
    sopts = _field(obj, "solver", _object, {})
    kinds = {"tol": float, "max_iter": int}
    newton = NewtonOptions(
        **{key: _field(sopts, key, kind) for key, kind in kinds.items() if key in sopts}
    )
    return LoadedProblem(problem, trajectory, transformation, newton)


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


def _print_trajectory(q: GridFunction) -> None:
    print("      t  " + "  ".join(f"q{k + 1}" for k in range(q.dim)))
    for i in range(q.valid):
        row = "  ".join(_fmt(x) for x in q.values[i])
        print(f"  {_fmt(q.base.points[i]):>12}  {row}")


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
        for c in shown[:20]:
            slopes = ",".join(_fmt(s) for s in (c.slopes or ()))
            print(
                f"  [{slopes}] | {_fmt(c.action)} | {_fmt(c.first_el)}"
                f" | {_fmt(c.second_el)}"
            )
        if len(shown) > 20:
            print(f"  ... {len(shown) - 20} more")
        if args.json_path:
            lines = "\n".join(json.dumps(c.to_json()) for c in shown)
            Path(args.json_path).write_text(lines + "\n")
        return EXIT_OK
    c = solve(p, loaded.newton)
    method = c.provenance.value.lower()
    print(f"method: {method}")
    _print_trajectory(c.trajectory)
    print(f"action: {_fmt(c.action)}")
    print(f"first_el: {_fmt(c.first_el)}")
    print(f"second_el: {_fmt(c.second_el)}")
    _write_json(
        args.json_path,
        {
            "command": "solve",
            "method": method,
            "points": p.scale.points.tolist(),
            "values": c.trajectory.values.tolist(),
            "action": c.action,
            "first_el": c.first_el,
            "second_el": c.second_el,
        },
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    loaded = load_problem(args.file)
    p = loaded.problem
    if loaded.trajectory is None:
        raise ProblemFileError("verify needs a trajectory in the problem file")
    tol = args.tol if args.tol is not None else default_tol(p.scale)
    e = _along(p, loaded.trajectory)
    checks = {
        "first_el": lambda: e.first_el().magnitude,
        "second_el": lambda: e.second_el().magnitude,
        "erdmann": e.erdmann,
    }
    selected = [k for k in checks if getattr(args, k)] or ["first_el", "second_el"]
    results = []
    for kind in selected:
        mag = checks[kind]()
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
        q = solve(p, loaded.newton).trajectory
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
    # point i is right-scattered where mu_i > 0, left-scattered where mu_{i-1} > 0
    right = scale.mus > 0
    left = np.concatenate([[False], right[:-1]])
    sides = (False, True)
    labels = [PointClass(lt, rt).label for lt in sides for rt in sides]
    classes = np.array(labels, dtype=object)[2 * left + right].tolist()
    for t, cls, mu in zip(scale.points, classes, scale.mus):
        print(f"  {_fmt(t):>12}  {cls}  {_fmt(mu)}")
    _write_json(
        args.json_path,
        {
            "command": "scale-info",
            "scale": scale.to_json(),
            "mu": scale.mus.tolist(),
            "classes": classes,
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
        help="list the slope sequences over this comma-separated alphabet "
        "that reach q_b and are first-EL extremals",
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
    if args.tol is not None and not np.isfinite(args.tol):
        parser.error(f"argument --tol: must be finite, got {args.tol}")
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
