"""Batch front end: read a problem file, run a subcommand, emit a table
plus optional machine-readable JSON.

Problem files are JSON with schema version "tsvar/1", read by
:func:`load_problem` alone.  Each object's key list stands next to its
reader, and the README's schema block lists the same keys; a key outside
them is an input error.

Exit codes: 0 success/pass, 1 verification fail, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import locale
import sys
from collections.abc import Iterator
from functools import cache
from itertools import chain
from os import PathLike

import numpy as np

from .expr import _frozen, _Record
from .noether import Transformation, check_conservation, invariance_residual
from .solver import (
    Extremals,
    NewtonOptions,
    NoConvergence,
    SingularSystem,
    enumerate_slope_extremals,
    filter_second_el,
    solve,
)
from .timescale import GridFunction, PointClass, TimeScale
from .variational import Lagrangian, VariationalProblem, _dimension, evaluate

SCHEMA_VERSION = "tsvar/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class ProblemFileError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _number(x: float) -> float | None:
    """x for a report, or None (JSON null) if x is NaN or inf: JSON has neither."""
    return x if np.isfinite(x) else None


def _check_finite(**quantities) -> None:
    """ValueError, an exit 2, naming the first quantity with an inf or nan:
    L, a partial or a product overflowed along a trajectory.  Called
    before anything is printed or written."""
    for name, value in quantities.items():
        bad = np.asarray(value)[~np.isfinite(value)]
        if bad.size:
            raise ValueError(f"{name} is not finite: {_fmt(bad[0])}")


_BLOCK = 1024  # table rows per formatting pass, array entries per JSON block
_JSON = json.JSONEncoder(allow_nan=False)  # json.dumps, refusing NaN and inf


def _write_table(row: str, *columns) -> None:
    """Write ``row % cells`` for each row of the columns, ``_BLOCK`` rows
    per formatting pass and write.  A column is an array or list of one
    cell per row, or a 2-D array of several; "%.12g" formats a float as
    :func:`_fmt` does, and "%12.12g" as ``f"{_fmt(x):>12}"``."""
    for start in range(0, len(columns[0]), _BLOCK):
        block = [np.asarray(c[start : start + _BLOCK], dtype=object) for c in columns]
        cells = np.concatenate([b.reshape(len(b), -1) for b in block], axis=1)
        sys.stdout.write(row * len(cells) % tuple(cells.ravel().tolist()))


class LoadedProblem(_Record):
    """What a problem file holds; equal only to itself."""

    __slots__ = ("problem", "trajectory", "transformation", "newton")

    def __init__(
        self, problem: VariationalProblem, trajectory: GridFunction | None,
        transformation: Transformation | None, newton: NewtonOptions,
    ):
        _frozen(
            self, problem=problem, trajectory=trajectory,
            transformation=transformation, newton=newton,
        )


def _number_leaves(value) -> tuple[list, tuple[int, ...]] | None:
    """The leaves and shape of a list of numbers, or of a regular list of
    equal-length lists of them; None for any other value."""
    if type(value) is not list:
        return None
    leaves, shape = value, (len(value),)
    if value and type(value[0]) is list:
        shape += (len(value[0]),)
        if set(map(type, value)) != {list} or set(map(len, value)) != {shape[1]}:
            return None
        leaves = list(chain.from_iterable(value))
    return (leaves, shape) if set(map(type, leaves)) <= {float, int} else None


def _json_floats(value) -> np.ndarray:
    """A decoded JSON number, or a list of them nested to any depth, as a
    float array; null reads as NaN.  True, false and strings, which numpy
    would convert, raise TypeError, and an integer beyond float range
    raises ValueError.

    A list of numbers, or a regular list of equal-length lists of them,
    is converted in one call over its leaves, faster than numpy converts
    the nested list; any other value goes the general way."""
    regular = _number_leaves(value)
    try:
        if regular:
            return np.array(regular[0], dtype=float).reshape(regular[1])
        arr = np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc
    leaves = [value]
    for _ in range(arr.ndim):  # the shape is regular: every item above a leaf is a list
        leaves = chain.from_iterable(leaves)
    if {bool, str} & set(map(type, leaves)):  # the only other leaves float() takes
        raise TypeError("true, false or a string where a number belongs")
    return arr


def _json_float(value) -> float:
    """A decoded JSON number as a float, checked as :func:`_json_floats`
    checks one; null and lists raise TypeError too."""
    if value is None or isinstance(value, list):
        what = "null" if value is None else "a list"
        raise TypeError(f"{what} where a number belongs")
    return float(_json_floats(value))


def _field(obj: dict, key: str, convert, default=None):
    """convert(obj[key]), or the default if absent; a wrong type names the key."""
    if key not in obj:
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"bad {key!r}: {exc}") from exc


def _integer(value) -> int:
    """value as an int, if it is a finite integral JSON number."""
    if not _json_float(value).is_integer():  # also inf and NaN
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("must be a JSON object")
    return value


def _known(obj: dict, keys, where: str) -> None:
    """Name the first key of obj that is not one of keys, as an input error."""
    for key in obj:
        if key not in keys:
            raise ProblemFileError(f"unknown key {key!r} in {where}")


def _vector(obj: dict, key: str, n: int) -> np.ndarray:
    arr = np.array(_field(obj, key, _json_floats), dtype=float, ndmin=1)
    if arr.shape != (n,):
        raise ProblemFileError(f"{key} must have {n} component(s)")
    return arr


# the scale's keys: its shorthands, each with its factory and the keys of
# its object, and the keys of the explicit form
_SHORTHANDS = {
    "uniform": (TimeScale.uniform, ("a", "b", "h")),
    "dense": (TimeScale.dense_interval, ("a", "b", "resolution")),
}
_POINTS = ("points", "gaps")


def _scale(obj: dict) -> TimeScale:
    """A scale object: ``points`` with ``gaps`` (all "S" when omitted), or
    the ``uniform`` or ``dense`` shorthand alone."""
    for kind, (make, keys) in _SHORTHANDS.items():
        if kind in obj:
            _known(obj, (kind,), f"'scale' beside {kind!r}")
            spec = obj[kind]
            if not isinstance(spec, dict):
                raise ProblemFileError(f"{kind!r} must be an object")
            _known(spec, keys, repr(kind))
            args = []
            for key in keys:
                if key not in spec:
                    raise ProblemFileError(f"{kind!r} is missing {key!r}")
                try:
                    args.append(_json_float(spec[key]))
                except (TypeError, ValueError) as exc:
                    raise ProblemFileError(f"{exc} in {kind!r} field {key!r}") from exc
            return make(*args)
    _known(obj, _POINTS, "'scale'")
    if "points" not in obj:
        raise ProblemFileError("scale object needs 'points', 'uniform', or 'dense'")
    try:
        points = _json_floats(obj["points"])
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"{exc} in 'points'") from exc
    gaps = obj.get("gaps")
    if gaps is None:
        gaps = "S" * (points.size - 1)
    return TimeScale.from_parts(points, gaps)


_TRAJECTORY = ("values", "slopes")  # the trajectory's keys, one per form


def _trajectory_from_entry(entry: dict, problem: VariationalProblem) -> GridFunction:
    scale = problem.scale
    n = problem.dim
    for key, rows, what in zip(
        _TRAJECTORY, (scale.n, scale.n - 1), ("trajectory values", "slope list")
    ):
        if key not in entry:
            continue
        _known(entry, (key,), f"'trajectory' beside {key!r}")
        arr = _field(entry, key, _json_floats)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape != (rows, n):
            raise ProblemFileError(f"{what} must be {rows} x {n}, got {arr.shape}")
        if key == "values":
            q = GridFunction(scale, arr)
        else:  # finite slopes can still overflow in the expansion
            q = GridFunction.from_slopes(scale, problem.q_a, arr)
        if not np.isfinite(q.values).all():
            raise ProblemFileError(f"trajectory from the {key!r} entry must be finite")
        return q
    _known(entry, _TRAJECTORY, "'trajectory'")
    raise ProblemFileError("trajectory needs either 'values' or 'slopes'")


_PROBLEM = (  # the keys of a problem file
    "version", "scale", "n", "lagrangian", "q_a", "q_b",
    "trajectory", "transformation", "solver",
)
_TRANSFORMATION = ("tau", "xi")
_SOLVER = {"tol": _json_float, "max_iter": _integer}  # NewtonOptions' fields
_RETIRED = ("max_halvings", "fd_step")  # solver keys Newton no longer reads


def load_problem(path: str | PathLike) -> LoadedProblem:
    try:
        with open(path, "rb", buffering=0) as file:  # decoded as text mode would
            text = file.read().decode(locale.getpreferredencoding(False))
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        obj = json.loads(text)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # nested deeper than the decoder can follow
        raise ProblemFileError(f"{path} is nested too deeply: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProblemFileError(f"{path} must hold a JSON object")
    version = obj.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ProblemFileError(f"unsupported schema version {version!r}")
    _known(obj, _PROBLEM, "the problem file")
    for key in ("scale", "lagrangian", "q_a", "q_b"):
        if key not in obj:
            raise ProblemFileError(f"problem file is missing {key!r}")
    try:
        scale = _scale(_field(obj, "scale", _object))
    except (ValueError, TypeError) as exc:  # TimeScaleError is a ValueError
        raise ProblemFileError(f"bad scale: {exc}") from exc
    n = _field(obj, "n", _integer, 1)
    if n < 1:
        raise ProblemFileError("dimension must be at least 1")
    q_a, q_b = _vector(obj, "q_a", n), _vector(obj, "q_b", n)  # checks n cheaply
    _dimension(n)  # bounds n before a Lagrangian allocates its seeds
    if not isinstance(obj["lagrangian"], str):
        raise ProblemFileError("'lagrangian' must be a string")
    lagrangian = Lagrangian(n, obj["lagrangian"])
    problem = VariationalProblem(scale, lagrangian, q_a, q_b)
    trajectory = None
    if "trajectory" in obj:
        trajectory = _trajectory_from_entry(_field(obj, "trajectory", _object), problem)
    transformation = None
    if "transformation" in obj:
        tspec = _field(obj, "transformation", _object)
        _known(tspec, _TRANSFORMATION, "'transformation'")
        if "tau" not in tspec or "xi" not in tspec:
            raise ProblemFileError("transformation needs 'tau' and 'xi'")
        tau, xi = tspec["tau"], tspec["xi"]
        xi = [xi] if isinstance(xi, str) else xi
        strings = isinstance(xi, list) and all(isinstance(s, str) for s in [tau, *xi])
        if not strings:
            raise ProblemFileError("transformation 'tau' and 'xi' must be strings")
        transformation = Transformation.from_text(n, tau, xi)
    sopts = _field(obj, "solver", _object, {})
    _known(sopts, (*_SOLVER, *_RETIRED), "'solver'")
    newton = NewtonOptions(
        **{k: _field(sopts, k, kind) for k, kind in _SOLVER.items() if k in sopts}
    )
    return LoadedProblem(problem, trajectory, transformation, newton)


def default_tol(scale: TimeScale) -> float:
    """Extremality threshold: 1e-8 on exact scales, 10*h on dense grids
    (inf where 10*h overflows)."""
    if scale.is_exact_discrete:
        return 1e-8
    dense = scale.mus[:-1] == 0.0
    return 10.0 * float((scale.points[1:] - scale.points[:-1])[dense].max())


def _json_chunks(value) -> Iterator[str]:
    """The text of ``_JSON.encode(value)`` in pieces, where every numpy array
    stands for its ``tolist()``: a dict key by key, an array ``_BLOCK``
    entries (rows) at a time."""
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{_JSON.encode(key)}: "
            yield from _json_chunks(item)
        yield "}"
    elif isinstance(value, np.ndarray):
        yield "["
        for start in range(0, len(value), _BLOCK):
            block = _JSON.encode(value[start : start + _BLOCK].tolist())[1:-1]
            yield f"{', ' if start else ''}{block}"
        yield "]"
    else:
        yield _JSON.encode(value)


def _write_json(path: str | None, payload) -> None:
    """Write the --json report, if a path is given: a dict as one JSON
    object (see :func:`_json_chunks`), any other iterable as one JSON line
    per item, a lone newline if it has none; NaN and inf raise ValueError,
    as they are not JSON.  A path that cannot be written is an input
    error."""
    if not path:
        return
    try:
        with open(path, "w") as out:
            if isinstance(payload, dict):
                out.writelines(_json_chunks(payload))
            else:
                out.writelines(f"{_JSON.encode(item)}\n" for item in payload)
                if not out.tell():
                    out.write("\n")
    except OSError as exc:
        raise ProblemFileError(f"cannot write {path}: {exc}") from exc


def _print_trajectory(q: GridFunction) -> None:
    print("      t  " + "  ".join(f"q{k + 1}" for k in range(q.dim)))
    row = "  %12.12g  " + "  ".join(["%.12g"] * q.dim) + "\n"
    _write_table(row, q.base.points[: q.valid], q.values)


def _enumeration_rows(shown: Extremals) -> Iterator[dict]:
    """The --json rows of an enumeration, one per kept word in record
    order, read from the columns' ``tolist()``."""
    columns = shown.slopes, shown.values, shown.action, shown.first_el, shown.second_el
    rows = zip(*(column.tolist() for column in columns))
    for slopes, values, action, first_el, second_el in rows:
        yield {
            "slopes": slopes,
            "values": values,
            "action": action,
            "first_el": first_el,
            "second_el": second_el,
            "provenance": "ENUMERATED",
        }


def cmd_solve(args, loaded: LoadedProblem) -> int:
    p = loaded.problem
    if args.enumerate_alphabet is not None:
        tol = args.tol if args.tol is not None else default_tol(p.scale)
        try:
            alphabet = [float(s) for s in args.enumerate_alphabet.split(",") if s.strip()]
        except ValueError as exc:
            raise ProblemFileError(f"bad alphabet: {exc}") from exc
        cands = enumerate_slope_extremals(p, alphabet, tol=tol)
        shown = filter_second_el(cands, tol=tol) if args.filter_second_el else cands
        head = shown[:20]
        rows = shown if args.json_path else head  # every row printed or written
        _check_finite(
            action=rows.action, first_el=rows.first_el, second_el=rows.second_el
        )
        print(f"first-EL extremals: {len(cands)}")
        if args.filter_second_el:
            print(f"second-EL survivors: {len(shown)}")
        print("  slopes | action | first_el | second_el")
        word = ",".join(["%.12g"] * (p.scale.n - 1))
        row = f"  [{word}]" + " | %.12g" * 3 + "\n"
        _write_table(row, head.slopes, head.action, head.first_el, head.second_el)
        if len(shown) > 20:
            print(f"  ... {len(shown) - 20} more")
        _write_json(args.json_path, _enumeration_rows(shown))
        return EXIT_OK
    c = solve(p, loaded.newton)
    _check_finite(action=c.action, first_el=c.first_el, second_el=c.second_el)
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
            "points": p.scale.points,
            "values": c.trajectory.values,
            "action": c.action,
            "first_el": c.first_el,
            "second_el": c.second_el,
        },
    )
    return EXIT_OK


def cmd_verify(args, loaded: LoadedProblem) -> int:
    p = loaded.problem
    if loaded.trajectory is None:
        raise ProblemFileError("verify needs a trajectory in the problem file")
    tol = args.tol if args.tol is not None else default_tol(p.scale)
    if tol == np.inf:
        raise ProblemFileError("default tolerance 10*h overflows on this scale; give --tol")
    e = evaluate(p, loaded.trajectory)
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
        results.append({"kind": kind, "magnitude": _number(mag), "pass": bool(ok)})
        print(f"{kind}: {_fmt(mag)} {'PASS' if ok else 'FAIL'}")
    _write_json(
        args.json_path,
        {"command": "verify", "tol": tol, "results": results},
    )
    return EXIT_OK if all(r["pass"] for r in results) else EXIT_FAIL


def cmd_noether(args, loaded: LoadedProblem) -> int:
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
    magnitudes = [report.invariance_magnitude]  # and each sweep trajectory's
    if args.sweep > 0:
        rng = np.random.default_rng(args.seed)
        # summed as Python floats, which overflow to inf without a warning,
        # and capped so that the draw's range 2 * span stays finite
        span = 1.0 + (float(np.abs(p.q_a).max()) + float(np.abs(p.q_b).max()))
        span = min(span, np.finfo(float).max / 2)
        for _ in range(args.sweep):
            values = rng.uniform(-span, span, size=(p.scale.n, p.dim))
            random_q = GridFunction(p.scale, values)
            magnitudes.append(invariance_residual(p, random_q, tr).magnitude)
    _check_finite(
        invariance=magnitudes,
        conserved=report.conserved.values,
        deviation=report.conservation_deviation,
    )
    invariance = max(magnitudes)
    print(f"invariance: {_fmt(invariance)}")
    print("conserved quantity per point:")
    conserved = report.conserved
    points = conserved.base.points[: conserved.valid]
    _write_table("  %12.12g  %.12g\n", points, conserved.values[:, 0])
    print(f"deviation: {_fmt(report.conservation_deviation)}")
    _write_json(
        args.json_path,
        {
            "invariance": invariance,
            "conserved": conserved.values[:, 0],
            "deviation": report.conservation_deviation,
        },
    )
    if args.tol is not None and report.conservation_deviation > args.tol:
        return EXIT_FAIL
    return EXIT_OK


def cmd_scale_info(args, loaded: LoadedProblem) -> int:
    scale = loaded.problem.scale
    print(f"points: {scale.n}   span: [{_fmt(scale.a)}, {_fmt(scale.b)}]")
    print(f"exact discrete: {scale.is_exact_discrete}")
    print("      t  class  mu")
    # point i is right-scattered where mu_i > 0, left-scattered where mu_{i-1} > 0
    right = scale.mus > 0
    left = np.concatenate([[False], right[:-1]])
    sides = (False, True)
    labels = [PointClass(lt, rt).label for lt in sides for rt in sides]
    classes = np.array(labels, dtype=object)[2 * left + right]
    _write_table("  %12.12g  %s  %.12g\n", scale.points, classes, scale.mus)
    _write_json(
        args.json_path,
        {
            "command": "scale-info",
            "scale": {"points": scale.points, "gaps": scale._letters()},
            "mu": scale.mus,
            "classes": classes,
            "kappa_length": scale.kappa_length,
            "exact_discrete": scale.is_exact_discrete,
        },
    )
    return EXIT_OK


def _option(kind, ok, rule: str):
    """An option's type: ``kind`` of its text, refused unless ``ok``, so that
    the subcommand's parser reports it, as it reports text ``kind`` refuses
    (argparse names the type by ``__name__``: invalid float value: 'x')."""

    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    convert.__name__ = kind.__name__
    return convert


@cache  # parse_args keeps no state in the parser; each call gets a new Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description="Variational calculus on time scales: solve, verify, noether.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (JSON, schema tsvar/1)")
    common.add_argument("--json", dest="json_path", help="write a JSON report here")
    tol = _option(float, lambda x: 0 <= x < np.inf, "must be finite and non-negative")
    common.add_argument("--tol", type=tol, default=None, help="tolerance override")

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
    count = _option(int, lambda k: k >= 0, "must be non-negative")
    noether.add_argument("--sweep", type=count, default=0, metavar="K")
    noether.add_argument("--seed", type=count, default=0)
    noether.add_argument(
        "--solve", action="store_true", help="solve for the trajectory first"
    )
    noether.set_defaults(func=cmd_noether)

    info = sub.add_parser("scale-info", parents=[common], help="describe the scale")
    info.set_defaults(func=cmd_scale_info)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, load_problem(args.file))
    except (SingularSystem, NoConvergence) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    import signal  # here only: an in-process main keeps its caller's handlers

    if hasattr(signal, "SIGPIPE"):  # a closed pipe (| head) ends the process as cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    main_entry()
