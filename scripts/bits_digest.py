#!/usr/bin/env python3
"""One sha256 over seeded results of the public API, for bit-parity checks.

Runs seeded random problems through the library and hashes every result
bit for bit: enumerations over random alphabets (one of them spanning
many blocks of words), ``solve``, ``solve_newton`` from a perturbed guess,
the residuals, ``check_conservation`` under tau = 1 and under tau = t,
xi = q, and the stdout, stderr, exit code
and ``--json`` report of ``tsvar`` on ``problems/*.json`` and on the
problem files of GENERATED.  An exception
counts as its class and message (and a ``NoConvergence`` as its history
and last iterate too); warnings are raised as errors.  Two versions of
the package print the same digest exactly when they give the same bits:

    PYTHONPATH=<other checkout>/src python scripts/bits_digest.py
    PYTHONPATH=src python scripts/bits_digest.py

With ``--records`` it also prints one line per record (its index, the
first 16 hex digits of its own sha256 and the start of its text), so
that ``diff`` on two such outputs names the records whose bits moved.
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np

from tsvar import (
    Candidate,
    Extremals,
    GridFunction,
    Lagrangian,
    NoConvergence,
    NoetherReport,
    Residual,
    TimeScale,
    Transformation,
    VariationalProblem,
    action,
    check_conservation,
    cli,
    enumerate_slope_extremals,
    evaluate,
    filter_second_el,
    first_el_integral_residual,
    first_el_residual,
    parse,
    second_el_residual,
    solve,
    solve_newton,
)

PROBLEMS = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.json"))
RANDOM_PROBLEMS = ENUMERATIONS = 120  # seeded draws of each kind

# per component k of q (j = k + 1, i the next component, cyclically)
TERMS = (
    "v{j}^2",
    "t*v{j}^2 + u{j}^2",
    "(v{j}^2 - 1)^2 + 0.5*u{j}^2",
    "v{j}^4 + u{j}*u{i}",
    "exp(v{j}/4) + u{j}^2",
    "sin(v{j}) + 0.3*u{j}*v{j}",
    "sqrt(v{j}^2 + 1) + cos(t)*u{j}",
    "log(u{j}^2 + 1) + v{j}^2",
    "t^1.5*v{j}^2 + u{j}^3",
)
VARIABLES = ("t", "u1", "v1")
# the tokenizer, the parser's precedence and error positions, and the
# printer: each text with VARIABLES, then the name collisions
TEXTS = (
    "v1^2", "(v1^2 - 1)^2", "1e-3 + v1", "1.5E+2*u1", "1.", ".5", "1.e-3", "12e3",
    "2^3^2", "(2^3)^2", "-v1^2", "(-v1)^2", "--v1", "-(-v1)", "v1^-2", "v1^-u1^2",
    "t - u1 - v1", "t - (u1 - v1)", "t / u1 / v1", "t / (u1 / v1)", "t*u1/v1",
    "t + u1*v1", "(t + u1)*v1", "t*u1 + v1", "-t*u1", "-(t*u1)", "t*-u1", "t--u1",
    "t/-u1^2", "-t^u1^v1", "sin(cos(exp(log(sqrt(v1)))))", "sin(v1)^2", "-sin(-v1)",
    "\t\nv1\r+\f1\v", "v1\x1c+1", "v1\u00a0*\u30002", "\u0663 + v1",
    "((((v1))))", "(-1)", "-1", "0.0 - 0", "1e309 * v1",
    "+".join(["v1"] * 100), "-" * 99 + "v1", "v1^" * 99 + "v1",
    "sin(" * 99 + "v1" + ")" * 99, "(" * 99 + "v1" + ")" * 99,
    "", "   ", "v1 +", "+v1", "v1 $ 2", "v1 # 2", "v1 . 2", "..5", "1.5.2", "1e",
    "1e+", "v1)", "(v1", "()", ")", "(", "v1 v1", "2 v1", "v1 (2)", "sin", "sin + v1",
    "sin v1", "sin()", "sin(v1", "tan(v1)", "x7 + v1", "v1 ^", "^v1", "*v1", "v1 */ 2",
    "+".join(["v1"] * 101), "-" * 100 + "v1", "v1^" * 100 + "v1",
    "sin(" * 100 + "v1" + ")" * 100, "(" * 100 + "v1" + ")" * 100,
    "v1+v1*(" * 40 + "v1" + ")" * 40, "v1+v1*(" * 99 + "v1" + ")" * 99,
)
COLLISIONS = (("t", "exp"), ("sin",), ("v1", "log", "cos"))
# every rule of the kernel, at frames that meet zero and negative values
BODIES = (
    "v1^0", "(-v1)^0", "(1 - v1)^0 * t", "v1^1", "v1^2 + u1^3", "-(-v1)^2",
    "(u1*v1 - t)^3", "u1^-2 + v1", "t^v1", "u1^v1", "(u1^2 + 1)^v1", "(v1^2 + 1)^-0.5",
    "u1^1.5 + v1^2", "u1^2.5 * v1", "sqrt(u1^2) + v1", "(u1^2)^0.5 + v1", "sqrt(u1^4) + v1",
    "sin(v1) * cos(u1) - t", "exp(-v1^2) + exp(t*u1)", "log(u1^2 + 1) * v1",
    "log(u1) + v1", "sqrt(v1^2 + 1) / (u1^2 + 1)", "v1 / u1", "t*v1^2 + u1*v1",
)
GRID = np.array([-1.5, 0.0, 0.5, 2.0])
FRAMES = tuple(  # every combination of GRID, and three frames inside every domain
    np.array(f, dtype=float)
    for f in (np.meshgrid(GRID, GRID, GRID), [[0.3, 1.0, 2.5], [0.7, 1.2, 0.4], [0.2, -1.1, 3.0]])
)

CLI_RUNS = (
    ["solve"],
    ["solve", "--enumerate=-1,0,1"],
    ["solve", "--enumerate=-1,0,1", "--filter-second-el"],
    ["verify"],
    ["verify", "--first-el", "--second-el", "--erdmann"],
    ["noether", "--solve", "--sweep", "3"],
    ["scale-info"],
)
# problem files written to a temporary directory, each run with its argv:
# an n = 2 Noether sweep, an enumeration that keeps no row, and every
# verify check on a scale with both gap kinds
GENERATED = (
    (
        "rotation.json",
        {
            "scale": {"points": [0.0, 0.1, 0.35, 0.5, 0.8, 1.0]},
            "n": 2,
            "lagrangian": "v1^2 + v2^2 + u1^2 + u2^2",
            "q_a": [1.0, 0.0],
            "q_b": [0.0, 1.0],
            "transformation": {"tau": "0", "xi": ["-q2", "q1"]},
        },
        ["noether", "--solve", "--sweep", "3"],
    ),
    (
        "unreachable.json",
        {
            "scale": {"uniform": {"a": 0.0, "b": 1.0, "h": 0.125}},
            "lagrangian": "(v1^2 - 1)^2",
            "q_a": 0.0,
            "q_b": 0.3,
        },
        ["solve", "--enumerate=-1,0,1"],
    ),
    (
        "mixed.json",
        {
            "scale": {
                "points": [0.0, 0.2, 0.5, 0.6, 0.9, 1.0],
                "gaps": ["S", "D", "S", "D", "S"],
            },
            "lagrangian": "v1^2 + u1^2",
            "q_a": 0.0,
            "q_b": 1.0,
            "trajectory": {"values": [0.0, 0.15, 0.45, 0.55, 0.9, 1.0]},
        },
        ["verify", "--first-el", "--second-el", "--erdmann"],
    ),
)


def bits(x) -> str:
    """A text that differs whenever x's bits, shape, type or order do."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}:{x.tobytes().hex()}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(map(bits, x)) + ")"
    if isinstance(x, Extremals):
        return bits(tuple(x))  # the tuple of its rows
    if isinstance(x, Candidate):
        return bits([x.slopes, x.trajectory, x.action, x.first_el, x.second_el])
    if isinstance(x, GridFunction):
        return bits([x.values])
    if isinstance(x, Residual):
        return bits([x.kind, x.points, x.values, x.approximate, x.magnitude])
    if isinstance(x, NoetherReport):
        return bits([x.invariance_magnitude, x.conserved, x.conservation_deviation])
    return repr(x)


def outcome(fn, *args, **kwargs):
    """What fn returns, or the class and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except NoConvergence as exc:
        return ("NoConvergence", str(exc), exc.history, exc.trajectory)
    except Exception as exc:  # noqa: BLE001 - the class is hashed
        return (type(exc).__name__, str(exc))


def random_scale(rng, n_min: int, n_max: int) -> TimeScale:
    """Jittered points; one scale in four has a few DENSE gaps."""
    N = int(rng.integers(n_min, n_max + 1))
    points = np.cumsum(np.append(rng.uniform(-0.25, 1), rng.uniform(0.05, 0.4, N - 1)))
    gaps = ["S"] * (N - 1)
    if rng.random() < 0.25:
        for k in rng.choice(N - 1, min(2, N - 2), replace=False):
            gaps[k] = "D"
    return TimeScale.from_parts(points, gaps)


def random_problem(rng) -> VariationalProblem:
    n = int(rng.integers(1, 4))
    scale = random_scale(rng, 3, 29)
    body = " + ".join(
        str(rng.choice(TERMS)).format(j=k + 1, i=(k + 1) % n + 1) for k in range(n)
    )
    q_a, q_b = rng.uniform(-1, 1, (2, n))
    return VariationalProblem(scale, Lagrangian(n, body), q_a, q_b)


def library_records(rng):
    """Residuals, conservation and solves of one random problem."""
    p = random_problem(rng)
    values = rng.uniform(-1, 1, (p.scale.n, p.dim))
    values[0], values[-1] = p.q_a, p.q_b
    q = GridFunction(p.scale, values)
    for fn in (action, first_el_residual, first_el_integral_residual, second_el_residual):
        yield outcome(fn, p, q)
    yield outcome(lambda: float(evaluate(p, q).erdmann()))
    i = int(rng.integers(0, p.scale.n - 1))  # H at one point of the prefix
    yield outcome(lambda: float(evaluate(p, q).hamiltonian()[i]))
    tr = Transformation.from_text(p.dim, "1", ["0"] * p.dim)
    yield outcome(check_conservation, p, q, tr)
    # tau = t moves tau_delta off zero, so the invariance reads its bracket
    tr = Transformation.from_text(p.dim, "t", [f"q{j + 1}" for j in range(p.dim)])
    yield outcome(check_conservation, p, q, tr)
    yield outcome(solve, p)
    newton = outcome(solve_newton, p)
    yield newton
    if isinstance(newton, GridFunction):
        values = newton.values.copy()
        values[1:-1] += rng.normal(0, 0.05, values[1:-1].shape)
        yield outcome(solve_newton, p, GridFunction(p.scale, values))


def enumeration_records(rng):
    """An enumeration over a random alphabet on a random scale."""
    scale = TimeScale.from_points(random_scale(rng, 3, 9).points)
    m = int(rng.integers(1, 6))
    letters = np.round(rng.uniform(-1.5, 1.5, m), 1)
    word = rng.choice(letters, scale.n - 1)
    q_a = float(np.round(rng.uniform(-2, 2), 2))
    q_b = GridFunction.from_slopes(scale, [q_a], word).values[-1, 0]
    body = str(rng.choice(TERMS)).format(j=1, i=1)
    p = VariationalProblem(scale, Lagrangian(1, body), [q_a], [q_b])
    cands = outcome(enumerate_slope_extremals, p, letters.tolist(), tol=1e3)
    yield cands
    if isinstance(cands, Extremals):
        yield outcome(filter_second_el, cands, tol=1e-8)


def many_blocks():
    """Enumerations over more words than one block holds: the quartic on 13
    gaps (3^13 words, 91 kept), and 5 letters on 6 gaps, whose walk has
    more live prefixes than a block."""
    h = 1 / 13
    scale = TimeScale.uniform(0, 1, h)
    p = VariationalProblem(scale, Lagrangian(1, "(v1^2 - 1)^2"), [0.0], [11 * h])
    yield outcome(enumerate_slope_extremals, p, [-1.0, 0.0, 1.0])
    scale = TimeScale.uniform(0, 0.75, 0.125)
    p = VariationalProblem(scale, Lagrangian(1, "(v1^2 - 1)^2 + u1^2"), [0.0], [0.0])
    yield outcome(enumerate_slope_extremals, p, [-1.0, -0.5, 0.0, 0.5, 1.0], tol=1e3)


def frontend_records():
    """The printed form of each text in TEXTS, which parses back to an
    equal tree, or the class and message of what parse raises; then each
    collision's verdict."""
    for text in TEXTS:
        e = outcome(parse, text, VARIABLES)
        yield (text, e) if isinstance(e, tuple) else (text, str(e))
    for names in COLLISIONS:
        yield (names, outcome(parse, "1", names))
    yield outcome(parse, b"v1", VARIABLES)


def kernel_records():
    """L and its partials, first and second order, of each body in BODIES
    at each set of FRAMES, or the class and message of what is raised."""
    for body in BODIES:
        L = Lagrangian(1, body)
        for t, u, v in FRAMES:
            t, u, v = t.ravel(), u.reshape(-1, 1), v.reshape(-1, 1)
            for order in (1, 2):
                yield (body, order, outcome(L.partials, t, u, v, order))


def cli_records():
    """stdout, stderr, exit code and --json report of each command."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        runs = [(path, argv) for path in PROBLEMS for argv in CLI_RUNS]
        for name, problem, argv in GENERATED:
            path = Path(tmp) / name
            path.write_text(json.dumps(problem))
            runs.append((path, argv))
        for path, argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = outcome(cli.main, [*argv, str(path), "--json", str(report)])
            written = report.read_text() if report.exists() else None
            report.unlink(missing_ok=True)
            yield (path.name, argv, code, out.getvalue(), err.getvalue(), written)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--records", action="store_true", help="print one line per record"
    )
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = [*frontend_records(), *kernel_records(), *many_blocks(), *cli_records()]
        for _ in range(RANDOM_PROBLEMS):
            records += library_records(rng)
        for _ in range(ENUMERATIONS):
            records += enumeration_records(rng)
    for i, record in enumerate(records):
        text = bits(record).encode()
        digest.update(text + b"\n")
        if args.records:
            short = hashlib.sha256(text).hexdigest()[:16]
            print(f"{i:5d} {short} {text[:60].decode(errors='replace')}")
    print(f"{len(records)} records  sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
