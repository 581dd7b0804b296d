"""The benchmark's workloads: seeded inputs, the operations that run them,
and the oracle check of each operation's output.

A workload is a fixed list of operations (one *round*).  The seed picks
values inside each operation (coefficients, point jitter, boundary values,
permutations) but never its shape (kind, N, n, alphabet), so every seed
costs about the same and the run-to-run spread of the timings stays small.

Operations call the public CLI entry ``tsvar.cli.main(argv)`` in-process
with stdout captured, except the ``verify`` workload's library calls.
Every operation carries a ``check`` that compares the program's output
with ``oracle``; a check returns ``None`` on agreement and a reason
otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle as orc
from oracle import Grid

WORKLOADS = ("enumerate", "solve", "verify")

# Shapes per workload.  "full" is what the benchmark measures; "smoke" is a
# tiny variant for the warm-up and the benchmark's own tests.
SIZES = {
    "full": {
        "enumerate": {"gaps": 8, "h": 0.125},
        "solve": {"closed": (101, 61), "nonlq": 21, "middle": 61, "costly": 101, "n2": 41, "largest": 121},
        "verify": {
            "v_n1": 2601, "v_mixed": 3001, "v_n2": 2001, "v_large": 10001, "v_n3": 2001,
            "noether_small": 1201, "noether_large": 2001, "info_mixed": 10001, "info": 2001,
            "integral": (250, 500), "classical": 1000, "sweeps": (3, 1),
        },
    },
    "smoke": {
        "enumerate": {"gaps": 4, "h": 0.25},
        "solve": {"closed": (11, 9), "nonlq": 9, "middle": 9, "costly": 11, "n2": 7, "largest": 13},
        "verify": {
            "v_n1": 41, "v_mixed": 61, "v_n2": 41, "v_large": 101, "v_n3": 31,
            "noether_small": 21, "noether_large": 41, "info_mixed": 101, "info": 41,
            "integral": (20, 40), "classical": 50, "sweeps": (2, 1),
        },
    },
}

# Exact discrete scales use this extremality threshold unless told otherwise.
DEFAULT_TOL = 1e-8


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    elapsed: float
    result: Any = None
    report: Any = None
    error: str | None = None


@dataclass
class Op:
    """One timed operation: a CLI argv or a library call, plus its check."""

    label: str
    check: Callable[[Outcome], str | None]
    argv: list[str] | None = None
    call: Callable[[Any], Any] | None = None
    report: Path | None = None
    lines: bool = False


def run_op(op: Op, ts, tracer=None, op_id: int = 0) -> Outcome:
    """Run one operation against the imported package ``ts``.

    Functions are looked up on their modules at call time so that a tracer
    that rebinds module attributes sees the call.  Only the call itself is
    timed, and it is the tracer's operation span; reading the JSON report
    happens afterwards.
    """
    out, err = io.StringIO(), io.StringIO()
    code, result, error = None, None, None
    if op.report is not None:
        op.report.unlink(missing_ok=True)
    frame = tracer.begin_op(op.label, op_id) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                code = ts.cli.main(op.argv)
            else:
                result = op.call(ts)
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - t0
    if frame is not None:
        tracer.end_op(frame)
    o = Outcome(code, out.getvalue(), err.getvalue(), elapsed, result=result, error=error)
    if op.report is not None and error is None and op.report.exists():
        text = op.report.read_text()
        if op.lines:
            o.report = [json.loads(line) for line in text.splitlines() if line.strip()]
        else:
            o.report = json.loads(text)
    return o


def checked(op: Op, o: Outcome) -> str | None:
    """The op's verdict: an exception or a disagreement with the oracle."""
    if o.error is not None:
        return f"raised: {o.error.strip().splitlines()[-1]}"
    try:
        return op.check(o)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def build(workload: str, seed: int, size: str, workdir: Path, ts) -> list[Op]:
    """The round of operations of one workload, with inputs written to workdir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"enumerate": _enumerate, "solve": _solve, "verify": _verify}[workload]
    return make(rng, SIZES[size][workload], workdir, ts)


# -- helpers ------------------------------------------------------------


def _problem_file(workdir: Path, label: str, obj: dict) -> Path:
    path = workdir / f"{label}.json"
    path.write_text(json.dumps({"version": "tsvar/1", **obj}))
    return path


def _vec(x) -> list[float]:
    return [float(v) for v in np.atleast_1d(x)]


def _close(got, want, atol: float, rtol: float = 1e-9) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= atol + rtol * np.abs(want))
    )


def _coef(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _jittered(rng, a: float, b: float, N: int, jitter: float = 0.3) -> Grid:
    g = (b - a) / (N - 1) * (1.0 + jitter * rng.uniform(-1.0, 1.0, N - 1))
    g *= (b - a) / g.sum()
    return Grid(a + np.concatenate([[0.0], np.cumsum(g)]), np.ones(N - 1, bool))


def _mixed(rng, a: float, length: float, N: int) -> Grid:
    """Scattered, then dense (uniform spacing), then scattered gaps."""
    n1 = (N - 1) * 2 // 5
    n2 = (N - 1) * 3 // 10
    n3 = N - 1 - n1 - n2
    h = length / (N - 1)
    gaps = np.concatenate(
        [h * (1.0 + 0.3 * rng.uniform(-1, 1, n1)), np.full(n2, h), h * (1.0 + 0.3 * rng.uniform(-1, 1, n3))]
    )
    kinds = np.concatenate([np.ones(n1, bool), np.zeros(n2, bool), np.ones(n3, bool)])
    return Grid(a + np.concatenate([[0.0], np.cumsum(gaps)]), kinds)


def _smooth(rng, grid: Grid, n: int) -> np.ndarray:
    """A smooth non-extremal trajectory: two seeded sines per component."""
    t = grid.points[:, None]
    span = grid.points[-1] - grid.points[0]
    amp = rng.uniform(0.5, 1.5, (2, n))
    freq = rng.uniform(1.0, 3.0, (2, n)) * 2.0 * np.pi / span
    phase = rng.uniform(0.0, 2.0 * np.pi, (2, n))
    return amp[0] * np.sin(freq[0] * t + phase[0]) + amp[1] * np.sin(freq[1] * t + phase[1])


# -- enumerate ----------------------------------------------------------


def _enumerate(rng, sz, workdir: Path, ts) -> list[Op]:
    m, h = sz["gaps"], sz["h"]
    letters = (-1.0, 0.0, 1.0)

    def sign() -> float:
        return float(rng.choice([-1.0, 1.0]))

    def offset() -> float:
        return float(rng.integers(-3, 4))

    def uniform(a: float) -> Grid:
        return Grid(a + h * np.arange(m + 1), np.ones(m, bool))

    def structured(a: float) -> Grid:
        # a permutation of a fixed multiset of gaps: the boundary-hit count
        # does not depend on the order, so the cost does not depend on the seed
        gaps = rng.permutation([h / 2] * (m // 2) + [h] * (m - m // 2))
        return Grid(a + np.concatenate([[0.0], np.cumsum(gaps)]), np.ones(m, bool))

    quartic = orc.quartic_family()
    qa = h * float(rng.integers(-4, 5))

    def lq(label: str, grid: Grid):
        fam = orc.lq_family([1.0], [0.0], [[_coef(rng, 0.5, 2.0)]])
        return (label, fam, grid, 0.0, 0, h, None)

    # Cost classes: four cheap quartic problems with few boundary hitters;
    # three alike v1^2 + c*u1^2 problems on structured scales that hold the
    # median; three alike ones on uniform scales that hold the tail; and the
    # dyadic quartic problem above them.  The v1^2 + c*u1^2 problems have
    # q_b = q_a = 0, so only the zero word survives the first-EL test.  Columns: label, family, grid, q_a, k, step of k
    # (q_b = q_a + k * step), scale json.
    far = m - 2
    cases = [
        ("quartic-dyadic-k0", quartic, uniform(0.0), 0.0, 0, h, {"uniform": {"a": 0.0, "b": m * h, "h": h}}),
        ("quartic-uniform-kfar-a", quartic, uniform(offset()), qa, far * sign(), h, None),
        lq("lq-structured-k0-a", structured(offset())),
        lq("lq-uniform-k0-a", uniform(offset())),
        ("quartic-structured-kfar-a", quartic, structured(offset()), qa, 2 * far * sign(), h / 2, None),
        lq("lq-structured-k0-b", structured(offset())),
        lq("lq-uniform-k0-b", uniform(offset())),
        ("quartic-uniform-kfar-b", quartic, uniform(offset()), qa, far * sign(), h, None),
        lq("lq-structured-k0-c", structured(offset())),
        ("quartic-structured-kfar-b", quartic, structured(offset()), qa, 2 * far * sign(), h / 2, None),
        lq("lq-uniform-k0-c", uniform(offset())),
    ]

    ops = []
    for label, fam, grid, q_a, k, step, scale_json in cases:
        q_b = q_a + k * step
        expect = orc.enumerate_words(fam, grid, q_a, q_b, letters, DEFAULT_TOL)
        if fam is quartic and np.all(grid.dt == h):
            closed = orc.quartic_counts(m, int(k))
            if closed != (expect.extremals, len(expect.survivors)):
                raise RuntimeError(f"{label}: closed form {closed} disagrees with the enumeration")
        path = _problem_file(
            workdir,
            label,
            {"scale": scale_json or grid.to_json(), "n": 1, "lagrangian": fam.text, "q_a": q_a, "q_b": q_b},
        )
        report = workdir / f"{label}.out.jsonl"
        ops.append(
            Op(
                label=label,
                argv=["solve", str(path), "--enumerate=" + ",".join(repr(s) for s in letters),
                      "--filter-second-el", "--json", str(report)],
                report=report,
                lines=True,
                check=_enumerate_check(expect),
            )
        )
    return ops


def _enumerate_check(exp: orc.Enumeration):
    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}: {o.stderr.strip()}"
        ext = re.search(r"first-EL extremals: (\d+)", o.stdout)
        surv = re.search(r"second-EL survivors: (\d+)", o.stdout)
        if not ext or int(ext.group(1)) != exp.extremals:
            return f"first-EL extremal count, expected {exp.extremals}"
        if not surv or int(surv.group(1)) != len(exp.survivors):
            return f"survivor count, expected {len(exp.survivors)}"
        got = o.report or []
        if [tuple(c["slopes"]) for c in got] != exp.survivors:
            return "survivor words or their order differ"
        for key, want in (("action", exp.actions), ("first_el", exp.first_el), ("second_el", exp.second_el)):
            if not _close([c[key] for c in got], want, atol=1e-9):
                return f"survivor {key} differs"
        return None

    return check


# -- solve --------------------------------------------------------------


def _solve(rng, sz, workdir: Path, ts) -> list[Op]:
    def lq_t(N: int):  # c*t*v^2 + d*u^2
        fam = orc.lq_family([0.0], [_coef(rng, 0.5, 2.0)], [[_coef(rng, 0.5, 2.0)]])
        return fam, _jittered(rng, 1.0, 2.0, N)

    def lq_u(N: int):  # a*v^2 + d*u^2
        fam = orc.lq_family([_coef(rng, 0.5, 2.0)], [0.0], [[_coef(rng, 0.5, 2.0)]])
        return fam, _jittered(rng, 0.0, 1.0, N)

    def unit(fam):
        return fam, _jittered(rng, 0.0, 1.0, N)

    n1, n2 = sz["closed"]
    N = sz["nonlq"]
    mid = sz["middle"]
    up = sz["costly"]
    c, e = _coef(rng, 0.5, 2.0), _coef(rng, 0.1, 0.25)
    # Cost classes: four cheap operations; three alike c*t*v^2 + d*u^2
    # problems at N=61 that hold the median; three of similar cost (N=101,
    # and n=2 at N=41) that hold the tail; one at the largest N above them.  Cheap and costly operations alternate, so a round has
    # no slow end.
    cases = [
        (f"closed-n1-N{n1}", orc.lq_family([_coef(rng, 0.5, 3.0)], [0.0], [[0.0]]), _jittered(rng, 0.0, 1.0, n1)),
        (f"lq-t-N{mid}-a", *lq_t(mid)),
        (f"lq-u-N{up}", *lq_u(up)),
        (f"quartic-state-N{N}", *unit(orc.quartic_state_family(_coef(rng, 0.5, 2.0)))),
        (f"lq-t-N{mid}-b", *lq_t(mid)),
        (f"lq-t-N{sz['largest']}", *lq_t(sz["largest"])),
        (
            f"closed-n2-N{n2}",
            orc.lq_family([_coef(rng, 0.5, 2.0), _coef(rng, 0.5, 2.0)], [0.0, 0.0], np.zeros((2, 2))),
            _jittered(rng, 0.0, 1.0, n2),
        ),
        (f"lq-t-N{up}", *lq_t(up)),
        (f"lq-t-N{mid}-c", *lq_t(mid)),
        (f"exp-slope-N{N}", *unit(orc.exp_slope_family(_coef(rng, 0.5, 2.0)))),
        (f"lq-n2-N{sz['n2']}", orc.lq_family([1.0, 1.0], [0.0, 0.0], [[c, e], [e, 1.0]]), _jittered(rng, 0.0, 1.0, sz["n2"])),
    ]

    ops = []
    for label, fam, grid in cases:
        # q_a and q_b of opposite signs, at least 0.5 away from 0: the
        # straight-line guess is then far enough from the extremal that
        # every LQ problem takes exactly two Newton iterations
        sign = rng.choice([-1.0, 1.0], fam.n)
        q_a = sign * rng.uniform(0.5, 1.0, fam.n)
        q_b = -sign * rng.uniform(0.5, 1.0, fam.n)
        expect = orc.lq_extremal(fam, grid, q_a, q_b) if fam.lq is not None else None
        path = _problem_file(
            workdir,
            label,
            {"scale": grid.to_json(), "n": fam.n, "lagrangian": fam.text, "q_a": _vec(q_a), "q_b": _vec(q_b)},
        )
        report = workdir / f"{label}.out.json"
        ops.append(
            Op(
                label=label,
                argv=["solve", str(path), "--json", str(report)],
                report=report,
                check=_solve_check(fam, grid, q_a, q_b, expect),
            )
        )
    return ops


def _solve_check(fam: orc.Family, grid: Grid, q_a, q_b, expect):
    method = "closed_form" if fam.slope_only else "newton"

    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}: {o.stderr.strip()}"
        r = o.report
        if r["method"] != method:
            return f"method {r['method']}, expected {method}"
        if not np.array_equal(np.asarray(r["points"]), grid.points):
            return "points differ from the problem scale"
        q = np.asarray(r["values"], dtype=float)
        if q.shape != (grid.n, fam.n):
            return f"trajectory shape {q.shape}"
        if not (_close(q[0], q_a, 1e-12) and _close(q[-1], q_b, 1e-12)):
            return "boundary values violated"
        slack = orc.roundoff(fam, grid, q)
        mag1 = float(np.max(np.abs(orc.first_el(fam, grid, q))))
        if r["first_el"] > DEFAULT_TOL or mag1 > DEFAULT_TOL + slack:
            return f"not an extremal: first_el {r['first_el']:.3e}, recomputed {mag1:.3e}"
        if abs(r["first_el"] - mag1) > slack:
            return "first_el magnitude differs from the recomputation"
        mag2 = float(np.max(np.abs(orc.second_el(fam, grid, q))))
        if abs(r["second_el"] - mag2) > slack + 1e-9 * mag2:
            return "second_el magnitude differs from the recomputation"
        if not _close(r["action"], orc.action(fam, grid, q), 1e-12):
            return "action differs from the recomputation"
        if expect is not None and not _close(q, expect, 1e-7 * (1.0 + float(np.max(np.abs(expect))))):
            return "trajectory differs from the direct linear solve"
        return None

    return check


# -- verify -------------------------------------------------------------


def _verify(rng, sz, workdir: Path, ts) -> list[Op]:
    ops = []

    def lq_diag(n: int) -> orc.Family:
        c = [_coef(rng, 0.5, 2.0) for _ in range(n)]
        return orc.lq_family([_coef(rng, 0.5, 2.0) for _ in range(n)], [0.0] * n, np.diag(c))

    def extremal(fam, grid):
        q_a = rng.uniform(-1.0, 1.0, fam.n)
        q_b = rng.uniform(-1.0, 1.0, fam.n)
        return orc.lq_extremal(fam, grid, q_a, q_b)

    def length(N: int) -> float:
        # keeps h = 0.01: eps/h^2 round-off stays far below the 1e-8 threshold
        return 0.01 * (N - 1)

    def verify_op(label, fam, grid, q):
        path = _problem_file(workdir, label, _trajectory_problem(fam, grid, q))
        report = workdir / f"{label}.out.json"
        ops.append(
            Op(
                label=label,
                argv=["verify", str(path), "--first-el", "--second-el", "--erdmann", "--json", str(report)],
                report=report,
                check=_verify_check(fam, grid, q),
            )
        )

    N = sz["v_n1"]
    fam = lq_diag(1)
    grid = _jittered(rng, 0.0, length(N), N)
    verify_op(f"verify-n1-N{N}", fam, grid, extremal(fam, grid))

    N = sz["v_mixed"]
    fam = orc.arclength_family(_coef(rng, 0.5, 2.0))
    grid = _mixed(rng, 0.0, length(N), N)
    verify_op(f"verify-mixed-N{N}", fam, grid, _smooth(rng, grid, 1))

    N = sz["v_n2"]
    fam = lq_diag(2)
    grid = _jittered(rng, 0.0, length(N), N)
    verify_op(f"verify-n2-N{N}", fam, grid, extremal(fam, grid))

    N = sz["v_large"]
    fam = lq_diag(1)
    grid = _mixed(rng, 0.0, length(N), N)
    verify_op(f"verify-mixed-N{N}", fam, grid, _smooth(rng, grid, 1))

    N = sz["v_n3"]
    fam = lq_diag(3)
    grid = _jittered(rng, 0.0, length(N), N)
    verify_op(f"verify-n3-N{N}", fam, grid, extremal(fam, grid))

    # Noether: rotation symmetry and time translation of an isotropic n=2
    # problem at two sizes (for the size exponents), each with a random sweep
    a, c = _coef(rng, 0.5, 2.0), _coef(rng, 0.5, 2.0)
    N = sz["noether_small"]
    fam = orc.lq_family([a, a], [0.0, 0.0], np.diag([c, c]))
    grid = _jittered(rng, 0.0, length(N), N)
    rotation = (
        {"tau": "0", "xi": ["-q2", "q1"]},
        lambda t, q: 0.0,
        lambda t, q: np.stack([-q[:, 1], q[:, 0]], axis=1),
    )
    _noether_op(ops, workdir, f"noether-rotation-N{N}", fam, grid, extremal(fam, grid), rotation,
                sz["sweeps"][0], int(rng.integers(0, 2**31)))
    N = sz["noether_large"]
    fam = orc.lq_family([a, a], [0.0, 0.0], np.diag([c, c]))
    grid = _jittered(rng, 0.0, length(N), N)
    translation = ({"tau": "1", "xi": ["0", "0"]}, lambda t, q: 1.0, lambda t, q: 0.0)
    _noether_op(ops, workdir, f"noether-translation-N{N}", fam, grid, extremal(fam, grid), translation,
                sz["sweeps"][1], int(rng.integers(0, 2**31)))

    for N, grid in (
        (sz["info_mixed"], _mixed(rng, 0.0, length(sz["info_mixed"]), sz["info_mixed"])),
        (sz["info"], _jittered(rng, 0.0, length(sz["info"]), sz["info"])),
    ):
        label = f"scale-info-N{N}"
        path = _problem_file(workdir, label, {"scale": grid.to_json(), "lagrangian": "v1^2", "q_a": 0.0, "q_b": 1.0})
        report = workdir / f"{label}.out.json"
        ops.append(
            Op(label=label, argv=["scale-info", str(path), "--json", str(report)], report=report,
               check=_scale_info_check(grid))
        )

    # library calls on all-dense grids: the integral form (O(N^2) today at
    # two sizes, for its size exponent) and the classical check
    for N in sz["integral"]:
        ops.append(_library_op(ts, rng, "integral", N))
    ops.append(_library_op(ts, rng, "classical", sz["classical"]))
    # Sizes put verify-n1, verify-mixed-N3001 and lib-integral-N500 near
    # 0.65 s (they hold the median), and verify-n2 and both noether
    # operations near 1.35 s (they hold the tail).  Interleave cheap and
    # costly operations.
    order = [0, 7, 1, 9, 2, 5, 10, 3, 8, 6, 4, 11]
    return [ops[i] for i in order]


def _trajectory_problem(fam: orc.Family, grid: Grid, q: np.ndarray, extra: dict | None = None) -> dict:
    obj = {
        "scale": grid.to_json(),
        "n": fam.n,
        "lagrangian": fam.text,
        "q_a": _vec(q[0]),
        "q_b": _vec(q[-1]),
        "trajectory": {"values": [[float(x) for x in row] for row in q]},
    }
    obj.update(extra or {})
    return obj


def _default_tol(grid: Grid) -> float:
    if grid.scattered.all():
        return DEFAULT_TOL
    return 10.0 * float(np.max(grid.dt[~grid.scattered]))


def _verify_check(fam: orc.Family, grid: Grid, q: np.ndarray):
    tol = _default_tol(grid)
    slack = orc.roundoff(fam, grid, q)
    want = {
        "first_el": float(np.max(np.abs(orc.first_el(fam, grid, q)))),
        "second_el": float(np.max(np.abs(orc.second_el(fam, grid, q)))),
        "erdmann": orc.erdmann(fam, grid, q),
    }

    def check(o: Outcome) -> str | None:
        r = o.report
        if r is None:
            return f"exit {o.code} without a report: {o.stderr.strip()}"
        if not _close(r["tol"], tol, 0.0, 1e-12):
            return f"tolerance {r['tol']}, expected {tol}"
        if [x["kind"] for x in r["results"]] != list(want):
            return "residual kinds differ"
        for x in r["results"]:
            ref = want[x["kind"]]
            if abs(x["magnitude"] - ref) > slack + 1e-9 * ref:
                return f"{x['kind']} {x['magnitude']:.6e}, recomputed {ref:.6e}"
            # within the round-off band of the threshold either verdict is right
            if abs(ref - tol) > slack and x["pass"] != (ref <= tol):
                return f"{x['kind']} verdict {x['pass']}, expected {ref <= tol}"
        expected_code = 0 if all(x["pass"] for x in r["results"]) else 1
        if o.code != expected_code:
            return f"exit {o.code}, expected {expected_code}"
        return None

    return check


def _noether_op(ops, workdir, label, fam, grid, q, generator, sweep: int, cli_seed: int) -> None:
    spec, tau, xi = generator
    path = _problem_file(workdir, label, _trajectory_problem(fam, grid, q, {"transformation": spec}))
    report = workdir / f"{label}.out.json"
    # the sweep's random trajectories, drawn exactly as the CLI draws them
    span = 1.0 + float(np.max(np.abs(q[0])) + np.max(np.abs(q[-1])))
    draw = np.random.default_rng(cli_seed)
    randoms = [draw.uniform(-span, span, size=q.shape) for _ in range(sweep)]
    res = orc.invariance(fam, grid, q, tau, xi)
    inv = float(np.max(np.abs(res[:-1])))
    slack = orc.roundoff(fam, grid, q)
    for rq in randoms:
        inv = max(inv, float(np.max(np.abs(orc.invariance(fam, grid, rq, tau, xi)))))
        slack = max(slack, orc.roundoff(fam, grid, rq))
    cons = orc.conserved(fam, grid, q, tau, xi)

    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}: {o.stderr.strip()}"
        r = o.report
        if abs(r["invariance"] - inv) > slack:
            return f"invariance {r['invariance']:.3e}, recomputed {inv:.3e}"
        if not _close(r["conserved"], cons, slack):
            return "conserved quantity differs"
        if abs(r["deviation"] - float(cons.max() - cons.min())) > 2 * slack:
            return "conservation deviation differs"
        return None

    ops.append(
        Op(
            label=label,
            argv=["noether", str(path), "--sweep", str(sweep), "--seed", str(cli_seed), "--json", str(report)],
            report=report,
            check=check,
        )
    )


def _scale_info_check(grid: Grid):
    mu = np.append(grid.mu, 0.0)

    def check(o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit {o.code}: {o.stderr.strip()}"
        r = o.report
        if not np.array_equal(np.asarray(r["mu"]), mu):
            return "graininess differs"
        if r["classes"] != grid.classes():
            return "point classes differ"
        if r["kappa_length"] != grid.kappa_length() or r["exact_discrete"] != bool(grid.scattered.all()):
            return "kappa length or exactness differs"
        if len(o.stdout.splitlines()) != grid.n + 3:
            return "table has the wrong number of rows"
        return None

    return check


def _library_op(ts, rng, which: str, N: int) -> Op:
    fam = orc.arclength_family(_coef(rng, 0.5, 2.0))
    grid = Grid(np.linspace(0.0, 1.0, N), np.zeros(N - 1, bool))
    q = _smooth(rng, grid, 1)
    scale = ts.TimeScale.from_parts(grid.points, ["D"] * (N - 1))
    problem = ts.VariationalProblem(scale, ts.Lagrangian(1, fam.text), q[0], q[-1])
    traj = ts.GridFunction(scale, q)
    slack = orc.roundoff(fam, grid, q)
    if which == "integral":
        want = orc.first_el_integral(fam, grid, q)
        kind = "first_el_integral"
        # running sums accumulate one rounding error per point
        slack = 64.0 * orc.EPS * N * (1.0 + float(np.max(np.abs(want))))

        def call(ts):
            return ts.variational.first_el_integral_residual(problem, traj)
    else:
        want = orc.second_el(fam, grid, q)[:, None]
        kind = "classical_second_el"

        def call(ts):
            return ts.variational.classical_check(problem, traj)

    def check(o: Outcome) -> str | None:
        r = o.result
        if r.kind != kind or not r.approximate:
            return f"residual kind {r.kind} / approximate {r.approximate}"
        if not _close(r.values, want, slack):
            return "residual values differ from the recomputation"
        if abs(r.magnitude - float(np.max(np.abs(want)))) > slack:
            return "residual magnitude differs"
        return None

    return Op(label=f"lib-{which}-N{N}", call=call, check=check)
