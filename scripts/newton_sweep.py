#!/usr/bin/env python3
"""Seeded sweep of diagnosed solves, for comparing two versions of Newton.

Each problem draws a body, n = 1..3, N = 3..201 points on [0.5, 2.5]
jittered by 0, 0.3 or 0.45 of the gap, and ends of magnitude up to 1e3
(``ordinary``, warnings raised as errors), or the same scaled by
10^U(-170, 150) with ends up to 10^U(-150, 150) (``extreme``, warnings
ignored, as the CLI does).  The outcome of ``solve`` on each is its
verdict: ``ok``, or the exception class and the message up to its first
``;`` (a NoConvergence message then names its step count, not its
history).

Run it once under each version's sources (OLD a checkout of the other
version) and compare the two outputs:

    PYTHONPATH=OLD/src python3 scripts/newton_sweep.py --count 600 --out old.jsonl
    PYTHONPATH=src python3 scripts/newton_sweep.py --count 600 --out new.jsonl
    PYTHONPATH=src python3 scripts/newton_sweep.py --compare old.jsonl new.jsonl

Give both runs the same BLAS thread count (OPENBLAS_NUM_THREADS=1, say):
another count rounds the linear solves differently, and some solves that
do not converge then end differently even within one version.

A run prints the verdict table; ``--compare`` prints every problem whose
verdict or message differ, the verdict table between the two, and how far
the trajectories that both solved moved, relative to 1 + max|q|.  It exits
1, naming the offending rows, if a problem that OLD solved is not solved
by NEW, or if a trajectory that both solved moved by more than
1e-12 (1 + max|q_old|); differences in problems that OLD did not solve do
not count.
"""

import argparse
import collections
import contextlib
import json
import sys
import warnings

import numpy as np

from tsvar import Lagrangian, TimeScale, VariationalProblem, solve

# the bodies of the solver tests' condition guard and Jacobian checks, the
# quartic and an exp whose overflow is an input error
BODIES = (
    "t*v{j}^2 + u{j}^2",
    "t*v{j}^2 + u{j}^2 + 0.25*u{j}*u{k}",
    "v{j}^2 - 5*u{j}^2",
    "(v{j}^2 - 1)^2 + u{j}^2",
    "t*u{j}",
    "t*v{j}^2 + u{j}^3*v{k} + 0.5*u{j}*u{k}",
    "exp(v{j}/3)*u{k} + v{j}^2",
    "sin(u{j} + v{k}) + v{j}^2",
    "sqrt(v{j}^2 + u{k}^2 + 1) + v{j}^2",
    "t^1.5*u{j}^2*v{k} + v{j}^2",
    "v{j}^2 + 0.5*u{j}^4",
    "exp(v{j}) + u{j}^2",
)
SEEDS = {"ordinary": 12345, "extreme": 777}
MOVE_TOL = 1e-12  # how far, relative to 1 + max|q_old|, a solved row may move


def problems(mode: str, count: int):
    """The first ``count`` problems of the mode's seeded sequence, as
    (index, body, points, q_a, q_b)."""
    rng = np.random.default_rng(SEEDS[mode])
    for i in range(count):
        body = BODIES[i % len(BODIES)]
        n, N = int(rng.integers(1, 4)), int(rng.integers(3, 202))
        jitter = [0.0, 0.3, 0.45][int(rng.integers(3))]
        h = 2.0 / (N - 1)
        if mode == "ordinary":
            base, size = 0.5, 10 ** rng.uniform(-2, 3)
        else:
            h *= 10 ** rng.uniform(-170, 150)
            base, size = 0.5 * h * N / 2, 10 ** rng.uniform(-150, 150)
        points = base + np.arange(N) * h + rng.uniform(-jitter, jitter, N) * h
        terms = " + ".join(body.format(j=j, k=j % n + 1) for j in range(1, n + 1))
        q_a, q_b = rng.uniform(-1, 1, (2, n)) * size
        yield i, terms, points, q_a, q_b


def outcome(mode: str, terms: str, points, q_a, q_b) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("error" if mode == "ordinary" else "ignore")
        try:
            scale = TimeScale.from_points(points)
            p = VariationalProblem(scale, Lagrangian(len(q_a), terms), q_a, q_b)
            values = solve(p).trajectory.values
        except Exception as exc:  # every failure is a verdict
            return {"verdict": type(exc).__name__, "message": str(exc).split(";")[0]}
    return {"verdict": "ok", "message": "", "values": values.tolist()}


def sweep(mode: str, count: int, out: str | None) -> None:
    table = collections.Counter()
    with open(out, "w") if out else contextlib.nullcontext() as sink:
        for i, terms, points, q_a, q_b in problems(mode, count):
            verdict = outcome(mode, terms, points, q_a, q_b)
            row = {"index": i, "body": terms, **verdict}
            table[row["verdict"]] += 1
            if sink:
                sink.write(json.dumps(row) + "\n")
    print(f"{mode}, {count} problems:", dict(sorted(table.items())))


def compare(old: str, new: str) -> list[str]:
    """Print the comparison of two runs; return its offending rows."""
    rows = []
    for path in (old, new):
        with open(path) as lines:
            rows.append([json.loads(line) for line in lines])
    table, moved, worst, offending = collections.Counter(), 0, 0.0, []
    for a, b in zip(*rows):
        table[a["verdict"], b["verdict"]] += 1
        if (a["verdict"], a["message"]) != (b["verdict"], b["message"]):
            was, now = (f"{r['verdict']} {r['message'][:60]!r}" for r in (a, b))
            print(f"{a['index']} {a['body'][:48]!r}: {was} -> {now}")
            if a["verdict"] == "ok":
                offending.append(f"{a['index']}: ok -> {b['verdict']}")
        elif a["verdict"] == "ok" and a["values"] != b["values"]:
            qa, qb = np.array(a["values"]), np.array(b["values"])
            moved += 1
            shift, scale = np.abs(qa - qb).max(), 1 + np.abs(qa).max()
            worst = max(worst, shift / scale)
            if not shift <= MOVE_TOL * scale:
                offending.append(f"{a['index']}: moved by {shift / scale:.2e}")
    pairs = {f"{x} -> {y}": c for (x, y), c in sorted(table.items())}
    print("verdicts old -> new:", pairs)
    print(f"solved by both and moved: {moved}, by at most {worst:.2e} (1 + max|q|)")
    for row in offending:
        print("offending:", row)
    return offending


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=sorted(SEEDS), default="ordinary")
    parser.add_argument("--count", type=int, default=24)
    parser.add_argument("--out", help="write one JSON line per problem here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        sys.exit(1 if compare(*args.compare) else 0)
    else:
        sweep(args.mode, args.count, args.out)


if __name__ == "__main__":
    main()
