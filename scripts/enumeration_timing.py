#!/usr/bin/env python3
"""Milliseconds per call of ``enumerate_slope_extremals``, by case.

Times the enumeration layer alone, on problems built in memory, over the
alphabet {-1, 0, 1}: the quartic file ``problems/quartic.json`` (8 gaps),
the quartic (v1^2 - 1)^2 on 12 uniform gaps of [0, 1], and
v1^2 + 1.3*u1^2 on 14 gaps alternating 0.125 and 0.0625, both from 0 to 0.
Each row gives the boundary hits, the frames that L's kernel passes
received, the kept rows (the first-EL extremals) and the minimum over
repeats of the mean of a timed loop, in CPU time of this process (on a
shared virtual machine, time the CPU is taken away is not the
enumeration's), with the garbage collector off; the interpreter and numpy
versions head the table.

    PYTHONPATH=src python scripts/enumeration_timing.py [--repeat R]
"""

import argparse
import platform
import time
import timeit
from pathlib import Path

import numpy as np

from tsvar import Lagrangian, TimeScale, VariationalProblem, cli, solver

LETTERS = (-1.0, 0.0, 1.0)
QUARTIC = Path(__file__).resolve().parents[1] / "problems" / "quartic.json"
SECONDS_PER_REPEAT = 0.05


def cases() -> dict[str, VariationalProblem]:
    lq_scale = TimeScale.from_points(np.cumsum([0.0] + [0.125, 0.0625] * 7))
    return {
        "quartic.json": cli.load_problem(QUARTIC).problem,
        "quartic, 12 gaps": VariationalProblem(
            TimeScale.uniform(0, 1, 1 / 12), Lagrangian(1, "(v1^2 - 1)^2"), [0.0], [0.0]
        ),
        "v1^2 + 1.3*u1^2, 14 gaps": VariationalProblem(
            lq_scale, Lagrangian(1, "v1^2 + 1.3*u1^2"), [0.0], [0.0]
        ),
    }


def frames_and_rows(p: VariationalProblem) -> tuple[int, int]:
    """The frames that one call's kernel passes receive, and its kept rows."""
    L, frames = p.lagrangian, []
    partials = L.partials

    def counted(t, *args, **kwargs):
        frames.append(np.size(t))
        return partials(t, *args, **kwargs)

    L.partials = counted  # this instance only
    try:
        rows = len(solver.enumerate_slope_extremals(p, LETTERS))
    finally:
        del L.partials
    return sum(frames), rows


def seconds_per_call(p: VariationalProblem, repeat: int) -> float:
    """The minimum over ``repeat`` timed loops of the mean time of one call,
    each loop about SECONDS_PER_REPEAT long."""
    timer = timeit.Timer(
        lambda: solver.enumerate_slope_extremals(p, LETTERS), timer=time.process_time
    )
    once = min(timer.repeat(2, 1))
    number = max(1, int(SECONDS_PER_REPEAT / max(once, 1e-7)))
    return min(timer.repeat(repeat, number)) / number


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    print(f"{'case':>24}  {'hits':>6}  {'frames':>7}  {'rows':>6}  {'ms/call':>8}")
    for name, p in cases().items():
        hits = solver._boundary_hits(p, LETTERS).size
        frames, rows = frames_and_rows(p)
        ms = seconds_per_call(p, args.repeat) * 1e3
        print(f"{name:>24}  {hits:>6}  {frames:>7}  {rows:>6}  {ms:8.1f}")


if __name__ == "__main__":
    main()
