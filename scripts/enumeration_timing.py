#!/usr/bin/env python3
"""Milliseconds per call of ``enumerate_slope_extremals``, by case.

Times the enumeration layer alone, on problems built in memory, over the
alphabet {-1, 0, 1}: the quartic file ``problems/quartic.json`` (8 gaps),
the quartic (v1^2 - 1)^2 on 12 uniform gaps of [0, 1], and
v1^2 + 1.3*u1^2 on 14 gaps alternating 0.125 and 0.0625, both from 0 to 0;
and over 3000 letters evenly spaced in [-1, 1], v1^2 + 0.5*u1^2 on 2
gaps of [0, 1] from 0 to 0 (about 25 ms a call), whose second level the
walk extends in many small passes.
Each row gives the boundary hits (the rows kept at tol = inf), the frames
that L's kernel passes received, the kept rows (the first-EL extremals)
and the minimum over repeats of the mean of a timed loop, in CPU time of
this process (on a shared virtual machine, time the CPU is taken away is
not the enumeration's), with the garbage collector off; the interpreter
and numpy versions head the table.

    PYTHONPATH=src python scripts/enumeration_timing.py [--repeat R]

With ``--against SRC_DIR`` the ``tsvar`` package under SRC_DIR (the
``src`` directory of another checkout) is imported as well, under another
name, and each case is timed on both trees in alternation, one timed loop
of each per repeat, the order swapped every repeat; the table then gives
both times and a ratio, this tree's over the other's: the median over
repeats of the ratio of the two loops of one repeat.  Back-to-back runs of
two trees on a shared machine differ by more than a 10-20% change;
alternation in one process resolves it, and pairing each loop with its
neighbour keeps a burst of noise that spans one tree's loops out of the
ratio.

    PYTHONPATH=src python scripts/enumeration_timing.py --against OTHER/src
"""

import argparse
import importlib
import importlib.util
import platform
import sys
import time
import timeit
from pathlib import Path

import numpy as np

import tsvar

LETTERS = (-1.0, 0.0, 1.0)
WIDE = tuple(np.linspace(-1, 1, 3000).tolist())
QUARTIC = Path(__file__).resolve().parents[1] / "problems" / "quartic.json"
SECONDS_PER_REPEAT = 0.05


def load_tree(src: Path):
    """The ``tsvar`` package under ``src``, imported as ``tsvar_against``."""
    init = src / "tsvar" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no tsvar package under {src}")
    spec = importlib.util.spec_from_file_location(
        "tsvar_against", init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def cases(pkg) -> dict:
    """The timed problems and their alphabets, built from the package
    ``pkg``'s own classes."""
    TimeScale, Lagrangian, Problem = (
        pkg.TimeScale, pkg.Lagrangian, pkg.VariationalProblem
    )
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    lq_scale = TimeScale.from_points(np.cumsum([0.0] + [0.125, 0.0625] * 7))
    return {
        "quartic.json": (cli.load_problem(QUARTIC).problem, LETTERS),
        "quartic, 12 gaps": (
            Problem(
                TimeScale.uniform(0, 1, 1 / 12), Lagrangian(1, "(v1^2 - 1)^2"),
                [0.0], [0.0],
            ),
            LETTERS,
        ),
        "v1^2 + 1.3*u1^2, 14 gaps": (
            Problem(lq_scale, Lagrangian(1, "v1^2 + 1.3*u1^2"), [0.0], [0.0]),
            LETTERS,
        ),
        "3000 letters, 2 gaps": (
            Problem(
                TimeScale.uniform(0, 1, 0.5), Lagrangian(1, "v1^2 + 0.5*u1^2"),
                [0.0], [0.0],
            ),
            WIDE,
        ),
    }


def counts(pkg, p, letters) -> tuple[int, int, int]:
    """The boundary hits, the frames that one call's kernel passes receive,
    and its kept rows."""
    L, frames = p.lagrangian, []
    partials = L.partials

    def counted(t, *args, **kwargs):
        frames.append(np.size(t))
        return partials(t, *args, **kwargs)

    L.partials = counted  # this instance only
    try:
        rows = len(pkg.enumerate_slope_extremals(p, letters))
    finally:
        del L.partials
    hits = len(pkg.enumerate_slope_extremals(p, letters, tol=np.inf))
    return hits, sum(frames), rows


def timer(pkg, p, letters) -> tuple[timeit.Timer, int]:
    """A CPU-time timer of one call, and the number of calls that take
    about SECONDS_PER_REPEAT."""
    t = timeit.Timer(
        lambda: pkg.enumerate_slope_extremals(p, letters), timer=time.process_time
    )
    once = min(t.repeat(2, 1))
    return t, max(1, int(SECONDS_PER_REPEAT / max(once, 1e-7)))


def seconds_per_call(timers: list, repeat: int) -> np.ndarray:
    """For each (timer, number), the mean time of one call in each of
    ``repeat`` timed loops, shape (repeat, timers), the timers' loops in
    alternation, the order swapped every repeat."""
    means = np.empty((repeat, len(timers)))
    for i in range(repeat):
        order = range(len(timers)) if i % 2 == 0 else reversed(range(len(timers)))
        for k in order:
            t, number = timers[k]
            means[i, k] = t.timeit(number) / number
    return means


def paired_ratio(means: np.ndarray) -> float:
    """The median over repeats of the first timer's loop mean over the
    second's, from :func:`seconds_per_call`."""
    return float(np.median(means[:, 0] / means[:, 1]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--against", type=Path, metavar="SRC_DIR")
    args = parser.parse_args()
    packages = [tsvar] + ([load_tree(args.against.resolve())] if args.against else [])
    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    head = f"{'case':>24}  {'hits':>6}  {'frames':>7}  {'rows':>6}  {'ms/call':>8}"
    print(head + (f"  {'against':>8}  {'ratio':>6}" if args.against else ""))
    problems = [cases(pkg) for pkg in packages]
    for name in problems[0]:
        hits, frames, rows = counts(tsvar, *problems[0][name])
        timers = [timer(pkg, *ps[name]) for pkg, ps in zip(packages, problems)]
        means = seconds_per_call(timers, args.repeat)
        ms = means.min(axis=0) * 1e3
        line = f"{name:>24}  {hits:>6}  {frames:>7}  {rows:>6}  {ms[0]:8.3f}"
        if args.against:
            line += f"  {ms[1]:8.3f}  {paired_ratio(means):6.3f}"
        print(line)


if __name__ == "__main__":
    main()
