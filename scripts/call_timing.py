#!/usr/bin/env python3
"""Microseconds per ``tsvar.cli.main`` call, each call timed alone right
after a fixed loop that flushes the CPU caches.

A tsvar command checks one problem file per call, so what a call pays
besides the mathematics, reading and converting its input and writing
its output, counts once per file.  A call that follows other work finds
its code and data out of the caches; so before each timed call a fixed
loop reads about 16 MB of small objects in a scattered order, and the
call is then timed by wall clock, with stdout captured.  The calls: a
Newton ``solve --json`` of 1.3*t*v1^2 + 0.7*u1^2 on 61 jittered points
of [1, 2] (a generated file), ``solve --enumerate=-1,0,1 --filter-second-el --json`` and
``verify`` on ``problems/quartic.json``, and ``noether --solve`` and
``scale-info`` on ``problems/quadratic.json``.  Each is called once,
untimed, first.  Each row gives the call's exit code and its median time
over repeats; the interpreter and numpy versions head the table.

    PYTHONPATH=src python scripts/call_timing.py [--repeat R]

With ``--against SRC_DIR`` the ``tsvar`` package under SRC_DIR (the
``src`` directory of another checkout) is imported as well, under another
name, and every repeat calls each tree once, in alternation, the order
swapped every repeat; each row then also gives the other tree's median
and the ratio, this tree's over the other's: the median over repeats of
the ratio of the two calls of one repeat, as ``enumeration_timing.py
--against`` gives it.

    PYTHONPATH=src python scripts/call_timing.py --against OTHER/src
"""

import argparse
import contextlib
import importlib
import io
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from enumeration_timing import load_tree, paired_ratio

import tsvar.cli

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
FLUSH_OBJECTS = 200_000  # tuples of a float and 1.0: 80 bytes each, with the float


def newton_file(directory: Path) -> Path:
    """A problem file that Newton solves: 1.3*t*v1^2 + 0.7*u1^2 on 61
    points of [1, 2], each gap jittered by up to 30%, q -0.7 -> 0.8."""
    rng = np.random.default_rng(61)
    widths = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, 60)
    points = np.concatenate([[0.0], widths.cumsum()])
    problem = {
        "version": "tsvar/1",
        "scale": {"points": (1.0 + points / points[-1]).tolist()},
        "lagrangian": "1.3*t*v1^2 + 0.7*u1^2",
        "q_a": -0.7,
        "q_b": 0.8,
    }
    path = directory / "newton.json"
    path.write_text(json.dumps(problem))
    return path


def calls(directory: Path) -> dict[str, list[str]]:
    """The timed calls, by name: each one's argv."""
    quartic, quadratic = str(PROBLEMS / "quartic.json"), str(PROBLEMS / "quadratic.json")
    report = str(directory / "report.json")
    return {
        "solve, Newton, N = 61": ["solve", str(newton_file(directory)), "--json", report],
        "solve --enumerate": ["solve", quartic, "--enumerate=-1,0,1", "--filter-second-el", "--json", report],
        "verify": ["verify", quartic],
        "noether --solve": ["noether", quadratic, "--solve"],
        "scale-info": ["scale-info", quadratic],
    }


def flush(working_set: list) -> float:
    """Read every object of the working set once, in a scattered order."""
    total, n = 0.0, len(working_set)
    for j in range(n):
        total += working_set[(j * 7919) % n][0]
    return total


def timed_call(main, argv: list[str], working_set: list) -> tuple[int, float]:
    """The exit code of ``main(argv)`` and its wall time in seconds, right
    after a flush, with stdout and stderr captured."""
    flush(working_set)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=11)
    parser.add_argument("--against", type=Path, metavar="SRC_DIR")
    args = parser.parse_args()
    mains = [tsvar.cli.main]
    if args.against:
        other = load_tree(args.against.resolve())
        mains.append(importlib.import_module(f"{other.__name__}.cli").main)
    working_set = [(float(i), 1.0) for i in range(FLUSH_OBJECTS)]
    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    head = f"{'call':>22}  {'exit':>4}  {'us/call':>8}"
    print(head + (f"  {'against':>8}  {'ratio':>6}" if args.against else ""))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in calls(Path(tmp)).items():
            codes = {timed_call(run, argv, [])[0] for run in mains}  # fills lazy caches
            seconds = np.empty((args.repeat, len(mains)))
            for i in range(args.repeat):
                order = range(len(mains)) if i % 2 == 0 else reversed(range(len(mains)))
                for k in order:
                    code, seconds[i, k] = timed_call(mains[k], argv, working_set)
                    codes.add(code)
            if len(codes) != 1:
                raise SystemExit(f"{name}: exit codes differ: {sorted(codes)}")
            us = np.median(seconds, axis=0) * 1e6
            line = f"{name:>22}  {codes.pop():>4}  {us[0]:8.0f}"
            if args.against:
                line += f"  {us[1]:8.0f}  {paired_ratio(seconds):6.3f}"
            print(line)


if __name__ == "__main__":
    main()
