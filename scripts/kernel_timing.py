#!/usr/bin/env python3
"""Microseconds per kernel pass, ``Lagrangian.partials``, by frame count.

Times first-order passes and second-order passes with the mask Newton's
Jacobian uses (t held at every frame, u held at the last), on k random
frames, for four bodies in n = 1 and n = 3 dimensions: a linear-quadratic
one, the quartic, one with exp, sin, sqrt and log, and one with a real
power, sqrt and an integer exponent that varies per frame.  Each figure
is the minimum over repeats of the mean of a timed loop, in CPU time of
this process (on a shared virtual machine, time the CPU is taken away is not
the kernel's), with the garbage collector off; the interpreter and numpy
versions head the table.

    PYTHONPATH=src python scripts/kernel_timing.py [--repeat R] [--sizes K,K,..]

With ``--against SRC_DIR`` the ``tsvar`` package under SRC_DIR (the
``src`` directory of another checkout) is imported as well, as
``enumeration_timing.py --against`` does, and each pass is timed on both
trees in alternation; each row then also gives the other tree's times
and the ratios, this tree's over the other's, each the median over
repeats of the ratio of the two loops of one repeat.

    PYTHONPATH=src python scripts/kernel_timing.py --against OTHER/src
"""

import argparse
import platform
import time
import timeit
from pathlib import Path

import numpy as np

import tsvar
from enumeration_timing import load_tree, paired_ratio, seconds_per_call

# per component j of q, summed over j = 1..n
BODIES = {
    "lq": "1.3*t*v{j}^2 + 0.7*u{j}^2",
    "quartic": "(v{j}^2 - 1)^2",
    "exp-sin-sqrt-log": (
        "exp(0.3*v{j}) + sin(u{j}) + sqrt(v{j}^2 + 1) + log(t*u{j}^2 + 1)"
    ),
    "powers": "t^1.5*v{j}^2 + sqrt(u{j}^2 + 1) + u{j}^(t - t + 3)",
}
SECONDS_PER_REPEAT = 0.01


def timer(call) -> tuple[timeit.Timer, int]:
    """A CPU-time timer of one call, and the number of calls that take
    about SECONDS_PER_REPEAT."""
    t = timeit.Timer(call, timer=time.process_time)
    once = min(t.repeat(3, 1))
    return t, max(1, int(SECONDS_PER_REPEAT / max(once, 1e-7)))


def passes(pkg, body: str, n: int, k: int) -> tuple:
    """The first- and second-order pass of one row, on ``pkg``'s Lagrangian."""
    L = pkg.Lagrangian(n, " + ".join(body.format(j=j) for j in range(1, n + 1)))
    rng = np.random.default_rng([n, k])
    t = np.sort(rng.uniform(1.0, 2.0, k))
    U, V = rng.uniform(0.5, 1.5, (2, k, n))
    moving = np.ones((k, 2 * n + 1), dtype=bool)
    moving[:, 0] = moving[-1, 1 : n + 1] = False
    return (
        lambda: L.partials(t, U, V),
        lambda: L.partials(t, U, V, order=2, moving=moving),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--sizes", default="21,121,1001,10001")
    parser.add_argument("--against", type=Path, metavar="SRC_DIR")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    packages = [tsvar]
    if args.against:
        packages.append(load_tree(args.against.resolve()))
    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    head = f"{'body':>16}  n  {'k':>6}  {'order 1 us':>10}  {'order 2 us':>10}"
    if args.against:
        head += "   against 1   against 2  ratio 1  ratio 2"
    print(head)
    for name, body in BODIES.items():
        for n in (1, 3):
            for k in sizes:
                rows = [passes(pkg, body, n, k) for pkg in packages]
                first, second = (
                    seconds_per_call([timer(row[order]) for row in rows], args.repeat)
                    for order in (0, 1)
                )
                us = first.min(axis=0) * 1e6, second.min(axis=0) * 1e6
                line = f"{name:>16}  {n}  {k:>6}  {us[0][0]:10.1f}  {us[1][0]:10.1f}"
                if args.against:
                    line += f"  {us[0][1]:10.1f}  {us[1][1]:10.1f}"
                    ratios = paired_ratio(first), paired_ratio(second)
                    line += "  %7.3f  %7.3f" % ratios
                print(line)


if __name__ == "__main__":
    main()
