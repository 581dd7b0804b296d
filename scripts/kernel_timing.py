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
"""

import argparse
import platform
import time
import timeit

import numpy as np

from tsvar import Lagrangian

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


def seconds_per_call(call, repeat: int) -> float:
    """The minimum over ``repeat`` timed loops of the mean time of one call,
    each loop about SECONDS_PER_REPEAT long."""
    timer = timeit.Timer(call, timer=time.process_time)
    once = min(timer.repeat(3, 1))
    number = max(1, int(SECONDS_PER_REPEAT / max(once, 1e-7)))
    return min(timer.repeat(repeat, number)) / number


def row(body: str, n: int, k: int, repeat: int) -> tuple[float, float]:
    L = Lagrangian(n, " + ".join(body.format(j=j) for j in range(1, n + 1)))
    rng = np.random.default_rng([n, k])
    t = np.sort(rng.uniform(1.0, 2.0, k))
    U, V = rng.uniform(0.5, 1.5, (2, k, n))
    moving = np.ones((k, 2 * n + 1), dtype=bool)
    moving[:, 0] = moving[-1, 1 : n + 1] = False
    first = seconds_per_call(lambda: L.partials(t, U, V), repeat)
    second = seconds_per_call(lambda: L.partials(t, U, V, order=2, moving=moving), repeat)
    return first, second


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--sizes", default="21,121,1001,10001")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    print(f"Python {platform.python_version()}, numpy {np.__version__}")
    print(f"{'body':>16}  n  {'k':>6}  {'order 1 us':>10}  {'order 2 us':>10}")
    for name, body in BODIES.items():
        for n in (1, 3):
            for k in sizes:
                first, second = row(body, n, k, args.repeat)
                us = f"{first * 1e6:10.1f}  {second * 1e6:10.1f}"
                print(f"{name:>16}  {n}  {k:>6}  {us}")


if __name__ == "__main__":
    main()
