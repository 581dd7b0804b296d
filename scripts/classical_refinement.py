#!/usr/bin/env python3
"""Grid-refinement study of the second-equation residual on sampled
continuum scales.

Samples the classical extremal of L = v^2 + u (a parabola fitted to the
boundary values) on finer and finer all-dense grids and reports how the
DuBois-Reymond residual shrinks.  Expected: first-order decay, factor
two per refinement.
"""

from tsvar import (
    GridFunction,
    Lagrangian,
    TimeScale,
    VariationalProblem,
    classical_check,
)

RESOLUTIONS = (101, 201, 401, 801)  # point counts
Q_B = 1.0


def main() -> None:
    alpha = Q_B - 0.25  # q(t) = t^2/4 + alpha t, q(0) = 0
    previous = None
    print("resolution        h      residual   factor")
    for resolution in RESOLUTIONS:
        scale = TimeScale.dense_interval(0.0, 1.0, resolution)
        problem = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1"), [0.0], [Q_B])
        q = GridFunction.sample(scale, lambda t: t * t / 4 + alpha * t)
        magnitude = classical_check(problem, q).magnitude
        h = 1.0 / (resolution - 1)
        factor = "" if previous is None else f"{previous / magnitude:.3f}"
        print(f"{resolution:>10}  {h:.5f}  {magnitude:.3e}   {factor}")
        previous = magnitude


if __name__ == "__main__":
    main()
