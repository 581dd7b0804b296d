#!/usr/bin/env python3
"""Energy-style drift along discrete extremals of L = t * v^2.

Solves the first Euler-Lagrange system on uniform grids over [1, 2] and
compares two constancy diagnostics along the extremal: the classical
quantity -L + dL/dv * v (which drifts by an amount independent of the
step) and the graininess-corrected second-equation residual (which decays
linearly with the step).
"""

from tsvar import (
    Lagrangian,
    TimeScale,
    VariationalProblem,
    delta_derivative,
    second_el_residual,
    solve_newton,
)

STEPS = (0.1, 0.05, 0.025, 0.0125)


def run(h: float) -> tuple[float, float]:
    scale = TimeScale.uniform(1.0, 2.0, h)
    L = Lagrangian(1, "t*v1^2")
    problem = VariationalProblem(scale, L, [0.0], [2.0])
    q = solve_newton(problem)
    v = delta_derivative(q).values
    k = len(v)
    value, _, _, Lv = L.partials(scale.points[:k], q.values[scale.sigmas[:k]], v)
    classical = -value + (Lv * v).sum(axis=1)
    drift = float(classical.max() - classical.min())
    corrected = second_el_residual(problem, q).magnitude
    return drift, corrected


def main() -> None:
    print("       h   classical drift   corrected residual")
    for h in STEPS:
        drift, corrected = run(h)
        print(f"{h:>8}   {drift:15.6f}   {corrected:18.6e}")


if __name__ == "__main__":
    main()
