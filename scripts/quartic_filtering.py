#!/usr/bin/env python3
"""Candidate filtering on the quartic slope problem.

Enumerates every slope word over {-1, 0, 1} on the nine-point dyadic
scale, keeps the first-equation extremals, then filters them by the
second equation.  Prints the counts, the action histogram on both sides,
and the fate of the mixed-slope candidate (1,-1,0,0,0,0,1,-1).

The survivors' JSON-lines rows are the report of

    tsvar solve problems/quartic.json --enumerate=-1,0,1 --filter-second-el --json F
"""

from collections import Counter

import numpy as np

from tsvar import (
    Lagrangian,
    TimeScale,
    VariationalProblem,
    enumerate_slope_extremals,
    filter_second_el,
)

TOL = 1e-8  # of both equations


def main() -> None:
    problem = VariationalProblem(
        TimeScale.uniform(0.0, 1.0, 0.125),
        Lagrangian(1, "(v1^2 - 1)^2"),
        [0.0],
        [0.0],
    )
    extremals = enumerate_slope_extremals(problem, [-1.0, 0.0, 1.0], tol=TOL)
    survivors = filter_second_el(extremals, tol=TOL)

    print(f"first-equation extremals : {len(extremals)}")
    print(f"second-equation survivors: {len(survivors)}")
    for name, rows in (("extremals", extremals), ("survivors", survivors)):
        histogram = Counter(round(a, 6) for a in rows.action.tolist())
        print(f"action histogram ({name}):", dict(histogram))

    mixed = (1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0)
    in_first = bool(np.any(np.all(extremals.slopes == mixed, axis=1)))
    in_second = bool(np.any(np.all(survivors.slopes == mixed, axis=1)))
    print(f"mixed-slope candidate {mixed}:")
    print(f"  first-equation extremal : {in_first}")
    print(f"  passes second equation  : {in_second}")


if __name__ == "__main__":
    main()
