"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every check runs at its stated tolerance; nothing is loosened.  Three of
the checks fail and are kept strict.  Criteria 5 and 6 ask the second
Euler-Lagrange residual to vanish on a fixed grid.  On an exact discrete
scale that residual at point j-1 is (dS/dt_j)/mu_{j-1}, the derivative of
the action S in the interior grid point t_j with the values held fixed,
divided by the graininess before it (tested in
``test_variational.py::TestSecondEl::test_grid_gradient_of_the_action``).
So criteria 5 and 6 measure how far a fixed grid is from being stationary
in its own points.  The first equation makes the action stationary in the
values only; a fixed grid admits no inner variations, and for the
state- and time-coupled integrands of criteria 5 and 6 the gradient is
not zero at their extremals.  The survivor-action clause of
criterion 2 fails because the zero trajectory of the quartic problem
survives the second-equation filter with action 1.  The surrounding tests
document the true behavior.
"""

import time
from pathlib import Path

import numpy as np

from conftest import random_exact_scale, rel_err, trajectory_from_slopes
from helpers import (
    at_point,
    finite_difference_partial,
    frame_partials,
    load_report,
    random_checked_pair,
)
from tsvar import (
    GridFunction,
    Lagrangian,
    TimeScale,
    Transformation,
    VariationalProblem,
    check_conservation,
    classical_check,
    cli,
    conserved_quantity,
    delta_derivative,
    delta_integral,
    enumerate_slope_extremals,
    filter_second_el,
    first_el_residual,
    invariance_residual,
    pushforward,
    second_el_residual,
    solve_newton,
)

ROOT = Path(__file__).resolve().parents[1]
QUADRATIC_FILE = ROOT / "problems" / "quadratic.json"


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def quartic_problem():
    return VariationalProblem(
        TimeScale.uniform(0, 1, 0.125),
        Lagrangian(1, "(v1^2 - 1)^2"),
        [0.0],
        [0.0],
    )


def test_criterion_1_quadratic_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "report.json"
    code = cli.main(["solve", str(QUADRATIC_FILE), "--json", str(out)])
    report = load_report(out)
    points = np.array(report["points"])
    values = np.array(report["values"])[:, 0]
    trajectory_err = float(np.max(np.abs(values - (2.0 * points + 0.0))))
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and trajectory_err <= 1e-12
        and report["first_el"] <= 1e-12
        and report["second_el"] <= 1e-12
        and elapsed < 1.0
    )
    _report(
        "criterion 1",
        ok,
        f"solve -> c*t + k with c=2, k=0 (err {trajectory_err:.2e}), "
        f"residuals {report['first_el']:.2e}/{report['second_el']:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_quartic_filtering_counts_and_membership():
    t0 = time.perf_counter()
    p = quartic_problem()
    cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
    survivors = filter_second_el(cands, tol=1e-8)
    qt = (1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0)
    rejected = [c for c in cands if c.second_el > 1e-8]
    elapsed = time.perf_counter() - t0
    ok = (
        len(cands) == 1107
        and len(survivors) == 71
        and any(c.slopes == qt for c in cands)
        and not any(c.slopes == qt for c in survivors)
        and all(c.action > 0 for c in rejected)
        and elapsed < 10.0
    )
    _report(
        "criterion 2 (counts/membership)",
        ok,
        f"{len(cands)} extremals, {len(survivors)} survivors, "
        f"mixed-slope candidate filtered, rejected actions > 0, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_every_survivor_has_action_zero():
    # the zero trajectory survives the filter with action 1, so this
    # clause cannot hold; kept at the stated tolerance regardless
    p = quartic_problem()
    survivors = filter_second_el(
        enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8), tol=1e-8
    )
    worst = max(abs(c.action) for c in survivors)
    ok = worst == 0.0
    _report(
        "criterion 2 (survivor actions)",
        ok,
        f"max |action| over survivors = {worst} (zero trajectory has action 1)",
    )
    assert ok


def test_criterion_3_conserved_quantity_constant_generators():
    t0 = time.perf_counter()
    scale = TimeScale.uniform(0, 1, 0.125)
    p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [2.0])
    q = solve_newton(p)
    c = 2.0
    worst_dev = 0.0
    worst_val = 0.0
    for r, s in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        tr = Transformation.from_text(1, f"{r}", f"{s}")
        cons = conserved_quantity(p, q, tr).component(0)
        worst_dev = max(worst_dev, float(cons.max() - cons.min()))
        worst_val = max(worst_val, float(np.max(np.abs(cons - (2 * s * c - r * c * c)))))
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-12 and worst_val <= 1e-12 and elapsed < 1.0
    _report(
        "criterion 3",
        ok,
        f"conserved = 2sc - rc^2 for (r,s) in {{(1,0),(0,1),(1,1)}}, "
        f"deviation {worst_dev:.2e}, value error {worst_val:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_calculus_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    tol = 1e-12
    worst = 0.0
    for _ in range(200):
        T = random_exact_scale(rng, 3, 50)
        n = T.n
        f = GridFunction(T, rng.uniform(-10, 10, (n, 1)))
        g = GridFunction(T, rng.uniform(-10, 10, (n, 1)))
        df = delta_derivative(f)
        dg = delta_derivative(g)

        # shift formula
        for i in range(n - 1):
            worst = max(
                worst,
                rel_err(f.values[i] + T.mu(i) * df.values[i], f.values[i + 1]),
            )
        # product rule, both forms
        dp = delta_derivative(GridFunction(T, f.values * g.values))
        for i in range(n - 1):
            form1 = df.values[i] * g.values[i + 1] + f.values[i] * dg.values[i]
            form2 = df.values[i] * g.values[i] + f.values[i + 1] * dg.values[i]
            worst = max(worst, rel_err(form1, dp.values[i]))
            worst = max(worst, rel_err(form2, dp.values[i]))
        # fundamental theorem
        worst = max(
            worst,
            rel_err(delta_integral(df, 0, n - 1), f.values[-1] - f.values[0]),
        )
        # monotonicity in all four sign cases
        slopes = rng.uniform(0.1, 2.0, n - 1)
        for sign, strict in ((1.0, True), (-1.0, True), (1.0, False), (-1.0, False)):
            s = slopes.copy()
            if not strict:
                s[rng.integers(0, n - 1)] = 0.0
            vals = np.concatenate([[0.0], np.cumsum(sign * s * np.diff(T.points))])
            d = delta_derivative(GridFunction(T, vals)).component(0)
            diffs = np.diff(vals)
            if strict:
                assert np.all(sign * d > 0) and np.all(sign * diffs > 0)
            else:
                assert np.all(sign * d >= 0) and np.all(sign * diffs >= 0)
        # change of scale: chain rule, inverse derivative, substitution
        nu_vals = T.points[0] + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.1, 1.5, n - 1))]
        )
        image, f_img, nud = pushforward(T, GridFunction(T, nu_vals), f)
        d_tilde = delta_derivative(f_img)
        composed = delta_derivative(GridFunction(T, f.values))
        for i in range(n - 1):
            worst = max(
                worst,
                rel_err(d_tilde.values[i] * nud.values[i], composed.values[i]),
            )
        inverse = GridFunction(image, T.points.copy())
        dinv = delta_derivative(inverse)
        for i in range(n - 1):
            worst = max(worst, rel_err(dinv.values[i] * nud.values[i], 1.0))
        lhs_rows = f.values[: n - 1, 0] * nud.component(0)
        lhs = delta_integral(GridFunction(T, lhs_rows), 0, n - 1)[0]
        rhs = delta_integral(f_img, 0, n - 1)[0]
        worst = max(worst, rel_err(lhs, rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and elapsed < 5.0
    _report(
        "criterion 4",
        ok,
        f"200 random scales, worst relative error {worst:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_5_second_equation_on_convex_extremals():
    # fails: along a Newton extremal the DuBois-Reymond quantity is not
    # exactly conserved once the integrand depends on u (or on t on a
    # nonuniform grid); kept at the stated tolerance
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    converged = 0
    worst = 0.0
    for _ in range(100):
        scale = random_exact_scale(rng, 4, 10)
        c1 = float(rng.uniform(0.0, 1.0))
        c2 = float(rng.uniform(-1.0, 1.0))
        L = Lagrangian(1, f"v1^2 + {c1:.8f}*u1^2 + {c2:.8f}*t*u1")
        p = VariationalProblem(
            scale, L, [float(rng.uniform(-1, 1))], [float(rng.uniform(-1, 1))]
        )
        q = solve_newton(p)
        if first_el_residual(p, q).magnitude > 1e-10:
            continue
        converged += 1
        worst = max(worst, second_el_residual(p, q).magnitude)
    elapsed = time.perf_counter() - t0
    ok = converged > 0 and worst <= 1e-8 and elapsed < 30.0
    _report(
        "criterion 5",
        ok,
        f"{converged}/100 converged, worst second-equation residual "
        f"{worst:.3e} (target 1e-8), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_graininess_term():
    # fails on its second half: the corrected residual is O(h), not 1e-8
    t0 = time.perf_counter()
    h = 0.1
    scale = TimeScale.uniform(1.0, 2.0, h)
    L = Lagrangian(1, "t*v1^2")
    p = VariationalProblem(scale, L, [0.0], [2.0])
    q = solve_newton(p)
    qd = delta_derivative(q)
    classical = []
    for i in range(qd.valid):
        t, u, v = scale.points[i], q.values[scale.sigma(i)], qd.values[i]
        value, _, _, Lv = frame_partials(L, t, u, v)
        classical.append(-value + float(Lv @ v))
    classical = np.array(classical)
    drift = float(classical.max() - classical.min())
    corrected = second_el_residual(p, q).magnitude
    elapsed = time.perf_counter() - t0
    ok = drift > 10 * h and corrected <= 1e-8 and elapsed < 1.0
    _report(
        "criterion 6",
        ok,
        f"classical drift {drift:.3f} (> {10 * h}), corrected residual "
        f"{corrected:.3e} (target 1e-8), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_classical_limit_refinement():
    t0 = time.perf_counter()
    mags = []
    for resolution in (101, 201, 401):
        scale = TimeScale.dense_interval(0.0, 1.0, resolution)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1"), [0.0], [1.0])
        q = GridFunction.sample(scale, lambda t: t * t / 4 + 0.75 * t)
        mags.append(classical_check(p, q).magnitude)
    r1 = mags[0] / mags[1]
    r2 = mags[1] / mags[2]
    elapsed = time.perf_counter() - t0
    ok = 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6 and elapsed < 5.0
    _report(
        "criterion 7",
        ok,
        f"residuals {mags[0]:.2e}/{mags[1]:.2e}/{mags[2]:.2e}, "
        f"refinement factors {r1:.2f}, {r2:.2f}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_8_forward_mode_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    variables = ("t", "u1", "v1")
    worst = 0.0
    for _ in range(1000):
        expr, env = random_checked_pair(rng, variables)
        for var in variables:
            ad = at_point(expr, env, var)[1]
            fd = finite_difference_partial(expr, var, env)
            worst = max(worst, abs(ad - fd) / max(1.0, abs(ad)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(
        "criterion 8",
        ok,
        f"1000 expression/point pairs, worst relative gap {worst:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert ok
