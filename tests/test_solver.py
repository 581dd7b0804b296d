import itertools
import json
import re
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import random_exact_scale
from helpers import FD_STEP, column_jacobian, loop_enumerate, lq_first_el_root, march
from tsvar import (
    Candidate,
    ExprDomainError,
    Extremals,
    GridFunction,
    Lagrangian,
    NewtonOptions,
    NoConvergence,
    Provenance,
    SingularSystem,
    TimeScale,
    VariationalProblem,
    action,
    affine_extremal,
    enumerate_slope_extremals,
    filter_second_el,
    first_el_residual,
    second_el_residual,
    solve,
    solve_newton,
)
from tsvar import cli, expr, solver
from tsvar.solver import _reads_only_slope
from tsvar.variational import Evaluation, _frames, evaluate

QUARTIC = Path(__file__).resolve().parents[1] / "problems" / "quartic.json"

QT = (1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0)


def quartic_problem():
    return VariationalProblem(
        TimeScale.uniform(0, 1, 0.125),
        Lagrangian(1, "(v1^2 - 1)^2"),
        [0.0],
        [0.0],
    )


class TestAffineExtremal:
    def test_slope_two(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [2.0]
        )
        q = affine_extremal(p)
        assert np.allclose(q.component(0), 2.0 * p.scale.points, atol=1e-15)

    def test_flat_boundaries(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.25), Lagrangian(1, "v1^2"), [3.0], [3.0]
        )
        assert np.all(affine_extremal(p).values == 3.0)

    def test_shifted_interval_intercept(self):
        p = VariationalProblem(
            TimeScale.uniform(1, 3, 0.5), Lagrangian(1, "v1^2"), [5.0], [5.0]
        )
        q = affine_extremal(p)
        assert np.all(q.values == 5.0)  # c = 0, k = 5

    def test_ends_pinned_on_large_boundary_values(self):
        # c*t + k can miss q_a or q_b by rounding beyond the boundary check;
        # the ends must be exact and the interior must stay c*t + k
        rng = np.random.default_rng(7)
        missed = 0
        for _ in range(200):
            scale = TimeScale.from_points(np.sort(rng.uniform(-5, 5, 7)))
            qa, qb = rng.uniform(-1e4, 1e4, (2, 1))
            p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1^2"), qa, qb)
            q = affine_extremal(p)
            c = (qb - qa) / (scale.b - scale.a)
            k = (scale.b * qa - scale.a * qb) / (scale.b - scale.a)
            line = scale.points[:, None] * c + k
            missed += np.max(np.abs(line[[0, -1]] - [qa, qb])) > 1e-12
            assert np.array_equal(q.values[[0, -1]], [qa, qb])
            assert np.array_equal(q.values[1:-1], line[1:-1])
            try:  # the default guess passes the boundary check
                solve_newton(p, opts=NewtonOptions(max_iter=1))
            except NoConvergence:
                pass
        assert missed > 0


class TestNewton:
    def test_immediate_convergence_on_quadratic(self):
        # linear residual system: the first step with the exact Jacobian
        # lands at the root to rounding
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [2.0]
        )
        rng = np.random.default_rng(0)
        init_vals = affine_extremal(p).values.copy()
        init_vals[1:-1] += rng.uniform(-3, 3, (p.scale.n - 2, 1))
        init = GridFunction(p.scale, init_vals)
        one_step = solve_newton(p, init, NewtonOptions(max_iter=1, tol=1e-12))
        assert np.max(np.abs(one_step.values - affine_extremal(p).values)) <= 1e-12

    def test_quartic_lands_in_oracle_set(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        zero_init = GridFunction(p.scale, np.zeros(p.scale.n))
        q = solve_newton(p, zero_init)
        assert first_el_residual(p, q).magnitude <= 1e-10
        hit = min(
            float(np.max(np.abs(q.values - c.trajectory.values))) for c in cands
        )
        assert hit <= 1e-8

    def test_boundary_violation_rejected(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [2.0]
        )
        bad = GridFunction(p.scale, np.ones(p.scale.n))
        with pytest.raises(ValueError):
            solve_newton(p, bad)

    def test_dense_scale_rejected(self):
        scale = TimeScale.dense_interval(0, 1, 11)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [1.0])
        with pytest.raises(ValueError):
            solve_newton(p)

    def test_no_convergence_carries_history(self):
        # the guess and each of the max_iter accepted steps, each lower than
        # the one before; the trajectory is the last of them
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125),
            Lagrangian(1, "(v1^2 - 1)^2 + u1^2"),
            [0.0],
            [0.5],
        )
        with pytest.raises(NoConvergence) as err:
            solve_newton(p, opts=NewtonOptions(tol=1e-10, max_iter=2))
        history = err.value.history
        assert len(history) == 3
        assert history[0] > history[1] > history[2] > 1e-10
        assert err.value.trajectory.valid == p.scale.n
        assert first_el_residual(p, err.value.trajectory).magnitude == history[-1]

    def test_no_convergence_message_counts_newton_steps(self):
        # the history holds the guess and one entry per accepted step
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125),
            Lagrangian(1, "(v1^2 - 1)^2 + u1^2"),
            [0.0],
            [0.5],
        )
        with pytest.raises(NoConvergence) as err:
            solve_newton(p, opts=NewtonOptions(max_iter=1, tol=1e-14))
        assert str(err.value) == (
            "no convergence after 1 Newton step(s); "
            "history = ['8.750e-01', '3.742e-01']"
        )

    def test_singular_system_detected(self):
        # L = t*u1 has residual -t independent of q: zero Jacobian
        scale = TimeScale.uniform(1, 2, 0.25)
        p = VariationalProblem(scale, Lagrangian(1, "t*u1"), [0.0], [1.0])
        with pytest.raises(
            SingularSystem, match=r"^jacobian condition estimate exceeds 1e\+14$"
        ):
            solve_newton(p)

    def test_scale_invariance_of_fixed_points(self):
        rng = np.random.default_rng(5)
        scale = random_exact_scale(rng, 5, 8)
        qa, qb = rng.uniform(-1, 1, 2)
        trajectories = []
        for alpha in (1, 10):
            L = Lagrangian(1, f"{alpha}*(v1^2 + u1^2)")
            p = VariationalProblem(scale, L, [qa], [qb])
            trajectories.append(solve_newton(p).values)
        assert np.max(np.abs(trajectories[0] - trajectories[1])) <= 1e-8

    def test_nan_start_rejected(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [2.0]
        )
        values = affine_extremal(p).values.copy()
        values[0] = np.nan
        with pytest.raises(ValueError, match="trajectory start"):
            solve_newton(p, GridFunction(p.scale, values))

    def test_stops_at_rounding_floor_on_a_fine_grid(self):
        # the first-EL rows round at about eps*|q|/mu^2, above the absolute
        # 1e-10 at 401 points; the history is 3.99, 2.2e-10
        scale = TimeScale.uniform(1, 2, 1 / 400)
        p = VariationalProblem(scale, Lagrangian(1, "t*v1^2 + u1^2"), [0.0], [2.0])
        q = solve_newton(p)
        assert 1e-10 < first_el_residual(p, q).magnitude < 3e-10

    def test_large_boundary_values_converge(self):
        # with |q| up to 1e4 the residual's rounding floor exceeds the
        # absolute tol on 18 of these; every one converges to the root of
        # the linear first-EL system
        # ((q_{i+2} - q_{i+1})/mu_{i+1} - (q_{i+1} - q_i)/mu_i)/mu_i = q_{i+1}
        rng = np.random.default_rng(0)
        for _ in range(200):
            scale = TimeScale.from_points(np.sort(rng.uniform(-5, 5, 7)))
            qa, qb = rng.uniform(-1e4, 1e4, 2)
            p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1^2"), [qa], [qb])
            q = solve_newton(p).values[:, 0]
            mu = scale.mus[:-1]
            A = np.zeros((5, 7))
            for i in range(5):
                A[i, i : i + 3] = [1 / mu[i], -1 / mu[i] - 1 / mu[i + 1], 1 / mu[i + 1]]
                A[i] /= mu[i]
                A[i, i + 1] -= 1.0
            exact = np.linalg.solve(A[:, 1:-1], -A[:, 0] * qa - A[:, -1] * qb)
            assert np.max(np.abs(q[1:-1] - exact)) <= 1e-9 * max(abs(qa), abs(qb))

    def test_linear_quadratic_roots_match_a_direct_solve(self):
        # L = sum_k (a_k + b_k t) v_k^2 + u^T C u has a linear first-EL
        # system; Newton's root is that system's, assembled independently
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            scale = random_exact_scale(rng, 3, 61)
            t = scale.points
            b = rng.uniform(-1, 1, n).tolist()
            # a + b t > 0 on the scale
            a = (np.abs(b) * np.max(np.abs(t)) + rng.uniform(0.5, 2, n)).tolist()
            G = rng.uniform(-1, 1, (n, n))
            C = G @ G.T + 0.5 * np.eye(n)
            terms = [f"({a[k]!r} + {b[k]!r}*t)*v{k + 1}^2" for k in range(n)]
            terms += [
                f"{float(C[i, j])!r}*u{i + 1}*u{j + 1}"
                for i in range(n) for j in range(n)
            ]
            q_a, q_b = rng.uniform(-100, 100, (2, n))
            p = VariationalProblem(scale, Lagrangian(n, " + ".join(terms)), q_a, q_b)
            q = solve_newton(p).values
            exact = lq_first_el_root(scale, a, b, C, q_a, q_b)
            bound = 1e-9 * (1 + np.max(np.abs(exact)))
            assert np.max(np.abs(q - exact)) <= bound

    def test_extremals_match_the_discrete_euler_lagrange_map(self):
        # the march shares only the kernel's partials with Newton; marched
        # from q_0 and q_1 it rounds a little more with each step, so the
        # bound grows with N (worst read 2.5e-14 N over 440 such problems)
        rng = np.random.default_rng(27)
        for _ in range(40):
            n, N = int(rng.integers(1, 4)), int(rng.integers(6, 40))
            points = np.cumsum([0.0, *rng.uniform(0.02, 0.1, N - 1)])
            terms = [f"v{k}^2 + 0.5*u{k}^2 + 0.1*t*v{k}^4" for k in range(1, n + 1)]
            terms += ["0.3*u1*v2"] if n >= 2 else []
            q_a, q_b = rng.uniform(-1, 1, (2, n))
            p = VariationalProblem(
                TimeScale.from_points(points), Lagrangian(n, " + ".join(terms)), q_a, q_b
            )
            q = solve(p).trajectory.values
            gap = np.max(np.abs(march(p, q[0], q[1]) - q))
            assert gap <= 1e-13 * N * (1 + np.max(np.abs(q))), (p.lagrangian, p.scale)

    def test_each_iterate_evaluated_once(self, monkeypatch, count_calls):
        # the guess is checked without a kernel pass and evaluated pinned,
        # the evaluation of the accepted trial step is the next iterate's,
        # and each Hessian is one second-order pass along its iterate's
        # own record
        calls = count_calls(Lagrangian, "partials")
        seen, records, along_hessians = [], [], []
        alongs, hessian = solver._alongs, Evaluation.hessian

        def recording(p, Q, *args):
            seen.append(Q.tobytes())
            records.append(alongs(p, Q, *args))
            return records[-1]

        def recording_hessian(e, *args):
            along_hessians.append(e)
            return hessian(e, *args)

        monkeypatch.setattr(solver, "_alongs", recording)
        monkeypatch.setattr(Evaluation, "hessian", recording_hessian)
        solve_newton(newton_problem())
        # one step, no halvings: the guess and the accepted step, each once
        # in a first-order pass, and the guess once more in the Hessian's
        assert len(seen) == 2
        assert len(set(seen)) == len(seen)
        assert len(along_hessians) == 1 and along_hessians[0] is records[0]
        assert len(calls) == 2 + 1

    def test_ends_off_by_rounding_give_the_same_bits(self, count_calls):
        # ends within BOUNDARY_TOL of q_a and q_b: the guess is checked
        # without a kernel pass and only its pinned trajectory is evaluated,
        # so the solve makes as many kernel passes as from the exact ends
        p = newton_problem()
        exact = affine_extremal(p)
        calls = count_calls(Lagrangian, "partials")
        q_exact = solve_newton(p, exact)
        assert len(calls) == 3
        for shift in (1e-13, -1e-13):
            values = exact.values.copy()
            values[0] += shift
            values[-1] -= shift
            before = len(calls)
            q = solve_newton(p, GridFunction(p.scale, values))
            assert len(calls) - before == 3
            assert q.values.tobytes() == q_exact.values.tobytes()
            assert q.values[0, 0] == p.q_a[0] and q.values[-1, 0] == p.q_b[0]

    def test_domain_error_in_the_second_partials_names_the_subexpression(self):
        # u1^1.5 is differentiable once at u1 = 0 but not twice; the guess
        # meets 0 at the interior point t = 0.5, where the Hessian reads
        # L_uu: its residual is finite, and the Hessian's pass raises rather
        # than fill H with inf or NaN
        scale = TimeScale.uniform(0, 1, 0.125)
        p = VariationalProblem(scale, Lagrangian(1, "u1^1.5 + v1^2"), [1.0], [1.0])
        guess = GridFunction(scale, 2 * np.abs(scale.points - 0.5)[:, None])
        assert guess.values[4, 0] == 0.0
        assert np.isfinite(first_el_residual(p, guess).magnitude)
        with pytest.raises(ExprDomainError) as err:
            solve_newton(p, guess)
        assert str(err.value) == (
            "power not twice differentiable at zero base in 'u1^1.5'"
        )

    @pytest.mark.parametrize(
        "body, q_b", [("u1^1.5 + v1^2", 0.0), ("t^1.5*v1^2 + u1^2", 2.0)]
    )
    def test_second_partials_the_band_does_not_read_may_be_undefined(self, body, q_b):
        # L_uu of u1^1.5 at the last frame, whose u is q_b = 0, and L_tt of
        # t^1.5 at t_0 = 0 are unbounded, and the full second-order pass
        # raises there; the Hessian reads neither, so it is taken, agrees
        # with -mu times the column oracle within its forward-difference
        # truncation (measured 1.6e-9 of the largest entry), and Newton
        # converges
        scale = TimeScale.uniform(0, 1, 0.125)
        p = VariationalProblem(scale, Lagrangian(1, body), [1.0], [q_b])
        Q = affine_extremal(p).values
        with pytest.raises(ExprDomainError, match="not twice differentiable"):
            p.lagrangian.partials(*_frames(scale, Q), order=2)
        residual, x = first_el_vector(p), Q[1:-1].ravel()
        H = hessian_matrix(p, Q)
        reference = -row_mus(p)[:, None] * column_jacobian(
            residual, x, residual(x), FD_STEP
        )
        assert np.max(np.abs(H - reference)) <= 1e-8 * np.max(np.abs(H))
        q = solve_newton(p)
        assert first_el_residual(p, q).magnitude <= NewtonOptions().tol

    def test_trial_step_outside_the_domain_is_a_failed_trial(self, monkeypatch):
        # exp(u1) is finite along the affine guess, but two trial steps
        # overflow it; each is halved as a trial that fails to lower the
        # residual, and the solve goes on, to a singular Hessian here,
        # rather than end as an input error
        scale = TimeScale.uniform(0, 1, 0.038461538461538464)
        L = Lagrangian(1, "log(v1^2 + 1) + exp(u1)")
        p = VariationalProblem(scale, L, [0.0], [5.0])
        assert np.isfinite(first_el_residual(p, affine_extremal(p)).magnitude)
        outcomes, iterate = [], solver._iterate

        def recording(p, x):
            try:
                outcomes.append(iterate(p, x))
            except ExprDomainError as exc:
                outcomes.append(exc)
                raise
            return outcomes[-1]

        monkeypatch.setattr(solver, "_iterate", recording)
        with pytest.raises(
            SingularSystem, match=r"^jacobian condition estimate exceeds 1e\+14$"
        ):
            solve_newton(p)
        failed = [i for i, x in enumerate(outcomes) if isinstance(x, ExprDomainError)]
        assert len(failed) == 2
        assert str(outcomes[failed[0]]) == "result overflows in 'exp(u1)'"
        assert failed[-1] < len(outcomes) - 1

    def test_last_iterate_is_tested_against_its_own_floor(self, monkeypatch):
        # the iterate of step max_iter is judged by the floor of the
        # Hessian built there before NoConvergence is raised, and before
        # that Hessian's condition is checked: here a singular stand-in,
        # zero diagonal blocks between 7 unknowns, whose floor covers the
        # step's residual stops the solve, whatever max_iter is
        scale = TimeScale.uniform(0, 1, 0.125)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1^4"), [0.0], [2.0])
        with pytest.raises(NoConvergence) as err:
            solve_newton(p, opts=NewtonOptions(max_iter=1))
        step = err.value.trajectory.values
        eps = np.finfo(float).eps
        # every unknown is some row's neighbour, so the floor is at least
        # eps * big/mu * max|x|
        big = 2 * err.value.history[-1] * 0.125 / (eps * np.max(np.abs(step[1:-1])))
        calls, hessian = [], Evaluation.hessian

        def second_singular(*args):
            calls.append(None)
            D, E = hessian(*args)
            if len(calls) == 1:
                return D, E
            return np.zeros_like(D), np.full_like(E, big)

        monkeypatch.setattr(Evaluation, "hessian", second_singular)
        for max_iter in (1, 2):
            calls.clear()
            q = solve_newton(p, opts=NewtonOptions(max_iter=max_iter))
            assert len(calls) == 2
            assert q.values.tobytes() == step.tobytes()

    def test_guess_at_its_rounding_floor_converges_without_a_step(self, monkeypatch):
        # the guess's residual, about 1.4e-10 of rounding, is above tol but
        # within the floor of the Hessian built at the guess; before, no
        # step could lower it and the solve failed with NoConvergence
        scale = TimeScale.uniform(0, 1, 1 / 200)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + 0*u1"), [0.0], [10.0])
        guess = affine_extremal(p)
        assert first_el_residual(p, guess).magnitude > NewtonOptions().tol
        solves, hessians, hessian = [], [], Evaluation.hessian

        def counted(*args):
            hessians.append(None)
            return hessian(*args)

        monkeypatch.setattr(Evaluation, "hessian", counted)
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(a))
        q = solve_newton(p)
        assert (len(hessians), solves) == (1, [])
        assert q.values.tobytes() == guess.values.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_same_iterates_as_the_one_column_jacobian(self, seed, monkeypatch):
        # Newton with the exact Hessian against Newton with -mu times the
        # one-column-at-a-time forward-difference Jacobian of the one-
        # trajectory residual: the same verdict, iterates that agree within
        # what the stop test cannot tell apart, and no more steps
        rng = np.random.default_rng(seed)
        n, N = 1 + seed % 3, int(rng.integers(3, 202))
        kind = sorted(JACOBIAN_TERMS)[seed % len(JACOBIAN_TERMS)]
        body = " + ".join(
            JACOBIAN_TERMS[kind].format(j=j, k=j % n + 1) for j in range(1, n + 1)
        )
        h = 2.0 / (N - 1)
        scale = TimeScale.from_points(
            0.5 + np.arange(N) * h + rng.uniform(-0.3, 0.3, N) * h
        )
        p = VariationalProblem(
            scale, Lagrangian(n, body), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
        )
        opts = NewtonOptions(max_iter=6)
        residual, linear_solve = first_el_vector(p), np.linalg.solve

        def outcome():
            steps = []

            def counted(*args):
                steps.append(None)
                return linear_solve(*args)

            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", counted)
                try:
                    return solve_newton(p, opts=opts).values, len(steps)
                except (NoConvergence, SingularSystem) as exc:
                    return type(exc), len(steps)

        exact, exact_steps = outcome()
        mus = row_mus(p)[:, None]
        if not isinstance(exact, type):  # the residual's Jacobian there
            J = -hessian_matrix(p, exact) / mus

        def oracle_hessian(e, k=0):  # the blocks of -mu J's symmetric part
            x = e.Q[1:-1].ravel()
            H = -mus * column_jacobian(residual, x, residual(x), FD_STEP)
            return blocks(np.ldexp((H + H.T) / 2, -k), n)

        monkeypatch.setattr(Evaluation, "hessian", oracle_hessian)
        oracle, oracle_steps = outcome()
        assert exact_steps <= oracle_steps
        assert isinstance(exact, type) == isinstance(oracle, type)
        if isinstance(oracle, type):
            assert exact is oracle
            return
        # both stopped at |F| <= max(tol, floor), and F(x_o) - F(x_e) is
        # J (x_o - x_e) to first order: at most the two final residuals,
        # plus the rounding of the product
        x_e, x_o = exact[1:-1].ravel(), oracle[1:-1].ravel()
        stops = np.max(np.abs(residual(x_e))) + np.max(np.abs(residual(x_o)))
        rounding = 8 * np.finfo(float).eps * np.max(np.abs(J) @ np.abs(x_e))
        assert np.max(np.abs(J @ (x_o - x_e))) <= stops + rounding

    @pytest.mark.parametrize(
        "options",
        [{"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": -1.0}],
    )
    def test_options_reject_non_finite_or_non_positive(self, options):
        with pytest.raises(ValueError, match="positive and finite"):
            NewtonOptions(**options)

    @pytest.mark.parametrize("max_iter", [2.5, 2.0, "3"])
    def test_options_reject_a_non_integer_max_iter(self, max_iter):
        # range() would raise a bare TypeError inside the solve
        message = f"^max_iter must be an integer, got {re.escape(repr(max_iter))}$"
        with pytest.raises(ValueError, match=message):
            NewtonOptions(max_iter=max_iter)

    def test_options_take_a_numpy_integer_max_iter(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.25), Lagrangian(1, "v1^4 + u1^2"), [0.0], [1.0]
        )
        q = solve_newton(p, opts=NewtonOptions(max_iter=np.int64(50)))
        assert q.values.tobytes() == solve_newton(p).values.tobytes()


def first_el_vector(p):
    """Newton's residual, one trajectory per evaluation: interior values,
    between the ends q_a and q_b, to stacked first-EL rows."""

    def residual(x):
        values = np.vstack([p.q_a, x.reshape(-1, p.dim), p.q_b])
        return evaluate(p, GridFunction(p.scale, values)).first_el().values.ravel()

    return residual


def row_mus(p):
    """The graininess mu_i of each of Newton's rows, row block i being
    first-EL row i: the Hessian's row is -mu_i times the Jacobian's."""
    return np.repeat(p.scale.mus[:-2], p.dim)


def hessian_matrix(p, Q):
    """The dense Hessian of p's action in the interior values, at the
    trajectory values Q."""
    return solver._dense(*solver._alongs(p, Q).hessian())


def blocks(H, n):
    """The diagonal n x n blocks of the block-tridiagonal H and the blocks
    above them."""
    m = H.shape[0] // n
    H, i = H.reshape(m, n, m, n), np.arange(m)
    return H[i, :, i], H[i[:-1], :, i[1:]]


JACOBIAN_TERMS = {
    "polynomial": "t*v{j}^2 + u{j}^3*v{k} + 0.5*u{j}*u{k}",
    "exp": "exp(v{j}/3)*u{k} + v{j}^2",
    "sin": "sin(u{j} + v{k}) + v{j}^2",
    "sqrt": "sqrt(v{j}^2 + u{k}^2 + 1) + v{j}^2",
    "real power": "t^1.5*u{j}^2*v{k} + v{j}^2",
}


# the symbolic oracle's bodies: linear-quadratic in t, the quartic, and
# exp and sin, each coupling u and v across components, unsymmetrically
SYMBOLIC_BODIES = (
    "(1 + t)*v{j}^2 + {j}*t*u{j}*v{k} + 0.5*u{j}*u{k}",
    "(v{j}^2 - 1)^2 + 0.5*u{j}^4 + {j}*u{j}*v{k}",
    "exp(v{j}/3)*sin(u{k}) + t*v{j}^2 + sin(u{j} + v{k})",
)

# n = 1, 2, 3: Newton takes one step on uniform [1, 2] from q = -1 to q = 1
COUNT_BODIES = (
    "t*v1^2 + u1^2",
    "t*v1^2 + v2^2 + u1*u2 + u1^2 + u2^2",
    "t*v1^2 + v2^2 + v3^2 + u1^2 + u2^2 + u3^2",
)


class TestJacobian:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_trajectory_record_gives_newtons_blocks(self, n):
        # the record the library's residuals read, built from a checked
        # trajectory, and the record of Newton's iterate with the same
        # values give the same blocks, bit for bit
        rng = np.random.default_rng(n)
        for kind in sorted(JACOBIAN_TERMS):
            body = " + ".join(
                JACOBIAN_TERMS[kind].format(j=j, k=j % n + 1) for j in range(1, n + 1)
            )
            scale = TimeScale.from_points(np.sort(rng.uniform(0.5, 2.5, 9)))
            q_a, q_b = rng.uniform(-1, 1, (2, n))
            p = VariationalProblem(scale, Lagrangian(n, body), q_a, q_b)
            x = rng.uniform(-1, 1, 7 * n)
            iterate, _ = solver._iterate(p, x)
            q = GridFunction(scale, np.vstack([q_a, x.reshape(-1, n), q_b]))
            for k in (0, 3):
                got = evaluate(p, q).hessian(k)
                want = iterate.hessian(k)
                for a, b in zip(got, want, strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(JACOBIAN_TERMS))
    def test_equals_column_by_column_reference(self, kind, n):
        # the Hessian of the action is -mu J, J being the residual's
        # Jacobian.  The one-column forward difference of column k with
        # step s is J e_k + (s/2) R'' e_k e_k + O(s^2), and R'' e_k e_k is
        # (J(x + s e_k) - J(x)) e_k / s to first order: so each entry of
        # -mu times the reference is within |H(x + s e_k) - H(x)| e_k, twice
        # its leading truncation, plus 16 eps * mu_r * c_r / s for the
        # rounding of residual row r, c_r = (|L_v(i+1)| + |L_v(i)|)/mu_i +
        # |L_u(i)|; the worst entry reaches half of that bound with 8 in
        # place of 16.  And H is exactly symmetric
        rng = np.random.default_rng(n)
        body = " + ".join(
            JACOBIAN_TERMS[kind].format(j=j, k=j % n + 1) for j in range(1, n + 1)
        )
        eps = np.finfo(float).eps
        for N in (3, 4, 5, 9, 17):
            h = 2.0 / (N - 1)
            jitter = rng.uniform(-0.3, 0.3, N) * h
            scale = TimeScale.from_points(0.5 + np.arange(N) * h + jitter)
            p = VariationalProblem(
                scale, Lagrangian(n, body), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            )
            residual = first_el_vector(p)
            x = affine_extremal(p).values[1:-1].ravel()
            x = x + rng.uniform(-1, 1, x.size)

            def pinned(x):
                return np.vstack([p.q_a, x.reshape(-1, n), p.q_b])

            H = hessian_matrix(p, pinned(x))
            mus = row_mus(p)[:, None]
            reference = -mus * column_jacobian(residual, x, residual(x), FD_STEP)
            steps = FD_STEP * np.maximum(1.0, np.abs(x))
            moved = x + np.diag(steps)  # row k: x with unknown k stepped
            change = np.column_stack(
                [hessian_matrix(p, pinned(y))[:, k] for k, y in enumerate(moved)]
            ) - H
            e = evaluate(p, GridFunction(scale, pinned(x)))
            mu = scale.mus[: N - 2, None]
            c = ((np.abs(e.Lv[1:]) + np.abs(e.Lv[:-1])) / mu + np.abs(e.Lu[:-1])).ravel()
            bound = np.abs(change) + 16 * eps * mus * c[:, None] / steps
            assert np.all(np.abs(H - reference) <= bound)
            block = np.arange(x.size) // n
            outside = np.abs(block[:, None] - block) > 1
            assert not np.any(H[outside]) and not np.any(reference[outside])
            assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("body", SYMBOLIC_BODIES)
    def test_equals_the_symbolic_hessian_of_the_action(self, body, n):
        # sympy's Hessian of sum_i mu_i L(t_i, q_{i+1}, (q_{i+1} - q_i)/mu_i)
        # in the interior values, taken exactly at the float points and
        # values; every diagonal block comes out exactly symmetric
        sympy = pytest.importorskip("sympy")
        rng = np.random.default_rng(n)
        text = " + ".join(body.format(j=j, k=j % n + 1) for j in range(1, n + 1))
        t = sympy.Symbol("t")
        u, v = sympy.symbols(f"u1:{n + 1}"), sympy.symbols(f"v1:{n + 1}")
        names = {"t": t, **{str(s): s for s in u + v}}
        L = sympy.sympify(text.replace("^", "**"), locals=names)
        q = sympy.Matrix(5, n, lambda i, c: sympy.Symbol(f"q{i}_{c}"))
        for _ in range(3):
            scale = TimeScale.from_points(np.sort(rng.uniform(0.5, 2.5, 5)))
            Q = rng.uniform(-1, 1, (5, n))
            p = VariationalProblem(scale, Lagrangian(n, text), Q[0], Q[-1])
            D, E = solver._alongs(p, Q).hessian()
            action = 0
            for i in range(4):
                mu = sympy.Rational(scale.mus[i])
                frame = {t: sympy.Rational(scale.points[i])}
                for c in range(n):
                    frame[u[c]] = q[i + 1, c]
                    frame[v[c]] = (q[i + 1, c] - q[i, c]) / mu
                action += mu * L.subs(frame, simultaneous=True)
            at = {q[i, c]: sympy.Rational(Q[i, c]) for i in range(5) for c in range(n)}
            want = sympy.hessian(action, list(q[1:4, :])).subs(at).evalf(30)
            want = np.array(want, dtype=float)
            got = solver._dense(D, E)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(D, D.transpose(0, 2, 1))

    @pytest.mark.parametrize("n, body", list(enumerate(COUNT_BODIES, start=1)))
    def test_one_kernel_pass_per_jacobian(self, n, body, monkeypatch):
        # one second-order pass along the one trajectory's record, whatever N
        orders, partials, records = [], Lagrangian.partials, []

        def counted(self, t, U, V, order=1, moving=None):
            orders.append((order, len(t)))
            return partials(self, t, U, V, order, moving)

        for N in (21, 201):
            scale = TimeScale.uniform(1, 2, 1 / (N - 1))
            p = VariationalProblem(scale, Lagrangian(n, body), np.zeros(n), np.ones(n))
            records.append(solver._alongs(p, affine_extremal(p).values))
        monkeypatch.setattr(Lagrangian, "partials", counted)
        for e in records:
            e.hessian()
        assert orders == [(2, 20), (2, 200)]

    def test_infinite_residual_fails_in_the_condition_estimate(self, monkeypatch):
        # the bump overflows the guess's first-EL rows to +-inf, while the
        # exact Hessian there is finite: no step can be solved for, so the
        # solve is refused before any Hessian is built or judged
        def unreachable(*args):
            raise AssertionError("a Hessian was built or judged")

        scale = TimeScale.uniform(0, 1, 0.125)
        p = VariationalProblem(scale, Lagrangian(1, "1e300*v1*v1"), [0.0], [1.0])
        values = affine_extremal(p).values.copy()
        values[4] += 1e7
        assert np.isinf(first_el_residual(p, GridFunction(scale, values)).values).any()
        assert np.all(np.isfinite(hessian_matrix(p, values)))
        monkeypatch.setattr(Evaluation, "hessian", unreachable)
        monkeypatch.setattr(solver, "_Hessian", unreachable)
        monkeypatch.setattr(np.linalg, "cond", unreachable)
        with pytest.raises(SingularSystem, match="^residual has non-finite entries$"):
            solve_newton(p, GridFunction(scale, values))

    def test_overflowing_jacobian_is_one_singular_system(self):
        # gaps of 1e-160: the residual is finite, but its Jacobian's entries,
        # L_vv / mu^2, overflow; that is reported once, as SingularSystem,
        # and not first as a RuntimeWarning (an error in this suite)
        scale = TimeScale.from_points(np.arange(6) * 1e-160)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1^2"), [0.0], [1e-9])
        with pytest.raises(SingularSystem, match="^jacobian has non-finite entries$"):
            solve_newton(p)

    def test_jacobian_overflowing_where_the_hessian_does_not_is_singular(self):
        # gaps of 1e-156: the Hessian's entries, about L_vv / mu = 2e156,
        # are finite, but the residual's Jacobian's, a further 1/mu, are
        # not; the floor and the finiteness are judged in the residual's
        # units, so there is no floor and the solve is refused, not stopped
        # with a first-EL magnitude of 1e214
        scale = TimeScale.from_points(np.arange(8) * 1e-156)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + 0.5*u1^4"), [0.0], [1e-82])
        assert np.all(np.isfinite(hessian_matrix(p, affine_extremal(p).values)))
        with pytest.raises(SingularSystem, match="^jacobian has non-finite entries$"):
            solve_newton(p)

    def test_gaps_above_one_scale_the_hessian_before_its_products(self):
        # gaps of 1e9: mu L_uu = 2e309 overflows in H, but neither F nor its
        # Jacobian, whose entries are L_uu and L_vv / mu^2, does; the system
        # is solved times 2^-30, taken before the products, so it converges
        scale = TimeScale.uniform(0, 8e9, 1e9)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + 1e300*u1^2"), [0.0], [1.0])
        assert np.isinf(hessian_matrix(p, affine_extremal(p).values)).any()
        q = solve_newton(p)
        assert first_el_residual(p, q).magnitude <= NewtonOptions().tol

    def test_gaps_of_1e96_keep_the_right_side_finite(self):
        # gaps of 2e96 and |q| near 1e72: F, about 4e216, is finite, but mu F
        # is not; solved times 2^-k, each of the quartic's Newton steps lowers
        # |F| by a factor of about 3.4, as in F's own units
        scale = TimeScale.from_points(1e98 + np.arange(6) * 2e96)
        p = VariationalProblem(
            scale, Lagrangian(1, "v1^2 + 0.5*u1^4"), [-7.5e71], [-1.4e72]
        )
        with pytest.raises(NoConvergence) as err:
            solve_newton(p, opts=NewtonOptions(max_iter=5))
        history = np.array(err.value.history)
        assert len(history) == 6 and np.all(np.isfinite(history))
        assert np.all(history[1:] < history[:-1] / 3)


def symmetric_blocks(rng, n, m, kind):
    """The blocks (D, E) of a random symmetric block-tridiagonal matrix of
    m x m blocks of n x n, shaped like Newton's Hessian."""
    size = n * m
    block = np.arange(size) // n
    H = np.triu(rng.uniform(-1, 1, (size, size)))
    H += np.triu(H, 1).T
    H[np.abs(block[:, None] - block) > 1] = 0.0
    diagonal, sign = np.diag_indices(size), rng.choice([-1.0, 1.0], size)
    k = rng.integers(size)

    def off():
        return np.abs(H).sum(axis=1) - np.abs(H[diagonal])

    if kind == "strict":  # margins from far above to far below the limit
        margin = 10.0 ** rng.uniform(-15, 0) * rng.uniform(1, 2, size)
        H[diagonal] = sign * (off() + margin * np.maximum(off(), 1.0))
    elif kind == "graded":  # cond near the Varah bound: row and column k scaled down
        s = 10.0 ** rng.uniform(-16, -12)
        H[k] *= s
        H[:, k] *= s
        H[diagonal] = sign * (off() + 1.0)
        H[k, k] = sign[k] * (off()[k] + s)
    elif kind == "weak":  # alpha = 0: some rows only as large as their sums
        H[diagonal] = sign * (off() + (rng.random(size) < 0.5))
    elif kind == "singular":  # a zero row and column
        H[diagonal] = sign * (off() + 1.0)
        H[k] = H[:, k] = 0.0
    return blocks(H, n)  # "free": no dominance asked for


class TestConditionGuard:
    @pytest.mark.parametrize("seed", range(4))
    def test_verdict_equals_the_svds(self, seed, monkeypatch):
        # the guard raises exactly when the condition of H, scaled by a
        # power of two to a largest entry in [0.5, 1), exceeds the limit:
        # np.linalg.cond(H)'s verdict wherever H's singular values do not
        # overflow; whatever the blocks certify has cond at most half the
        # limit.  The one dense build holds the blocks and their mirror,
        # and it is the matrix that a guarded solve hands to LAPACK (here a
        # stub: near the float maximum the LU itself could overflow)
        rng = np.random.default_rng(seed)
        limit = solver.CONDITION_LIMIT
        seen, solved = set(), []
        monkeypatch.setattr(np.linalg, "solve", lambda H, r: solved.append(H) or r)
        for kind in ("strict", "graded", "weak", "free", "singular"):
            for scale in (1.0, 1e-300, 1e300, "overflow"):
                for _ in range(6):
                    n = int(rng.integers(1, 4))
                    D, E = symmetric_blocks(rng, n, int(rng.integers(1, 61)), kind)
                    if scale == "overflow":  # row sums overflow to inf
                        top = max(np.max(np.abs(D)), np.max(np.abs(E), initial=0.0))
                        D, E = D / (top or 1.0) * 1.5e308, E / (top or 1.0) * 1.5e308
                    else:
                        D, E = D * scale, E * scale
                    H = solver._dense(D, E)
                    assert all(map(np.array_equal, blocks(H, n), (D, E)))
                    assert np.array_equal(H, H.T)
                    hessian = solver._Hessian(D, E)
                    certified = hessian.certified()
                    if n > 1:  # stored dense
                        assert certified == varah(np.abs(H), n)
                    exponent = np.frexp(np.max(np.abs(H)))[1]
                    cond = np.linalg.cond(np.ldexp(H, -exponent))
                    try:
                        hessian.solve(np.ones(H.shape[0]))
                        raised = False
                    except SingularSystem as err:
                        assert str(err) == "jacobian condition estimate exceeds 1e+14"
                        raised = True
                    assert raised == (cond > limit)
                    if not raised and not (n == 1 and certified):
                        assert np.array_equal(solved.pop(), H)
                    assert solved == []
                    if scale != "overflow":
                        assert raised == (np.linalg.cond(H) > limit)
                    if certified:
                        assert cond <= limit / 2
                        assert scale != "overflow"
                    seen.add((certified, raised))
        assert seen == {(True, False), (False, False), (False, True)}

    def test_singular_values_near_the_float_maximum(self):
        # np.linalg.cond(H) is inf here, H / 1e300 has cond 2, and the row
        # sums overflow, so the blocks certify nothing; the guard passes H,
        # and LAPACK solves it
        D, E = np.array([[[1.5e308]], [[1.5e308]]]), np.array([[[0.5e308]]])
        H = solver._dense(D, E)
        assert np.isinf(np.linalg.cond(H))
        hessian = solver._Hessian(D, E)
        assert not hessian.certified()
        r = np.array([1e300, -1e300])
        assert np.array_equal(hessian.solve(r), np.linalg.solve(H, r))

    @pytest.mark.parametrize("N", [61, 801])
    def test_dominant_jacobians_skip_the_svd(self, N, monkeypatch):
        calls = count_svds(monkeypatch)
        scale = TimeScale.uniform(1, 2, 1 / (N - 1))
        p = VariationalProblem(scale, Lagrangian(1, "t*v1^2 + u1^2"), [0.0], [2.0])
        solve_newton(p)
        assert calls == []

    def test_other_jacobians_take_one_svd_each(self, monkeypatch):
        # rows of v1^2 - 5*u1^2 on h = 1/8: |H_ii| = 30.75 < 32, their sum
        calls, hessians = count_svds(monkeypatch), []
        hessian = Evaluation.hessian

        def counted(*args):
            hessians.append(None)
            return hessian(*args)

        monkeypatch.setattr(Evaluation, "hessian", counted)
        scale = TimeScale.uniform(0, 1, 0.125)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 - 5*u1^2"), [0.0], [1.0])
        solve_newton(p)
        assert len(calls) == len(hessians) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_same_bits_as_the_svd_only_guard(self, seed, monkeypatch):
        # Newton with every verdict left to np.linalg.cond, so that every
        # step is solved dense, takes the same iterates and stops with the
        # same bits, or fails the same way, wherever no step took the band:
        # n >= 2, and scalar Hessians the blocks do not certify.  Where a
        # certified scalar step was eliminated on its band instead, the two
        # runs differ by rounding only: the same verdict class, and solved
        # trajectories within 1e-12 (1 + max|q|), the sweep's criterion
        rng = np.random.default_rng(seed)
        problems = []
        for dims in ((1, 4), (1, 2)):  # each body again with n = 1
            for body in GUARD_BODIES:
                n, N = int(rng.integers(*dims)), int(rng.integers(3, 30))
                h = 2.0 / (N - 1)
                scale = TimeScale.from_points(
                    0.5 + np.arange(N) * h + rng.uniform(-0.3, 0.3, N) * h
                )
                terms = " + ".join(
                    body.format(j=j, k=j % n + 1) for j in range(1, n + 1)
                )
                q_a, q_b = rng.uniform(-1, 1, (2, n))
                problems.append(
                    VariationalProblem(scale, Lagrangian(n, terms), q_a, q_b)
                )
        verdicts = []
        certified = solver._Hessian.certified

        def recorded(self):
            verdicts.append(certified(self))
            return verdicts[-1]

        def outcomes():
            # per problem: the verdict class, the solved trajectory, the
            # bits of every iterate and result, and the band solves
            runs, hessian, eliminate = [], Evaluation.hessian, solver._eliminate

            def recording(e, *args):
                runs[-1][2].append(e.Q.tobytes())
                return hessian(e, *args)

            def counted(*args):
                runs[-1][3].append(None)
                return eliminate(*args)

            with monkeypatch.context() as m:
                m.setattr(Evaluation, "hessian", recording)
                m.setattr(solver, "_eliminate", counted)
                for p in problems:
                    runs.append(["ok", None, [], []])
                    out = runs[-1][2]
                    try:
                        c = solve(p, NewtonOptions(max_iter=8))
                        runs[-1][1] = c.trajectory.values
                        out.append(c.trajectory.values.tobytes())
                        out.append(repr((c.action, c.first_el, c.second_el)))
                    except NoConvergence as exc:
                        runs[-1][0] = NoConvergence
                        out.append(repr((str(exc), exc.history)))
                        out.append(exc.trajectory.values.tobytes())
                    except SingularSystem as exc:
                        runs[-1][0] = SingularSystem
                        out.append(str(exc))
            return runs

        monkeypatch.setattr(solver._Hessian, "certified", recorded)
        guarded = outcomes()
        monkeypatch.setattr(solver._Hessian, "certified", lambda self: False)
        dense = outcomes()
        assert True in verdicts and False in verdicts
        banded = 0
        for p, (kind, q, bits, band), (dense_kind, q_dense, dense_bits, none) in zip(
            problems, guarded, dense
        ):
            assert none == [] and kind is dense_kind
            if not band:
                assert bits == dense_bits
                continue
            banded += 1
            assert p.dim == 1
            if q is not None:
                bound = 1e-12 * (1 + np.max(np.abs(q_dense)))
                assert np.max(np.abs(q - q_dense)) <= bound
        assert 0 < banded < len(problems)


class TestDenseBound:
    @pytest.mark.parametrize("N, size", [(3, 25 * 2), (20, (2 * 18) ** 2)])
    def test_block_hessian_checked_before_its_pass(self, N, size, monkeypatch):
        # n = 2: the larger of the second-order pass's (2n+1)^2 (N-1) seeds
        # (at N = 3) and the dense H's (n(N-2))^2 entries (at N = 20) is
        # held to MAX_DENSE before the pass runs; at the limit it solves
        scale = TimeScale.uniform(1, 2, 1 / (N - 1))
        L = Lagrangian(2, "t*v1^2 + v2^2 + u1^2 + u1*u2")
        p = VariationalProblem(scale, L, [0.0, 1.0], [2.0, -1.0])
        passes, partials = [], Lagrangian.partials

        def counted(self, *args, order=1, **kwargs):
            passes.append(order)
            return partials(self, *args, order=order, **kwargs)

        monkeypatch.setattr(Lagrangian, "partials", counted)
        monkeypatch.setattr(solver, "MAX_DENSE", size - 1)
        with pytest.raises(ValueError) as err:
            solve(p)
        assert str(err.value) == f"Newton needs {size} floats in one array, above {size - 1}"
        assert passes == [1]
        monkeypatch.setattr(solver, "MAX_DENSE", size)
        assert solve(p).provenance is Provenance.NEWTON
        assert 2 in passes

    def test_the_record_gives_blocks_that_newton_will_not_hold_dense(
        self, monkeypatch
    ):
        # n = 3 on N = 3001: the record's Hessian is 2999 diagonal blocks
        # and 2998 above them, 9 floats each, but Newton's dense H would be
        # (3 * 2999)^2 floats; Newton refuses before its second-order pass
        scale = TimeScale.uniform(1, 2, 1 / 3000)
        p = VariationalProblem(
            scale, Lagrangian(3, COUNT_BODIES[2]), -np.ones(3), np.ones(3)
        )
        D, E = evaluate(p, affine_extremal(p)).hessian()
        assert D.shape == (2999, 3, 3) and E.shape == (2998, 3, 3)
        assert np.all(np.isfinite(D)) and np.all(np.isfinite(E))
        passes, partials = [], Lagrangian.partials

        def counted(self, *args, order=1, **kwargs):
            passes.append(order)
            return partials(self, *args, order=order, **kwargs)

        monkeypatch.setattr(Lagrangian, "partials", counted)
        message = "^Newton needs 80946009 floats in one array, above 50000000$"
        with pytest.raises(ValueError, match=message):
            solve_newton(p)
        assert passes == [1]

    def test_uncertified_scalar_hessian_checked_before_it_is_built(self, monkeypatch):
        # v1^2 - 5*u1^2 on h = 1/8: no step is certified, so each H of 7
        # unknowns goes dense, 49 entries
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2 - 5*u1^2"), [0.0], [1.0]
        )
        dense = solver._dense

        def refused(*args):
            pytest.fail("H built dense over MAX_DENSE")

        monkeypatch.setattr(solver, "_dense", refused)
        monkeypatch.setattr(solver, "MAX_DENSE", 48)
        with pytest.raises(ValueError, match="^Newton needs 49 floats in one array, above 48$"):
            solve_newton(p)
        monkeypatch.setattr(solver, "_dense", dense)
        monkeypatch.setattr(solver, "MAX_DENSE", 49)
        solve_newton(p)

    def test_certified_scalar_steps_are_unbounded(self, monkeypatch):
        # a certified scalar step runs on the band and allocates nothing
        # dense, so no bound applies: the same bits with MAX_DENSE 0
        p = lq_scalar_problem(801)
        want = solve_newton(p).values
        monkeypatch.setattr(solver, "MAX_DENSE", 0)
        assert solve_newton(p).values.tobytes() == want.tobytes()


def certified_band(rng, m, kind):
    """The diagonal and off-diagonal of a random strictly diagonally
    dominant symmetric tridiagonal matrix of m rows: margins up to the row
    sums (plain), or diagonals spread over 2^-20 .. 2^20 with each
    off-diagonal below 0.45 of its smaller neighbour (graded)."""
    sign = rng.choice([-1.0, 1.0], m)
    if kind == "graded":
        d = sign * 2.0 ** rng.uniform(-20, 20, m)
        e = rng.uniform(-0.45, 0.45, m - 1) * np.minimum(abs(d[:-1]), abs(d[1:]))
        return d, e
    e = rng.uniform(-1, 1, m - 1)
    rows = np.zeros(m)
    rows[:-1] += abs(e)
    rows[1:] += abs(e)
    return sign * (rows + rng.uniform(0.01, 1, m) * np.maximum(rows, 1.0)), e


def band_of(D, E):
    """The scalar H of blocks D and E as Newton holds it, |H| on its two
    bands."""
    return solver._Hessian(D, E)


def varah(A, n):
    """The Varah certificate of H from the dense |H| A, blocks n x n, in the
    solver's arithmetic: the verdict the dense storage gives."""
    with np.errstate(over="ignore"):
        rows, diagonal = A.sum(axis=1), A.diagonal()
        norm = rows.max()
        slack = (3 * n + 2) * np.finfo(float).eps * norm
        alpha = (diagonal - (rows - diagonal)).min() - slack
        if not alpha > 0:
            return False
        return bool(np.sqrt(rows.size) * (norm / alpha) <= solver.CONDITION_LIMIT / 2)


def lq_scalar_problem(N):
    """t*v1^2 + u1^2 on N uniform points of [1, 2], q 0 -> 2: linear-
    quadratic, its Hessian certified, so Newton takes one band step."""
    scale = TimeScale.uniform(1, 2, 1 / (N - 1))
    return VariationalProblem(scale, Lagrangian(1, "t*v1^2 + u1^2"), [0.0], [2.0])


class TestBand:
    # the scalar Hessian on its band against the dense matrix it stands
    # for; _dense and np.linalg.solve stay the oracle

    @pytest.mark.parametrize("seed", range(4))
    def test_elimination_equals_the_dense_solve(self, seed):
        # on certified H the band and the dense solve differ by at most
        # 4 eps |H^-1| (|H| |y| + |r|), componentwise, a few ulps of the
        # solution's componentwise condition (measured: 0.86 at most),
        # from m = 1 unknown (N = 3) up, on graded rows, and with entries
        # near 1e-300 and 1e300
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        for m in (1, 2, 3, *rng.integers(4, 120, 6)):
            for kind in ("plain", "graded"):
                for scale in (1.0, 1e-300, 1e300):
                    d, e = certified_band(rng, int(m), kind)
                    d, e = d * scale, e * scale
                    D, E = d[:, None, None], e[:, None, None]
                    band = band_of(D, E)
                    assert band.certified()
                    H = solver._dense(D, E)
                    r = rng.uniform(-1, 1, int(m))
                    y = band.solve(r)
                    assert np.array_equal(y, solver._eliminate(d, e, r))
                    assert y.shape == r.shape
                    condition = np.abs(np.linalg.inv(H)) @ (
                        np.abs(H) @ np.abs(y) + np.abs(r)
                    )
                    gap = np.abs(y - np.linalg.solve(H, r))
                    assert np.all(gap <= 4 * eps * condition)

    @pytest.mark.parametrize("seed", range(4))
    def test_certificate_and_floor_equal_the_dense_ones(self, seed):
        # the band's row maxima, largest entry and diagonal are the dense
        # |H|'s bit for bit; its row sums and floor round within 2 and 4
        # eps of them, and it certifies what the dense |H| certifies,
        # wherever Varah's alpha is not within that rounding of zero; the
        # dense |H|'s floor and verdict are taken here, from A
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        seen = set()
        for kind in ("strict", "graded", "weak", "free", "singular"):
            for scale in (1.0, 1e-300, 1e300, "overflow"):
                for _ in range(6):
                    D, E = symmetric_blocks(rng, 1, int(rng.integers(1, 61)), kind)
                    if scale == "overflow":
                        top = max(np.max(np.abs(D)), np.max(np.abs(E), initial=0.0))
                        D, E = D / (top or 1.0) * 1.5e308, E / (top or 1.0) * 1.5e308
                    else:
                        D, E = D * scale, E * scale
                    A, band = np.abs(solver._dense(D, E)), band_of(D, E)
                    assert np.array_equal(band.row_maxima(), A.max(axis=1))
                    assert band.row_maxima().max() == A.max()
                    assert np.array_equal(band.d, A.diagonal())
                    with np.errstate(over="ignore", invalid="ignore"):
                        rows = band._product(np.ones(D.shape[0]))
                        dense_rows = A.sum(axis=1)
                        gap = np.abs(rows - dense_rows)
                        norm = dense_rows.max()
                        alpha = (2 * A.diagonal() - dense_rows).min() - 5 * eps * norm
                    finite = np.isfinite(dense_rows)
                    assert np.array_equal(np.isfinite(rows), finite)
                    assert np.all(gap[finite] <= 2 * eps * dense_rows[finite])
                    w = rng.uniform(0.1, 1, D.shape[0])
                    x, F = rng.uniform(-1, 1, (2, D.shape[0]))
                    floor = band.floor(w, x, F)
                    with np.errstate(over="ignore", invalid="ignore"):
                        dense_floor = eps * ((A @ np.abs(x)) / w + np.abs(F)).max()
                    if np.isinf(dense_floor):
                        assert np.isinf(floor)
                    else:
                        assert abs(floor - dense_floor) <= 4 * eps * dense_floor
                    verdict = varah(A, 1)
                    if not abs(alpha) <= 4 * eps * norm:
                        assert band.certified() == verdict
                    seen.add(verdict)
        assert seen == {True, False}

    @pytest.mark.parametrize("N", [3, 61, 801])
    def test_certified_scalar_solve_builds_no_dense_matrix(self, N, monkeypatch):
        # one band elimination per step, and no dense H, no LAPACK solve
        # and no SVD; the root is the one the dense solve gives
        p = lq_scalar_problem(N)
        with monkeypatch.context() as m:
            m.setattr(solver._Hessian, "certified", lambda self: False)
            dense = solve_newton(p).values
        eliminations, eliminate = [], solver._eliminate

        def counted(*args):
            eliminations.append(None)
            return eliminate(*args)

        def unreachable(*args):
            raise AssertionError("dense path taken")

        monkeypatch.setattr(solver, "_eliminate", counted)
        for module, name in (
            (solver, "_dense"), (np.linalg, "solve"), (np.linalg, "cond")
        ):
            monkeypatch.setattr(module, name, unreachable)
        q = solve_newton(p).values
        assert len(eliminations) == 1
        assert np.max(np.abs(q - dense)) <= 1e-12 * (1 + np.max(np.abs(dense)))

    def test_certificate_is_read_once_per_step(self, monkeypatch):
        # with the certificate refused, so that each step takes the dense
        # path, every step that solves asks for it once, scalar or not
        verdicts, steps, solve_step = [], [], solver._Hessian.solve

        def counted(self, r):
            steps.append(None)
            return solve_step(self, r)

        def refused(self):
            verdicts.append(None)
            return False

        monkeypatch.setattr(solver._Hessian, "certified", refused)
        monkeypatch.setattr(solver._Hessian, "solve", counted)
        scale = TimeScale.uniform(1, 2, 0.125)
        n2 = Lagrangian(2, "(v1^2 - 1)^2 + t*v2^2 + u1^2 + 0.25*u1*u2")
        for p in (
            lq_scalar_problem(61), VariationalProblem(scale, n2, [0.0, 0.0], [1.0, 2.0])
        ):
            verdicts.clear()
            steps.clear()
            solve_newton(p)
            assert steps and len(verdicts) == len(steps)

    def test_memory_is_linear_in_the_points(self):
        # at N = 2001 the dense H and |H| would take 64 MB; the band solve
        # peaks at about 1 MB
        p = lq_scalar_problem(2001)
        solve(p)  # warm: first-call allocations are not the solve's
        tracemalloc.start()
        try:
            c = solve(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.provenance is Provenance.NEWTON
        assert peak < 4 * 2**20, peak


def count_svds(monkeypatch):
    """A list that grows by one entry per np.linalg.cond call."""
    calls, cond = [], np.linalg.cond

    def counted(J):
        calls.append(None)
        return cond(J)

    monkeypatch.setattr(np.linalg, "cond", counted)
    return calls


# Newton bodies whose Hessians the blocks certify (the first two), never
# certify (v^2 - 5u^2, and t*u with its zero Hessian) or certify at some
# iterates (the rest)
GUARD_BODIES = (
    "t*v{j}^2 + u{j}^2",
    "t*v{j}^2 + u{j}^2 + 0.25*u{j}*u{k}",
    "v{j}^2 - 5*u{j}^2",
    "(v{j}^2 - 1)^2 + u{j}^2",
    "t*u{j}",
    *JACOBIAN_TERMS.values(),
)


def closed_form_problems():
    scale = TimeScale.uniform(0, 1, 0.125)
    return [
        VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [2.0]),
        VariationalProblem(
            scale, Lagrangian(2, "v1^2 + v1*v2 + v2^2"), [0.0, 1.0], [1.0, 3.0]
        ),
    ]


def newton_problem():
    return VariationalProblem(
        TimeScale.uniform(1, 2, 0.05), Lagrangian(1, "t*v1^2 + u1^2"), [0.0], [1.0]
    )


def assert_diagnostics_match(p, c):
    # the candidate's numbers are the library's residuals, bit for bit
    assert c.action == action(p, c.trajectory)
    assert c.first_el == first_el_residual(p, c.trajectory).magnitude
    assert c.second_el == second_el_residual(p, c.trajectory).magnitude
    assert c.slopes is None


class TestSolve:
    @pytest.mark.parametrize("index", [0, 1])
    def test_closed_form_for_quadratic_slope_forms(self, index):
        p = closed_form_problems()[index]
        c = solve(p)
        assert c.provenance is Provenance.CLOSED_FORM
        assert np.array_equal(c.trajectory.values, affine_extremal(p).values)
        assert_diagnostics_match(p, c)

    def test_newton_otherwise(self):
        p = newton_problem()
        opts = NewtonOptions(tol=1e-11)
        c = solve(p, opts)
        assert c.provenance is Provenance.NEWTON
        assert np.array_equal(c.trajectory.values, solve_newton(p, opts=opts).values)
        assert c.first_el <= 1e-11
        assert_diagnostics_match(p, c)

    def test_newton_failure_propagates(self):
        scale = TimeScale.uniform(0, 1, 0.125)
        L = Lagrangian(1, "(v1^2 - 1)^2 + u1^2")
        p = VariationalProblem(scale, L, [0.0], [0.5])
        with pytest.raises(NoConvergence):
            solve(p, NewtonOptions(max_iter=1, tol=1e-14))

    def test_every_provenance_is_produced(self):
        produced = {solve(closed_form_problems()[0]).provenance}
        produced.add(solve(newton_problem()).provenance)
        cands = enumerate_slope_extremals(quartic_problem(), [0.0])
        produced.update(c.provenance for c in cands)
        assert produced == set(Provenance)

    @pytest.mark.parametrize(
        "body, dim, quadratic",  # quadratic: a pure quadratic form in v
        [
            ("v1^2", 1, True),
            ("3*v1^2 - v1*v2 + 0.5*v2^2", 2, True),
            ("v1^2 + u1^2", 1, False),
            ("t*v1^2", 1, False),
            ("(v1^2 - 1)^2", 1, False),
            ("v1^2 + v1", 1, False),
            ("log(v1)", 1, False),
            ("v1^2 + 1e-10*u1^2", 1, False),
            ("v1^2 + 3e-10*u1", 1, False),
            ("v1^2 + 1e-9*v1^3", 1, False),
            ("v1^2 + 0*u1", 1, False),
            ("v1^2 + 0*t", 1, False),
            ("v1^2 + 1", 1, False),
            ("v1^(1 + 1)/2 - sqrt(2)*v1*(-v1)", 1, True),
            ("(v1^4)^0.5", 1, False),
            ("v1^(v1^0 + 1)", 1, False),
            ("v1^-2", 1, False),
            ("v1^3/v1", 1, False),
            ("v1^2/(1 - 1)", 1, False),
            ("v1^2 + v2", 2, False),
            ("(v1 + v2)*(v1 - 2*v2)", 2, True),
            ("5", 1, False),
            ("exp(v1 - v2) + sqrt(1 + v2^2)", 2, False),
            ("v1^2*exp(0*t)", 1, False),
            ("v2^2 + u2", 2, False),
        ],
    )
    def test_quadratic_probe_verdicts(self, body, dim, quadratic):
        # the closed form takes every body that names neither t nor u: the
        # pure quadratic forms in v, as it always has, and every other one
        names_state = re.search(r"\b(t|u\d+)\b", body) is not None
        assert not (quadratic and names_state)
        assert _reads_only_slope(Lagrangian(dim, body)) is not names_state

    def test_solve_reads_the_parsed_name_set(self, monkeypatch):
        # parse walks the tree once and keeps the names it reads; a solve
        # picks its route from that set without walking the tree again
        scale = TimeScale.uniform(0, 1, 0.25)
        p = VariationalProblem(scale, Lagrangian(1, "v1^4"), [0], [1])
        for module in (expr, solver):
            walk = lambda root: pytest.fail("walked")  # noqa: E731
            monkeypatch.setattr(module, "_walk", walk, raising=False)
        assert solve(p).provenance is Provenance.CLOSED_FORM

    def test_slope_only_bodies_take_the_closed_form(self):
        # Newton once took these and could fail at a guess already at its
        # rounding floor, with no step taken; L_t = L_u = 0 makes the
        # affine guess an extremal of both equations
        bodies = {
            1: ["exp(v1)", "(v1^2 - 1)^2", "v1^2 + v1", "sqrt(1 + v1^2)",
                "v1^4 + 3*v1", "log(2 + sin(v1))", "v1^3", "5"],
            2: ["v1*v2 + v2^4 + v1^2", "exp(v1 - v2) + v1^2 + v2^2"],
        }
        rng = np.random.default_rng(11)
        solved = 0
        for _ in range(150):
            n = int(rng.integers(1, 3))
            body = str(rng.choice(bodies[n]))
            scale = random_exact_scale(rng, 3, 399)
            q_a, q_b = rng.uniform(-300, 300, (2, n))
            p = VariationalProblem(scale, Lagrangian(n, body), q_a, q_b)
            try:
                c = solve(p)
            except ExprDomainError:  # L overflows along the guess: an input error
                continue
            solved += 1
            assert c.provenance is Provenance.CLOSED_FORM
            assert np.array_equal(c.trajectory.values, affine_extremal(p).values)
            assert_diagnostics_match(p, c)
        assert solved >= 140

    @pytest.mark.parametrize(
        "scale", [TimeScale.uniform(0, 1, 0.125), TimeScale.dense_interval(0, 1, 9)]
    )
    @pytest.mark.parametrize(
        "body, n",
        [("exp(v1)", 1), ("(v1^2 - 1)^2", 1), ("v1^2 + v1", 1),
         ("sqrt(1 + v1^2)", 1), ("v1*v2 + v2^4", 2)],
    )
    def test_closed_form_is_exact_on_dyadic_scales(self, scale, body, n):
        # every value and quotient is dyadic, so every frame reads the same
        # slope and both residuals are zero, not merely small
        p = VariationalProblem(scale, Lagrangian(n, body), np.zeros(n), np.full(n, 0.5))
        c = solve(p)
        assert c.provenance is Provenance.CLOSED_FORM
        assert c.first_el == 0.0 and c.second_el == 0.0
        assert_diagnostics_match(p, c)

    def test_tiny_state_coupling_goes_to_newton(self):
        # a random numerical probe once took v1^2 + 1e-10*u1^2 for a pure
        # slope form and returned the affine guess with first_el 1.75e-08
        scale = TimeScale.uniform(0, 1, 0.125)
        L = Lagrangian(1, "v1^2 + 1e-10*u1^2")
        p = VariationalProblem(scale, L, [0.0], [100.0])
        c = solve(p)
        assert c.provenance is Provenance.NEWTON
        assert c.first_el <= 1e-11
        assert_diagnostics_match(p, c)

    @pytest.mark.parametrize("N", [21, 201])
    @pytest.mark.parametrize(
        "n, body", [*enumerate(COUNT_BODIES, start=1), (1, "0.75*t*v1^2 + 2.5*u1^2")]
    )
    def test_newton_makes_one_plus_two_k_kernel_passes(
        self, n, body, N, count_calls, monkeypatch
    ):
        # the guess, then per step one Hessian and one trial; the
        # candidate is diagnosed from the last trial's evaluation.  L is
        # linear-quadratic, so the exact Hessian's first step lands on the
        # root to the stop test and k = 1
        hessians = []
        hessian = Evaluation.hessian

        def counted(*args):
            hessians.append(None)
            return hessian(*args)

        monkeypatch.setattr(Evaluation, "hessian", counted)
        calls = count_calls(Lagrangian, "partials")
        scale = TimeScale.uniform(1, 2, 1 / (N - 1))
        p = VariationalProblem(scale, Lagrangian(n, body), -np.ones(n), np.ones(n))
        c = solve(p)
        assert c.provenance is Provenance.NEWTON
        assert len(hessians) == 1
        assert len(calls) == 1 + 2 * len(hessians)
        assert_diagnostics_match(p, c)

    def test_closed_form_evaluates_lagrangian_once(self, count_calls):
        calls = count_calls(Lagrangian, "partials")
        c = solve(closed_form_problems()[0])
        assert c.provenance is Provenance.CLOSED_FORM
        assert len(calls) == 1


class TestEnumeration:
    def test_quartic_counts(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        assert len(cands) == 1107
        survivors = filter_second_el(cands, tol=1e-8)
        assert len(survivors) == 71

    def test_quartic_file_evaluation_count(self, count_calls):
        # the 3^8 words fit one block: one kernel pass over the frames of
        # all boundary hits feeds the first-EL filter and, for a kept word,
        # its action and second-EL magnitude
        p = cli.load_problem(QUARTIC).problem
        words = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=8)))
        hits = int(np.sum(np.abs(words @ p.scale.mus[:-1]) <= 1e-9))
        assert words.shape[0] <= solver._BLOCK_WORDS
        calls = count_calls(Lagrangian, "partials")
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        assert len(calls) == 1
        assert len(cands) == hits == 1107

    def test_many_blocks_of_words_in_one_kernel_pass(self, count_calls):
        # 3^13 words span 195 blocks, but their 91 hits fit one: the prefix
        # tree is walked once and L evaluated along all hits together
        h = 1 / 13
        scale = TimeScale.uniform(0, 1, h)
        p = VariationalProblem(scale, Lagrangian(1, "(v1^2 - 1)^2"), [0.0], [11 * h])
        assert 3**13 > 190 * solver._BLOCK_WORDS
        calls = count_calls(Lagrangian, "partials")
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0])
        assert len(calls) == 1
        assert len(cands) == 91

    def test_walk_extends_a_wide_level_in_small_passes(self):
        # 3000 letters over 2 gaps: level 2 holds 9e6 words, 72 MB of floats
        # if extended in one pass; the walk extends its 3000 prefixes
        # _BLOCK_WORDS // 3000 at a time and peaks at about 1 MB
        scale = TimeScale.uniform(0, 1, 0.5)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + 0.5*u1^2"), [0.0], [0.0])
        letters = tuple(np.linspace(-1, 1, 3000).tolist())
        solver._hit_tree(p, letters)  # warm: first-call allocations are not the walk's
        tracemalloc.start()
        try:
            tree = solver._hit_tree(p, letters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [level[0].size for level in tree] == [3000, 3000]
        assert peak < 8 * 2**20, peak

    def test_quartic_actions_in_one_stack_pass(self, count_calls):
        # one action pass over the hits' stack record, none per survivor
        calls = count_calls(Evaluation, "action")
        cands = enumerate_slope_extremals(quartic_problem(), [-1.0, 0.0, 1.0])
        assert len(cands) == 1107
        assert len(calls) == 1

    def test_only_kept_words_get_a_trajectory(self, monkeypatch):
        # cost tripwire: no trajectory is built, nor any record of one, for
        # a word that misses q_b or for a hit that fails first-EL
        scale = TimeScale.from_points(np.cumsum([0.0] + [0.125, 0.0625] * 4))
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + 1.3*u1^2"), [0.0], [0.0])
        letters = [-1.0, 0.0, 1.0]
        words = np.array(list(itertools.product(letters, repeat=8)))
        hits = int(np.sum(np.abs(words @ scale.mus[:-1]) <= solver.BOUNDARY_HIT_TOL))
        assert 1 < hits < words.shape[0] // 5
        built, init = [], Evaluation.__init__

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.Q)

        def no_expansion(*args, **kwargs):
            raise AssertionError("a slope word was expanded")

        monkeypatch.setattr(Evaluation, "__init__", spy_init)
        monkeypatch.setattr(GridFunction, "from_slopes", no_expansion)
        cands = enumerate_slope_extremals(p, letters, tol=1e-8)
        assert 0 < len(cands) < hits
        assert len(built) == 1
        assert built[0].tobytes() == cands.values.tobytes()

    @staticmethod
    def _hit_words(p, letters):
        """The boundary hits' words, as rows of letter indices in
        lexicographic order: every word's end, in lexicographic order, then
        the hits' letters."""
        ends, m = p.q_a, len(letters)
        for mu in p.scale.mus[:-1]:
            ends = (ends[:, None] + mu * np.array(letters)).ravel()
        hits = np.flatnonzero(np.abs(ends - p.q_b[0]) <= solver.BOUNDARY_HIT_TOL)
        gaps = p.scale.n - 1
        return hits[:, None] // m ** np.arange(gaps - 1, -1, -1) % m

    @staticmethod
    def _prefixes(words):
        """The distinct non-empty prefixes of the words, per length."""
        rows = words.tolist()
        return [len({tuple(w[: j + 1]) for w in rows}) for j in range(words.shape[1])]

    @staticmethod
    def _case(case):
        """The problem and its frame count: one per distinct prefix of the
        hits."""
        if case == "quartic-file":
            return cli.load_problem(QUARTIC).problem, 3138
        if case == "decimal-gaps":
            # the walk keeps prefixes that reach no hit: 1756 nodes, 1244 of
            # them the hits' prefixes
            gaps = [0.1, 0.2, 0.15, 0.1, 0.25, 0.1, 0.2, 0.1]
            scale = TimeScale.from_points(np.cumsum([0.0] + gaps))
            L = Lagrangian(1, "v1^2 + 1.3*u1^2")
            return VariationalProblem(scale, L, [0.0], [0.0]), 1244
        h = 1 / 13
        scale = TimeScale.uniform(0, 1, h)
        L = Lagrangian(1, "(v1^2 - 1)^2")
        return VariationalProblem(scale, L, [0.0], [11 * h]), 545

    @staticmethod
    def _pass_sizes(monkeypatch, p, letters):
        """The frames of each kernel pass of one enumeration."""
        sizes, partials = [], Lagrangian.partials

        def spy(self, t, *args, **kwargs):
            sizes.append(np.size(t))
            return partials(self, t, *args, **kwargs)

        monkeypatch.setattr(Lagrangian, "partials", spy)
        enumerate_slope_extremals(p, letters)
        return sizes

    # a block of 1200 (quartic file, 1107 hits) or 100 (3^13 words, 91
    # hits) splits a level of the walk into passes, but the hits still fit
    # one kernel pass
    @pytest.mark.parametrize(
        "case",
        [
            "quartic-file",
            "3^13-words",
            "decimal-gaps",
            "quartic-file-split-walk",
            "3^13-words-split-walk",
        ],
    )
    def test_each_prefix_frame_is_evaluated_once(self, case, monkeypatch):
        # frame j of a word reads only its first j+1 letters: the kernel
        # pass takes one frame per distinct prefix of the hits, not one
        # per (hit, frame), none for a prefix that reaches no hit, and a
        # prefix shared across a seam of the walk's passes once
        p, frames = self._case(case.removesuffix("-split-walk"))
        letters = [-1.0, 0.0, 1.0]
        words = self._hit_words(p, letters)
        assert sum(self._prefixes(words)) == frames
        if case.endswith("-split-walk"):
            block = 1200 if case.startswith("quartic-file") else 100
            # some level holds more hit prefixes than one pass can extend
            assert len(words) <= block < 3 * max(self._prefixes(words))
            monkeypatch.setattr(solver, "_BLOCK_WORDS", block)
        assert self._pass_sizes(monkeypatch, p, letters) == [frames]

    def test_hits_over_two_passes_take_their_own_prefixes(self, monkeypatch):
        # 91 hits in blocks of 50: each of the two passes takes the distinct
        # prefixes of its own hits, those shared across the seam in both
        p, frames = self._case("3^13-words")
        letters = [-1.0, 0.0, 1.0]
        words = self._hit_words(p, letters)
        assert len(words) == 91
        monkeypatch.setattr(solver, "_BLOCK_WORDS", 50)
        sizes = self._pass_sizes(monkeypatch, p, letters)
        assert sizes == [sum(self._prefixes(w)) for w in (words[:50], words[50:])]
        assert sum(sizes) > frames

    def test_quartic_membership_and_actions(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        survivors = filter_second_el(cands, tol=1e-8)
        assert any(c.slopes == QT for c in cands)
        assert not any(c.slopes == QT for c in survivors)
        rejected = [c for c in cands if c.second_el > 1e-8]
        assert all(c.action > 0 for c in rejected)
        # the filter keeps the optimum: minimum action is 0 on both sides
        assert min(c.action for c in cands) == 0.0
        assert min(c.action for c in survivors) == 0.0
        # each action is a sum of terms 0.125 * L, exact in binary; the
        # survivors are the 70 words of slopes +-1, action 0, and the zero
        # trajectory, action 1
        assert Counter(cands.action.tolist()) == {
            0.0: 70, 0.25: 560, 0.5: 420, 0.75: 56, 1.0: 1
        }
        assert Counter(survivors.action.tolist()) == {0.0: 70, 1.0: 1}

    def test_single_letter_alphabet(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [0.0], tol=1e-8)
        assert len(cands) == 1
        assert np.all(cands[0].trajectory.values == 0.0)

    def test_unreachable_boundary(self):
        p = quartic_problem()
        assert len(enumerate_slope_extremals(p, [2.0], tol=1e-8)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_letter_rejected(self, bad):
        with pytest.raises(ValueError, match="letters must be finite"):
            enumerate_slope_extremals(quartic_problem(), [bad, 0.0])

    def test_guard_advises_newton(self):
        scale = TimeScale.uniform(0, 3, 0.1)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [1.0])
        with pytest.raises(ValueError, match="solve_newton"):
            enumerate_slope_extremals(p, [-1.0, -0.5, 0.0, 0.5, 1.0], tol=1e-8)

    @pytest.mark.parametrize("q_a, q_b", [(12345.6, 12345.9), (-9876.5, -9876.2)])
    def test_near_hit_ends_at_q_b_on_large_values(self, q_a, q_b):
        # on decimal points the affine word ends a few ulps (> 1e-12) off
        # q_b, inside the boundary-hit tolerance; its trajectory is pinned
        scale = TimeScale.from_points([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [q_a], [q_b])
        unpinned = GridFunction.from_slopes(scale, p.q_a, [0.375] * 8).values
        assert 1e-12 < abs(unpinned[-1, 0] - q_b) <= solver.BOUNDARY_HIT_TOL
        (c,) = enumerate_slope_extremals(p, [0.0, 0.375, 0.75])
        assert c.slopes == (0.375,) * 8
        assert c.trajectory.values[-1, 0] == q_b
        assert np.array_equal(c.trajectory.values[:-1], unpinned[:-1])
        assert c.first_el <= 1e-8

    def test_lexicographic_order(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [1.0, -1.0, 0.0], tol=1e-8)
        slope_lists = [c.slopes for c in cands]
        assert slope_lists == sorted(slope_lists)

    def test_overflowed_reach_keeps_the_prefixes(self):
        # the gaps after the first sum past the float range, so the reach
        # of a prefix over them is inf, and 0 * inf a NaN bound: the walk
        # must keep every finite prefix there, and find the zero word
        scale = TimeScale.from_points([-1.5e308, -1.4e308, 0.0, 1.4e308, 1.5e308])
        assert scale.mus[1] > np.finfo(float).max - scale.mus[2]
        assert np.all(np.isfinite(scale.mus))
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [0.0])
        (word,) = _assert_matches_loop(p, [0.0, 1.0], tol=1e3)
        assert word[0] == (0.0,) * 4

    def test_oracle_equivalence_on_quadratic(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            scale = random_exact_scale(rng, 4, 6)
            qa = float(rng.uniform(-1, 1))
            c = float(rng.uniform(-1.5, 1.5))
            qb = qa + c * (scale.b - scale.a)
            p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [qa], [qb])
            closed = affine_extremal(p)
            newton = solve_newton(p)
            cands = enumerate_slope_extremals(
                p, [c, c + 0.7, c - 1.3], tol=1e-8
            )
            assert len(cands) == 1
            for q in (newton, cands[0].trajectory):
                assert np.max(np.abs(q.values - closed.values)) <= 1e-8


def _outcome(fn, p, letters, tol, mode):
    """What fn(p, letters, tol) returns or raises, and the warnings it
    gives under the warnings action ``mode``, bit for bit."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(mode)
        try:
            result = [
                (
                    c.slopes,
                    c.trajectory.values.tobytes(),
                    *(float(x).hex() for x in (c.action, c.first_el, c.second_el)),
                    c.provenance,
                )
                for c in fn(p, letters, tol=tol)
            ]
        except Exception as exc:  # noqa: BLE001 - the class is compared
            result = (type(exc), str(exc))
    seen = {(w.category, str(w.message), w.filename, w.lineno) for w in caught}
    return result, sorted(seen, key=repr)


def _assert_matches_loop(p, letters, tol=1e-8, modes=("always",)):
    for mode in modes:
        got = _outcome(enumerate_slope_extremals, p, letters, tol, mode)
        want = _outcome(loop_enumerate, p, letters, tol, mode)
        assert got == want, mode
    return want[0]


BODIES = (
    "(v1^2 - 1)^2",
    "v1^2 + 0.5*u1^2",
    "v1^4 - u1*v1 + 0.3*u1^3",
    "exp(v1/4) + u1^2",
    "sin(v1) + 0.3*u1*v1",
    "t*v1^2 + cos(t)*u1",
)


def _random_case(rng):
    """A problem with at least one boundary hit, or a near miss of one."""
    dyadic = rng.random() < 0.5
    m = int(rng.choice([3, 5]))
    n = int(rng.integers(3, 10 if m == 3 else 8))
    if dyadic:
        gaps = rng.choice([0.125, 0.25, 0.5], n - 1)
        points = float(rng.integers(-8, 9)) / 8 + np.cumsum(np.append(0.0, gaps))
        letters = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5], m, replace=False)
    else:  # jittered decimal points
        gaps = rng.uniform(0.05, 0.4, n - 1)
        points = np.round(rng.uniform(-1, 1) + np.cumsum(np.append(0.0, gaps)), 2)
        letters = np.round(rng.uniform(-1.5, 1.5, m), 1)
    scale = TimeScale.from_points(points)
    q_a = float(np.round(rng.uniform(-2, 2), 3))
    word = rng.choice(letters, n - 1)
    q_b = GridFunction.from_slopes(scale, [q_a], word).values[-1, 0]
    q_b += float(rng.choice([0.0, 0.0, 3e-10, -7e-10]))  # near hits, pinned
    body = str(rng.choice(BODIES))
    p = VariationalProblem(scale, Lagrangian(1, body), [q_a], [q_b])
    return p, letters.tolist(), float(rng.choice([1e-8, 1e3]))


class TestEnumerationOracle:
    """The walk against the word-by-word loop of tests/helpers.py: slopes,
    trajectory bytes, action, residuals, provenance, exceptions and
    warnings are equal bit for bit."""

    # blocks of 1 to 3 words extend one prefix per pass of the walk at every
    # level and are narrower than the alphabet
    @pytest.mark.parametrize("block", [solver._BLOCK_WORDS, 251, 1000, 1, 2, 3])
    def test_random_problems(self, block, monkeypatch):
        monkeypatch.setattr(solver, "_BLOCK_WORDS", block)
        rng = np.random.default_rng(block)
        kept = 0
        for _ in range(25):
            p, letters, tol = _random_case(rng)
            kept += len(_assert_matches_loop(p, letters, tol))
        assert kept > 20

    @pytest.mark.parametrize("q_a, q_b", [(12345.6, 12345.9), (-9876.5, -9876.2)])
    def test_near_hits_on_decimal_points(self, q_a, q_b):
        rng = np.random.default_rng(3)
        points = np.round(np.cumsum(rng.uniform(0.05, 0.2, 9)), 2)
        for scale in (TimeScale.uniform(0, 0.8, 0.1), TimeScale.from_points(points)):
            c = (q_b - q_a) / (scale.b - scale.a)
            p = VariationalProblem(scale, Lagrangian(1, "v1^2 + 1e-6*u1"), [q_a], [q_b])
            _assert_matches_loop(p, [c - 0.25, c, c + 0.5], tol=1e3)

    def test_ends_at_the_edge_of_the_hit_tolerance(self):
        # q_b is BOUNDARY_HIT_TOL past the end of the largest (smallest)
        # word; the reach bounds of its prefixes, rounded otherwise, must
        # not drop it
        rng = np.random.default_rng(11)
        for _ in range(30):
            gaps = rng.uniform(0.05, 0.4, int(rng.integers(4, 8)))
            scale = TimeScale.from_points(np.round(np.cumsum(gaps), 2))
            letters = np.sort(np.round(rng.uniform(-3, 3, 3), 2)).tolist()
            q_a = float(np.round(rng.uniform(-2e4, 2e4), 2))
            for s, side in ((letters[-1], 1.0), (letters[0], -1.0)):
                word = [s] * (scale.n - 1)
                end = GridFunction.from_slopes(scale, [q_a], word).values[-1, 0]
                q_b = end + side * solver.BOUNDARY_HIT_TOL
                while not abs(end - q_b) <= solver.BOUNDARY_HIT_TOL:
                    q_b = np.nextafter(q_b, end)
                p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [q_a], [q_b])
                result = _assert_matches_loop(p, letters, tol=1e3)
                assert tuple(word) in [c[0] for c in result]

    @pytest.mark.parametrize(
        "body, q_a, q_b, letters, fails",
        [
            # hits leave the domain: the first failing word in lexicographic
            # order touches zero, a later one goes below it
            ("sqrt(-u1) + v1^2", -1.0, -1.0, [-1.0, 0.0, 1.0], True),
            ("sqrt(u1) + v1^2", 0.0, 0.0, [-1.0, 0.0, 1.0], True),
            ("log(u1) + v1^2", 1.0, 1.0, [-1.0, 0.0, 1.0], True),
            # only words that miss q_b leave the domain
            ("log(u1) + v1^2", 4.0, 8.0, [-4.0, 1.0], False),
            ("sqrt(u1) + v1^2", 4.0, 8.0, [-4.0, 1.0], False),
        ],
    )
    def test_domain_errors(self, body, q_a, q_b, letters, fails):
        scale = TimeScale.uniform(0, 4, 1)
        p = VariationalProblem(scale, Lagrangian(1, body), [q_a], [q_b])
        result = _assert_matches_loop(p, letters, tol=1e3, modes=("always", "error"))
        assert isinstance(result, tuple) == fails

    @pytest.mark.parametrize("h", [0.125, 1.0])
    @pytest.mark.parametrize("body", ["v1^2", "sin(v1) + u1", "v1*u1"])
    def test_huge_letters(self, h, body):
        # on h = 1 words overflow while they are expanded; products of
        # these letters overflow in L
        scale = TimeScale.uniform(0, 6 * h, h)
        p = VariationalProblem(scale, Lagrangian(1, body), [0.0], [0.0])
        modes = ("always", "error")
        _assert_matches_loop(p, [-1e308, 0.0, 1e308], tol=1e300, modes=modes)

    def test_walk_ignores_overflow_of_missed_words(self):
        scale = TimeScale.uniform(0, 6, 1)
        p = VariationalProblem(scale, Lagrangian(1, "sin(v1)"), [0.0], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (c,) = enumerate_slope_extremals(p, [1e308, 0.0], tol=1.0)
        assert c.slopes == (0.0,) * 6

    @pytest.mark.parametrize(
        "letters, q_a, q_b",
        [
            ([0.5], 0.0, 0.5),
            ([-0.0], -0.0, 0.0),  # ends at -0.0, which equals q_b: not pinned
            ([0.5], 0.0, 0.25),
            ([1.0, 2.0, 3.0], 0.0, 100.0),
        ],
    )
    def test_single_letter_and_unreachable(self, letters, q_a, q_b):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2 + u1"), [q_a], [q_b]
        )
        result = _assert_matches_loop(p, letters, tol=1e3)
        assert len(result) == (q_b in (0.0, 0.5))

    def test_more_than_one_block(self):
        scale = TimeScale.uniform(0, 0.75, 0.125)
        L = Lagrangian(1, "(v1^2 - 1)^2 + u1^2")
        p = VariationalProblem(scale, L, [0.0], [0.0])
        letters = [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert len(letters) ** (scale.n - 1) > solver._BLOCK_WORDS
        assert len(_assert_matches_loop(p, letters, tol=1e3)) > 100

    def test_invalid_input(self):
        p = quartic_problem()
        for letters in ([], [np.nan, 0.0]):
            result = _assert_matches_loop(p, letters)
            assert result[0] is ValueError


def _columns(x):
    """The record's columns as bytes, with their shapes."""
    return [
        (c.shape, c.tobytes())
        for c in (x.slopes, x.values, x.action, x.first_el, x.second_el)
    ]


def _fields(c):
    """A candidate's fields, bit for bit."""
    return (
        c.slopes,
        c.trajectory.values.tobytes(),
        *(float(x).hex() for x in (c.action, c.first_el, c.second_el)),
        c.provenance,
    )


class TestExtremals:
    def test_columns(self):
        r = enumerate_slope_extremals(quartic_problem(), [-1.0, 0.0, 1.0])
        assert isinstance(r, Extremals)
        assert len(r) == 1107
        assert r.slopes.shape == (1107, 8)
        assert r.values.shape == (1107, 9, 1)
        assert r.action.shape == r.first_el.shape == r.second_el.shape == (1107,)
        for column in (r.slopes, r.values, r.action, r.first_el, r.second_el):
            assert not column.flags.writeable

    def test_int_index_builds_the_rows_candidate(self):
        r = enumerate_slope_extremals(quartic_problem(), [-1.0, 0.0, 1.0])
        rows = list(r)
        assert len(rows) == len(r)
        for i in (0, 1, 500, len(r) - 1):
            c = r[i]
            assert isinstance(c, Candidate)
            assert c.provenance is Provenance.ENUMERATED
            assert c.slopes == tuple(r.slopes[i].tolist())
            assert all(type(s) is float for s in c.slopes)
            assert all(type(x) is float for x in (c.action, c.first_el, c.second_el))
            assert c.trajectory.values.tobytes() == r.values[i].tobytes()
            assert c.trajectory.base == r.scale
            assert _fields(c) == _fields(rows[i])
            assert _fields(r[np.int64(i)]) == _fields(c)

    def test_negative_index(self):
        r = enumerate_slope_extremals(quartic_problem(), [-1.0, 0.0, 1.0])
        assert _fields(r[-1]) == _fields(r[len(r) - 1])
        assert _fields(r[-len(r)]) == _fields(r[0])
        for i in (len(r), -len(r) - 1):
            with pytest.raises(IndexError):
                r[i]

    def test_boolean_mask_gives_a_record(self):
        r = enumerate_slope_extremals(quartic_problem(), [-1.0, 0.0, 1.0])
        mask = r.action == 0.0
        sub = r[mask]
        assert isinstance(sub, Extremals)
        assert sub.scale == r.scale
        assert len(sub) == int(mask.sum()) == 70
        want = [_fields(c) for c in r if c.action == 0.0]
        assert [_fields(c) for c in sub] == want
        assert _columns(sub) == [
            (c[mask].shape, c[mask].tobytes())
            for c in (r.slopes, r.values, r.action, r.first_el, r.second_el)
        ]
        assert len(r[np.zeros(len(r), dtype=bool)]) == 0
        assert _columns(r[:20]) == _columns(r[np.arange(len(r)) < 20])

    def test_empty_record(self):
        p = quartic_problem()
        r = enumerate_slope_extremals(p, [2.0], tol=1e-8)
        assert isinstance(r, Extremals)
        assert len(r) == 0
        assert list(r) == []
        assert list(cli._enumeration_rows(r)) == []
        assert r.slopes.shape == (0, 8)
        assert r.values.shape == (0, 9, 1)
        assert r.action.shape == r.first_el.shape == r.second_el.shape == (0,)
        with pytest.raises(IndexError):
            r[0]
        assert _columns(r[r.second_el <= 1e-8]) == _columns(r)
        assert _columns(filter_second_el(r)) == _columns(r)

    def test_no_trajectory_object_on_the_enumeration_path(self, count_calls):
        # rows stay columns: a GridFunction is built only when a row is read
        calls = count_calls(GridFunction, "__init__")
        p = quartic_problem()
        r = filter_second_el(enumerate_slope_extremals(p, [-1.0, 0.0, 1.0]))
        assert len(r) == 71 and len(calls) == 0
        r[0]
        assert len(calls) == 1

    @pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300])
    def test_bad_tol_rejected(self, tol):
        p = quartic_problem()
        with pytest.raises(ValueError, match="tol must be non-negative"):
            enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=tol)
        r = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="tol must be non-negative"):
            filter_second_el(r, tol=tol)

    def test_zero_tol_is_valid(self):
        p = quartic_problem()
        r = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=0.0)
        assert np.all(r.first_el == 0.0)
        survivors = filter_second_el(r, tol=0.0)
        assert np.all(survivors.second_el == 0.0)
        assert len(survivors) <= len(r)


class TestFilter:
    def test_subset_and_idempotent(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        once = filter_second_el(cands, tol=1e-8)
        twice = filter_second_el(once, tol=1e-8)
        kept = {c.slopes for c in once}
        assert kept <= {c.slopes for c in cands}
        assert [c.slopes for c in twice] == [c.slopes for c in once]
        assert isinstance(twice, Extremals)
        assert _columns(twice) == _columns(once)

    def test_monotone_in_tol(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        small = filter_second_el(cands, tol=1e-10)
        large = filter_second_el(cands, tol=100.0)
        assert {c.slopes for c in small} <= {c.slopes for c in large}
        assert len(large) == len(cands)

    def test_empty_input(self):
        p = quartic_problem()
        empty = filter_second_el(
            enumerate_slope_extremals(p, [2.0], tol=1e-8), tol=1e-8
        )
        assert len(empty) == 0


def _row(c: Candidate) -> dict:
    """The JSON-lines row of an enumerated candidate, from its fields."""
    return {
        "slopes": list(c.slopes),
        "values": c.trajectory.values.tolist(),
        "action": c.action,
        "first_el": c.first_el,
        "second_el": c.second_el,
        "provenance": c.provenance.value,
    }


class TestSerialization:
    def test_json_lines(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [0.0], tol=1e-8)
        lines = [json.dumps(row) for row in cli._enumeration_rows(cands)]
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["provenance"] == Provenance.ENUMERATED.value
        assert obj["slopes"] == [0.0] * 8
        assert obj["action"] == 1.0
        assert len(obj["values"]) == 9

    def test_json_lines_from_columns_on_random_problems(self, tmp_path):
        # the --json report of an enumeration, written from the record's
        # columns, equals byte for byte the rows built from each row's
        # Candidate fields
        rng = np.random.default_rng(solver._BLOCK_WORDS)
        path, kept = tmp_path / "rows.jsonl", 0
        for _ in range(25):
            p, letters, tol = _random_case(rng)
            r = enumerate_slope_extremals(p, letters, tol=tol)
            cli._write_json(str(path), cli._enumeration_rows(r))
            want = "\n".join(json.dumps(_row(r[i])) for i in range(len(r))) + "\n"
            assert path.read_text() == want
            kept += len(r)
        assert kept > 20
