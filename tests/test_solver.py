import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_exact_scale, trajectory_from_slopes
from helpers import column_jacobian
from tsvar import (
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
from tsvar import cli, solver
from tsvar.solver import _detects_quadratic_slope
from tsvar.variational import _along

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
        # linear residual system: the first step lands at the root up to
        # finite-difference Jacobian error, the second polishes to 1e-12
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [2.0]
        )
        rng = np.random.default_rng(0)
        init_vals = affine_extremal(p).values.copy()
        init_vals[1:-1] += rng.uniform(-3, 3, (p.scale.n - 2, 1))
        init = GridFunction(p.scale, init_vals)
        one_step = solve_newton(p, init, NewtonOptions(max_iter=1, tol=1e-4))
        assert np.max(np.abs(one_step.values - affine_extremal(p).values)) <= 1e-4
        q = solve_newton(p, init, NewtonOptions(max_iter=2, tol=1e-12))
        assert np.max(np.abs(q.values - affine_extremal(p).values)) <= 1e-12

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
        p = quartic_problem()
        init = trajectory_from_slopes(p.scale, 0.0, (0.5, -0.5) * 4)
        with pytest.raises(NoConvergence) as err:
            solve_newton(p, init, NewtonOptions(tol=1e-10, max_iter=2))
        assert len(err.value.history) >= 1
        assert err.value.trajectory.valid == p.scale.n

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
        from tsvar import SingularSystem

        with pytest.raises(SingularSystem):
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
        # 1e-10 at 401 points; the history is 3.99, 8.6e-05, 1.9e-10
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

    def test_each_iterate_evaluated_once(self, monkeypatch):
        # the residual of the accepted trial step is the next iterate's
        seen = []
        along = solver._along

        def recording(p, q, *args):
            seen.append(q.values.tobytes())
            return along(p, q, *args)

        monkeypatch.setattr(solver, "_along", recording)
        solve_newton(newton_problem())
        residuals = seen[1:]  # seen[0] is the check of the initial guess
        # two steps, no halvings: one residual per iterate (the guess and
        # two accepted steps) and 3n = 3 per Jacobian (two Jacobians)
        assert len(residuals) == 3 + 2 * 3
        assert len(set(residuals)) == len(residuals)

    @pytest.mark.parametrize(
        "options",
        [{"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": -1.0}],
    )
    def test_options_reject_non_finite_or_non_positive(self, options):
        with pytest.raises(ValueError, match="positive and finite"):
            NewtonOptions(**options)


def first_el_vector(p):
    """Newton's residual map: interior values to stacked first-EL rows."""
    return lambda x: _along(p, solver._assemble(p, x)).first_el().values.ravel()


JACOBIAN_TERMS = {
    "polynomial": "t*v{j}^2 + u{j}^3*v{k} + 0.5*u{j}*u{k}",
    "exp": "exp(v{j}/3)*u{k} + v{j}^2",
    "sin": "sin(u{j} + v{k}) + v{j}^2",
    "sqrt": "sqrt(v{j}^2 + u{k}^2 + 1) + v{j}^2",
    "real power": "t^1.5*u{j}^2*v{k} + v{j}^2",
}


class TestJacobian:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(JACOBIAN_TERMS))
    def test_equals_column_by_column_reference(self, kind, n):
        # a frame reads two neighbouring unknown blocks and a row three, so
        # perturbing every column of a colour at once gives each in-band
        # entry the float of its own one-column perturbation
        rng = np.random.default_rng(n)
        body = " + ".join(
            JACOBIAN_TERMS[kind].format(j=j, k=j % n + 1) for j in range(1, n + 1)
        )
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
            F = residual(x)
            J = solver._jacobian(residual, x, F, n)
            assert np.array_equal(J, column_jacobian(residual, x, F, solver.FD_STEP))

    @pytest.mark.parametrize(
        "n, body",
        [(1, "t*v1^2 + u1^2"), (2, "t*v1^2 + v2^2 + u1*u2 + u1^2 + u2^2")],
    )
    def test_three_n_residual_evaluations_at_any_size(self, n, body, count_calls):
        calls = count_calls(Lagrangian, "partials")
        per_jacobian = []
        for N in (21, 201):
            scale = TimeScale.uniform(1, 2, 1 / (N - 1))
            p = VariationalProblem(scale, Lagrangian(n, body), np.zeros(n), np.ones(n))
            residual = first_el_vector(p)
            x = affine_extremal(p).values[1:-1].ravel()
            F = residual(x)
            before = len(calls)
            solver._jacobian(residual, x, F, n)
            per_jacobian.append(len(calls) - before)
        assert per_jacobian == [3 * n, 3 * n]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_residual_fails_in_the_condition_estimate(self):
        # the bump overflows the guess's first-EL rows to +-inf; their band
        # entries are NaN, which the SVD behind np.linalg.cond cannot take,
        # so the Jacobian is refused before the condition estimate
        scale = TimeScale.uniform(0, 1, 0.125)
        p = VariationalProblem(scale, Lagrangian(1, "1e300*v1*v1"), [0.0], [1.0])
        values = affine_extremal(p).values.copy()
        values[4] += 1e7
        assert np.isinf(first_el_residual(p, GridFunction(scale, values)).values).any()
        with pytest.raises(SingularSystem, match="^jacobian has non-finite entries$"):
            solve_newton(p, GridFunction(scale, values))


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


def assert_diagnosed(p, c):
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
        assert_diagnosed(p, c)

    def test_newton_otherwise(self):
        p = newton_problem()
        opts = NewtonOptions(tol=1e-11)
        c = solve(p, opts)
        assert c.provenance is Provenance.NEWTON
        assert np.array_equal(c.trajectory.values, solve_newton(p, opts=opts).values)
        assert c.first_el <= 1e-11
        assert_diagnosed(p, c)

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
        "body, dim, verdict",
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
        ],
    )
    def test_quadratic_probe_verdicts(self, body, dim, verdict):
        assert _detects_quadratic_slope(Lagrangian(dim, body)) is verdict

    def test_tiny_state_coupling_goes_to_newton(self):
        # a random numerical probe once took v1^2 + 1e-10*u1^2 for a pure
        # slope form and returned the affine guess with first_el 1.75e-08
        scale = TimeScale.uniform(0, 1, 0.125)
        L = Lagrangian(1, "v1^2 + 1e-10*u1^2")
        p = VariationalProblem(scale, L, [0.0], [100.0])
        c = solve(p)
        assert c.provenance is Provenance.NEWTON
        assert c.first_el <= 1e-11
        assert_diagnosed(p, c)

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
        survivors = filter_second_el(p, cands, tol=1e-8)
        assert len(survivors) == 71

    def test_quartic_file_evaluation_count(self, count_calls):
        # one evaluation per boundary hit feeds the first-EL filter and,
        # for a kept word, its action and second-EL magnitude
        p = cli.load_problem(QUARTIC).problem
        words = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=8)))
        hits = int(np.sum(np.abs(words @ p.scale.mus[:-1]) <= 1e-9))
        calls = count_calls(Lagrangian, "partials")
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        assert len(calls) == hits == 1107
        assert len(cands) == 1107

    def test_quartic_membership_and_actions(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        survivors = filter_second_el(p, cands, tol=1e-8)
        assert any(c.slopes == QT for c in cands)
        assert not any(c.slopes == QT for c in survivors)
        rejected = [c for c in cands if c.second_el > 1e-8]
        assert all(c.action > 0 for c in rejected)
        # the filter keeps the optimum: minimum action is 0 on both sides
        assert min(c.action for c in cands) == 0.0
        assert min(c.action for c in survivors) == 0.0
        # survivors are the zero trajectory plus all +-1 slope words
        assert sorted({round(c.action, 12) for c in survivors}) == [0.0, 1.0]
        assert sum(1 for c in survivors if c.action == 0.0) == 70

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


class TestFilter:
    def test_subset_and_idempotent(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        once = filter_second_el(p, cands, tol=1e-8)
        twice = filter_second_el(p, once, tol=1e-8)
        kept = {c.slopes for c in once}
        assert kept <= {c.slopes for c in cands}
        assert [c.slopes for c in twice] == [c.slopes for c in once]

    def test_monotone_in_tol(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [-1.0, 0.0, 1.0], tol=1e-8)
        small = filter_second_el(p, cands, tol=1e-10)
        large = filter_second_el(p, cands, tol=100.0)
        assert {c.slopes for c in small} <= {c.slopes for c in large}
        assert len(large) == len(cands)

    def test_empty_input(self):
        p = quartic_problem()
        empty = filter_second_el(
            p, enumerate_slope_extremals(p, [2.0], tol=1e-8), tol=1e-8
        )
        assert len(empty) == 0


class TestSerialization:
    def test_json_lines(self):
        p = quartic_problem()
        cands = enumerate_slope_extremals(p, [0.0], tol=1e-8)
        lines = [json.dumps(c.to_json()) for c in cands]
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["provenance"] == Provenance.ENUMERATED.value
        assert obj["slopes"] == [0.0] * 8
        assert obj["action"] == 1.0
        assert len(obj["values"]) == 9
