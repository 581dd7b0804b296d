import numpy as np
import pytest

from conftest import random_exact_scale, rel_err, trajectory_from_slopes
from helpers import random_expr_text
from tsvar import (
    ExprDomainError,
    GapKind,
    GridFunction,
    Lagrangian,
    TimeScale,
    VariationalProblem,
    action,
    classical_check,
    delta_derivative,
    erdmann_deviation,
    first_el_integral_residual,
    first_el_residual,
    hamiltonian,
    second_el_residual,
    solve_newton,
)

QUARTIC_SLOPES_QT = (1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0)


def quadratic_problem():
    return VariationalProblem(
        TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [2.0]
    )


def quartic_problem():
    return VariationalProblem(
        TimeScale.uniform(0, 1, 0.125),
        Lagrangian(1, "(v1^2 - 1)^2"),
        [0.0],
        [0.0],
    )


def affine(scale, c, k):
    return GridFunction.sample(scale, lambda t: c * t + k)


class TestAction:
    def test_quadratic_slope_two(self):
        p = quadratic_problem()
        assert action(p, affine(p.scale, 2.0, 0.0)) == 4.0

    def test_quartic_candidate_one_half(self):
        p = quartic_problem()
        qt = trajectory_from_slopes(p.scale, 0.0, QUARTIC_SLOPES_QT)
        assert action(p, qt) == pytest.approx(0.5, abs=1e-15)

    def test_quartic_minimizer_zero(self):
        p = quartic_problem()
        q = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0) * 4)
        assert action(p, q) == pytest.approx(0.0, abs=1e-15)

    def test_boundary_mismatch_rejected(self):
        p = quadratic_problem()
        with pytest.raises(ValueError):
            action(p, affine(p.scale, 1.0, 0.0))


class TestFirstEl:
    def test_affine_is_extremal_any_scale(self):
        scale = TimeScale.from_points([0.0, 0.3, 1.1, 1.4, 2.0])
        L = Lagrangian(1, "v1^2")
        p = VariationalProblem(scale, L, [1.0], [1.0 + 0.5 * 2.0])
        r = first_el_residual(p, affine(scale, 0.5, 1.0))
        assert r.magnitude <= 1e-14
        assert r.values.shape == (scale.n - 2, 1)

    def test_quartic_three_slope_trajectories(self):
        p = quartic_problem()
        for slopes in (QUARTIC_SLOPES_QT, (0.0,) * 8, (1.0, -1.0) * 4):
            q = trajectory_from_slopes(p.scale, 0.0, slopes)
            assert first_el_residual(p, q).magnitude <= 1e-14

    def test_square_trajectory_residual_four(self):
        scale = TimeScale.uniform(0, 3, 1)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [9.0])
        q = GridFunction.sample(scale, lambda t: t * t)
        r = first_el_residual(p, q)
        assert np.allclose(r.values, 4.0)
        assert r.magnitude == 4.0


class TestFirstElIntegral:
    def test_affine_zero_deviation(self):
        p = quadratic_problem()
        r = first_el_integral_residual(p, affine(p.scale, 2.0, 0.0))
        assert r.magnitude <= 1e-14

    def test_square_trajectory_deviation_eight(self):
        scale = TimeScale.uniform(0, 3, 1)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [9.0])
        q = GridFunction.sample(scale, lambda t: t * t)
        assert first_el_integral_residual(p, q).magnitude == 8.0

    def test_forms_agree_on_solver_extremals(self):
        # differential residual zero implies integral residual zero
        rng = np.random.default_rng(3)
        for _ in range(10):
            scale = random_exact_scale(rng, 4, 8)
            L = Lagrangian(1, f"v1^2 + {rng.uniform(-1, 1):.6f}*t*u1")
            p = VariationalProblem(
                scale, L, [rng.uniform(-1, 1)], [rng.uniform(-1, 1)]
            )
            q = solve_newton(p)
            assert first_el_residual(p, q).magnitude <= 1e-10
            assert first_el_integral_residual(p, q).magnitude <= 1e-9

    def test_running_sum_equals_per_point_integrals_exactly(self):
        # reference: the integral restarted from point 0 at every i, with
        # the per-gap rule written out (left rectangle on S, trapezoid on D)
        def integral(scale, f, hi):
            total = np.zeros(f.shape[1])
            for j in range(hi):
                w = float(scale.points[j + 1] - scale.points[j])
                if scale.gaps[j] is GapKind.SCATTERED:
                    total += f[j] * w
                else:
                    total += 0.5 * (f[j] + f[j + 1]) * w
            return total

        rng = np.random.default_rng(7)
        for kinds in ("SSDDSDSSDD", "DDDDSSSSSD", "SDSDSDSDSS"):
            points = np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, len(kinds))])
            scale = TimeScale.from_parts(points, list(kinds))
            L = Lagrangian(2, "v1^2 + t*u1*v2 - u2^3/3 + u1*u2")
            q = GridFunction(scale, rng.uniform(-1, 1, (scale.n, 2)))
            p = VariationalProblem(scale, L, q.values[0], q.values[-1])
            qd = delta_derivative(q)
            frames = [
                (scale.points[i], q.values[scale.sigma(i)], qd.values[i])
                for i in range(qd.valid)
            ]
            d2 = np.array([L.d2(*f) for f in frames])
            d3 = np.array([L.d3(*f) for f in frames])
            g = np.array([d3[i] - integral(scale, d2, i) for i in range(len(frames))])
            got = first_el_integral_residual(p, q)
            assert np.array_equal(got.values, g - g.min(axis=0))

    def test_forms_fail_together_on_non_extremals(self):
        scale = TimeScale.uniform(0, 3, 1)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [9.0])
        q = GridFunction.sample(scale, lambda t: t * t)
        assert first_el_residual(p, q).magnitude > 1e-3
        assert first_el_integral_residual(p, q).magnitude > 1e-3


def _per_direction(L, t, U, V):
    """Value and gradient one frame and one direction at a time."""
    names = L.body.variables
    value, grad = [], []
    for env in (dict(zip(names, np.r_[ti, ui, vi])) for ti, ui, vi in zip(t, U, V)):
        value.append(L.body.evaluate(env))
        grad.append([L.body.partial(name, env) for name in names])
    return np.array(value), np.array(grad)


def _assert_batched_equals_per_frame(L, t, U, V, exact):
    n = L.dim
    batched = L.partials(t, U, V)
    frames = list(zip(t, U, V))
    single = [
        np.array([L.value(*f) for f in frames]),
        np.array([L.d1(*f) for f in frames]),
        np.array([L.d2(*f) for f in frames]),
        np.array([L.d3(*f) for f in frames]),
    ]
    value, grad = _per_direction(L, t, U, V)
    directions = [value, grad[:, 0], grad[:, 1 : n + 1], grad[:, n + 1 :]]
    for got, a, b in zip(batched, single, directions):
        for want in (a, b):
            assert got.shape == want.shape
            if exact:
                assert np.array_equal(got, want)
            else:
                ulps = 4 * np.spacing(np.maximum(np.abs(got), np.abs(want)))
                assert np.all(np.abs(got - want) <= ulps)


class TestPartials:
    def test_batched_equals_per_frame_on_random_bodies(self):
        rng = np.random.default_rng(11)
        names = ["t", "u1", "u2", "v1", "v2"]
        for _ in range(60):
            body = random_expr_text(rng, names)
            t = rng.uniform(-2, 2, 7)
            U = rng.uniform(-2, 2, (7, 2))
            V = rng.uniform(-2, 2, (7, 2))
            exact = not any(fn in body for fn in ("sin", "cos", "exp", "log", "sqrt"))
            _assert_batched_equals_per_frame(Lagrangian(2, body), t, U, V, exact)

    @pytest.mark.parametrize(
        "body, u, v, exact",
        [
            # integer and non-integer exponents in the same batch
            ("u1^v1", [0.5, 1.5, 2.0, 3.0, 2.5], [2.0, 3.0, 0.5, -1.0, 0.0], False),
            ("v1 * u1^v1 + 1", [1.5, 2.0, 0.75], [2.0, 2.0, -2.0], False),
            ("(u1 - 1)^2 + v1^3", [1.0, 0.0, 2.5], [-1.0, 0.0, 1.0], True),
            ("sqrt(u1^2) + v1", [0.0, -1.5, 2.0], [1.0, 0.0, -1.0], False),
        ],
    )
    def test_batched_equals_per_frame_on_edge_cases(self, body, u, v, exact):
        L = Lagrangian(1, body)
        t = np.linspace(0.0, 1.0, len(u))
        U = np.array(u)[:, None]
        V = np.array(v)[:, None]
        _assert_batched_equals_per_frame(L, t, U, V, exact)

    @pytest.mark.parametrize(
        "body, var, bad",
        [
            ("log(u1) + v1", "u1", 0.0),
            ("sqrt(u1) + v1", "u1", 0.0),
            ("1 / (v1 - 1)", "v1", 1.0),
            ("u1^v1", "u1", -2.0),
            ("v1^-1", "v1", 0.0),
        ],
    )
    def test_domain_error_at_one_frame_matches_scalar_message(self, body, var, bad):
        L = Lagrangian(1, body)
        t = np.array([0.0, 0.5, 1.0, 1.5])
        U = np.array([[0.5], [1.5], [2.0], [2.5]])
        V = np.array([[2.0], [3.0], [0.5], [2.5]])
        (U if var == "u1" else V)[2, 0] = bad
        with pytest.raises(ExprDomainError) as batched:
            L.partials(t, U, V)
        env = {"t": t[2], "u1": U[2, 0], "v1": V[2, 0]}
        with pytest.raises(ExprDomainError) as scalar:
            for name in ("t", "u1", "v1"):
                L.body.partial(name, env)
        assert str(batched.value) == str(scalar.value)


class TestHamiltonian:
    def test_quadratic_slope_c(self):
        p = quadratic_problem()
        q = affine(p.scale, 2.0, 0.0)
        for i in range(p.scale.n - 1):
            assert hamiltonian(p, q, i) == pytest.approx(4.0, abs=1e-14)

    def test_quartic_values_by_slope(self):
        p = quartic_problem()
        zero = trajectory_from_slopes(p.scale, 0.0, (0.0,) * 8)
        assert hamiltonian(p, zero, 2) == pytest.approx(-1.0, abs=1e-14)
        pm = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0) * 4)
        assert hamiltonian(p, pm, 2) == pytest.approx(0.0, abs=1e-14)

    def test_classical_reduction_when_graininess_vanishes(self):
        scale = TimeScale.dense_interval(0.0, 1.0, 41)
        L = Lagrangian(1, "v1^2 + sin(t)*u1")
        p = VariationalProblem(scale, L, [0.0], [1.0])
        q = GridFunction.sample(scale, lambda t: t)
        qd = delta_derivative(q)
        for i in (0, 10, 25):
            t = scale.points[i]
            u = q.values[scale.sigma(i)]
            v = qd.values[i]
            classical = -L.value(t, u, v) + float(L.d3(t, u, v) @ v)
            assert hamiltonian(p, q, i) == classical

    def test_out_of_prefix_index(self):
        p = quadratic_problem()
        with pytest.raises(IndexError):
            hamiltonian(p, affine(p.scale, 2.0, 0.0), p.scale.n - 1)


class TestSecondEl:
    def test_affine_zero(self):
        p = quadratic_problem()
        assert second_el_residual(p, affine(p.scale, 2.0, 0.0)).magnitude <= 1e-14

    def test_quartic_mixed_slopes_nonzero(self):
        p = quartic_problem()
        qt = trajectory_from_slopes(p.scale, 0.0, QUARTIC_SLOPES_QT)
        r = second_el_residual(p, qt)
        assert r.magnitude == pytest.approx(8.0, abs=1e-12)  # jumps of size 1 over 1/8

    def test_quartic_pm_one_slopes_zero(self):
        p = quartic_problem()
        q = trajectory_from_slopes(p.scale, 0.0, (1.0, 1.0, -1.0, -1.0) * 2)
        assert second_el_residual(p, q).magnitude <= 1e-14


class TestErdmann:
    def test_affine_constant(self):
        p = quadratic_problem()
        assert erdmann_deviation(p, affine(p.scale, 2.0, 0.0)) == 0.0

    def test_quartic_mixed_slope_deviation_one(self):
        p = quartic_problem()
        qt = trajectory_from_slopes(p.scale, 0.0, QUARTIC_SLOPES_QT)
        assert erdmann_deviation(p, qt) == pytest.approx(1.0, abs=1e-14)

    def test_quartic_pm_one_zero(self):
        p = quartic_problem()
        q = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0) * 4)
        assert erdmann_deviation(p, q) == pytest.approx(0.0, abs=1e-14)

    def test_non_autonomous_rejected_with_point(self):
        scale = TimeScale.uniform(1, 2, 0.25)
        p = VariationalProblem(scale, Lagrangian(1, "t*v1^2"), [0.0], [1.0])
        q = affine(scale, 1.0, -1.0)
        with pytest.raises(ValueError, match="t = "):
            erdmann_deviation(p, q)


class TestClassicalCheck:
    def test_affine_on_dense_grid_exact(self):
        scale = TimeScale.dense_interval(0, 1, 101)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [2.0])
        r = classical_check(p, affine(scale, 2.0, 0.0))
        assert r.magnitude < 1e-8
        assert r.approximate

    def test_refinement_study_first_order(self):
        # classical extremal of L = v^2 + u is q = t^2/4 + a t + b
        mags = []
        for resolution in (101, 201, 401):
            scale = TimeScale.dense_interval(0.0, 1.0, resolution)
            p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1"), [0.0], [1.0])
            q = GridFunction.sample(scale, lambda t: t * t / 4 + 0.75 * t)
            mags.append(classical_check(p, q).magnitude)
        assert 1.4 <= mags[0] / mags[1] <= 2.6
        assert 1.4 <= mags[1] / mags[2] <= 2.6

    def test_constant_trajectory_structure(self):
        # second-form residual vanishes for constant q under an autonomous
        # integrand, while the first equation picks up the dL/du coupling
        scale = TimeScale.dense_interval(0, 1, 51)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1"), [0.5], [0.5])
        q = GridFunction.sample(scale, lambda t: 0.5)
        assert classical_check(p, q).magnitude <= 1e-12
        assert first_el_residual(p, q).magnitude == pytest.approx(1.0, abs=1e-12)

    def test_rejects_discrete_scale(self):
        p = quadratic_problem()
        with pytest.raises(ValueError):
            classical_check(p, affine(p.scale, 2.0, 0.0))


class TestStructuralProperties:
    def test_second_el_zero_on_extremals_of_slope_only_lagrangians(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            scale = random_exact_scale(rng, 4, 9)
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(-2.0, 2.0)
            c = rng.uniform(-2.0, 2.0)
            L = Lagrangian(1, f"{a:.6f}*v1^2 + {b:.6f}*v1 + {c:.6f}")
            p = VariationalProblem(
                scale, L, [rng.uniform(-1, 1)], [rng.uniform(-1, 1)]
            )
            q = solve_newton(p)
            assert first_el_residual(p, q).magnitude <= 1e-10
            assert second_el_residual(p, q).magnitude <= 1e-8

    def test_graininess_term_reduces_energy_drift(self):
        # Newton extremal of L = t v^2 on a uniform 1/10 grid over [1, 2]:
        # the classical quantity -L + dL/dv * v drifts by much more than
        # 10 h, the graininess-corrected residual is several times smaller
        # and shrinks linearly with h
        def drift_and_residual(h):
            scale = TimeScale.uniform(1.0, 2.0, h)
            p = VariationalProblem(scale, Lagrangian(1, "t*v1^2"), [0.0], [2.0])
            q = solve_newton(p)
            L = p.lagrangian
            qd = delta_derivative(q)
            E = []
            for i in range(qd.valid):
                t = scale.points[i]
                u = q.values[scale.sigma(i)]
                v = qd.values[i]
                E.append(-L.value(t, u, v) + float(L.d3(t, u, v) @ v))
            drift = max(E) - min(E)
            return drift, second_el_residual(p, q).magnitude

        drift, residual = drift_and_residual(0.1)
        assert drift > 10 * 0.1
        assert residual < drift / 4
        _, finer = drift_and_residual(0.05)
        assert 1.4 <= residual / finer <= 2.6

    def test_scaling_by_power_of_two_is_bitwise(self):
        scale = TimeScale.from_points([0.0, 0.4, 1.1, 1.7, 2.0])
        base = Lagrangian(1, "v1^2 + t*u1")
        scaled = Lagrangian(1, "4*(v1^2 + t*u1)")
        q = GridFunction.sample(scale, lambda t: 0.3 * t * t - 0.1)
        qa, qb = q.values[0], q.values[-1]
        p0 = VariationalProblem(scale, base, qa, qb)
        p4 = VariationalProblem(scale, scaled, qa, qb)
        for fn in (first_el_residual, second_el_residual):
            r0 = fn(p0, q)
            r4 = fn(p4, q)
            assert np.array_equal(r4.values, 4.0 * r0.values)

    def test_scaling_by_ten_within_rounding(self):
        scale = TimeScale.from_points([0.0, 0.4, 1.1, 1.7, 2.0])
        base = Lagrangian(1, "v1^2 + t*u1")
        scaled = Lagrangian(1, "10*(v1^2 + t*u1)")
        q = GridFunction.sample(scale, lambda t: 0.3 * t * t - 0.1)
        qa, qb = q.values[0], q.values[-1]
        p0 = VariationalProblem(scale, base, qa, qb)
        p10 = VariationalProblem(scale, scaled, qa, qb)
        for fn in (first_el_residual, second_el_residual):
            assert rel_err(fn(p10, q).values, 10.0 * fn(p0, q).values) < 1e-13

    def test_residual_json_shape(self):
        p = quadratic_problem()
        r = first_el_residual(p, affine(p.scale, 2.0, 0.0))
        obj = r.to_json()
        assert obj["kind"] == "first_el"
        assert len(obj["points"]) == len(obj["values"])
        assert obj["magnitude"] == r.magnitude
        assert obj["approximate"] is False

    def test_vector_valued_problem(self):
        scale = TimeScale.uniform(0, 1, 0.25)
        L = Lagrangian(2, "v1^2 + v2^2")
        p = VariationalProblem(scale, L, [0.0, 1.0], [2.0, 0.0])
        q = GridFunction(
            scale,
            np.column_stack([2.0 * scale.points, 1.0 - scale.points]),
        )
        assert first_el_residual(p, q).magnitude <= 1e-14
        assert second_el_residual(p, q).magnitude <= 1e-14
        assert action(p, q) == pytest.approx(5.0, abs=1e-14)
