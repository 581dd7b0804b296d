import re
import warnings

import numpy as np
import pytest

from conftest import random_exact_scale, rel_err, trajectory_from_slopes
from helpers import at_point, frame_partials, random_expr_text
from tsvar import (
    ExprDomainError,
    GapKind,
    GridFunction,
    Lagrangian,
    Residual,
    TimeScale,
    Transformation,
    VariationalProblem,
    action,
    check_conservation,
    classical_check,
    conserved_quantity,
    delta_derivative,
    delta_integral,
    evaluate,
    first_el_integral_residual,
    first_el_residual,
    invariance_residual,
    parse,
    second_el_residual,
    solve_newton,
)
from tsvar.noether import _sample
from tsvar.variational import Evaluation, _alongs

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

    @pytest.mark.parametrize(
        "gaps",
        ["DDDDDD", "SDDSSD", "DSSDDS", "SSSSSD", "DDDDDS"],
        ids=["all-D", "mixed-ends-D", "mixed-ends-S", "S-ends-D", "D-ends-S"],
    )
    @pytest.mark.parametrize(
        "body", ["v1^2 + u1^2", "t*sin(v1) + exp(0.3*u1)", "(1 + v1^2)^1.5 - log(t)"]
    )
    def test_equals_extended_frame_reference(self, gaps, body):
        # reference: L on frames extended to the last point by the backward
        # quotient when the last gap is DENSE, then one delta integral
        points = [0.5, 0.75, 1.5, 1.625, 2.0, 3.0, 3.25]
        scale = TimeScale.from_parts(points, list(gaps))
        rng = np.random.default_rng(len(body))
        q = GridFunction(scale, rng.uniform(-2.0, 2.0, (scale.n, 1)))
        L = Lagrangian(1, body)
        p = VariationalProblem(scale, L, q.values[0], q.values[-1])
        v = delta_derivative(q).values
        if gaps[-1] == "D":
            w = scale.points[-1] - scale.points[-2]
            v = np.vstack([v, (q.values[-1] - q.values[-2]) / w])
        t = scale.points[: len(v)]
        Ls = L.partials(t, q.values[scale.sigmas[: len(v)]], v)[0]
        reference = delta_integral(GridFunction(scale, Ls), 0, scale.n - 1)[0]
        assert action(p, q) == reference


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
            _, _, d2, d3 = map(np.array, zip(*(frame_partials(L, *f) for f in frames)))
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
        value.append(at_point(L.body, env)[0])
        grad.append([at_point(L.body, env, name)[1] for name in names])
    return np.array(value), np.array(grad)


def _assert_batched_equals_per_frame(L, t, U, V, exact):
    n = L.dim
    batched = L.partials(t, U, V)
    frames = list(zip(t, U, V))
    single = map(np.array, zip(*(frame_partials(L, *f) for f in frames)))
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
    @pytest.mark.parametrize("body", [parse("v1", ("t", "u1", "v1")), 2.0, None])
    def test_body_must_be_text(self, body):
        with pytest.raises(TypeError, match="must be a string"):
            Lagrangian(1, body)

    @pytest.mark.parametrize("order", [0, 3, 1.5, "2"])
    def test_order_is_one_or_two(self, order):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            Lagrangian(1, "v1^2").partials([0.0], [[0.0]], [[1.0]], order)

    @pytest.mark.parametrize(
        "body, message",
        [
            # b (b-1) u^(b-2) is unbounded at u = 0 for 1 < b < 2
            ("u1^1.5 + v1^2", "power not twice differentiable at zero base in 'u1^1.5'"),
            # the base's own second derivative times b x^(b-1), b < 1
            ("(u1^2)^0.5 + v1", "power not twice differentiable at zero base in '(u1^2)^0.5'"),
            ("sqrt(u1^2) + v1^2", "sqrt not twice differentiable at zero in 'sqrt(u1^2)'"),
        ],
    )
    def test_once_but_not_twice_differentiable_point(self, body, message):
        # the first-order pass is defined at u1 = 0 and finite; the
        # second-order one raises there, naming the subexpression, rather
        # than return an infinite or NaN second partial
        L = Lagrangian(1, body)
        t, U, V = np.array([0.5, 1.0]), np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]])
        assert all(np.all(np.isfinite(x)) for x in L.partials(t, U, V))
        with pytest.raises(ExprDomainError) as err:
            L.partials(t, U, V, order=2)
        assert str(err.value) == message

    def test_second_order_power_decided_frame_by_frame(self):
        # the exponent v1^3 + 2 is flat to second order at v1 = 0, where the
        # negative base is squared directly; at v1 = 1 it moves, and the
        # power goes through exp(b log a) as sympy's derivatives do
        sympy = pytest.importorskip("sympy")
        L = Lagrangian(1, "u1^(v1^3 + 2)")
        t, U, V = np.array([0.5, 0.5]), np.array([[-1.5], [1.5]]), np.array([[0.0], [1.0]])
        *first, H = L.partials(t, U, V, order=2)
        assert [float(x[0]) for x in first[:2]] == [2.25, 0.0]
        assert first[2][0, 0] == -3.0 and first[3][0, 0] == 0.0
        assert np.array_equal(H[0], [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        s = sympy.symbols("t u1 v1")
        want = sympy.hessian(s[1] ** (s[2] ** 3 + 2), s).subs({s[1]: 1.5, s[2]: 1.0})
        want = np.array(want, dtype=float)
        assert np.max(np.abs(H[1] - want) / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_held_variables_carry_no_seed(self):
        # every partial along a variable held at a frame is 0 there, and the
        # rest are the full passes' bits; t^1.5 at t = 0 and u1^1.5 at
        # u1 = 0 have no second partial along t and u, which are held there
        L = Lagrangian(1, "t^1.5*v1^2 + u1^1.5*v1")
        t = np.array([0.0, 0.5, 1.0])
        U, V = np.array([[1.0], [2.0], [0.0]]), np.array([[1.0], [2.0], [3.0]])
        moving = np.ones((3, 3), dtype=bool)
        moving[:, 0] = moving[2, 1] = False
        with pytest.raises(ExprDomainError, match="not twice differentiable"):
            L.partials(t, U, V, order=2)
        *first, H = L.partials(t, U, V, order=2, moving=moving)
        full = L.partials(t, U, V)
        held = [np.zeros(3), np.array([[1.0], [1.0], [0.0]]), np.ones((3, 1))]
        assert np.array_equal(first[0], full[0])
        for got, want, keep in zip(first[1:], full[1:], held):
            assert np.array_equal(got, want * keep)
        assert np.array_equal(H[0], [[0.0, 0.0, 0.0], [0.0, 0.75, 1.5], [0.0, 1.5, 0.0]])
        frame = L.partials(t[1:2], U[1:2], V[1:2], order=2)[4][0].copy()
        frame[0] = frame[:, 0] = 0.0
        assert np.array_equal(H[1], frame)
        assert np.array_equal(H[2], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])

    @pytest.mark.parametrize(
        "body, L, Lt, H",
        [
            # every value along the pass finite: the held partials are 0
            ("2*u1*3*v1 + t", 6.5, 0.0, [[0, 0, 0], [0, 0, 6.0], [0, 6.0, 0]]),
            # the product overflows; the zero seed of t times inf is NaN,
            # and it spreads into dL/dt and every second partial
            ("1e300*u1*1e300*v1 + t", np.inf, np.nan, np.full((3, 3), np.nan)),
        ],
        ids=["finite", "overflowed"],
    )
    def test_held_partial_is_0_only_where_the_pass_is_finite(self, body, L, Lt, H):
        moving = [[False, True, True]]
        got = Lagrangian(1, body).partials([0.5], [[1.0]], [[1.0]], order=2, moving=moving)
        assert got[0].tolist() == [L]
        assert np.array_equal(got[1], [Lt], equal_nan=True)
        assert np.array_equal(got[4][0], H, equal_nan=True)

    @pytest.mark.parametrize("body", ["u1^2.5 + v1", "(u1^2)^1.5 + v1"])
    def test_twice_differentiable_powers_at_zero_base(self, body):
        # x^2.5 and |u|^3 have zero second partials at 0
        L = Lagrangian(1, body)
        H = L.partials([0.5], [[0.0]], [[1.0]], order=2)[4]
        assert np.array_equal(H, np.zeros((1, 3, 3)))

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
            # an array exponent, integral in every frame and direction
            ("u1^(t - t + 2) + v1", [-1.5, 0.0, 2.0], [1.0, 0.0, -1.0], True),
            # an array exponent, integral nowhere
            ("u1^(t - t + 0.5) + v1", [0.5, 1.5, 2.0], [1.0, 0.0, -1.0], True),
        ],
    )
    def test_batched_equals_per_frame_on_edge_cases(self, body, u, v, exact):
        L = Lagrangian(1, body)
        t = np.linspace(0.0, 1.0, len(u))
        U = np.array(u)[:, None]
        V = np.array(v)[:, None]
        _assert_batched_equals_per_frame(L, t, U, V, exact)

    @pytest.mark.parametrize("order, newton", [(1, False), (2, False), (2, True)])
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
    def test_domain_error_at_one_frame_matches_scalar_message(
        self, body, var, bad, order, newton
    ):
        # newton: the mask of Newton's Jacobian, t held at every frame and u
        # at the last
        L = Lagrangian(1, body)
        t = np.array([0.0, 0.5, 1.0, 1.5])
        U = np.array([[0.5], [1.5], [2.0], [2.5]])
        V = np.array([[2.0], [3.0], [0.5], [2.5]])
        (U if var == "u1" else V)[2, 0] = bad
        moving = None
        if newton:
            moving = np.ones((4, 3), dtype=bool)
            moving[:, 0] = moving[-1, 1] = False
        with pytest.raises(ExprDomainError) as batched:
            L.partials(t, U, V, order, moving)
        env = {"t": t[2], "u1": U[2, 0], "v1": V[2, 0]}
        with pytest.raises(ExprDomainError) as scalar:
            for name in ("t", "u1", "v1"):
                at_point(L.body, env, name)
        assert str(batched.value) == str(scalar.value)


    @pytest.mark.parametrize("order", [1, 2])
    def test_left_operand_raises_first(self, order):
        # both sides fail, at different frames: the error is the left one's
        L = Lagrangian(1, "log(u1) + sqrt(v1)")
        t = np.linspace(0.0, 1.0, 5)
        U, V = np.ones((5, 1)), np.ones((5, 1))
        U[3, 0], V[1, 0] = 0.0, -1.0
        with pytest.raises(ExprDomainError) as err:
            L.partials(t, U, V, order)
        assert str(err.value) == "log of a non-positive value in 'log(u1)'"

    def test_overflowed_constant_poisons_the_other_partials(self):
        # 1e200*1e200 is inf; inf times the zero seeds of t and v is NaN, so
        # dL/dt and dL/dv are NaN, without a warning (README)
        L = Lagrangian(1, "1e200*1e200*u1 + v1^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, Lt, Lu, Lv = L.partials([0.5], [[2.0]], [[1.0]])
        assert value[0] == np.inf and Lu[0, 0] == np.inf
        assert np.isnan(Lt[0]) and np.isnan(Lv[0, 0])


def _sympy_partials(text, names, frames, order=1):
    """L and its gradient over (t, u1..un, v1..vn) at each frame (one row
    of values per name), from sympy's symbolic derivatives of the body;
    with ``order=2`` also the second derivatives, one row per pair of
    names in row-major order, each pair differentiated twice by sympy."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(names)
    body = sympy.sympify(text.replace("^", "**"), locals=dict(zip(names, symbols)))
    exprs = [body] + [sympy.diff(body, s) for s in symbols]
    if order == 2:
        exprs += [sympy.diff(body, a, b) for a in symbols for b in symbols]
    fn = sympy.lambdify(symbols, exprs, "numpy")
    k = frames.shape[1]
    return [np.broadcast_to(np.asarray(r, dtype=float), (k,)) for r in fn(*frames)]


def _random_bodies(n):
    """The 100 random bodies over (t, u1..un, v1..vn) of the oracle tests,
    every other one scaled by the real power t^1.5, each with 5 frames:
    (names, text, t, U, V), the same for the same n."""
    rng = np.random.default_rng(70 + n)
    names = list(Lagrangian(n, "t").body.variables)
    for i in range(100):
        text = random_expr_text(rng, names)
        if i % 2:
            text = f"t^1.5 * ({text})"
        t = rng.uniform(0.25, 2.0, 5)
        U, V = rng.uniform(-2, 2, (2, 5, n))
        yield names, text, t, U, V


class TestSympyOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_partials_match_symbolic_derivatives(self, n):
        # the worst gap over these 300 bodies is about 1e-14
        for names, text, t, U, V in _random_bodies(n):
            got = np.column_stack(Lagrangian(n, text).partials(t, U, V))
            frames = np.vstack([t, U.T, V.T])
            want = np.column_stack(_sympy_partials(text, names, frames))
            assert np.all(np.isfinite(want)), text
            gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert np.max(gap) <= 1e-12, (text, np.max(gap))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_second_partials_match_symbolic_derivatives(self, n):
        # the same 300 bodies: the second-order pass gives the first-order
        # results and, per frame, the symmetric matrix of second partials
        # that sympy's twice-differentiated body gives; the worst gap is
        # about 1e-14
        d = 2 * n + 1
        for names, text, t, U, V in _random_bodies(n):
            L = Lagrangian(n, text)
            *first, H = L.partials(t, U, V, order=2)
            assert H.shape == (5, d, d)
            assert np.array_equal(H, H.swapaxes(1, 2))
            for a, b in zip(first, L.partials(t, U, V)):
                assert np.array_equal(a, b)
            frames = np.vstack([t, U.T, V.T])
            want = np.column_stack(_sympy_partials(text, names, frames, 2)[1 + d :])
            assert np.all(np.isfinite(want)), text
            got = H.reshape(5, d * d)
            gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert np.max(gap) <= 1e-12, (text, np.max(gap))


class TestHamiltonian:
    def test_quadratic_slope_c(self):
        p = quadratic_problem()
        H = evaluate(p, affine(p.scale, 2.0, 0.0)).hamiltonian()
        assert H.shape == (p.scale.n - 1,)
        assert H == pytest.approx(np.full(p.scale.n - 1, 4.0), abs=1e-14)

    def test_quartic_values_by_slope(self):
        p = quartic_problem()
        zero = trajectory_from_slopes(p.scale, 0.0, (0.0,) * 8)
        assert evaluate(p, zero).hamiltonian()[2] == pytest.approx(-1.0, abs=1e-14)
        pm = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0) * 4)
        assert evaluate(p, pm).hamiltonian()[2] == pytest.approx(0.0, abs=1e-14)

    def test_classical_reduction_when_graininess_vanishes(self):
        scale = TimeScale.dense_interval(0.0, 1.0, 41)
        L = Lagrangian(1, "v1^2 + sin(t)*u1")
        p = VariationalProblem(scale, L, [0.0], [1.0])
        q = GridFunction.sample(scale, lambda t: t)
        qd = delta_derivative(q)
        H = evaluate(p, q).hamiltonian()
        for i in (0, 10, 25):
            t = scale.points[i]
            u = q.values[scale.sigma(i)]
            v = qd.values[i]
            value, _, _, Lv = frame_partials(L, t, u, v)
            classical = -value + float(Lv @ v)
            assert H[i] == classical

    def test_out_of_prefix_index(self):
        # H covers the derivative prefix, the first N-1 points
        p = quadratic_problem()
        H = evaluate(p, affine(p.scale, 2.0, 0.0)).hamiltonian()
        assert H.shape == (p.scale.n - 1,)
        with pytest.raises(IndexError):
            H[p.scale.n - 1]


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


    def test_grid_gradient_of_the_action(self):
        # on an exact discrete scale second_el at j-1 is (dS/dt_j)/mu_{j-1},
        # where S is the action with the values q held and the interior
        # point t_j moved; in closed form dS/dt_j = H_j - E_{j-1}, with
        # H = -L + L_v v + mu L_t and E = H - mu L_t
        rng = np.random.default_rng(3)
        L = Lagrangian(1, "t*v1^2 + 0.7*u1^2 + 0.3*t*u1 + sin(v1)")
        step = 1e-5
        for _ in range(100):
            scale = random_exact_scale(rng, 5, 11)
            q = GridFunction(scale, rng.uniform(-1, 1, (scale.n, 1)))
            p = VariationalProblem(scale, L, q.values[0], q.values[-1])
            r = second_el_residual(p, q).values[:, 0]
            t, mu, v = scale.points, scale.mus, delta_derivative(q).values
            H = evaluate(p, q).hamiltonian()
            frames = zip(t, q.values[1:], v)
            Lt = np.array([frame_partials(L, *frame)[1] for frame in frames])
            E = H - mu[:-1] * Lt
            for j in range(1, scale.n - 1):
                closed = (H[j] - E[j - 1]) / mu[j - 1]
                assert abs(r[j - 1] - closed) <= 1e-12 * max(1.0, abs(closed))
                moved = []
                for sign in (1, -1):
                    pts = t.copy()
                    pts[j] += sign * step
                    moved_scale = TimeScale.from_points(pts)
                    moved_p = VariationalProblem(moved_scale, L, p.q_a, p.q_b)
                    moved.append(action(moved_p, GridFunction(moved_scale, q.values)))
                gradient = (moved[0] - moved[1]) / (2 * step)
                fd = gradient / mu[j - 1]
                assert abs(r[j - 1] - fd) <= 1e-6 * max(1.0, abs(closed))


class TestErdmann:
    def test_affine_constant(self):
        p = quadratic_problem()
        assert evaluate(p, affine(p.scale, 2.0, 0.0)).erdmann() == 0.0

    def test_quartic_mixed_slope_deviation_one(self):
        p = quartic_problem()
        qt = trajectory_from_slopes(p.scale, 0.0, QUARTIC_SLOPES_QT)
        assert evaluate(p, qt).erdmann() == pytest.approx(1.0, abs=1e-14)

    def test_quartic_pm_one_zero(self):
        p = quartic_problem()
        q = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0) * 4)
        assert evaluate(p, q).erdmann() == pytest.approx(0.0, abs=1e-14)

    def test_non_autonomous_rejected_with_point(self):
        scale = TimeScale.uniform(1, 2, 0.25)
        p = VariationalProblem(scale, Lagrangian(1, "t*v1^2"), [0.0], [1.0])
        q = affine(scale, 1.0, -1.0)
        with pytest.raises(ValueError, match="t = "):
            evaluate(p, q).erdmann()


class TestClassicalCheck:
    def test_affine_on_dense_grid_exact(self):
        scale = TimeScale.dense_interval(0, 1, 101)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [2.0])
        r = classical_check(p, affine(scale, 2.0, 0.0))
        assert r.magnitude < 1e-8
        assert r.approximate

    def test_refinement_study_first_order(self):
        # classical extremal of L = v^2 + u is q = t^2/4 + a t + b
        # the residual is h/4 up to rounding: each halving of h halves it
        mags = []
        for resolution in (101, 201, 401, 801):
            scale = TimeScale.dense_interval(0.0, 1.0, resolution)
            p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1"), [0.0], [1.0])
            q = GridFunction.sample(scale, lambda t: t * t / 4 + 0.75 * t)
            mags.append(classical_check(p, q).magnitude)
        for coarse, fine in zip(mags, mags[1:]):
            assert coarse / fine == pytest.approx(2.0, abs=1e-4)

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


RECORD_FIELDS = ("Q", "U", "v", "L", "Lt", "Lu", "Lv")


class TestRecord:
    @pytest.mark.parametrize("seed", range(12))
    def test_stack_entry_equals_the_one_trajectory_record(self, seed):
        # a stack's record, built from the one-trajectory records' fields as
        # the enumeration builds its own, gives entry i the floats of
        # trajectory i's own record
        rng = np.random.default_rng(seed)
        n, h, N = 1 + seed % 3, int(rng.integers(1, 6)), int(rng.integers(3, 12))
        points = np.cumsum(rng.uniform(0.1, 0.5, N)) + 0.25
        scale = TimeScale.from_parts(points, "".join(rng.choice(["S", "D"], N - 1)))
        body = random_expr_text(rng, list(Lagrangian(n, "t").body.variables))
        p = VariationalProblem(scale, Lagrangian(n, body), np.zeros(n), np.zeros(n))
        Q = rng.uniform(-2, 2, (h, N, n))
        ones = [evaluate(p, GridFunction(scale, Q[i]), boundary=False) for i in range(h)]
        fields = (np.stack([getattr(e, f) for e in ones]) for f in RECORD_FIELDS)
        stack = Evaluation(p, ones[0].t, ones[0].mu, *fields)
        # the stack's own passes, the closing frame of a DENSE last gap too
        actions = stack.action()
        firsts, seconds = stack.first_el_values(), stack.second_el_values()
        for i, want in enumerate(ones):
            assert actions[i].tobytes() == want.action().tobytes()
            for got, kind in ((firsts[i], "first_el"), (seconds[i], "second_el")):
                b = getattr(want, kind)().values
                assert got.shape == b.shape and got.tobytes() == b.tobytes(), kind

    def test_record_keeps_the_frames_q_sigma(self):
        # on a DENSE gap sigma(t_i) = t_i, so q_sigma is not Q[1:]
        scale = TimeScale.from_parts([0.0, 0.5, 0.75, 1.5, 2.0, 3.0], "SDSDS")
        k, sigmas = scale.n - 1, scale.sigmas[: scale.n - 1]
        p = VariationalProblem(scale, Lagrangian(2, "v1^2 + u1*u2"), [0, 0], [0, 0])
        Q = np.random.default_rng(0).uniform(-2, 2, (3, scale.n, 2))
        for i in range(3):
            one = _alongs(p, Q[i])
            assert one.U.shape == (k, 2) and one.U.tobytes() == Q[i, sigmas].tobytes()


# per component k of q (j = k + 1); t and sin(t) move dL/dt and so H
WRAPPER_TERMS = (
    "v{j}^2",
    "t*v{j}^2 + u{j}^2",
    "(v{j}^2 - 1)^2 + 0.5*u{j}^2",
    "exp(v{j}/4) + sin(t)*u{j}",
)


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def _same_residual(a: Residual, b: Residual) -> bool:
    fields = ("points", "values", "magnitude")
    return (a.kind, a.approximate) == (b.kind, b.approximate) and all(
        _same(getattr(a, f), getattr(b, f)) for f in fields
    )


class TestWrappers:
    """Each public function that the acceptance suite and the bench call
    gives the floats of the method of q's record that it names."""

    @staticmethod
    def problem(rng, scale):
        n = int(rng.integers(1, 4))
        terms = rng.choice(WRAPPER_TERMS, n)
        body = " + ".join(str(term).format(j=k + 1) for k, term in enumerate(terms))
        values = rng.uniform(-1, 1, (scale.n, n))
        p = VariationalProblem(scale, Lagrangian(n, body), values[0], values[-1])
        return p, GridFunction(scale, values)

    @pytest.mark.parametrize("seed", range(10))
    def test_residuals_and_noether(self, seed):
        rng = np.random.default_rng(seed)
        p, q = self.problem(rng, random_exact_scale(rng, 3, 12))
        e = evaluate(p, q)
        assert _same(action(p, q), e.action())
        assert _same_residual(first_el_residual(p, q), e.first_el())
        assert _same_residual(second_el_residual(p, q), e.second_el())
        assert _same_residual(first_el_integral_residual(p, q), e.first_el_integral())
        names = [f"q{k + 1}" for k in range(p.dim)]
        for tau, xi in (("1", ["0"] * p.dim), ("t", names)):
            tr = Transformation.from_text(p.dim, tau, xi)
            g = _sample(p, q, tr)[1]
            inv, c = e.invariance(g), e.conserved(g)
            r = invariance_residual(p, q, tr)
            assert _same(r.points, e.t) and _same(r.values[:, 0], inv)
            assert _same(conserved_quantity(p, q, tr).values[:, 0], c)
            report = check_conservation(p, q, tr)
            assert _same(report.invariance_magnitude, np.abs(inv[:-1]).max())
            assert _same(report.conserved.values[:, 0], c)
            assert _same(report.conservation_deviation, c.max() - c.min())

    @pytest.mark.parametrize("seed", range(4))
    def test_classical_check(self, seed):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(-1, 1))
        scale = TimeScale.dense_interval(a, a + 1, int(rng.integers(3, 40)))
        p, q = self.problem(rng, scale)
        assert _same_residual(classical_check(p, q), evaluate(p, q).classical())
        # and both refuse a grained scale, with one message
        p, q = self.problem(rng, random_exact_scale(rng, 3, 12))
        for call in (lambda: classical_check(p, q), lambda: evaluate(p, q).classical()):
            with pytest.raises(ValueError, match="^classical check needs an all-dense"):
                call()


class TestInputChecks:
    @pytest.mark.parametrize(
        "dim, message",
        [
            (0, "dimension must be at least 1"),
            (1.5, "dimension must be an integer, got 1.5"),
            (2.0, "dimension must be an integer, got 2.0"),
            (10**6, "dimension 1000000 exceeds 1000"),  # before its seeds
        ],
    )
    def test_lagrangian_dimension(self, dim, message):
        # range() would raise a bare TypeError on a float dimension
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Lagrangian(dim, "v1^2")

    def test_lagrangian_repr(self):
        L = Lagrangian(np.int64(2), "v1^2 + t*u2")
        assert L.dim == 2 and type(L.dim) is int
        assert repr(L) == "Lagrangian(dim=2, body='v1^2 + t * u2')"

    def test_problem_needs_three_points(self):
        two = TimeScale([0.0, 1.0], "S")
        with pytest.raises(ValueError, match="^the scale needs at least three points$"):
            VariationalProblem(two, Lagrangian(1, "v1^2"), [0.0], [1.0])

    def test_problem_boundary_vector_length(self):
        scale = TimeScale.uniform(0, 1, 0.5)
        with pytest.raises(ValueError, match="^boundary vectors must have length 1$"):
            VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0, 0.0], [1.0])

    def test_residual_lengths_must_match(self):
        message = "^points and values must have matching length$"
        with pytest.raises(ValueError, match=message):
            Residual("k", [0.0, 1.0], [1.0], False)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("other scale", "trajectory lives on a different scale"),
            ("short", "trajectory must cover every point of the scale"),
            ("two columns", "trajectory dimension 2 != problem dimension 1"),
        ],
    )
    def test_trajectory_checks(self, case, message):
        p = quadratic_problem()
        values = 2.0 * p.scale.points
        q = {
            "other scale": GridFunction(TimeScale.uniform(0, 1, 0.25), values[::2]),
            "short": GridFunction(p.scale, values[:-1]),
            "two columns": GridFunction(p.scale, np.column_stack([values, values])),
        }[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            action(p, q)


class TestResidual:
    def test_magnitude_is_the_max_norm_and_not_an_argument(self):
        r = Residual("k", [0.0, 1.0], [[1.0, -3.0], [2.0, 0.5]], False)
        assert r.magnitude == 3.0
        assert Residual("k", [0.0], [1.0], False).magnitude == 1.0
        assert Residual("k", [], np.empty((0, 1)), False).magnitude == 0.0
        with pytest.raises(TypeError, match="magnitude"):
            Residual("k", [0.0], [1.0], False, magnitude=7.0)

    @pytest.mark.parametrize("gaps", ["SSSS", "SDSS", "DDDD"])
    def test_approximate_is_read_from_the_scale(self, gaps):
        # a residual approximates a continuum quantity exactly where a DENSE
        # gap samples one; the classical check always does
        scale = TimeScale.from_parts([0, 0.25, 0.5, 0.75, 1], gaps)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2 + u1^2"), [0.0], [1.0])
        e = evaluate(p, GridFunction(scale, scale.points))
        for r in (e.first_el(), e.first_el_integral(), e.second_el()):
            assert r.approximate is scale.has_dense, r.kind
        if not scale.has_dense:
            tr = Transformation.from_text(1, "0", ["1"])
            assert invariance_residual(p, e.q, tr).approximate is False
        if gaps == "DDDD":
            assert e.classical().approximate is True


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
        # Newton extremal of L = t v^2 on uniform grids over [1, 2], h from
        # 1/10 to 1/80: the classical quantity -L + dL/dv * v drifts by more
        # than 1 at every h, the graininess-corrected residual is several
        # times smaller and shrinks linearly with h
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
                value, _, _, Lv = frame_partials(L, t, u, v)
                E.append(-value + float(Lv @ v))
            drift = max(E) - min(E)
            return drift, second_el_residual(p, q).magnitude

        residuals = []
        for h in (0.1, 0.05, 0.025, 0.0125):
            drift, residual = drift_and_residual(h)
            assert drift > 1
            assert residual < drift / 4
            residuals.append(residual)
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 1.4 <= coarse / fine <= 2.6

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


class TestNonFiniteInput:
    @pytest.mark.parametrize("q_a, q_b", [([np.nan], [1.0]), ([0.0], [np.inf])])
    def test_problem_rejects_non_finite_boundary(self, q_a, q_b):
        scale = TimeScale.uniform(0, 1, 0.25)
        with pytest.raises(ValueError, match="must be finite"):
            VariationalProblem(scale, Lagrangian(1, "v1^2"), q_a, q_b)

    @pytest.mark.parametrize("end", [0, -1])
    def test_nan_endpoint_fails_boundary_check(self, end):
        p = quadratic_problem()
        values = affine(p.scale, 2.0, 0.0).values.copy()
        values[end] = np.nan
        with pytest.raises(ValueError, match="!= q_"):
            first_el_residual(p, GridFunction(p.scale, values))


# inputs whose arithmetic overflows or meets inf - inf and 0 * inf, on the
# points 0 .. 2 by 0.5: a Lagrangian body and a trajectory for each
NON_FINITE_INPUTS = {
    "overflowed constant": ("1e200*1e200*u1 + v1^2", [0.0, 0.2, 0.5, 0.7, 1.0]),
    "overflowing integral": ("1e300*u1*v1 + v1^2", [0.0, 1e8, 1e8, 1e8, 0.0]),
    "infinite values": ("v1^2", [0.0, np.inf, np.inf, 1.0, 0.0]),
}


def _public_calls(body, values):
    """One call of each public function that reads arrays, on one input."""
    scale = TimeScale.from_points(np.arange(5) * 0.5)
    L = Lagrangian(1, body)
    p = VariationalProblem(scale, L, values[:1], values[-1:])
    q, tr = GridFunction(scale, values), Transformation.from_text(1, "1", ["0"])
    with np.errstate(all="ignore"):  # the frames, in the test's own arithmetic
        V = np.diff(values) / np.diff(scale.points)
    return {
        "partials": lambda: L.partials(scale.points[:-1], values[1:], V),
        "first_el_residual": lambda: first_el_residual(p, q),
        "second_el_residual": lambda: second_el_residual(p, q),
        "first_el_integral_residual": lambda: first_el_integral_residual(p, q),
        "action": lambda: action(p, q),
        "invariance_residual": lambda: invariance_residual(p, q, tr),
        "conserved_quantity": lambda: conserved_quantity(p, q, tr),
        "check_conservation": lambda: check_conservation(p, q, tr),
        "delta_derivative": lambda: delta_derivative(q),
        "delta_integral": lambda: delta_integral(q, 0, scale.n - 1),
        "from_slopes": lambda: GridFunction.from_slopes(scale, values[0], V),
    }


def _bits(result):
    """The bytes of every float a result holds."""
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    if hasattr(result, "conservation_deviation"):
        fields = "invariance_magnitude", "conserved", "conservation_deviation"
        return _bits(tuple(getattr(result, f) for f in fields))
    return np.asarray(getattr(result, "values", result), dtype=float).tobytes()


@pytest.mark.parametrize("function", list(_public_calls("v1^2", [0.0] * 5)))
@pytest.mark.parametrize("case", list(NON_FINITE_INPUTS))
def test_non_finite_arithmetic_raises_no_warning(case, function):
    # one rule for every function: an overflow is inf and inf - inf or
    # 0 * inf is NaN, without a warning, whatever the caller's error state
    values = np.array(NON_FINITE_INPUTS[case][1])
    call = _public_calls(NON_FINITE_INPUTS[case][0], values)[function]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _bits(call())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bits(call()) == want
        with np.errstate(over="raise", invalid="raise"):
            assert _bits(call()) == want
