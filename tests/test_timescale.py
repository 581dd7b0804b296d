import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_scales, rel_err, scale_with_values, trajectory_from_slopes
from tsvar import (
    GapKind,
    GridFunction,
    TimeScale,
    TimeScaleError,
    delta_derivative,
    delta_integral,
    pushforward,
)


def mixed_scale():
    # {0, 1} followed by a sampled continuum piece on [1, 2]
    points = np.concatenate([[0.0], np.linspace(1.0, 2.0, 6)])
    gaps = ["S"] + ["D"] * 5
    return TimeScale.from_parts(points, gaps)


class TestConstruction:
    def test_from_points_nine_point_dyadic(self):
        T = TimeScale.from_points(np.arange(9) / 8.0)
        assert T.n == 9
        assert T.is_exact_discrete
        assert T.a == 0.0 and T.b == 1.0

    def test_from_points_three_points(self):
        T = TimeScale.from_points([0, 1, 2])
        assert [T.mu(i) for i in range(3)] == [1.0, 1.0, 0.0]

    def test_from_points_rejects_non_strict(self):
        with pytest.raises(TimeScaleError):
            TimeScale.from_points([0.0, 0.1, 0.1])

    def test_from_points_rejects_short(self):
        with pytest.raises(TimeScaleError):
            TimeScale.from_points([0.0, 1.0])

    def test_uniform_matches_from_points(self):
        assert TimeScale.uniform(0, 1, 1 / 8) == TimeScale.from_points(
            np.arange(9) / 8.0
        )

    def test_uniform_integers(self):
        T = TimeScale.uniform(0, 3, 1)
        assert list(T.points) == [0, 1, 2, 3]
        assert T.sigma(0) == 1 and T.rho(2) == 1
        assert all(T.mu(i) == 1.0 for i in range(3))

    def test_uniform_rejects_non_divisible(self):
        with pytest.raises(TimeScaleError):
            TimeScale.uniform(0, 1, 0.3)

    def test_dense_interval(self):
        T = TimeScale.dense_interval(0, 1, 1001)
        assert T.n == 1001
        assert T.has_dense and not T.is_exact_discrete
        assert all(T.mu(i) == 0.0 for i in range(0, 1001, 100))

    def test_dense_interval_rejects_resolution_one(self):
        with pytest.raises(TimeScaleError):
            TimeScale.dense_interval(0, 1, 1)

    def test_dense_interval_rejects_non_integral_resolution(self):
        with pytest.raises(TimeScaleError, match="resolution 3.7 is not an integer"):
            TimeScale.dense_interval(0, 1, 3.7)
        assert TimeScale.dense_interval(0, 1, 11.0).n == 11

    @pytest.mark.parametrize(
        "points, gaps, message",
        [
            ([0, 1], ["S"], "a time scale needs at least three points"),
            ([0, 1, 2], ["S", "X"], "unknown gap kind 'X' (expected 'S' or 'D')"),
            ([0, 1, 2], ["S"], "expected 2 gap kinds, got 1"),
            ([0, 2, 1], ["S", "D"], "points must be strictly increasing"),
        ],
    )
    def test_from_parts_single_fault_messages(self, points, gaps, message):
        with pytest.raises(TimeScaleError) as err:
            TimeScale.from_parts(points, gaps)
        assert str(err.value) == message

    def test_from_parts_accepts_kinds_and_letters(self):
        T = TimeScale.from_parts([0, 1, 2, 3], iter(["S", GapKind.DENSE, "S"]))
        assert T.gaps == (GapKind.SCATTERED, GapKind.DENSE, GapKind.SCATTERED)

    def test_grid_function_keeps_non_finite_values(self):
        # a damped Newton trial step may overflow; that is a failed trial,
        # not an input error, so GridFunction itself accepts it
        q = GridFunction(TimeScale.uniform(0, 1, 0.5), [0.0, np.inf, np.nan])
        assert np.isinf(q.values[1, 0]) and np.isnan(q.values[2, 0])


class TestJumpOperators:
    def test_sigma_examples(self):
        T = TimeScale.uniform(0, 3, 1)
        assert T.sigma(0) == 1
        assert T.sigma(3) == 3

    def test_sigma_dense(self):
        T = TimeScale.dense_interval(0, 1, 11)
        assert all(T.sigma(i) == i for i in range(11))
        assert all(T.rho(i) == i for i in range(11))

    def test_rho_examples(self):
        T = TimeScale.uniform(0, 3, 1)
        assert T.rho(2) == 1
        assert T.rho(0) == 0

    def test_mu_mixed(self):
        T = mixed_scale()
        assert T.mu(0) == 1.0
        assert T.mu(1) == 0.0

    def test_index_out_of_range(self):
        T = TimeScale.uniform(0, 3, 1)
        with pytest.raises(IndexError):
            T.sigma(4)

    def test_arrays_match_pointwise_operators(self):
        T = mixed_scale()
        assert T.mus.tolist() == [T.mu(i) for i in range(T.n)]
        assert T.sigmas.tolist() == [T.sigma(i) for i in range(T.n)]
        with pytest.raises(ValueError):
            T.mus[0] = 2.0
        with pytest.raises(ValueError):
            T.sigmas[0] = 0

    def test_index_of_uses_tolerance(self):
        T = TimeScale.uniform(0, 1, 1 / 8)
        assert T.index_of(0.375 + 1e-14) == 3
        with pytest.raises(TimeScaleError):
            T.index_of(0.3)


class TestClassify:
    def test_isolated_interior(self):
        T = TimeScale.uniform(0, 3, 1)
        assert T.classify(1).is_isolated
        assert T.classify(1).label == "ISOLATED"

    def test_dense_interior(self):
        T = TimeScale.dense_interval(0, 1, 11)
        assert T.classify(5).is_dense

    def test_mixed_boundary_point(self):
        c = mixed_scale().classify(1)
        assert c.left_scattered and not c.right_scattered
        assert c.label == "LEFT_SCATTERED+RIGHT_DENSE"


class TestKappa:
    def test_drops_left_scattered_max(self):
        T = TimeScale.uniform(0, 3, 1)
        assert list(T.kappa().points) == [0, 1, 2]

    def test_dense_unchanged(self):
        T = TimeScale.dense_interval(0, 1, 11)
        assert T.kappa() is T

    def test_twice(self):
        T = TimeScale.uniform(0, 3, 1)
        assert list(T.kappa().kappa().points) == [0, 1]


class TestDeltaDerivative:
    def test_square_on_integers(self):
        T = TimeScale.uniform(0, 3, 1)
        f = GridFunction.sample(T, lambda t: t * t)
        d = delta_derivative(f)
        assert d.valid == 3
        assert list(d.component(0)) == [1.0, 3.0, 5.0]
        assert not d.approximate

    def test_constant(self):
        T = TimeScale.from_points([0.0, 0.4, 1.1, 2.0])
        d = delta_derivative(GridFunction.sample(T, lambda t: 7.5))
        assert np.all(d.values == 0.0)

    def test_identity_slope_one(self):
        T = TimeScale.from_points([0.0, 0.4, 1.1, 2.0])
        d = delta_derivative(GridFunction.sample(T, lambda t: t))
        assert np.allclose(d.values, 1.0)

    def test_dense_flagged_approximate(self):
        T = TimeScale.dense_interval(0, 1, 51)
        d = delta_derivative(GridFunction.sample(T, np.sin))
        assert d.approximate
        assert d.valid == 50


class TestDeltaIntegral:
    def test_total_length(self):
        T = TimeScale.uniform(0, 3, 1)
        f = GridFunction.sample(T, lambda t: 1.0)
        assert delta_integral(f, 0, 3)[0] == 3.0

    def test_identity_left_sum(self):
        T = TimeScale.uniform(0, 1, 0.25)
        f = GridFunction.sample(T, lambda t: t)
        assert delta_integral(f, 0, 4)[0] == pytest.approx(0.375, abs=1e-15)

    def test_empty_range(self):
        T = TimeScale.uniform(0, 3, 1)
        f = GridFunction.sample(T, lambda t: t)
        assert delta_integral(f, 2, 2)[0] == 0.0

    def test_rejects_reversed_range(self):
        T = TimeScale.uniform(0, 3, 1)
        f = GridFunction.sample(T, lambda t: t)
        with pytest.raises(TimeScaleError):
            delta_integral(f, 3, 1)

    def test_dense_trapezoid_approximates_riemann(self):
        T = TimeScale.dense_interval(0, 1, 201)
        f = GridFunction.sample(T, lambda t: t * t)
        got = delta_integral(f, 0, 200)[0]
        assert abs(got - 1 / 3) < 1e-4


class TestFromSlopes:
    @pytest.mark.parametrize("scale", [TimeScale.uniform(0, 2, 0.25), mixed_scale()])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_stepwise_expansion_bit_for_bit(self, scale, dim):
        rng = np.random.default_rng(dim)
        q_a = rng.uniform(-1, 1, dim)
        slopes = rng.uniform(-3, 3, (scale.n - 1, dim))
        if dim == 1:
            slopes = slopes[:, 0]
        got = GridFunction.from_slopes(scale, q_a, slopes)
        want = trajectory_from_slopes(scale, q_a, slopes)
        assert np.array_equal(got.values, want.values)
        if scale.has_dense:
            assert got.values[2, 0] == got.values[1, 0]

    def test_slope_count_checked(self):
        with pytest.raises(TimeScaleError):
            GridFunction.from_slopes(TimeScale.uniform(0, 1, 0.25), 0.0, [1.0, 2.0])


class TestPushforward:
    def test_identity(self):
        T = TimeScale.uniform(0, 3, 1)
        nu = GridFunction.sample(T, lambda t: t)
        f = GridFunction.sample(T, lambda t: t * t)
        image, f2, nud = pushforward(T, nu, f)
        assert image == T
        assert np.array_equal(f2.values, f.values)
        assert np.allclose(nud.values, 1.0)

    def test_doubling(self):
        T = TimeScale.uniform(0, 3, 1)
        nu = GridFunction.sample(T, lambda t: 2 * t)
        f = GridFunction.sample(T, lambda t: t)
        image, _, nud = pushforward(T, nu, f)
        assert list(image.points) == [0, 2, 4, 6]
        assert np.allclose(nud.values, 2.0)

    def test_substitution_worked_example(self):
        T = TimeScale.uniform(0, 3, 1)
        nu = GridFunction.sample(T, lambda t: 2 * t)
        image, f_img, nud = pushforward(
            T, nu, GridFunction.sample(T, lambda t: 2 * t)
        )
        lhs_rows = f_img.values[: nud.valid, 0] * nud.component(0)
        lhs = delta_integral(GridFunction(T, lhs_rows), 0, 3)[0]
        rhs = delta_integral(f_img, 0, 3)[0]
        assert lhs == 12.0
        assert rhs == 12.0

    def test_rejects_non_monotone(self):
        T = TimeScale.uniform(0, 3, 1)
        nu = GridFunction.sample(T, lambda t: -t)
        with pytest.raises(TimeScaleError):
            pushforward(T, nu, nu)


class TestSerialization:
    def test_round_trip(self):
        T = mixed_scale()
        assert TimeScale.from_json(T.to_json()) == T

    def test_uniform_shorthand(self):
        obj = {"uniform": {"a": 0, "b": 1, "h": 0.125}}
        assert TimeScale.from_json(obj) == TimeScale.uniform(0, 1, 0.125)

    def test_dense_shorthand(self):
        obj = {"dense": {"a": 0, "b": 1, "resolution": 11}}
        assert TimeScale.from_json(obj) == TimeScale.dense_interval(0, 1, 11)

    def test_missing_gaps_defaults_scattered(self):
        T = TimeScale.from_json({"points": [0, 1, 2, 3]})
        assert T.is_exact_discrete


# -- properties on random exact discrete scales ---------------------------


@given(exact_scales())
def test_jump_compositions_fix_interior_points(T):
    for i in range(T.n):
        if 0 < i < T.n - 1:
            assert T.sigma(T.rho(i)) == i
            assert T.rho(T.sigma(i)) == i
    assert T.sigma(T.n - 1) == T.n - 1
    assert T.rho(0) == 0


@given(exact_scales())
def test_graininess_nonnegative_and_zero_at_max(T):
    assert all(T.mu(i) >= 0 for i in range(T.n))
    assert T.mu(T.n - 1) == 0.0


@given(scale_with_values())
@settings(deadline=None)
def test_shift_formula(pair):
    T, f = pair
    d = delta_derivative(f)
    for i in range(T.n - 1):
        shifted = f.values[T.sigma(i)]
        reconstructed = f.values[i] + T.mu(i) * d.values[i]
        assert rel_err(reconstructed, shifted) < 1e-12


@given(scale_with_values(), st.integers(0, 2**31 - 1))
@settings(deadline=None, max_examples=50)
def test_product_rule_both_forms(pair, seed):
    T, f = pair
    rng = np.random.default_rng(seed)
    g = GridFunction(T, rng.uniform(-10.0, 10.0, (T.n, 1)))
    prod = GridFunction(T, f.values * g.values)
    dp = delta_derivative(prod)
    df = delta_derivative(f)
    dg = delta_derivative(g)
    for i in range(T.n - 1):
        fs = f.values[T.sigma(i)]
        gs = g.values[T.sigma(i)]
        form1 = df.values[i] * gs + f.values[i] * dg.values[i]
        form2 = df.values[i] * g.values[i] + fs * dg.values[i]
        assert rel_err(form1, dp.values[i]) < 1e-12
        assert rel_err(form2, dp.values[i]) < 1e-12


@given(scale_with_values())
@settings(deadline=None)
def test_fundamental_theorem(pair):
    T, f = pair
    d = delta_derivative(f)
    got = delta_integral(d, 0, T.n - 1)
    want = f.values[-1] - f.values[0]
    assert rel_err(got, want) < 1e-12


@given(exact_scales(), st.integers(0, 3))
@settings(deadline=None)
def test_monotonicity_from_derivative_sign(T, case):
    rng = np.random.default_rng(7)
    slopes = rng.uniform(0.1, 2.0, T.n - 1)
    sign = 1.0 if case in (0, 2) else -1.0
    if case >= 2:
        slopes[rng.integers(0, T.n - 1)] = 0.0  # weak case
    steps = sign * slopes * np.diff(T.points)
    vals = np.concatenate([[0.0], np.cumsum(steps)])
    f = GridFunction(T, vals)
    d = delta_derivative(f).component(0)
    diffs = np.diff(f.component(0))
    if case == 0:
        assert np.all(d > 0) and np.all(diffs > 0)
    elif case == 1:
        assert np.all(d < 0) and np.all(diffs < 0)
    elif case == 2:
        assert np.all(d >= 0) and np.all(diffs >= 0)
    else:
        assert np.all(d <= 0) and np.all(diffs <= 0)


@given(exact_scales())
@settings(deadline=None)
def test_chain_rule_and_inverse_via_pushforward(T):
    rng = np.random.default_rng(T.n)
    nu_vals = T.points[0] + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.1, 1.5, T.n - 1))]
    )
    nu = GridFunction(T, nu_vals)
    omega_vals = rng.uniform(-5, 5, T.n)
    image, omega_img, nud = pushforward(T, nu, GridFunction(T, omega_vals))
    composed = GridFunction(T, omega_vals)  # omega(nu(t)) matches by index
    lhs = delta_derivative(composed)
    omega_tilde_d = delta_derivative(omega_img)
    for i in range(T.n - 1):
        want = omega_tilde_d.values[i] * nud.values[i]
        assert rel_err(lhs.values[i], want) < 1e-12
    # inverse: nu^{-1} on the image has the original points as values
    inverse = GridFunction(image, T.points.copy())
    dinv = delta_derivative(inverse)
    for i in range(T.n - 1):
        assert rel_err(dinv.values[i] * nud.values[i], 1.0) < 1e-12


@given(exact_scales())
@settings(deadline=None)
def test_substitution_exact_on_discrete(T):
    rng = np.random.default_rng(T.n + 1)
    nu_vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.5, T.n - 1))])
    nu = GridFunction(T, nu_vals)
    f_vals = rng.uniform(-3, 3, T.n)
    image, f_img, nud = pushforward(T, nu, GridFunction(T, f_vals))
    lhs_rows = f_vals[: T.n - 1] * nud.component(0)
    lhs = delta_integral(GridFunction(T, lhs_rows), 0, T.n - 1)[0]
    rhs = delta_integral(f_img, 0, T.n - 1)[0]
    assert rel_err(lhs, rhs) < 1e-12


def test_substitution_dense_within_order_h():
    # integrate both sides up to the last point the derivative covers
    T = TimeScale.dense_interval(0.0, 1.0, 201)
    h = 1 / 200
    nu = GridFunction.sample(T, lambda t: t + 0.2 * np.sin(t))
    f = GridFunction.sample(T, lambda t: np.cos(t))
    image, f_img, nud = pushforward(T, nu, f)
    lhs_rows = f.component(0)[: nud.valid] * nud.component(0)
    lhs = delta_integral(GridFunction(T, lhs_rows), 0, T.n - 2)[0]
    rhs = delta_integral(f_img, 0, T.n - 2)[0]
    assert abs(lhs - rhs) < 10 * h


def test_derivative_converges_first_order_on_dense_grids():
    errors = []
    for resolution in (201, 401):
        T = TimeScale.dense_interval(0.0, 2.0, resolution)
        d = delta_derivative(GridFunction.sample(T, np.sin))
        exact = np.cos(T.points[: d.valid])
        errors.append(float(np.max(np.abs(d.component(0) - exact))))
    ratio = errors[0] / errors[1]
    assert 1.4 <= ratio <= 2.6


def test_immutability():
    T = TimeScale.uniform(0, 3, 1)
    with pytest.raises(ValueError):
        T.points[0] = 5.0
    f = GridFunction.sample(T, lambda t: t)
    with pytest.raises(ValueError):
        f.values[0, 0] = 5.0
