import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_scales, rel_err, scale_with_values, trajectory_from_slopes
from helpers import TupleScale, as_gap
from tsvar import (
    GapKind,
    GridFunction,
    PointClass,
    TimeScale,
    TimeScaleError,
    delta_derivative,
    delta_integral,
    pushforward,
)
from tsvar.timescale import MAX_POINTS


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

    def test_uniform_takes_exactly_max_points(self):
        # (2 - 1) / (1/999999) = 999999.0000000001: integral to 1e-9, and
        # the bound is on the rounded count of gaps
        T = TimeScale.uniform(1, 2, 1 / 999999)
        assert T.n == MAX_POINTS == 10**6
        assert T.points[0] == 1 and T.points[-1] == 2

    @pytest.mark.parametrize(
        "a, b, h, ratio",
        [
            (0, 10**6, 1, "1000000.0"),  # 10^6 + 1 points
            (0, 1e308, 1e-308, "inf"),
            (0, np.inf, np.inf, "nan"),
        ],
    )
    def test_uniform_refuses_more_than_max_points(self, a, b, h, ratio):
        message = f"^\\(b-a\\)/h = {ratio} exceeds 1000000 points$"
        with pytest.raises(TimeScaleError, match=message):
            TimeScale.uniform(a, b, h)

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

    @pytest.mark.parametrize("a, b", [(0, np.inf), (-np.inf, 0), (-1e308, 1e308)])
    def test_dense_interval_rejects_infinite_width(self, a, b):
        with pytest.raises(TimeScaleError, match="^b - a = inf is not finite$"):
            TimeScale.dense_interval(a, b, 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_points_equal_linspace_bit_for_bit(self, seed):
        # uniform and dense_interval space their points without np.linspace,
        # a Python-level numpy function, and give its bits: on random spans
        # from 1e-300 to 1e300, on subnormal ones, and with integer ends
        rng = np.random.default_rng(seed)
        tiny = float(np.nextafter(0.0, 1.0))  # 2^-1074, the least subnormal
        for _ in range(100):
            k = int(rng.integers(2, 3000))
            h = float(10.0 ** rng.uniform(-300, 300 - np.log10(k)))
            a = float(k * h * rng.uniform(-1e3, 1e3))
            ends = [(a, a + k * h, h)]
            i, j = (int(x) for x in rng.integers(1, 10**4, 2))
            ends.append((i * tiny, (i + k * j) * tiny, j * tiny))  # exact
            ends.append((i - 10**4, i, None))
            for a, b, h in ends:
                want = np.linspace(a, b, k + 1)
                scales = [TimeScale.dense_interval(a, b, k + 1)]
                if h is not None:
                    scales.append(TimeScale.uniform(a, b, h))
                for T in scales:
                    assert T.points.tobytes() == want.tobytes()
        # where linspace's step underflows to 0, its points repeat, so no
        # scale is built from them
        assert not np.all(np.diff(np.linspace(0.0, 3 * tiny, 11)) > 0)
        message = "^points must be strictly increasing$"
        with pytest.raises(TimeScaleError, match=message):
            TimeScale.dense_interval(0.0, 3 * tiny, 11)

    @pytest.mark.parametrize(
        "points, gaps, message",
        [
            ([0, 1], ["S"], "a time scale needs at least three points"),
            ([0, 1, 2], ["S", "X"], "unknown gap kind 'X' (expected 'S' or 'D')"),
            ([0, 1, 2], ["S"], "expected 2 gap kinds, got 1"),
            ([0, 2, 1], ["S", "D"], "points must be strictly increasing"),
            # points are checked before kinds, kinds before their count
            ([0, 2, 1], ["X", "D"], "points must be strictly increasing"),
            ([0, 1, 2], ["X"], "unknown gap kind 'X' (expected 'S' or 'D')"),
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

    @pytest.mark.parametrize("accessor", ["sigma", "rho", "mu", "classify"])
    def test_a_point_index_is_an_integer(self, accessor):
        # a float index raises as a list's does, not read as the point it
        # truncates to; numpy's integers are indices
        T = TimeScale.uniform(0, 1, 0.25)
        read = getattr(T, accessor)
        assert read(np.int64(1)) == read(1) and read(np.int32(0)) == read(0)
        for i in (1.5, -0.5, np.float64(1.0)):
            with pytest.raises(TypeError):
                read(i)

    def test_integral_bounds_are_point_indices(self):
        # a float bound raises, not read as the point it truncates to
        T = TimeScale.uniform(0, 1, 0.25)
        f = GridFunction(T, T.points)
        for lo, hi in ((0.9, 2.7), (0, 2.0), (np.float64(0.0), 2)):
            with pytest.raises(TypeError):
                delta_integral(f, lo, hi)
        assert delta_integral(f, np.int64(1), np.int32(3)) == delta_integral(f, 1, 3)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_index_of_a_non_finite_time_is_a_miss(self, t):
        # the tolerance 1e-12 * |t| is inf at an infinite t
        T = TimeScale.uniform(0, 1, 0.25)
        with pytest.raises(TimeScaleError, match="^no scale point within tolerance"):
            T.index_of(t)


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

    def test_constant(self):
        T = TimeScale.from_points([0.0, 0.4, 1.1, 2.0])
        d = delta_derivative(GridFunction.sample(T, lambda t: 7.5))
        assert np.all(d.values == 0.0)

    def test_identity_slope_one(self):
        T = TimeScale.from_points([0.0, 0.4, 1.1, 2.0])
        d = delta_derivative(GridFunction.sample(T, lambda t: t))
        assert np.allclose(d.values, 1.0)

    def test_dense_quotient_approximates_to_first_order(self):
        T = TimeScale.dense_interval(0, 1, 51)
        d = delta_derivative(GridFunction.sample(T, np.sin))
        assert d.valid == 50
        # |sin''| <= 1, so a forward quotient is within h/2 of cos
        assert np.abs(d.component(0) - np.cos(T.points[:50])).max() <= 0.5 / 50


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


def random_mixed_scale(rng) -> TimeScale:
    """A random scale with every point class and a DENSE last gap: random
    gap letters on both sides of the run S S D D S, then a D."""
    head, tail = rng.choice(["S", "D"], size=(2, int(rng.integers(0, 8)))).tolist()
    kinds = head + list("SSDDS") + tail + ["D"]
    steps = rng.uniform(0.05, 2.0, len(kinds) + 1)
    return TimeScale.from_parts(rng.uniform(-5.0, 5.0) + np.cumsum(steps), kinds)


def mixed_pairs(seed, count=100):
    """(scale, f, g): two random 2-D grid functions on each of ``count``
    random mixed scales."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        T = random_mixed_scale(rng)
        f, g = (GridFunction(T, rng.uniform(-10, 10, (T.n, 2))) for _ in range(2))
        yield T, f, g


def product_rule_defects(T, f, g):
    """The forward quotient of fg minus each product-rule form
    f^D g^sigma + f g^D and f^D g + f^sigma g^D, per gap, with a bound on
    their rounding: 16 eps times the sum of the magnitudes that enter."""
    k = T.n - 1
    F, G, s = f.values, g.values, T.sigmas[:k]
    df, dg = delta_derivative(f).values, delta_derivative(g).values
    h = np.diff(T.points)[:, None]
    dp = delta_derivative(GridFunction(T, F * G)).values
    forms = (df * G[s] + F[:k] * dg, df * G[:k] + F[s] * dg)
    size = (np.abs(F[1:] * G[1:]) + np.abs(F[:k] * G[:k])) / h + h * np.abs(df * dg)
    size += np.abs(df) * (np.abs(G[:k]) + np.abs(G[1:]))
    size += np.abs(dg) * (np.abs(F[:k]) + np.abs(F[1:]))
    return [dp - form for form in forms], 16 * np.finfo(float).eps * size


class TestIdentitiesOnMixedScales:
    """Bohner & Peterson's delta-calculus identities (Dynamic Equations on
    Time Scales, 2001, Thms 1.16 and 1.20) on mixed S/D scales.  On a
    DENSE gap sigma(t) = t and mu = 0, so the forms that read g^sigma are
    exact only on SCATTERED gaps."""

    def test_scales_hold_every_point_class_and_a_dense_last_gap(self):
        classes = {PointClass(a, b).label for a in (False, True) for b in (False, True)}
        for T, _, _ in mixed_pairs(0):
            assert {T.classify(i).label for i in range(1, T.n - 1)} == classes
            assert T.gaps[-1] is GapKind.DENSE and T.kappa_length == T.n

    def test_shift_formula_at_every_point_of_the_derivative_prefix(self):
        # f^sigma = f + mu f^D: exactly on DENSE gaps, to rounding elsewhere
        for T, f, _ in mixed_pairs(1):
            df = delta_derivative(f).values
            k = len(df)
            shifted, got = f.values[T.sigmas[:k]], f.values[:k] + T.mus[:k, None] * df
            dense = T.mus[:k] == 0.0
            assert np.array_equal(got[dense], shifted[dense])
            bound = 4 * np.finfo(float).eps * (np.abs(f.values[:k]) + np.abs(shifted))
            assert np.all(np.abs(got - shifted) <= bound)

    def test_product_rule_on_scattered_gaps(self):
        for T, f, g in mixed_pairs(2):
            defects, bound = product_rule_defects(T, f, g)
            scattered = T.mus[:-1] > 0
            for defect in defects:
                assert np.all(np.abs(defect[scattered]) <= bound[scattered])

    def test_product_rule_defect_on_dense_gaps(self):
        # sigma(t) = t there, so g^sigma reads g_i, not g_{i+1}, and both
        # forms miss the quotient (f_{i+1} g_{i+1} - f_i g_i) / h_i by
        # exactly h_i f^D_i g^D_i
        for T, f, g in mixed_pairs(3):
            defects, bound = product_rule_defects(T, f, g)
            dense = T.mus[:-1] == 0.0
            h = np.diff(T.points)[dense, None]
            df, dg = delta_derivative(f).values, delta_derivative(g).values
            want = h * df[dense] * dg[dense]
            assert np.all(np.abs(want) > bound[dense])  # the defect is no rounding
            for defect in defects:
                assert np.all(np.abs(defect[dense] - want) <= bound[dense])


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


def exact_message(message: str) -> str:
    return f"^{re.escape(message)}$"


class TestInputChecks:
    def test_no_points(self):
        message = "points must be a non-empty 1-D sequence"
        with pytest.raises(TimeScaleError, match=exact_message(message)):
            TimeScale([], [])

    def test_non_finite_point(self):
        with pytest.raises(TimeScaleError, match="^points must be finite$"):
            TimeScale.from_points([0.0, np.nan, 1.0])

    @pytest.mark.parametrize(
        "points, message",
        [
            ([-1.7e308, 1.6e308, 1.7e308], "point spacing must be finite"),
            ([1.7e308, -1.7e308, 1.75e308], "points must be strictly increasing"),
        ],
        ids=["increasing", "decreasing"],
    )
    def test_spacing_that_overflows(self, points, message):
        # finite points whose difference overflows: refused without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TimeScaleError, match=exact_message(message)):
                TimeScale.from_points(points)

    def test_a_scale_never_equals_another_type(self):
        T = TimeScale.from_points([0.0, 1.0, 2.0])
        assert T.__eq__(1) is NotImplemented
        assert (T == 1) is False and (T != 1) is True

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((3, 1, 1)), "values must be a 1-D or 2-D array"),
            (np.zeros((4, 1)), "value count 4 exceeds scale size 3"),
            (np.zeros((3, 0)), "dimension must be at least 1"),
            (np.empty((0, 1)), "values must cover at least one point"),
            (np.empty(0), "values must cover at least one point"),
        ],
        ids=["3-D", "4 rows", "0 columns", "0 rows", "empty 1-D"],
    )
    def test_grid_function_shape(self, values, message):
        T = TimeScale.from_points([0.0, 1.0, 2.0])
        with pytest.raises(TimeScaleError, match=exact_message(message)):
            GridFunction(T, values)

    def test_derivative_of_one_covered_point(self):
        f = GridFunction(TimeScale.from_points([0.0, 1.0, 2.0]), [1.0])
        message = "delta derivative needs at least two covered points"
        with pytest.raises(TimeScaleError, match=exact_message(message)):
            delta_derivative(f)

    def test_integral_past_a_short_prefix(self):
        f = GridFunction(TimeScale.uniform(0, 3, 1), [1.0, 2.0])
        assert delta_integral(f, 0, 2)[0] == 3.0
        message = "function prefix too short for this integral"
        with pytest.raises(TimeScaleError, match=exact_message(message)):
            delta_integral(f, 0, 3)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("nu elsewhere", "nu must live on the given scale"),
            ("f elsewhere", "f must live on the given scale"),
            ("nu 2-D", "nu must be scalar"),
            ("nu short", "nu and f must cover the whole scale"),
            ("f short", "nu and f must cover the whole scale"),
            ("nu infinite", "nu must be strictly increasing on the scale"),
            ("nu overflowing", "point spacing must be finite"),
        ],
    )
    def test_pushforward_arguments(self, case, message):
        T, other = TimeScale.uniform(0, 3, 1), TimeScale.uniform(0, 4, 1)
        nu = GridFunction.sample(T, lambda t: 2 * t)
        f = GridFunction.sample(T, lambda t: t * t)
        wide = [-1.7e308, 1.6e308, 1.65e308, 1.7e308]  # the image's spacing overflows
        args = {
            "nu elsewhere": (GridFunction.sample(other, lambda t: t), f),
            "f elsewhere": (nu, GridFunction.sample(other, lambda t: t)),
            "nu 2-D": (GridFunction(T, np.column_stack([T.points, T.points])), f),
            "nu short": (GridFunction(T, T.points[:3]), f),
            "f short": (nu, GridFunction(T, T.points[:3])),
            # inf - inf would warn before the check raised
            "nu infinite": (GridFunction(T, [0.0, np.inf, np.inf, np.inf]), f),
            "nu overflowing": (GridFunction(T, wide), f),
        }[case]
        with pytest.raises(TimeScaleError, match=exact_message(message)):
            pushforward(T, *args)


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


# -- gap kinds read off the graininess, against tuple walks ---------------

GAP_PATTERNS = ("mixed", "all S", "all D", "ending S", "ending D")


def random_gapped_points(rng, n, pattern):
    """n increasing points and n - 1 gap letters following the pattern."""
    points = rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(0.05, 2.0, size=n))
    letters = rng.choice(["S", "D"], size=n - 1).tolist()
    if pattern in ("all S", "all D"):
        letters = [pattern[-1]] * (n - 1)
    elif pattern != "mixed" and letters:
        letters[-1] = pattern[-1]
    return points, letters


def assert_same_gap_queries(T, ref):
    assert T.n == ref.n
    assert T.gaps == ref.gaps
    assert T.is_exact_discrete is ref.is_exact_discrete
    assert T.has_dense is ref.has_dense
    assert T.kappa_length == ref.kappa_length
    for i in range(T.n):
        assert T.rho(i) == ref.rho(i)
        c = T.classify(i)
        assert c == PointClass(*ref.classify(i))
        assert type(c.left_scattered) is bool and type(c.right_scattered) is bool
    assert T.points.tolist() == [float(t) for t in ref.points]
    assert T._letters().tolist() == [g.value for g in ref.gaps]
    assert repr(T) == repr(ref)


class TestGapKindsFromGraininess:
    @pytest.mark.parametrize("pattern", GAP_PATTERNS)
    def test_queries_match_tuple_walks(self, pattern):
        rng = np.random.default_rng(GAP_PATTERNS.index(pattern))
        for _ in range(60):
            n = int(rng.integers(1, 13))
            points, letters = random_gapped_points(rng, n, pattern)
            # kinds arrive as letters or members, from any iterable
            kinds = [GapKind(g) if rng.random() < 0.5 else g for g in letters]
            T = TimeScale(points, iter(kinds))
            ref = TupleScale(points, letters)
            assert_same_gap_queries(T, ref)
            k = ref.kappa_length
            assert_same_gap_queries(T.kappa(), TupleScale(points[:k], letters[: k - 1]))
            if n >= 2:  # pushforward takes a delta derivative
                nu = GridFunction(T, 2.0 * T.points + 1.0)
                image, _, _ = pushforward(T, nu, nu)
                assert_same_gap_queries(image, TupleScale(2.0 * points + 1.0, letters))

    @pytest.mark.parametrize("letters", ["S", "D", "SS", "SD", "DS", "DD"])
    def test_one_and_two_point_kappa_views(self, letters):
        points = np.arange(len(letters) + 1.0)
        T = TimeScale(points, letters)
        ref = TupleScale(points, letters)
        k = ref.kappa_length
        view = T.kappa()
        assert view.n == k
        assert_same_gap_queries(view, TupleScale(points[:k], letters[: k - 1]))

    def test_dense_interval_and_uniform_kinds(self):
        assert TimeScale.dense_interval(0, 1, 5).gaps == (GapKind.DENSE,) * 4
        assert TimeScale.uniform(0, 1, 0.25).gaps == (GapKind.SCATTERED,) * 4
        assert TimeScale.from_points([0, 1, 3]).gaps == (GapKind.SCATTERED,) * 2

    def test_equal_points_with_different_kinds_are_unequal(self):
        points = [0.0, 1.0, 2.0, 3.0]
        T = TimeScale.from_parts(points, "SDS")
        assert T == T
        assert T == TimeScale.from_parts(points, [GapKind.SCATTERED, "D", "S"])
        for other in ("SSS", "DDS", "SDD", "DDD", "DSD"):
            assert T != TimeScale.from_parts(points, other)
        assert T != TimeScale.from_parts([0.0, 1.0, 2.0, 3.5], "SDS")
        assert T != TimeScale(points[:3], "SD")

    @pytest.mark.parametrize(
        "bad", ["X", "s", "", True, False, 1, 1.0, None, float("nan"), ["S"], {"S": 1}]
    )
    def test_unknown_kind_messages(self, bad):
        with pytest.raises(TimeScaleError) as ref:
            as_gap(bad)
        with pytest.raises(TimeScaleError) as err:
            TimeScale.from_parts([0, 1, 2, 3], ["S", bad, "X"])
        assert str(err.value) == str(ref.value)
