import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    at_point,
    finite_difference_partial,
    frame_partials,
    random_checked_pair,
)
from tsvar import ExprDomainError, ExprError, ExprSyntaxError, Lagrangian, parse

VARS = ("t", "u1", "v1")


class TestParse:
    def test_square_of_slope(self):
        e = parse("v1^2", VARS)
        assert at_point(e, {"t": 0, "u1": 0, "v1": 3})[0] == 9.0

    def test_quartic(self):
        e = parse("(v1^2 - 1)^2", VARS)
        assert at_point(e, {"t": 0, "u1": 0, "v1": 0})[0] == 1.0
        assert at_point(e, {"t": 0, "u1": 0, "v1": 1})[0] == 0.0

    def test_trailing_operator_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("v1 +", VARS)
        assert err.value.position == 4

    def test_undeclared_variable_named(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("v1 + x7", VARS)
        assert "x7" in str(err.value)

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            parse("tan(v1)", VARS)

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", VARS)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(v1 + 1", VARS)

    @pytest.mark.parametrize(
        "body, value",
        [
            ("+".join(["v1"] * 100), 100.0),
            ("(" * 99 + "v1" + ")" * 99, 1.0),
            ("-" * 99 + "v1", -1.0),
            ("sin(" * 99 + "v1" + ")" * 99, None),
            ("v1^" * 99 + "v1", 1.0),
        ],
    )
    def test_depth_bound_is_inclusive(self, body, value):
        e = parse(body, VARS)
        got = at_point(e, {"t": 0.0, "u1": 0.0, "v1": 1.0})[0]
        assert value is None or got == value
        assert parse(str(e), VARS) == e

    @pytest.mark.parametrize(
        "body, position",
        [
            ("+".join(["v1"] * 101), 0),
            ("(" * 100 + "v1" + ")" * 100, 100),
            ("-" * 100 + "v1", 100),
            ("sin(" * 100 + "v1" + ")" * 100, 400),
        ],
    )
    def test_deeper_trees_rejected(self, body, position):
        with pytest.raises(ExprSyntaxError, match="nests deeper than 100") as err:
            parse(body, VARS)
        assert err.value.position == position

    def test_whitespace_insensitive(self):
        a = parse("v1^2+ t *u1", VARS)
        b = parse("v1 ^ 2 + t * u1", VARS)
        env = {"t": 2.0, "u1": 3.0, "v1": 4.0}
        assert at_point(a, env)[0] == at_point(b, env)[0]

    def test_power_right_associative(self):
        e = parse("2^3^2", VARS)
        assert at_point(e, {"t": 0, "u1": 0, "v1": 0})[0] == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse("-v1^2", VARS)
        assert at_point(e, {"t": 0, "u1": 0, "v1": 3})[0] == -9.0

    def test_negative_exponent(self):
        e = parse("v1^-2", VARS)
        assert at_point(e, {"t": 0, "u1": 0, "v1": 2})[0] == 0.25

    def test_scientific_literal(self):
        e = parse("1e-3 + v1", VARS)
        assert at_point(e, {"t": 0, "u1": 0, "v1": 1})[0] == pytest.approx(1.001)


class TestFrontEnd:
    """The tokenizer's error branch, atom's missing-argument branch and
    parse's trailing-token and name-collision branches."""

    @pytest.mark.parametrize(
        "body, message, position",
        [
            ("v1 $ 2", "unexpected character '$'", 3),
            ("sin + v1", "function 'sin' needs an argument list", 0),
            ("v1)", "unexpected ')'", 2),
            ("1e", "unexpected 'e'", 1),
            ("1e309 * v1", "number 1e309 is out of range", 0),
            ("v1 + 2*1.8e308", "number 1.8e308 is out of range", 7),
        ],
    )
    def test_error_message_and_position(self, body, message, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse(body, VARS)
        assert str(err.value) == f"{message} at position {position}"
        assert err.value.position == position

    def test_largest_and_underflowing_literals_parse(self):
        # only a literal whose float is infinite is refused
        largest = parse("1.7976931348623157e308 * v1", VARS).root.left.value
        assert largest == np.finfo(float).max
        assert parse("1e-400 + v1", VARS).root.left.value == 0.0

    def test_reads_are_the_variables_the_tree_names(self):
        assert parse("t*v1 + 2", VARS).reads == {"t", "v1"}
        assert parse("sin(1)^2", VARS).reads == set()

    def test_variable_named_like_a_function(self):
        with pytest.raises(ExprError) as err:
            parse("t", ("t", "exp"))
        assert str(err.value) == "variable name 'exp' collides with a function"

    def test_whitespace_is_str_isspace(self):
        assert "\x1c".isspace()
        assert str(parse("v1\x1c+1", VARS)) == "v1 + 1"


class TestEvaluate:
    def test_negative_base_even_power(self):
        e = parse("u1^2", VARS)
        assert at_point(e, {"t": 0, "u1": -3, "v1": 0})[0] == 9.0

    def test_log_domain_error_mentions_subexpression(self):
        e = parse("log(u1)", VARS)
        with pytest.raises(ExprDomainError) as err:
            at_point(e, {"t": 0, "u1": 0.0, "v1": 0})
        assert "log(u1)" in str(err.value)

    def test_division_by_zero(self):
        e = parse("1 / v1", VARS)
        with pytest.raises(ExprDomainError):
            at_point(e, {"t": 0, "u1": 0, "v1": 0.0})

    def test_zero_to_negative_power(self):
        e = parse("v1^-1", VARS)
        with pytest.raises(ExprDomainError):
            at_point(e, {"t": 0, "u1": 0, "v1": 0.0})

    def test_sqrt_negative(self):
        e = parse("sqrt(v1)", VARS)
        with pytest.raises(ExprDomainError):
            at_point(e, {"t": 0, "u1": 0, "v1": -1.0})

    def test_functions(self):
        e = parse("sin(t) + cos(t) + exp(u1) + log(v1) + sqrt(v1)", VARS)
        env = {"t": 0.7, "u1": 0.2, "v1": 1.5}
        want = (
            math.sin(0.7)
            + math.cos(0.7)
            + math.exp(0.2)
            + math.log(1.5)
            + math.sqrt(1.5)
        )
        assert at_point(e, env)[0] == pytest.approx(want, rel=1e-15)


class TestKernelBranches:
    @pytest.mark.parametrize("body", ["v1^0", "(-v1)^0"])
    def test_zeroth_power_has_zero_slope_partial(self, body):
        # exactly +0.0, also where the base falls (not 0 * -1 = -0.0), and
        # no division warning at a zero base
        L = Lagrangian(1, body)
        for v in (0.0, -2.0, 3.0):
            value, _, _, Lv = frame_partials(L, 0.5, [1.0], [v])
            assert value == 1.0
            assert Lv[0] == 0.0 and not np.signbit(Lv[0])

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("K", [-2, 0, 1, 2, 3])
    def test_constant_and_per_frame_exponents_agree(self, K, order):
        # u1^K has one exponent for every frame and u1^(t - t + K) one per
        # frame; both take the one integer-power rule and give the same
        # bits, at a zero base where K >= 0 and at an overflowed base
        # (inf, whose derivatives turn NaN) where K is 0 or 1
        U = [-1.5, -0.5, 0.25, 2.0] + ([0.0] if K >= 0 else [])
        t = np.linspace(0.5, 2.0, len(U))
        V = np.linspace(-1.0, 1.0, len(U))
        for base in ["u1"] + (["(1e300*u1*1e10)"] if K in (0, 1) else []):
            pair = [Lagrangian(1, f"{base}^{k}") for k in (K, f"(t - t + {K})")]
            constant, per_frame = (L.partials(t, U, V, order=order) for L in pair)
            assert [x.tobytes() for x in constant] == [x.tobytes() for x in per_frame]

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "t",
        [
            [1.0, 1.5, -1.0, 2.5, 3.0, -0.5, 0.0],
            [1.0, -2.0, 3.0, 0.0],
            [0.5, -1.5, 2.5],
        ],
        ids=["mixed", "integral", "real"],
    )
    @pytest.mark.parametrize(
        "body, exponent, value",
        [
            ("(u1 - 1)^{} + v1^2", "t", lambda t: t),
            ("(u1^2 + 1)^{} + v1^2", "(0.5*t)", lambda t: 0.5 * t),
            ("2^{}*v1^2", "t", lambda t: t),
        ],
        ids=["(u1 - 1)^t", "(u1^2 + 1)^(0.5*t)", "2^t"],
    )
    def test_per_frame_exponent_equals_its_literal(self, body, exponent, value, t, order):
        # with t held, as Newton's pass holds it, an exponent in t is
        # integral at the frames of integer t and real at the others; each
        # frame of the one pass has the bits of the body with that frame's
        # exponent written as a literal.  Where t is an integer the base
        # may be negative; a negative base at a half-integer t is an error
        t = np.array(t)
        U = np.where(t == np.trunc(t), -0.5, 2.5)[:, None] + np.arange(t.size)[:, None] / 8
        V = np.linspace(-1.0, 2.0, t.size)[:, None]
        moving = np.ones((t.size, 3), dtype=bool)
        moving[:, 0] = False
        if order == 2:  # Newton's mask: u held at the last frame too
            moving[-1, 1] = False
        per_frame = body.format(exponent)
        got = Lagrangian(1, per_frame).partials(t, U, V, order=order, moving=moving)
        for i, ti in enumerate(t):
            literal = Lagrangian(1, body.format(repr(float(value(ti)))))
            frame = slice(i, i + 1)
            want = literal.partials(t[frame], U[frame], V[frame], order, moving[frame])
            assert [x[frame].tobytes() for x in got] == [x.tobytes() for x in want], ti
        if body.startswith("(u1 - 1)") and not np.all(t == np.trunc(t)):
            half = np.flatnonzero(t != np.trunc(t))[0]
            U[half] = 0.5
            for text, frames in ((per_frame, slice(None)), (body.format(repr(float(t[half]))), half)):
                with pytest.raises(ExprDomainError, match="^non-integer power of a non-pos"):
                    Lagrangian(1, text).partials(
                        t[frames], U[frames], V[frames], order, moving[frames]
                    )

    @pytest.mark.parametrize("newton", [False, True])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize(
        "body, constant",
        [("(1e-200)^(-1)", np.power(1e-200, -1.0)), ("log(1e-320)", np.log(1e-320))],
    )
    def test_finite_constant_has_exact_partials(self, body, constant, order, newton):
        # the constant's slope overflows, -(1e-200)^-2 and 1/1e-320, but a
        # constant moves along no direction: the partials of body*v1 equal
        # those of its value written as a literal, finite, as 1e200*v1's
        t, U, V = np.array([0.0, 0.5, 1.0]), [[0.5], [-1.0], [2.0]], [[1.5], [-0.5], [3.0]]
        moving = None
        if newton:  # t held, and u at the last frame too
            moving = np.ones((t.size, 3), dtype=bool)
            moving[:, 0] = moving[-1, 1] = False
        got = Lagrangian(1, f"{body}*v1").partials(t, U, V, order, moving)
        want = Lagrangian(1, f"{float(constant)!r}*v1").partials(t, U, V, order, moving)
        assert all(np.isfinite(x).all() for x in got)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_base_per_frame_integral_exponent(self, order):
        # 2^t with t held and integral at every frame takes the integer rule
        # alone; its parts keep the axis of directions, so the product with
        # v1^2 broadcasts, and every float is exact: powers of two
        t = np.array([-1.0, 0.0, 2.0, 3.0])
        U, V = np.array([[0.5], [-1.0], [2.0], [1.5]]), np.array([[1.5], [-0.5], [3.0], [-2.0]])
        moving = np.ones((t.size, 3), dtype=bool)
        moving[:, 0] = False
        got = Lagrangian(1, "2^t*v1^2").partials(t, U, V, order, moving)
        v = V[:, 0]
        assert np.array_equal(got[0], 2**t * v * v)
        assert np.array_equal(got[1], np.zeros(4)) and np.array_equal(got[2], np.zeros((4, 1)))
        assert np.array_equal(got[3][:, 0], 2**t * 2 * v)
        if order == 2:
            H = np.zeros((4, 3, 3))
            H[:, 2, 2] = 2 ** (t + 1)
            assert np.array_equal(got[4], H)

    def test_first_order_power_at_zero_base(self):
        L = Lagrangian(1, "u1^0.5 + v1^2")
        with pytest.raises(ExprDomainError) as err:
            L.partials([0.5], [[0.0]], [[1.0]])
        assert str(err.value) == "non-differentiable power at zero base in 'u1^0.5'"

    def test_sine_of_infinity(self):
        e = parse("sin(v1)", VARS)
        with pytest.raises(ExprDomainError) as err:
            at_point(e, {"t": 0.0, "u1": 0.0, "v1": math.inf})
        assert str(err.value) == "sin of an infinite value in 'sin(v1)'"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("sqrt(u1^2)", "sqrt not twice differentiable at zero in 'sqrt(u1^2)'"),
            (
                "(u1^2)^0.5",
                "power not twice differentiable at zero base in '(u1^2)^0.5'",
            ),
        ],
    )
    def test_first_order_pass_misses_a_kink_behind_a_zero_slope(self, body, message):
        # |u1| has no derivative at 0, but the inner u1^2 has slope 0 there:
        # the first-order parts equal those of the differentiable sqrt(u1^4),
        # so the first-order pass returns 0; only the second-order pass tells
        # the two apart
        kinked, smooth = (Lagrangian(1, f"{b} + v1^2") for b in (body, "sqrt(u1^4)"))
        for L in (kinked, smooth):
            assert frame_partials(L, 0.5, [0.0], [1.0])[2][0] == 0.0
        smooth.partials([0.5], [[0.0]], [[1.0]], order=2)
        with pytest.raises(ExprDomainError) as err:
            kinked.partials([0.5], [[0.0]], [[1.0]], order=2)
        assert str(err.value) == message


class TestDirectional:
    def test_square(self):
        e = parse("v1^2", VARS)
        val, der = at_point(e, {"t": 0, "u1": 0, "v1": 3}, {"t": 0, "u1": 0, "v1": 1})
        assert (val, der) == (9.0, 6.0)

    def test_cubic_product(self):
        # d/dv of (v^2-1)(1+3v^2) = 2v(1+3v^2) + 6v(v^2-1) = 8 at v=1
        e = parse("(v1^2-1)*(1+3*v1^2)", VARS)
        val, der = at_point(e, {"t": 0, "u1": 0, "v1": 1.0}, {"t": 0, "u1": 0, "v1": 1.0})
        assert val == 0.0
        assert der == pytest.approx(8.0, abs=1e-14)

    def test_zero_seed(self):
        e = parse("exp(v1)*sin(t)+u1^3", VARS)
        _, der = at_point(e, {"t": 0.3, "u1": 0.7, "v1": -0.2}, {"t": 0, "u1": 0, "v1": 0})
        assert der == 0.0


class TestPartial:
    def test_slope_partial(self):
        e = parse("v1^2", VARS)
        for c in (-2.0, 0.5, 3.0):
            assert at_point(e, {"t": 0, "u1": 0, "v1": c}, "v1")[1] == 2 * c

    def test_autonomous_time_partial(self):
        e = parse("v1^2", VARS)
        assert at_point(e, {"t": 5.0, "u1": 1.0, "v1": 2.0}, "t")[1] == 0.0

    def test_bilinear(self):
        e = parse("u1*v1", VARS)
        assert at_point(e, {"t": 0, "u1": 2.0, "v1": 5.0}, "u1")[1] == 5.0


def test_forward_returns_a_plain_triple():
    # frames and seeds in the order of the variables; the pass returns the
    # tuple (value, deriv, hess), hess None at order 1
    e = parse("u1*v1^2 + t", VARS)
    frames = [[1.0, 2.0], [3.0, -1.0], [0.5, 2.0]]
    first = e._forward(frames)
    assert type(first) is tuple and len(first) == 3 and first[2] is None
    assert first[0].tolist() == [1.75, -2.0] and first[1].tolist() == [0.0, 0.0]
    # one unit seed per variable: the partials (1, v^2, 2uv), and second
    # partials L_uv = 2v and L_vv = 2u, each for both frames
    value, deriv, hess = e._forward(frames, np.eye(3)[:, :, None], order=2)
    assert value.tolist() == [1.75, -2.0]
    assert deriv.tolist() == [[1.0, 1.0], [0.25, 4.0], [3.0, -4.0]]
    want = np.zeros((3, 3, 2))
    want[1, 2] = want[2, 1] = [1.0, 4.0]
    want[2, 2] = [6.0, -2.0]
    assert hess.tolist() == want.tolist()


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**31 - 1))
def test_partials_match_central_differences(seed):
    rng = np.random.default_rng(seed)
    expr, env = random_checked_pair(rng, VARS)
    for var in VARS:
        ad = at_point(expr, env, var)[1]
        fd = finite_difference_partial(expr, var, env)
        assert abs(ad - fd) <= 1e-6 * max(1.0, abs(ad))


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
def test_directional_is_linear_in_the_seed(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    expr, env = random_checked_pair(rng, VARS)
    s1 = {v: float(rng.uniform(-1, 1)) for v in VARS}
    s2 = {v: float(rng.uniform(-1, 1)) for v in VARS}
    mixed = {v: alpha * s1[v] + beta * s2[v] for v in VARS}
    _, d1 = at_point(expr, env, s1)
    _, d2 = at_point(expr, env, s2)
    _, dm = at_point(expr, env, mixed)
    want = alpha * d1 + beta * d2
    assert abs(dm - want) <= 1e-9 * max(1.0, abs(want))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1))
def test_print_reparse_round_trip(seed):
    rng = np.random.default_rng(seed)
    expr, _ = random_checked_pair(rng, VARS)
    reparsed = parse(str(expr), VARS)
    for _ in range(100):
        env = {v: float(rng.uniform(-2, 2)) for v in VARS}
        try:
            a = at_point(expr, env)[0]
        except ExprDomainError:
            continue
        assert at_point(reparsed, env)[0] == a
