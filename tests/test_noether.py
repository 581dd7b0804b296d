import json
import re

import numpy as np
import pytest

from conftest import random_exact_scale, trajectory_from_slopes
from helpers import at_point, frame_partials, load_report
from tsvar import (
    Expr,
    GridFunction,
    Lagrangian,
    TimeScale,
    Transformation,
    VariationalProblem,
    check_conservation,
    conserved_quantity,
    delta_derivative,
    evaluate,
    first_el_residual,
    invariance_residual,
    second_el_residual,
    cli,
    solve,
    solve_newton,
)
from tsvar.noether import _sample


def quadratic_problem(q_b=2.0):
    return VariationalProblem(
        TimeScale.uniform(0, 1, 0.125), Lagrangian(1, "v1^2"), [0.0], [q_b]
    )


def affine(scale, c, k=0.0):
    return GridFunction.sample(scale, lambda t: c * t + k)


class TestTransformation:
    @pytest.mark.parametrize(
        "dim, xi, message",
        [
            (1.5, ["1"], "dimension must be an integer, got 1.5"),
            (0, [], "dimension must be at least 1"),
        ],
    )
    def test_dimension(self, dim, xi, message):
        # range() would raise a bare TypeError on 1.5, and a dimension of 0
        # would pass until check_conservation compared it with the problem's
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Transformation.from_text(dim, "1", xi)

    def test_numpy_integer_dimension(self):
        tr = Transformation.from_text(np.int64(2), "1", ["q2", "-q1"])
        assert tr.dim == 2 and [str(x) for x in tr.xi] == ["q2", "-q1"]


class TestInvariance:
    def test_constant_generators_on_slope_square(self):
        p = quadratic_problem()
        tr = Transformation.from_text(1, "0.7", "-1.3")
        for q in (affine(p.scale, 2.0), GridFunction.sample(p.scale, lambda t: 2 * t * t)):
            if abs(q.values[-1, 0] - 2.0) > 1e-12:
                continue
            r = invariance_residual(p, q, tr)
            assert r.magnitude <= 1e-14

    def test_time_like_state_generator_breaks_invariance(self):
        p = quadratic_problem()
        tr = Transformation.from_text(1, "0", "t")
        q = affine(p.scale, 2.0)
        r = invariance_residual(p, q, tr)
        # residual is dL/dv * d(xi)/dt = 2 q_delta * 1
        assert np.allclose(r.values, 4.0)

    def test_identity_transformation(self):
        p = quadratic_problem()
        tr = Transformation.from_text(1, "0", "0")
        q = GridFunction.sample(p.scale, lambda t: 2 * t * t)
        assert invariance_residual(p, q, tr).magnitude == 0.0

    def test_time_scaling_not_invariant_for_slope_square(self):
        p = quadratic_problem()
        tr = Transformation.from_text(1, "t", "0")
        q = affine(p.scale, 2.0)
        assert invariance_residual(p, q, tr).magnitude > 1.0

    def test_dense_scale_rejected(self):
        scale = TimeScale.dense_interval(0, 1, 11)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [2.0])
        tr = Transformation.from_text(1, "1", "1")
        with pytest.raises(ValueError):
            invariance_residual(p, affine(scale, 2.0), tr)

    def test_linearity_in_generators(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125),
            Lagrangian(1, "t*v1^2 + u1^2 + sin(v1)"),
            [0.0],
            [2.0],
        )
        q = GridFunction.sample(p.scale, lambda t: 2 * t * t)
        alpha, beta = 1.7, -0.4
        t1 = Transformation.from_text(1, "1 + t^2", "t*q1")
        t2 = Transformation.from_text(1, "q1", "2 - t")
        mixed = Transformation.from_text(
            1,
            f"{alpha}*(1 + t^2) + {beta}*q1",
            f"{alpha}*t*q1 + {beta}*(2 - t)",
        )
        r1, r2, rm = (invariance_residual(p, q, tr).values for tr in (t1, t2, mixed))
        want = alpha * r1 + beta * r2
        assert np.max(np.abs(rm - want)) <= 1e-13 * (1 + np.max(np.abs(want)))


class TestConservedQuantity:
    def test_constant_generators_give_2sc_minus_rc2(self):
        p = quadratic_problem()
        q = affine(p.scale, 2.0)
        for r_const, s_const in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -0.8)):
            tr = Transformation.from_text(1, f"{r_const}", f"{s_const}")
            cons = conserved_quantity(p, q, tr)
            want = 2 * s_const * 2.0 - r_const * 4.0
            assert np.allclose(cons.values, want, atol=1e-13)

    def test_time_translation_matches_erdmann_quantity(self):
        p = quartic = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125),
            Lagrangian(1, "(v1^2 - 1)^2"),
            [0.0],
            [0.0],
        )
        q = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0))
        tr = Transformation.from_text(1, "1", "0")
        cons = conserved_quantity(p, q, tr).component(0)
        # C = -H at (tau, xi) = (1, 0), and Erdmann's is the spread of H:
        # bit for bit, as dL/dt = 0 and dL/dv is finite
        assert cons.max() - cons.min() == evaluate(p, q).erdmann()

    def test_zero_generators(self):
        p = quadratic_problem()
        tr = Transformation.from_text(1, "0", "0")
        cons = conserved_quantity(p, affine(p.scale, 2.0), tr)
        assert np.all(cons.values == 0.0)

    def test_linearity_in_generators(self):
        p = quadratic_problem()
        q = affine(p.scale, 2.0)
        alpha, beta = 1.7, -0.4
        t1 = Transformation.from_text(1, "1", "t")
        t2 = Transformation.from_text(1, "q1", "2")
        mixed = Transformation.from_text(
            1,
            f"{alpha}*1 + {beta}*q1",
            f"{alpha}*t + {beta}*2",
        )
        c1 = conserved_quantity(p, q, t1).values
        c2 = conserved_quantity(p, q, t2).values
        cm = conserved_quantity(p, q, mixed).values
        assert np.allclose(cm, alpha * c1 + beta * c2, atol=1e-12)

    def test_classical_reduction_on_dense_grid(self):
        scale = TimeScale.dense_interval(0.0, 1.0, 51)
        L = Lagrangian(1, "v1^2 + u1^2")
        p = VariationalProblem(scale, L, [0.0], [1.0])
        q = GridFunction.sample(scale, lambda t: t)
        tr = Transformation.from_text(1, "1", "q1")
        cons = conserved_quantity(p, q, tr).component(0)
        from tsvar import delta_derivative

        qd = delta_derivative(q)
        for i in (0, 10, 40):
            t = scale.points[i]
            u = q.values[scale.sigma(i)]
            v = qd.values[i]
            tau = 1.0
            xi = q.values[i, 0]
            value, _, _, Lv = frame_partials(L, t, u, v)
            classical = float(Lv @ [xi]) + (value - float(Lv @ v)) * tau
            assert cons[i] == classical


class TestCheckConservation:
    def test_quadratic_extremal_conserved(self):
        p = quadratic_problem()
        q = solve_newton(p)
        tr = Transformation.from_text(1, "1", "1")
        report = check_conservation(p, q, tr)
        assert report.invariance_magnitude <= 1e-12
        assert report.conservation_deviation <= 1e-12
        # conserved value 2sc - rc^2 = 2*1*2 - 1*4 = 0
        assert np.allclose(report.conserved.values, 0.0, atol=1e-13)

    def test_evaluates_lagrangian_and_generators_once(self, count_calls):
        p = quadratic_problem()
        q = GridFunction.sample(p.scale, lambda t: 2 * t * t)
        tr = Transformation.from_text(1, "t", "1 + t")
        res = invariance_residual(p, q, tr)
        cons = conserved_quantity(p, q, tr)
        partials = count_calls(Lagrangian, "partials")
        forward = count_calls(Expr, "_forward")
        report = check_conservation(p, q, tr)
        assert len(partials) == 1
        assert len(forward) == 3  # L, then tau and xi
        assert report.invariance_magnitude == float(np.max(np.abs(res.values[:-1])))
        assert np.array_equal(report.conserved.values, cons.values)

    def test_dense_scale_rejected(self):
        scale = TimeScale.dense_interval(0, 1, 11)
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), [0.0], [2.0])
        tr = Transformation.from_text(1, "1", "1")
        with pytest.raises(ValueError, match="exact discrete"):
            check_conservation(p, affine(scale, 2.0), tr)

    def test_non_extremal_not_conserved(self):
        p = quadratic_problem()
        q = GridFunction.sample(p.scale, lambda t: 2 * t * t)
        tr = Transformation.from_text(1, "1", "1")
        report = check_conservation(p, q, tr)
        assert report.conservation_deviation > 0.1

    def test_quartic_time_translation_on_pm_extremal(self):
        p = VariationalProblem(
            TimeScale.uniform(0, 1, 0.125),
            Lagrangian(1, "(v1^2 - 1)^2"),
            [0.0],
            [0.0],
        )
        q = trajectory_from_slopes(p.scale, 0.0, (1.0, -1.0) * 4)
        tr = Transformation.from_text(1, "1", "0")
        report = check_conservation(p, q, tr)
        assert report.invariance_magnitude <= 1e-14
        assert report.conservation_deviation <= 1e-14

    def test_report_json_keys(self, tmp_path):
        # noether --json: the conserved samples on the N-1 derivative
        # points, and as the invariance the largest magnitude over the
        # trajectory and the sweep's seeded uniform draws in [-span, span]
        p = quadratic_problem()
        q = solve_newton(p)
        tr = Transformation.from_text(1, "t", "0")
        path, out = tmp_path / "p.json", tmp_path / "report.json"
        problem = {
            "scale": {"points": p.scale.points.tolist()},
            "lagrangian": "v1^2",
            "q_a": 0.0,
            "q_b": 2.0,
            "trajectory": {"values": q.values[:, 0].tolist()},
            "transformation": {"tau": "t", "xi": ["0"]},
        }
        path.write_text(json.dumps(problem))
        argv = ["noether", str(path), "--sweep", "4", "--seed", "7", "--json", str(out)]
        assert cli.main(argv) == 0
        obj = load_report(out)
        assert list(obj) == ["invariance", "conserved", "deviation"]
        report = check_conservation(p, q, tr)
        assert len(obj["conserved"]) == p.scale.n - 1
        assert obj["conserved"] == report.conserved.values[:, 0].tolist()
        assert obj["deviation"] == report.conservation_deviation
        rng, span = np.random.default_rng(7), 1.0 + 0.0 + 2.0
        sweep = [
            invariance_residual(
                p, GridFunction(p.scale, rng.uniform(-span, span, (p.scale.n, 1))), tr
            ).magnitude
            for _ in range(4)
        ]
        assert obj["invariance"] == max(report.invariance_magnitude, *sweep)
        assert obj["invariance"] > report.invariance_magnitude


def test_conservation_property_on_slope_only_lagrangians():
    # whenever invariance and the first equation both hold on an exact
    # discrete scale, the quantity is conserved
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(20):
        scale = random_exact_scale(rng, 4, 9)
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-2.0, 2.0)
        L = Lagrangian(1, f"{a:.6f}*v1^2 + {b:.6f}*v1")
        qa, qb = rng.uniform(-2, 2, 2)
        p = VariationalProblem(scale, L, [qa], [qb])
        q = solve_newton(p)
        tr = Transformation.from_text(
            1, f"{rng.uniform(-2, 2):.6f}", f"{rng.uniform(-2, 2):.6f}"
        )
        if invariance_residual(p, q, tr).magnitude > 1e-10:
            continue
        if first_el_residual(p, q).magnitude > 1e-10:
            continue
        report = check_conservation(p, q, tr)
        assert report.conservation_deviation <= 1e-8
        checked += 1
    assert checked >= 15


def test_noether_from_the_two_equations():
    # by the product rule on an exact discrete scale, for any trajectory,
    # Delta C_i = first_el_i . xi(sigma(t_i)) - second_el_i tau(sigma(t_i))
    #             + invariance_i
    # so both Euler-Lagrange equations and invariance give conservation.
    # The last case is the extremal of v1^2 + u1^2 on a fixed grid with
    # tau = 1 and xi = 0: summed with weights mu, the drift C_end - C_0 is
    # all the second equation's part, the first-EL and invariance parts 0
    rng = np.random.default_rng(6)
    cases = {
        1: ("t*v1^2 + 0.7*u1^2 + 0.3*t*u1 + sin(v1)", "1 + 0.3*t*q1", ["q1 - 0.5*t"]),
        2: ("t*v1^2 + v2^2 + u1*u2 + cos(t)*v1*v2", "0.2*q1*q2 + 1", ["q2", "t - q1"]),
    }
    problems = []
    for _ in range(200):
        n = int(rng.integers(1, 3))
        body, tau, xi = cases[n]
        scale = random_exact_scale(rng, 4, 9)
        q = GridFunction(scale, rng.uniform(-2, 2, (scale.n, n)))
        p = VariationalProblem(scale, Lagrangian(n, body), q.values[0], q.values[-1])
        problems.append((p, q, Transformation.from_text(n, tau, xi)))
    grid = VariationalProblem(
        TimeScale.uniform(0, 1, 1 / 16), Lagrangian(1, "v1^2 + u1^2"), [0.0], [1.0]
    )
    problems.append((grid, solve_newton(grid), Transformation.from_text(1, "1", "0")))
    for p, q, tr in problems:
        scale = p.scale
        envs = [
            {"t": t, **{f"q{j + 1}": x for j, x in enumerate(row)}}
            for t, row in zip(scale.points, q.values)
        ]
        taus = np.array([at_point(tr.tau, env)[0] for env in envs])
        xis = np.array([[at_point(c, env)[0] for c in tr.xi] for env in envs])
        k = scale.n - 2
        terms = [
            np.sum(first_el_residual(p, q).values * xis[1 : k + 1], axis=1),
            -second_el_residual(p, q).values[:, 0] * taus[1 : k + 1],
            invariance_residual(p, q, tr).values[:k, 0],
        ]
        C = conserved_quantity(p, q, tr)
        dC = delta_derivative(C).values[:, 0]
        size = max(1.0, *(float(np.max(np.abs(x))) for x in terms))
        assert np.max(np.abs(dC - sum(terms))) <= 1e-13 * size
    first, second, invariance = (float(scale.mus[:k] @ x) for x in terms)
    drift = C.values[-1, 0] - C.values[0, 0]
    assert first == invariance == 0.0
    assert second == pytest.approx(0.0773266708893, abs=1e-12)
    assert drift == pytest.approx(second, abs=1e-15)


EPS = np.finfo(float).eps


def random_scattered(rng, min_points, max_points) -> TimeScale:
    """An exact discrete scale of min_points to max_points points with
    gaps uniform in [0.05, 0.4], from a start uniform in [-2, 2]."""
    gaps = rng.uniform(0.05, 0.4, int(rng.integers(min_points, max_points + 1)) - 1)
    return TimeScale.from_points(rng.uniform(-2, 2) + np.concatenate([[0.0], gaps.cumsum()]))


def rounding_sizes(e, g) -> tuple[np.ndarray, ...]:
    """At each frame of the record e, with the generators g = (tau, xi) at
    the scale points, the sums of the absolute values of the products that
    make H, C and the invariance residual: a float formed as such a sum is
    off by at most m eps times it, m the roundings on its longest chain
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1).
    A quotient's two ends count as two products."""
    A = np.abs
    H = A(e.L) + (A(e.Lv) * A(e.v)).sum(-1) + A(e.Lt) * e.mu
    C = (A(e.Lv) * A(g[:-1, 1:])).sum(-1) + H * A(g[:-1, 0])
    g_s, g_d = A(g[1:]), (A(g[1:]) + A(g[:-1])) / e.mu[:, None]  # sigma, delta
    invariance = (
        A(e.Lt) * g_s[:, 0] + (A(e.Lu) * g_s[:, 1:]).sum(-1)
        + (A(e.Lv) * g_d[:, 1:]).sum(-1) + H * g_d[:, 0]
    )
    return H, C, invariance


IDENTITY_BODIES = {
    1: [
        "t*v1^2 + 0.7*u1^2 + 0.3*t*u1 + sin(v1)", "exp(0.5*v1) + t*cos(u1) + v1^3/3",
        "v1^3 - u1^3 + t^2*u1*v1", "sin(t)*v1^2 + exp(-u1^2) + cos(v1)",
    ],
    2: [
        "t*v1^2 + v2^2 + u1*u2 + cos(t)*v1*v2", "exp(v1 - v2) + v1^2 + v2^2 + cos(u1 - u2)",
        "v1^3 + sin(u2)*v2 + t*u1^2 - u2^3/3", "exp(t)*v1*v2 + sin(u1)*cos(u2) + v2^2",
    ],
}
IDENTITY_GENERATORS = {
    1: [("1", ["0"]), ("0", ["1"]), ("t", ["q1"]), ("1 + 0.3*t*q1", ["q1 - 0.5*t"])],
    2: [
        ("1", ["0", "0"]), ("0", ["q2", "-q1"]), ("t^2", ["t*q1", "q2"]),
        ("0.2*q1*q2 + 1", ["q2", "t - q1"]),
    ],
}


def test_discrete_noether_identity_closes_to_rounding():
    # C^Delta_i = xi^sigma_i . F1_i - tau^sigma_i F2_i + Inv_i at every frame
    # i < N - 2 of any trajectory, here none an extremal: the product rule
    # makes it an identity in the record's own floats L, Lt, Lu and Lv, so
    # the kernel's rounding cancels and only that of the four sides is
    # left.  Each side is at most about a dozen roundings deep for n <= 2,
    # so it is off by at most about 12 eps times its size, the sum of the
    # absolute values of its products (rounding_sizes); c = 16 bounds
    # that, and the worst seen on 3000 such problems was 1.04
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        scale = random_scattered(rng, 5, 29)
        q = GridFunction(scale, rng.uniform(-1.5, 1.5, (scale.n, n)))
        body = IDENTITY_BODIES[n][rng.integers(4)]
        p = VariationalProblem(scale, Lagrangian(n, body), q.values[0], q.values[-1])
        k, mu = scale.n - 2, scale.mus[: scale.n - 2]
        for tau, xi in IDENTITY_GENERATORS[n]:
            e, g = _sample(p, q, Transformation.from_text(n, tau, xi))
            C, g_s = e.conserved(g), g[1 : k + 1]
            terms = [
                (g_s[:, 1:] * e.first_el_values()).sum(-1),
                -g_s[:, 0] * e.second_el_values()[:, 0],
                e.invariance(g)[:k],
            ]
            closing = (C[1:] - C[:-1]) / mu - sum(terms)
            H, C_size, invariance = rounding_sizes(e, g)
            A = np.abs
            first = (A(e.Lv[1:]) + A(e.Lv[:-1])) / mu[:, None] + A(e.Lu[:-1])
            second = (H[1:] + H[:-1]) / mu + A(e.Lt[:-1])
            size = (
                (C_size[1:] + C_size[:-1]) / mu + (A(g_s[:, 1:]) * first).sum(-1)
                + A(g_s[:, 0]) * second + invariance[:k]
            )
            assert (A(closing) <= 16 * EPS * size).all(), (body, tau, xi)


def test_free_particle_projective_symmetry_up_to_a_gauge_term():
    # for L = v1^2, tau = t^2 and xi = t*q1 change L by the total delta
    # derivative of Phi = q1^2 on any time scale: Inv and Phi^Delta are both
    # 2 v q^sigma - mu v^2 at every frame of any trajectory.  Bound: 16 eps
    # times A + B, A the size of Inv (rounding_sizes) and B = (q_{i+1}^2 +
    # q_i^2)/mu_i that of Phi^Delta, as in the identity above; the worst
    # seen on 1200 problems was 0.57
    rng = np.random.default_rng(29)
    tr = Transformation.from_text(1, "t^2", ["t*q1"])
    for _ in range(300):
        scale = random_scattered(rng, 4, 39)
        q = GridFunction(scale, rng.uniform(-2, 2, (scale.n, 1)))
        p = VariationalProblem(scale, Lagrangian(1, "v1^2"), q.values[0], q.values[-1])
        e, g = _sample(p, q, tr)
        Q, mu = q.values[:, 0], e.mu
        gauge = (Q[1:] ** 2 - Q[:-1] ** 2) / mu
        size = rounding_sizes(e, g)[2] + (Q[1:] ** 2 + Q[:-1] ** 2) / mu
        assert (np.abs(e.invariance(g) - gauge) <= 16 * EPS * size).all()
        # so along an extremal C - Phi = -(q - t v)^2 is constant.  The
        # closed form's floats are c t + k off by about eps |q_i|, so v_i is
        # off by eps (|q_{i+1}| + |q_i|)/mu_i, q_i - t_i v_i by eps s_i with
        # s_i = |q_i| + |t_i| (|q_{i+1}| + |q_i|)/mu_i, and its square by
        # a few eps s_i^2; c = 32 bounds the spread over max s_i^2, whose
        # worst seen on 1200 problems was 3.8
        Q = solve(p).trajectory.values[:, 0]
        e, g = _sample(p, GridFunction(scale, Q), tr)
        drift = e.conserved(g) - Q[:-1] ** 2
        s = np.abs(Q[:-1]) + np.abs(scale.points[:-1]) * (np.abs(Q[1:]) + np.abs(Q[:-1])) / mu
        assert drift.max() - drift.min() <= 32 * EPS * (s**2).max()


def test_invariance_of_a_generator_stack_on_one_record():
    # one invariance call on a stack of generators, shape (m, N, 1+n),
    # on one trajectory's record gives each generator's own residual bit
    # for bit: the matrix whose null space a symmetry search reads
    rng = np.random.default_rng(12)
    bodies = {
        1: "t*v1^2 + 0.7*u1^2 + 0.3*t*u1 + sin(v1)",
        2: "t*v1^2 + v2^2 + u1*u2 + cos(t)*v1*v2",
    }
    monomials = ("1", "t", "q1", "t*q1", "t^2")
    for n, body in bodies.items():
        scale = random_exact_scale(rng, 4, 12)
        q = GridFunction(scale, rng.uniform(-2, 2, (scale.n, n)))
        p = VariationalProblem(scale, Lagrangian(n, body), q.values[0], q.values[-1])
        basis = []
        for m in monomials:
            for slot in range(1 + n):  # tau = m, or the xi component slot - 1
                texts = ["0"] * (1 + n)
                texts[slot] = m
                basis.append(Transformation.from_text(n, texts[0], texts[1:]))
        e, _ = _sample(p, q, basis[0])
        G = np.stack([_sample(p, q, tr)[1] for tr in basis])
        rows = e.invariance(G)
        assert rows.shape == (len(basis), scale.n - 1)
        for row, tr in zip(rows, basis):
            own = invariance_residual(p, q, tr).values[:, 0]
            assert row.tobytes() == own.tobytes()


def test_vector_valued_generators():
    scale = TimeScale.uniform(0, 1, 0.25)
    L = Lagrangian(2, "v1^2 + v2^2")
    p = VariationalProblem(scale, L, [0.0, 0.0], [1.0, -1.0])
    q = GridFunction(
        scale, np.column_stack([scale.points, -scale.points])
    )
    tr = Transformation.from_text(2, "1", ["1", "0"])
    report = check_conservation(p, q, tr)
    assert report.invariance_magnitude <= 1e-14
    assert report.conservation_deviation <= 1e-14


def test_transformation_dimension_mismatch():
    with pytest.raises(ValueError):
        Transformation.from_text(2, "1", ["1"])


def test_generator_dimension_must_match_the_problem():
    p = quadratic_problem()
    tr = Transformation.from_text(2, "1", ["1", "0"])
    message = "^transformation dimension does not match the problem$"
    with pytest.raises(ValueError, match=message):
        check_conservation(p, affine(p.scale, 2.0), tr)
