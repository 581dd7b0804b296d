"""Relations with a known effect on the paper's conditions, checked on
random problems without a second implementation of the mathematics."""

import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_exact_scale
from tsvar import (
    GridFunction,
    Lagrangian,
    TimeScale,
    VariationalProblem,
    action,
    enumerate_slope_extremals,
    filter_second_el,
    first_el_residual,
    second_el_residual,
    solve,
)

EPS = np.finfo(float).eps
_spec = importlib.util.spec_from_file_location(
    "newton_sweep", Path(__file__).resolve().parents[1] / "scripts" / "newton_sweep.py"
)
SWEEP = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(SWEEP)
# bodies in t, u and v through exp, sin, cos and sqrt
BODIES = (
    "exp(v1/4)*t + u1^2",
    "sin(u1)*v1^2 + cos(t)",
    "sqrt(v1^2 + 1)*t + u1*v1",
    "cos(t*u1) + v1^2*exp(-t/3)",
    "sqrt(t^2 + u1^2 + 1)*v1^2 + sin(v1)",
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_null_lagrangian(n):
    # L = sum_j (t*v_j + u_j) = sum_j (t*q_j)^delta: every trajectory is an
    # extremal, and the action telescopes to sum_j (t_b q_b,j - t_a q_a,j)
    L = Lagrangian(n, " + ".join(f"t*v{j} + u{j}" for j in range(1, n + 1)))
    rng = np.random.default_rng(250 + n)
    for _ in range(70):
        T = random_exact_scale(rng, 3, 60)
        Q = rng.uniform(-10.0, 10.0, (T.n, n))
        p = VariationalProblem(T, L, Q[0], Q[-1])
        q = GridFunction(T, Q)
        assert not first_el_residual(p, q).values.any()
        t = T.points
        exact = (t[-1] * Q[-1] - t[0] * Q[0]).sum()
        bound = 4 * EPS * ((np.abs(t) + (T.b - T.a))[:, None] * np.abs(Q)).sum()
        assert abs(action(p, q) - exact) <= bound


def solved(body: str, points, q_a, q_b):
    """What ``solve`` returns on the problem, or the class name of what it
    raises, with warnings raised as errors: the verdicts of the Newton
    sweep's ordinary mode."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            p = VariationalProblem(
                TimeScale.from_points(points), Lagrangian(len(q_a), body), q_a, q_b
            )
            return solve(p)
        except Exception as exc:  # every failure is a verdict, as in the sweep
            return type(exc).__name__


def test_adding_a_null_lagrangian_to_the_sweeps_problems():
    # L + 0.7 sum_j (t v_j + u_j) = L + 0.7 sum_j (t q_j)^delta has L's
    # Euler-Lagrange equations: the same verdict and extremal, and the action
    # shifted by 0.7 sum_j (t_b q_b,j - t_a q_a,j) (on all 600 of the sweep's
    # ordinary problems: 490 solved, worst move 5.5e-14, worst action gap
    # 8.8e-15, in the units below)
    for i, body, points, q_a, q_b in SWEEP.problems("ordinary", 60):
        null = " + ".join(f"t*v{j} + u{j}" for j in range(1, len(q_a) + 1))
        plain, moved = (solved(b, points, q_a, q_b) for b in (body, f"{body} + 0.7*({null})"))
        verdicts = [x if isinstance(x, str) else "ok" for x in (plain, moved)]
        assert verdicts[1] == verdicts[0], (i, body)
        if verdicts[0] != "ok":
            continue
        Q, T = plain.trajectory.values, plain.trajectory.base
        gap = np.abs(moved.trajectory.values - Q).max()
        assert gap <= 1e-12 * (1 + np.abs(Q).max()), (i, body)
        shift = 0.7 * (T.b * q_b - T.a * q_a).sum()
        bound = 1e-13 * (1 + abs(plain.action) + abs(shift))
        assert abs(moved.action - plain.action - shift) <= bound, (i, body)


def test_scaling_multiplies_the_residuals():
    # L -> 2.5 L + 1.5 multiplies the first-EL and the second-EL residual by
    # 2.5.  Each residual row is (C_{i+1} - C_i)/mu_i + term_i, C being L_v
    # or the Hamiltonian -L + L_v v + L_t mu, and each partial of the
    # scaled L is 2.5 times L's, rounded once; so the two sides differ by a
    # few roundings of each side's terms, not of the residual, which
    # cancels: within 6 eps of S_i = (|C_{i+1}| + |C_i|)/mu_i + |term_i|,
    # C summed in absolute values, from the scaled L's partials (measured:
    # 2.4 eps at most on 1000 such problems).  Against 1 + max|2.5 r| the
    # second-EL gap read up to 126 eps there, where the Hamiltonian's terms
    # on gaps of 0.05 dwarf the residual
    rng = np.random.default_rng(25)
    for k in range(200):
        body = BODIES[k % len(BODIES)]
        T = random_exact_scale(rng, 3, 60)
        Q = rng.uniform(-2.0, 2.0, (T.n, 1))
        q, scaled = GridFunction(T, Q), Lagrangian(1, f"2.5*({body}) + 1.5")
        t, mu = T.points[:-1], T.mus[:-1]
        v = np.diff(Q[:, 0]) / mu
        partials = scaled.partials(t, Q[1:], v[:, None])
        L, Lt, Lu, Lv = (np.abs(x).ravel() for x in partials)
        hamiltonian = L + Lv * np.abs(v) + Lt * mu
        terms = {first_el_residual: (Lv, Lu), second_el_residual: (hamiltonian, Lt)}
        for residual, (C, term) in terms.items():
            r, r_scaled = (
                residual(VariationalProblem(T, lagrangian, Q[0], Q[-1]), q).values[:, 0]
                for lagrangian in (Lagrangian(1, body), scaled)
            )
            S = (C[1:] + C[:-1]) / mu[:-1] + term[:-1]
            assert np.all(np.abs(r_scaled - 2.5 * r) <= 6 * EPS * S)


def test_permuting_the_components_permutes_the_extremal():
    # component perm[j] of q becomes component j: u_k and v_k are renamed
    # in the body and q_a, q_b permuted, so the extremal's columns are
    # permuted.  The renamed body evaluates the same terms in the same
    # order, so L and its partials are the same floats, in permuted
    # columns; but for n >= 2 Newton's dense linear solve eliminates the
    # reordered unknowns in another order, so its steps differ by roundings.
    # The relation holds to a few roundings of q, not bit for bit
    # (seeds 0-4, 60 problems each: all solved, 7-13 bit-identical, worst
    # gap 3.7e-15 (1 + max|q|)); the bound leaves a factor of about 25
    bodies = (
        "t*v1^2 + v2^2 + 0.5*u1^2 + 0.3*u1*v2",
        "v1^2 + v2^2 + v3^2 + u1*u2 + 0.1*t*v3^4 + u3^2",
        "exp(v1/3) + v2^2 + 0.2*u1*u2 + u2^2",
    )
    rng = np.random.default_rng(0)
    for k in range(60):
        body = bodies[k % len(bodies)]
        n = max(int(j) for j in re.findall(r"[uv](\d+)", body))
        perm = np.roll(np.arange(n), 1)  # (1 2) for n = 2, (1 2 3) for n = 3
        name = {int(old) + 1: new + 1 for new, old in enumerate(perm)}
        relabelled = re.sub(r"([uv])(\d+)", lambda m: f"{m[1]}{name[int(m[2])]}", body)
        gaps = rng.uniform(0.02, 0.1, int(rng.integers(5, 40)) - 1)
        points = np.concatenate([[0.0], np.cumsum(gaps)])
        q_a, q_b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        plain = solved(body, points, q_a, q_b)
        permuted = solved(relabelled, points, q_a[perm], q_b[perm])
        Q = plain.trajectory.values
        gap = np.abs(permuted.trajectory.values - Q[:, perm]).max()
        assert gap <= 1e-13 * (1 + np.abs(Q).max()), (k, body)


@pytest.mark.parametrize("c, d", [(2, 3), (0.5, -1), (3, 0.25), (1.7, -0.4), (0.3, 2)])
def test_quartic_under_an_affine_time_map(c, d):
    # t' = c t + d maps the quartic (v^2 - 1)^2 on uniform(0, 1, 0.125) to
    # ((c v')^2 - 1)^2 / c, and its slopes {-1, 0, 1} to {-1/c, 0, 1/c}: the
    # enumeration keeps the same 1107 words and the filter the same 71
    T = TimeScale.uniform(0, 1, 0.125)
    words = []
    for scale, body, letters in (
        (T, "(v1^2 - 1)^2", [-1.0, 0.0, 1.0]),
        (
            TimeScale.from_parts(c * T.points + d, "S" * (T.n - 1)),
            f"(({c}*v1)^2 - 1)^2 / {c}",
            [-1 / c, 0.0, 1 / c],
        ),
    ):
        p = VariationalProblem(scale, Lagrangian(1, body), [0.0], [0.0])
        cands = enumerate_slope_extremals(p, letters, tol=1e-8)
        kept = filter_second_el(cands, tol=1e-8)
        words.append([np.rint(x.slopes / letters[-1]) for x in (cands, kept)])
    assert [len(x) for x in words[1]] == [1107, 71]
    for mapped, reference in zip(words[1], words[0]):
        assert np.array_equal(mapped, reference)
