"""Relations with a known effect on the paper's conditions, checked on
random problems without a second implementation of the mathematics."""

import numpy as np
import pytest

from conftest import random_exact_scale
from tsvar import GridFunction, Lagrangian, VariationalProblem, action, first_el_residual

EPS = np.finfo(float).eps


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
