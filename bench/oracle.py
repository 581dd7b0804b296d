"""Independent numpy recomputation of everything the benchmark checks.

Nothing here imports tsvar.  Each Lagrangian family carries its body text
(what the program parses) and closed-form partials written by hand, so the
program's dual-number derivatives, per-point loops and Newton solver are
checked against a second implementation:

* ``Family``: a Lagrangian with vectorised value and partials;
* ``Grid``: a time scale as points plus a scattered-gap mask, with the
  frames ``(t, q_sigma, q_delta)`` of the paper's residuals;
* residual recomputations (first and second Euler-Lagrange, Erdmann,
  integral form, invariance, conserved quantity, action);
* ``lq_extremal``: the discrete Euler-Lagrange system of a linear-quadratic
  Lagrangian solved directly as a block-tridiagonal linear system;
* ``enumerate_words``: the slope-word enumeration, vectorised over all
  words at once, and the trinomial closed form of the quartic counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

EPS = float(np.finfo(float).eps)


def fmt(x: float) -> str:
    """Coefficient text that parses back to exactly the same double."""
    return repr(float(x))


@dataclass(frozen=True)
class Family:
    """L(t, u, v) with closed-form partials over arrays of frames.

    ``t`` has shape (k,), ``u`` and ``v`` have shape (k, n).  ``lq`` is
    ``(alpha, beta, C)`` when L = sum_k (alpha_k + beta_k t) v_k^2 + u'Cu,
    which makes the discrete Euler-Lagrange system linear.  ``size`` bounds
    the coefficients, for the round-off allowance.
    """

    text: str
    n: int
    value: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    size: float
    lq: tuple | None = None

    @property
    def slope_only(self) -> bool:
        """Pure quadratic form in v: the program's closed-form path."""
        return (
            self.lq is not None
            and not np.any(self.lq[1])
            and not np.any(self.lq[2])
        )


def lq_family(alpha, beta, C) -> Family:
    """sum_k (alpha_k + beta_k t) v_k^2 + sum_ij C_ij u_i u_j, C symmetric."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    C = np.asarray(C, dtype=float)
    n = alpha.size
    terms = []
    for k in range(n):
        if beta[k] == 0.0:
            terms.append(f"{fmt(alpha[k])}*v{k + 1}^2")
        elif alpha[k] == 0.0:
            terms.append(f"{fmt(beta[k])}*t*v{k + 1}^2")
        else:
            terms.append(f"({fmt(alpha[k])} + {fmt(beta[k])}*t)*v{k + 1}^2")
    for i in range(n):
        if C[i, i] != 0.0:
            terms.append(f"{fmt(C[i, i])}*u{i + 1}^2")
        for j in range(i + 1, n):
            if C[i, j] != 0.0:
                terms.append(f"{fmt(2.0 * C[i, j])}*u{i + 1}*u{j + 1}")

    def a(t):
        return alpha[None, :] + beta[None, :] * t[:, None]

    return Family(
        text=" + ".join(terms),
        n=n,
        value=lambda t, u, v: np.sum(a(t) * v * v, axis=1)
        + np.einsum("ki,ij,kj->k", u, C, u),
        d1=lambda t, u, v: v * v @ beta,
        d2=lambda t, u, v: 2.0 * u @ C,
        d3=lambda t, u, v: 2.0 * a(t) * v,
        size=1.0 + float(np.abs(alpha).sum() + np.abs(beta).sum() + np.abs(C).sum()),
        lq=(alpha, beta, C),
    )


def quartic_family() -> Family:
    """(v1^2 - 1)^2: every slope in {-1, 0, 1} zeroes dL/dv."""
    return Family(
        text="(v1^2 - 1)^2",
        n=1,
        value=lambda t, u, v: ((v[:, 0] ** 2 - 1.0) ** 2),
        d1=lambda t, u, v: np.zeros(len(t)),
        d2=lambda t, u, v: np.zeros_like(u),
        d3=lambda t, u, v: 4.0 * v * (v * v - 1.0),
        size=4.0,
    )


def quartic_state_family(c: float) -> Family:
    """v1^2 + c*u1^4: convex, not linear-quadratic."""
    return Family(
        text=f"v1^2 + {fmt(c)}*u1^4",
        n=1,
        value=lambda t, u, v: v[:, 0] ** 2 + c * u[:, 0] ** 4,
        d1=lambda t, u, v: np.zeros(len(t)),
        d2=lambda t, u, v: 4.0 * c * u**3,
        d3=lambda t, u, v: 2.0 * v,
        size=1.0 + 4.0 * c,
    )


def exp_slope_family(c: float) -> Family:
    """exp(0.3*v1) + v1^2 + c*u1^2: a transcendental slope term."""
    return Family(
        text=f"exp(0.3*v1) + v1^2 + {fmt(c)}*u1^2",
        n=1,
        value=lambda t, u, v: np.exp(0.3 * v[:, 0]) + v[:, 0] ** 2 + c * u[:, 0] ** 2,
        d1=lambda t, u, v: np.zeros(len(t)),
        d2=lambda t, u, v: 2.0 * c * u,
        d3=lambda t, u, v: 0.3 * np.exp(0.3 * v) + 2.0 * v,
        size=2.0 + 2.0 * c,
    )


def arclength_family(c: float) -> Family:
    """sqrt(1 + v1^2) + c*u1^2: arc length with a state penalty."""
    return Family(
        text=f"sqrt(1 + v1^2) + {fmt(c)}*u1^2",
        n=1,
        value=lambda t, u, v: np.sqrt(1.0 + v[:, 0] ** 2) + c * u[:, 0] ** 2,
        d1=lambda t, u, v: np.zeros(len(t)),
        d2=lambda t, u, v: 2.0 * c * u,
        d3=lambda t, u, v: v / np.sqrt(1.0 + v * v),
        size=2.0 + 2.0 * c,
    )


@dataclass(frozen=True)
class Grid:
    """Points plus a mask of scattered gaps (False marks a dense gap)."""

    points: np.ndarray
    scattered: np.ndarray

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mu(self) -> np.ndarray:
        """Graininess at points 0..N-2 (zero on dense gaps)."""
        return np.where(self.scattered, self.dt, 0.0)

    @property
    def sigma(self) -> np.ndarray:
        """Forward jump index of points 0..N-2."""
        idx = np.arange(self.n - 1)
        return np.where(self.scattered, idx + 1, idx)

    def to_json(self) -> dict:
        return {
            "points": [float(x) for x in self.points],
            "gaps": ["S" if s else "D" for s in self.scattered],
        }

    def classes(self) -> list[str]:
        right = np.append(self.scattered, False)
        left = np.insert(self.scattered, 0, False)
        out = []
        for lft, rgt in zip(left, right):
            if lft and rgt:
                out.append("ISOLATED")
            elif not lft and not rgt:
                out.append("DENSE")
            else:
                out.append(
                    ("LEFT_SCATTERED" if lft else "LEFT_DENSE")
                    + "+"
                    + ("RIGHT_SCATTERED" if rgt else "RIGHT_DENSE")
                )
        return out

    def kappa_length(self) -> int:
        return self.n - 1 if self.scattered[-1] else self.n


def frames(grid: Grid, q: np.ndarray):
    """(t, q_sigma, q_delta) on the derivative prefix, points 0..N-2."""
    v = np.diff(q, axis=0) / grid.dt[:, None]
    return grid.points[:-1], q[grid.sigma], v


def first_el(fam: Family, grid: Grid, q: np.ndarray) -> np.ndarray:
    t, u, v = frames(grid, q)
    p3 = fam.d3(t, u, v)
    dp3 = np.diff(p3, axis=0) / grid.dt[:-1, None]
    return dp3 - fam.d2(t[:-1], u[:-1], v[:-1])


def second_el(fam: Family, grid: Grid, q: np.ndarray) -> np.ndarray:
    t, u, v = frames(grid, q)
    d1 = fam.d1(t, u, v)
    H = -fam.value(t, u, v) + np.sum(fam.d3(t, u, v) * v, axis=1) + d1 * grid.mu
    return np.diff(H) / grid.dt[:-1] + d1[:-1]


def erdmann(fam: Family, grid: Grid, q: np.ndarray) -> float:
    t, u, v = frames(grid, q)
    E = -fam.value(t, u, v) + np.sum(fam.d3(t, u, v) * v, axis=1)
    return float(E.max() - E.min())


def action(fam: Family, grid: Grid, q: np.ndarray) -> float:
    """Delta integral of L over an all-scattered scale."""
    if not grid.scattered.all():
        raise ValueError("the benchmark only checks actions on scattered scales")
    t, u, v = frames(grid, q)
    return float(np.sum(fam.value(t, u, v) * grid.dt))


def first_el_integral(fam: Family, grid: Grid, q: np.ndarray) -> np.ndarray:
    """dL/dv minus the running delta integral of dL/du, above its minimum."""
    t, u, v = frames(grid, q)
    d3 = fam.d3(t, u, v)
    d2 = fam.d2(t, u, v)
    w = grid.dt[:-1, None]
    s = grid.scattered[:-1, None]
    step = np.where(s, d2[:-1] * w, 0.5 * (d2[:-1] + d2[1:]) * w)
    running = np.vstack([np.zeros((1, fam.n)), np.cumsum(step, axis=0)])
    g = d3 - running
    return g - g.min(axis=0)


def generators(tau: Callable, xi: Callable, grid: Grid, q: np.ndarray):
    taus = np.broadcast_to(tau(grid.points, q), (grid.n,)).astype(float)
    xis = np.broadcast_to(xi(grid.points, q), q.shape).astype(float)
    return taus, xis


def invariance(fam: Family, grid: Grid, q: np.ndarray, tau, xi) -> np.ndarray:
    t, u, v = frames(grid, q)
    taus, xis = generators(tau, xi, grid, q)
    tau_d = np.diff(taus) / grid.dt
    xi_d = np.diff(xis, axis=0) / grid.dt[:, None]
    d3 = fam.d3(t, u, v)
    return (
        fam.d1(t, u, v) * taus[:-1]
        + np.sum(fam.d2(t, u, v) * xis[grid.sigma], axis=1)
        + np.sum(d3 * xi_d, axis=1)
        + fam.value(t, u, v) * tau_d
        - np.sum(v * d3, axis=1) * tau_d
    )


def conserved(fam: Family, grid: Grid, q: np.ndarray, tau, xi) -> np.ndarray:
    t, u, v = frames(grid, q)
    taus, xis = generators(tau, xi, grid, q)
    d3 = fam.d3(t, u, v)
    bracket = (
        fam.value(t, u, v)
        - np.sum(d3 * v, axis=1)
        - fam.d1(t, u, v) * grid.mu
    )
    return np.sum(d3 * xis[:-1], axis=1) + bracket * taus[:-1]


def roundoff(fam: Family, grid: Grid, q: np.ndarray) -> float:
    """Allowance for round-off in second differences: ~ eps * |q| |v| / h^2.

    A delta derivative of a quantity built from delta derivatives divides
    a rounding error of relative size eps twice by the smallest gap.
    """
    v = np.diff(q, axis=0) / grid.dt[:, None]
    qs = 1.0 + float(np.max(np.abs(q)))
    vs = 1.0 + float(np.max(np.abs(v)))
    h = float(np.min(grid.dt))
    return 64.0 * EPS * fam.size * qs * vs * vs / (h * h)


def lq_extremal(fam: Family, grid: Grid, qa, qb) -> np.ndarray:
    """Solve the discrete first Euler-Lagrange equations of an LQ family.

    Row i (i = 0..N-3) of the residual, multiplied by mu_i / 2, reads
    A_{i+1} (q_{i+2} - q_{i+1}) / mu_{i+1} - A_i (q_{i+1} - q_i) / mu_i
    - mu_i C q_{i+1} = 0 with A_i = diag(alpha + beta t_i): block
    tridiagonal in the interior values, solved by block forward
    elimination and back substitution.
    """
    if fam.lq is None or not grid.scattered.all():
        raise ValueError("lq_extremal needs an LQ family on a scattered scale")
    alpha, beta, C = fam.lq
    n = fam.n
    t = grid.points
    mu = grid.dt
    A = alpha[None, :] + beta[None, :] * t[:, None]  # (N, n) diagonals
    m = grid.n - 2
    I = np.eye(n)
    lower = [np.diag(A[i] / mu[i]) for i in range(m)]  # multiplies q_i
    upper = [np.diag(A[i + 1] / mu[i + 1]) for i in range(m)]  # q_{i+2}
    diag = [-(upper[i] + lower[i]) - mu[i] * C for i in range(m)]
    rhs = [np.zeros(n) for _ in range(m)]
    rhs[0] = rhs[0] - lower[0] @ np.asarray(qa, dtype=float)
    rhs[-1] = rhs[-1] - upper[-1] @ np.asarray(qb, dtype=float)
    # block Thomas: unknown x_i = q_{i+1}; row i couples x_{i-1}, x_i, x_{i+1}
    cp = [None] * m
    dp = [None] * m
    inv = np.linalg.solve(diag[0], I)
    cp[0] = inv @ upper[0]
    dp[0] = inv @ rhs[0]
    for i in range(1, m):
        inv = np.linalg.solve(diag[i] - lower[i] @ cp[i - 1], I)
        cp[i] = inv @ upper[i]
        dp[i] = inv @ (rhs[i] - lower[i] @ dp[i - 1])
    x = np.empty((m, n))
    x[-1] = dp[-1]
    for i in range(m - 2, -1, -1):
        x[i] = dp[i] - cp[i] @ x[i + 1]
    return np.vstack([np.asarray(qa, dtype=float), x, np.asarray(qb, dtype=float)])


@dataclass(frozen=True)
class Enumeration:
    """Expected outcome of ``solve --enumerate --filter-second-el``."""

    extremals: int
    survivors: list[tuple[float, ...]]
    actions: np.ndarray
    first_el: np.ndarray
    second_el: np.ndarray


def enumerate_words(
    fam: Family, grid: Grid, qa: float, qb: float, letters, tol: float
) -> Enumeration:
    """All slope words at once: boundary hit, first-EL test, second-EL filter."""
    letters = sorted(float(s) for s in set(letters))
    gaps = grid.n - 1
    words = np.array(list(itertools.product(letters, repeat=gaps)))
    q = qa + np.hstack([np.zeros((len(words), 1)), np.cumsum(words * grid.dt, axis=1)])
    hit = np.abs(q[:, -1] - qb) <= 1e-9
    words, q = words[hit], q[hit]
    # per-word frames stacked along a leading axis
    t = np.broadcast_to(grid.points[:-1], words.shape)
    u = q[:, grid.sigma]
    v = np.diff(q, axis=1) / grid.dt

    def per_point(fn):
        flat = fn(t.reshape(-1), u.reshape(-1, 1), v.reshape(-1, 1))
        return flat.reshape(words.shape)

    d3 = per_point(fam.d3)
    d2 = per_point(fam.d2)
    d1 = per_point(fam.d1)
    L = per_point(fam.value)
    r1 = np.diff(d3, axis=1) / grid.dt[:-1] - d2[:, :-1]
    m1 = np.max(np.abs(r1), axis=1)
    ext = m1 <= tol
    H = -L + d3 * v + d1 * grid.mu
    r2 = np.diff(H, axis=1) / grid.dt[:-1] + d1[:, :-1]
    m2 = np.max(np.abs(r2), axis=1)
    keep = ext & (m2 <= tol)
    acts = np.sum(L * grid.dt, axis=1)
    return Enumeration(
        extremals=int(ext.sum()),
        survivors=[tuple(float(x) for x in w) for w in words[keep]],
        actions=acts[keep],
        first_el=m1[keep],
        second_el=m2[keep],
    )


def trinomial(m: int, k: int) -> int:
    """Number of words over {-1, 0, 1} of length m with sum k."""
    k = abs(k)
    return sum(
        comb(m, j) * comb(m - j, j + k) for j in range(0, (m - k) // 2 + 1)
    )


def quartic_counts(m: int, k: int) -> tuple[int, int]:
    """Closed-form (extremals, survivors) of the uniform quartic problem.

    Every boundary-hitting word is a first-EL extremal; the survivors are
    the all-(+-1) words with sum k plus the all-zero word when k = 0.
    """
    ext = trinomial(m, k)
    pm = comb(m, (m + k) // 2) if (m + k) % 2 == 0 and abs(k) <= m else 0
    return ext, pm + (1 if k == 0 else 0)
