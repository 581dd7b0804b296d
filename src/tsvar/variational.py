"""Variational problems on time scales and necessary-condition residuals.

A problem minimizes the delta integral of L(t, q(sigma(t)), q_delta(t))
over trajectories with fixed boundary values.  This module evaluates, for
a candidate trajectory:

* the action (the delta integral itself),
* the first Euler-Lagrange residual and its integral (constancy) form,
* the Hamiltonian-like quantity -L + dL/dv . v + dL/dt * mu,
* the second Euler-Lagrange (DuBois-Reymond) residual built from it,
* the Erdmann constancy deviation for autonomous Lagrangians.

Residual domains: on a scale of N points the delta derivative of a
trajectory covers the first N-1 points, and the outer delta derivative of
a composite built from it covers the first N-2.  Differential-form
residuals therefore live on that N-2 prefix, which matches the count of
interior unknowns; no boundary closure is invented for the lost point.

Lagrangian variables follow a fixed naming convention: ``t`` for time,
``u1..un`` for the q(sigma(t)) slot, and ``v1..vn`` for the q_delta slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr, parse
from .timescale import (
    GridFunction,
    TimeScale,
    _running_integral,
    delta_derivative,
    delta_integral,
)

__all__ = [
    "Lagrangian",
    "VariationalProblem",
    "Residual",
    "action",
    "first_el_residual",
    "first_el_integral_residual",
    "hamiltonian",
    "second_el_residual",
    "erdmann_deviation",
    "classical_check",
]

BOUNDARY_TOL = 1e-12
AUTONOMY_TOL = 1e-10


class Lagrangian:
    """Scalar integrand L(t, u, v) with exact first partials via dual numbers.

    ``dim`` is the trajectory dimension n; the body is an expression over
    t, u1..un, v1..vn.  :meth:`partials` evaluates L and all its first
    partials over an array of frames; :meth:`value` and :meth:`d1`..
    :meth:`d3` are the same call on a single frame.
    """

    def __init__(self, dim: int, body: str | Expr):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        self.u_names = tuple(f"u{k + 1}" for k in range(dim))
        self.v_names = tuple(f"v{k + 1}" for k in range(dim))
        names = ("t",) + self.u_names + self.v_names
        if isinstance(body, Expr):
            unknown = set(body.variables) - set(names)
            if unknown:
                raise ValueError(f"unexpected variables {sorted(unknown)}")
            self.body = Expr(body.root, names)
        else:
            self.body = parse(body, names)
        # per variable, a column of seeds: zero for L itself, then one unit
        # seed for each variable in turn (see partials)
        seeds = np.eye(len(names) + 1, len(names), k=-1)
        self._seeds = {name: seeds[:, [j]] for j, name in enumerate(names)}

    def partials(
        self, t: np.ndarray, U: np.ndarray, V: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """L, dL/dt, dL/du and dL/dv at every frame (t_i, U_i, V_i).

        ``t`` has k entries and ``U``, ``V`` have k rows of n; the results
        have shapes (k,), (k,), (k, n) and (k, n).  One forward pass
        carries every direction at once: a zero seed for L itself, then a
        unit seed for each of t, u1..un, v1..vn.  Raises
        :class:`ExprDomainError` if L or a partial is undefined at any frame.
        """
        t = np.asarray(t, dtype=float)
        n = self.dim
        U = np.reshape(U, (t.size, n))
        V = np.reshape(V, (t.size, n))
        cols = np.vstack([t, U.T, V.T])
        out = self.body._forward(dict(zip(self.body.variables, cols)), self._seeds)
        d = out.deriv[1:]
        return out.value[0], d[0], d[1 : n + 1].T, d[n + 1 :].T

    def value(self, t: float, u: np.ndarray, v: np.ndarray) -> float:
        return float(self.partials([t], [u], [v])[0][0])

    def d1(self, t: float, u: np.ndarray, v: np.ndarray) -> float:
        """Partial with respect to time."""
        return float(self.partials([t], [u], [v])[1][0])

    def d2(self, t: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Gradient with respect to the u slot."""
        return self.partials([t], [u], [v])[2][0]

    def d3(self, t: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Gradient with respect to the v slot."""
        return self.partials([t], [u], [v])[3][0]

    def __repr__(self) -> str:
        return f"Lagrangian(dim={self.dim}, body={str(self.body)!r})"


@dataclass(frozen=True)
class VariationalProblem:
    """A time scale, a Lagrangian, and fixed boundary values."""

    scale: TimeScale
    lagrangian: Lagrangian
    q_a: np.ndarray
    q_b: np.ndarray

    def __post_init__(self) -> None:
        if self.scale.n < 3:
            raise ValueError("the scale needs at least three points")
        qa = np.atleast_1d(np.asarray(self.q_a, dtype=float)).copy()
        qb = np.atleast_1d(np.asarray(self.q_b, dtype=float)).copy()
        n = self.lagrangian.dim
        if qa.shape != (n,) or qb.shape != (n,):
            raise ValueError(f"boundary vectors must have length {n}")
        qa.setflags(write=False)
        qb.setflags(write=False)
        object.__setattr__(self, "q_a", qa)
        object.__setattr__(self, "q_b", qb)

    @property
    def dim(self) -> int:
        return self.lagrangian.dim


@dataclass(frozen=True)
class Residual:
    """Pointwise residual values over a leading prefix of a scale.

    ``magnitude`` is the max-norm over all entries.  ``approximate`` is
    set when any DENSE gap contributed to the computation.
    """

    kind: str
    points: np.ndarray
    values: np.ndarray
    approximate: bool
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float).copy()
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        vals = vals.copy()
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must have matching length")
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(
            self, "magnitude", float(np.max(np.abs(vals))) if vals.size else 0.0
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "points": self.points.tolist(),
            "values": self.values.tolist(),
            "magnitude": self.magnitude,
            "approximate": bool(self.approximate),
        }


def _check_trajectory(
    p: VariationalProblem, q: GridFunction, boundary: bool = True
) -> None:
    if q.base != p.scale:
        raise ValueError("trajectory lives on a different scale")
    if not q.is_full:
        raise ValueError("trajectory must cover every point of the scale")
    if q.dim != p.dim:
        raise ValueError(f"trajectory dimension {q.dim} != problem dimension {p.dim}")
    if not boundary:
        return
    if np.max(np.abs(q.values[0] - p.q_a)) > BOUNDARY_TOL:
        raise ValueError(f"trajectory start {q.values[0]} != q_a {p.q_a}")
    if np.max(np.abs(q.values[-1] - p.q_b)) > BOUNDARY_TOL:
        raise ValueError(f"trajectory end {q.values[-1]} != q_b {p.q_b}")


def _frames(
    p: VariationalProblem, q: GridFunction, extend_dense_end: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Rows (t_i, q_sigma_i, q_delta_i) on the derivative prefix of q.

    With ``extend_dense_end`` and a scale whose last gap is DENSE, a
    backward quotient extends q_delta to the final point so integrands
    can be formed on the whole scale.
    """
    T = p.scale
    qd = delta_derivative(q)
    t = T.points[: qd.valid]
    v = qd.values
    approx = qd.approximate
    if extend_dense_end and T.kappa_length == T.n:
        w = float(T.points[-1] - T.points[-2])
        v_last = (q.values[-1] - q.values[-2]) / w
        t = T.points
        v = np.vstack([v, v_last])
        approx = True
    return t, q.values[T.sigmas[: len(t)]], v, approx


def action(p: VariationalProblem, q: GridFunction) -> float:
    """Delta integral of L(t, q_sigma, q_delta) over the whole scale."""
    _check_trajectory(p, q)
    t, u, v, approx = _frames(p, q, extend_dense_end=True)
    L = p.lagrangian.partials(t, u, v)[0]
    integrand = GridFunction(p.scale, L, approximate=approx)
    return float(delta_integral(integrand, 0, p.scale.n - 1)[0])


def first_el_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """Residual of (d/dt)_delta dL/dv = dL/du along the trajectory.

    Zero everywhere on its domain exactly when q is an extremal there.
    """
    _check_trajectory(p, q)
    t, u, v, approx = _frames(p, q)
    _, _, Lu, Lv = p.lagrangian.partials(t, u, v)
    dp3 = delta_derivative(GridFunction(p.scale, Lv, approximate=approx))
    k2 = dp3.valid
    return Residual(
        "first_el", t[:k2], dp3.values - Lu[:k2], approximate=dp3.approximate
    )


def first_el_integral_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """Deviation from constancy of dL/dv minus the running integral of dL/du.

    Values are per-component deviations above the component minimum, so
    the magnitude is the largest max-minus-min spread.  Zero exactly when
    the integral form of the first Euler-Lagrange equation holds with
    some constant vector.
    """
    _check_trajectory(p, q)
    t, u, v, approx = _frames(p, q)
    _, _, Lu, Lv = p.lagrangian.partials(t, u, v)
    d2_grid = GridFunction(p.scale, Lu, approximate=approx)
    g = Lv - _running_integral(d2_grid, 0, len(t) - 1)
    return Residual("first_el_integral", t, g - g.min(axis=0), approximate=approx)


def _hamiltonian(mu, v, L, Lt, Lv) -> np.ndarray:
    """-L + dL/dv . v + dL/dt * mu at each frame."""
    return -L + np.sum(Lv * v, axis=1) + Lt * mu


def hamiltonian(p: VariationalProblem, q: GridFunction, i: int) -> float:
    """-L + dL/dv . q_delta + dL/dt * mu at point i of the derivative prefix.

    Reduces to the classical Hamiltonian -L + dL/dv . v wherever the
    graininess vanishes.
    """
    _check_trajectory(p, q)
    t, u, v, _ = _frames(p, q)
    i = int(i)
    if not 0 <= i < len(t):
        raise IndexError(f"index {i} outside the derivative prefix of length {len(t)}")
    L, Lt, _, Lv = p.lagrangian.partials(t, u, v)
    return float(_hamiltonian(p.scale.mus[: len(t)], v, L, Lt, Lv)[i])


def second_el_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """Residual of the second Euler-Lagrange (DuBois-Reymond) equation.

    Measures (d/dt)_delta of the Hamiltonian composite plus dL/dt; zero
    where the equation holds.
    """
    _check_trajectory(p, q)
    t, u, v, approx = _frames(p, q)
    L, Lt, _, Lv = p.lagrangian.partials(t, u, v)
    H = _hamiltonian(p.scale.mus[: len(t)], v, L, Lt, Lv)
    dH = delta_derivative(GridFunction(p.scale, H, approximate=approx))
    k2 = dH.valid
    vals = dH.values[:, 0] + Lt[:k2]
    return Residual("second_el", t[:k2], vals, approximate=dH.approximate)


def erdmann_deviation(p: VariationalProblem, q: GridFunction) -> float:
    """Max-minus-min of -L + dL/dv . q_delta along the trajectory.

    Only defined for autonomous Lagrangians; dL/dt is checked pointwise
    along the trajectory and the first violating point is reported.
    """
    _check_trajectory(p, q)
    t, u, v, _ = _frames(p, q)
    L, Lt, _, Lv = p.lagrangian.partials(t, u, v)
    moving = np.flatnonzero(np.abs(Lt) > AUTONOMY_TOL)
    if moving.size:
        i = moving[0]
        raise ValueError(
            f"lagrangian is not autonomous: dL/dt = {Lt[i]:.3e} at t = {t[i]!r}"
        )
    E = _hamiltonian(0.0, v, L, Lt, Lv)
    return float(E.max() - E.min())


def classical_check(p: VariationalProblem, q: GridFunction) -> Residual:
    """Second Euler-Lagrange residual on an all-DENSE (sampled continuum) scale.

    Graininess is identically zero there, so the quantity reduces to the
    classical -L + dL/dv . v; the result approximates the classical
    DuBois-Reymond equation and converges as the grid is refined.
    """
    if np.any(p.scale.mus):
        raise ValueError("classical check needs an all-dense scale")
    r = second_el_residual(p, q)
    return Residual("classical_second_el", r.points, r.values, approximate=True)
