"""Variational problems on time scales and necessary-condition residuals.

A problem minimizes the delta integral of L(t, q(sigma(t)), q_delta(t))
over trajectories with fixed boundary values.  This module evaluates, for
a candidate trajectory:

* the action (the delta integral itself),
* the first Euler-Lagrange residual and its integral (constancy) form,
* the Hamiltonian-like quantity -L + dL/dv . v + dL/dt * mu,
* the second Euler-Lagrange (DuBois-Reymond) residual built from it,
* the Erdmann constancy deviation for autonomous Lagrangians.

Each is arithmetic on one evaluation of L and its first partials at the
frames (t, q_sigma, q_delta) of the trajectory, made by one private
builder that also checks the trajectory; :mod:`tsvar.noether` reads the
same evaluation.

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
    _quotients,
    _running_integral,
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
        if not np.all(np.isfinite([qa, qb])):
            raise ValueError(f"boundary vectors must be finite: q_a {qa}, q_b {qb}")
        for name, arr in (("q_a", qa), ("q_b", qb)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


@dataclass(frozen=True)
class _Along:
    """L and its first partials at the frames (t, q_sigma, q_delta) of q on
    its derivative prefix, with the graininess mu there."""

    p: VariationalProblem
    q: GridFunction
    t: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    approximate: bool
    L: np.ndarray
    Lt: np.ndarray
    Lu: np.ndarray
    Lv: np.ndarray

    def hamiltonian(self, mu) -> np.ndarray:
        """-L + dL/dv . q_delta + dL/dt * mu at each frame."""
        return -self.L + np.sum(self.Lv * self.v, axis=1) + self.Lt * mu

    def action(self) -> float:
        T, L = self.p.scale, self.L
        if T.kappa_length == T.n:
            # a DENSE last gap also needs L at the final point, where q_sigma
            # is q and the backward quotient is the last row of q_delta
            closing = self.p.lagrangian.value(T.b, self.q.values[-1], self.v[-1])
            L = np.append(L, closing)
        return float(delta_integral(GridFunction(T, L), 0, T.n - 1)[0])

    def first_el(self) -> Residual:
        r = _outer(self.t, self.Lv, -self.Lu)
        return Residual("first_el", self.t[:-1], r, self.approximate)

    def second_el(self) -> Residual:
        r = _outer(self.t, self.hamiltonian(self.mu)[:, None], self.Lt[:, None])
        return Residual("second_el", self.t[:-1], r, self.approximate)

    def erdmann(self) -> float:
        moving = np.flatnonzero(np.abs(self.Lt) > AUTONOMY_TOL)
        if moving.size:
            i = moving[0]
            raise ValueError(
                f"lagrangian is not autonomous: dL/dt = {self.Lt[i]:.3e} "
                f"at t = {float(self.t[i])!r}"
            )
        E = self.hamiltonian(0.0)
        return float(E.max() - E.min())


def _along(p: VariationalProblem, q: GridFunction, boundary: bool = True) -> _Along:
    """Check q, then evaluate L and its partials along it in one kernel pass.

    ``boundary=False`` leaves the boundary values unchecked, for quantities
    that range over unconstrained trajectories.
    """
    if q.base != p.scale:
        raise ValueError("trajectory lives on a different scale")
    if not q.is_full:
        raise ValueError("trajectory must cover every point of the scale")
    if q.dim != p.dim:
        raise ValueError(f"trajectory dimension {q.dim} != problem dimension {p.dim}")
    # written so that a NaN endpoint fails
    if boundary and not np.max(np.abs(q.values[0] - p.q_a)) <= BOUNDARY_TOL:
        raise ValueError(f"trajectory start {q.values[0]} != q_a {p.q_a}")
    if boundary and not np.max(np.abs(q.values[-1] - p.q_b)) <= BOUNDARY_TOL:
        raise ValueError(f"trajectory end {q.values[-1]} != q_b {p.q_b}")
    return _alongs(p, q.values[None], q.approximate).record(0, q)


def _outer(t: np.ndarray, composite: np.ndarray, term: np.ndarray) -> np.ndarray:
    """(d/dt)_delta composite + term at the frames t, for composite and term
    of shape (..., k, n); the result covers the first k-1 frames."""
    return _quotients(t, composite) + term[..., :-1, :]


@dataclass(frozen=True)
class _Alongs:
    """A stack of trajectories Q, shape (h, N, n), with the fields of
    :class:`_Along` from one kernel pass over all their frames; the
    per-trajectory fields carry the leading axis h."""

    p: VariationalProblem
    Q: np.ndarray
    t: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    approximate: bool
    L: np.ndarray
    Lt: np.ndarray
    Lu: np.ndarray
    Lv: np.ndarray

    def first_el_magnitudes(self) -> np.ndarray:
        """Each trajectory's ``first_el().magnitude``, from the same floats."""
        return np.max(np.abs(_outer(self.t, self.Lv, -self.Lu)), axis=(1, 2))

    def record(self, i: int, q: GridFunction | None = None) -> _Along:
        """Trajectory i's record; q is that trajectory if already built."""
        q = GridFunction(self.p.scale, self.Q[i]) if q is None else q
        return _Along(
            self.p, q, self.t, self.mu, self.v[i], self.approximate,
            self.L[i], self.Lt[i], self.Lu[i], self.Lv[i],
        )


def _alongs(p: VariationalProblem, Q: np.ndarray, approximate: bool = False) -> _Alongs:
    """Evaluate L and its partials along every trajectory of Q in one pass.

    Q has shape (h, N, n) and is not checked.  Frame i of a trajectory is
    (t_i, q(sigma(t_i)), q_delta(t_i)) on the derivative prefix, q_delta
    being the forward quotient that :func:`delta_derivative` takes.
    """
    T, (h, _, n) = p.scale, Q.shape
    k = T.n - 1
    t, U, V = T.points[:k], Q[:, T.sigmas[:k]], _quotients(T.points, Q)
    L, Lt, Lu, Lv = p.lagrangian.partials(np.tile(t, h), U, V)
    approximate = approximate or T.has_dense
    return _Alongs(
        p, Q, t, T.mus[:k], V, approximate,
        L.reshape(h, k), Lt.reshape(h, k), Lu.reshape(h, k, n), Lv.reshape(h, k, n),
    )


def action(p: VariationalProblem, q: GridFunction) -> float:
    """Delta integral of L(t, q_sigma, q_delta) over the whole scale."""
    return _along(p, q).action()


def first_el_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """Residual of (d/dt)_delta dL/dv = dL/du along the trajectory.

    Zero everywhere on its domain exactly when q is an extremal there.
    """
    return _along(p, q).first_el()


def first_el_integral_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """Deviation from constancy of dL/dv minus the running integral of dL/du.

    Values are per-component deviations above the component minimum, so
    the magnitude is the largest max-minus-min spread.  Zero exactly when
    the integral form of the first Euler-Lagrange equation holds with
    some constant vector.
    """
    e = _along(p, q)
    g = e.Lv - _running_integral(GridFunction(p.scale, e.Lu), 0, len(e.t) - 1)
    return Residual("first_el_integral", e.t, g - g.min(axis=0), e.approximate)


def hamiltonian(p: VariationalProblem, q: GridFunction, i: int) -> float:
    """-L + dL/dv . q_delta + dL/dt * mu at point i of the derivative prefix.

    Reduces to the classical Hamiltonian -L + dL/dv . v wherever the
    graininess vanishes.
    """
    e = _along(p, q)
    i, k = int(i), len(e.t)
    if not 0 <= i < k:
        raise IndexError(f"index {i} outside the derivative prefix of length {k}")
    return float(e.hamiltonian(e.mu)[i])


def second_el_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """Residual of the second Euler-Lagrange (DuBois-Reymond) equation.

    Measures (d/dt)_delta of the Hamiltonian composite plus dL/dt; zero
    where the equation holds.
    """
    return _along(p, q).second_el()


def erdmann_deviation(p: VariationalProblem, q: GridFunction) -> float:
    """Max-minus-min of -L + dL/dv . q_delta along the trajectory.

    Only defined for autonomous Lagrangians; dL/dt is checked pointwise
    along the trajectory and the first violating point is reported.
    """
    return _along(p, q).erdmann()


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
