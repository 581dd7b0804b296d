"""Invariance of the action under infinitesimal transformations, and the
conserved quantity that invariance buys along extremals.

A transformation is given by its generator pair: a scalar time generator
tau(t, q) and a state generator xi(t, q) with one component per
trajectory dimension.  Invariance of the action is tested pointwise
through a necessary-and-sufficient residual; when it vanishes, the
quantity

    dL/dv . xi + [L - dL/dv . q_delta - dL/dt * mu] * tau

is the candidate constant of motion.  Generator variables are named
``t`` and ``q1..qn`` and are evaluated at (t, q(t)); the shifted and
delta-differentiated generator composites are formed on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import Expr, parse
from .timescale import GridFunction, delta_derivative
from .variational import (
    Residual,
    VariationalProblem,
    _check_trajectory,
    _frames,
    _hamiltonian,
)

__all__ = [
    "Transformation",
    "NoetherReport",
    "invariance_residual",
    "conserved_quantity",
    "check_conservation",
]


@dataclass(frozen=True)
class Transformation:
    """Generator pair (tau, xi) of a one-parameter transformation family."""

    tau: Expr
    xi: tuple[Expr, ...]

    @classmethod
    def from_text(
        cls, dim: int, tau: str, xi: str | list[str] | tuple[str, ...]
    ) -> "Transformation":
        names = ("t",) + tuple(f"q{k + 1}" for k in range(dim))
        if isinstance(xi, str):
            xi = [xi]
        if len(xi) != dim:
            raise ValueError(f"xi needs {dim} components, got {len(xi)}")
        return cls(parse(tau, names), tuple(parse(s, names) for s in xi))

    @property
    def dim(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class NoetherReport:
    """Bundle of the invariance magnitude, the conserved samples, and the
    max-minus-min deviation of those samples.  Pass/fail against a
    tolerance is left to the caller."""

    invariance_magnitude: float
    conserved: GridFunction
    conservation_deviation: float
    tol: float | None = None

    def to_json(self) -> dict:
        return {
            "invariance": self.invariance_magnitude,
            "conserved": self.conserved.component(0).tolist(),
            "deviation": self.conservation_deviation,
        }


def _generator_rows(
    tr: Transformation, q: GridFunction
) -> tuple[np.ndarray, np.ndarray]:
    """tau(t_i, q_i) and xi(t_i, q_i) sampled at every scale point."""
    names = ["t"] + [f"q{k + 1}" for k in range(tr.dim)]
    env = dict(zip(names, np.vstack([q.base.points, q.values.T])))
    taus = tr.tau._forward(env).value
    xis = np.column_stack([c._forward(env).value for c in tr.xi])
    return taus, xis


def invariance_residual(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> Residual:
    """Pointwise invariance condition of the action along q.

    Evaluates dL/dt tau + dL/du . xi_sigma + dL/dv . xi_delta
    + L tau_delta - q_delta . dL/dv tau_delta; identically zero iff the
    action is invariant under the generator pair.
    """
    if not p.scale.is_exact_discrete:
        raise ValueError("invariance residual needs an exact discrete scale")
    if tr.dim != p.dim:
        raise ValueError("transformation dimension does not match the problem")
    # invariance quantifies over unconstrained trajectories, so no
    # boundary-value check here
    _check_trajectory(p, q, boundary=False)
    T = p.scale
    t, u, v, approx = _frames(p, q)
    k = len(t)
    taus, xis = _generator_rows(tr, q)
    tau_d = delta_derivative(GridFunction(T, taus)).component(0)
    xi_d = delta_derivative(GridFunction(T, xis)).values
    L, Lt, Lu, Lv = p.lagrangian.partials(t, u, v)
    vals = (
        Lt * taus[:k]
        + np.sum(Lu * xis[T.sigmas[:k]], axis=1)
        + np.sum(Lv * xi_d, axis=1)
        + L * tau_d
        - np.sum(v * Lv, axis=1) * tau_d
    )
    return Residual("invariance", t, vals, approximate=approx)


def conserved_quantity(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> GridFunction:
    """Sample the candidate constant of motion along the trajectory.

    Lagrangian arguments are (t, q_sigma, q_delta); the generators are
    taken at (t, q(t)).  Defined on the derivative prefix of q.
    """
    if tr.dim != p.dim:
        raise ValueError("transformation dimension does not match the problem")
    _check_trajectory(p, q, boundary=False)
    t, u, v, approx = _frames(p, q)
    k = len(t)
    taus, xis = _generator_rows(tr, q)
    L, Lt, _, Lv = p.lagrangian.partials(t, u, v)
    # the bracket L - dL/dv . q_delta - dL/dt * mu is minus the Hamiltonian
    H = _hamiltonian(p.scale.mus[:k], v, L, Lt, Lv)
    vals = np.sum(Lv * xis[:k], axis=1) - H * taus[:k]
    return GridFunction(p.scale, vals, approximate=approx)


def check_conservation(
    p: VariationalProblem,
    q: GridFunction,
    tr: Transformation,
    tol: float | None = None,
) -> NoetherReport:
    """Invariance magnitude plus the conserved samples and their spread.

    The invariance magnitude is taken over the prefix on which a further
    delta derivative of the residual would exist (one point fewer than
    the residual itself covers).
    """
    res = invariance_residual(p, q, tr)
    cons = conserved_quantity(p, q, tr)
    inner = res.values[:-1] if len(res.values) > 1 else res.values
    magnitude = float(np.max(np.abs(inner))) if inner.size else 0.0
    c = cons.component(0)
    return NoetherReport(
        invariance_magnitude=magnitude,
        conserved=cons,
        conservation_deviation=float(c.max() - c.min()),
        tol=tol,
    )
