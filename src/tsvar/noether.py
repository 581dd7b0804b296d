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
from .timescale import GridFunction, _quotients
from .variational import Residual, VariationalProblem, _Along, _along, _frames

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

    def to_json(self) -> dict:
        return {
            "invariance": self.invariance_magnitude,
            "conserved": self.conserved.component(0).tolist(),
            "deviation": self.conservation_deviation,
        }


def _sample(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> tuple[_Along, np.ndarray, np.ndarray]:
    """L and its partials along q, not held to the boundary values, and
    tau(t_i, q_i), xi(t_i, q_i) at every scale point."""
    if tr.dim != p.dim:
        raise ValueError("transformation dimension does not match the problem")
    e = _along(p, q, boundary=False)
    names = ["t"] + [f"q{k + 1}" for k in range(tr.dim)]
    env = dict(zip(names, [q.base.points, *q.values.T]))
    taus = tr.tau._forward(env).value
    xis = np.column_stack([c._forward(env).value for c in tr.xi])
    return e, taus, xis


def _invariance(e: _Along, taus: np.ndarray, xis: np.ndarray) -> Residual:
    T, k = e.p.scale, len(e.t)
    if not T.is_exact_discrete:
        raise ValueError("invariance residual needs an exact discrete scale")
    tau_d = _quotients(T.points, taus[:, None])[:, 0]
    _, xi_s, xi_d = _frames(T, xis)
    vals = (
        e.Lt * taus[:k]
        + np.sum(e.Lu * xi_s, axis=1)
        + np.sum(e.Lv * xi_d, axis=1)
        + e.L * tau_d
        - np.sum(e.v * e.Lv, axis=1) * tau_d
    )
    return Residual("invariance", e.t, vals, approximate=e.approximate)


def _conserved(e: _Along, taus: np.ndarray, xis: np.ndarray) -> GridFunction:
    k = len(e.t)
    # the bracket L - dL/dv . q_delta - dL/dt * mu is minus the Hamiltonian
    vals = np.sum(e.Lv * xis[:k], axis=1) - e.hamiltonian(e.mu) * taus[:k]
    return GridFunction(e.p.scale, vals, approximate=e.approximate)


def invariance_residual(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> Residual:
    """Pointwise invariance condition of the action along q.

    Evaluates dL/dt tau + dL/du . xi_sigma + dL/dv . xi_delta
    + L tau_delta - q_delta . dL/dv tau_delta; identically zero iff the
    action is invariant under the generator pair.
    """
    return _invariance(*_sample(p, q, tr))


def conserved_quantity(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> GridFunction:
    """Sample the candidate constant of motion along the trajectory.

    Lagrangian arguments are (t, q_sigma, q_delta); the generators are
    taken at (t, q(t)).  Defined on the derivative prefix of q.
    """
    return _conserved(*_sample(p, q, tr))


def check_conservation(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> NoetherReport:
    """Invariance magnitude plus the conserved samples and their spread.

    The invariance magnitude is taken over the prefix on which a further
    delta derivative of the residual would exist (one point fewer than
    the residual itself covers).  L and the generators are evaluated once
    for both.
    """
    sample = _sample(p, q, tr)
    res, cons = _invariance(*sample), _conserved(*sample)
    magnitude = float(np.max(np.abs(res.values[:-1])))
    c = cons.component(0)
    return NoetherReport(
        invariance_magnitude=magnitude,
        conserved=cons,
        conservation_deviation=float(c.max() - c.min()),
    )
