"""Invariance of the action under infinitesimal transformations, and the
conserved quantity that invariance buys along extremals.

A transformation is given by its generator pair: a scalar time generator
tau(t, q) and a state generator xi(t, q) with one component per
trajectory dimension, in ``t`` and ``q1..qn``, evaluated at (t, q(t)) as
one array g = (tau, xi).  The methods of q's evaluation record in
:mod:`tsvar.variational` do the arithmetic: with H its Hamiltonian,
invariance is the pointwise residual dL/dt tau_sigma + dL/du . xi_sigma +
dL/dv . xi_delta - H tau_delta, and C = dL/dv . xi - H tau is the candidate
constant of motion: C_delta = invariance + first_el . xi_sigma -
second_el tau_sigma by the product rule.
"""

from __future__ import annotations

import numpy as np

from .expr import Expr, _frozen, _nonfinite, _Record, _Value, parse
from .timescale import GridFunction
from .variational import Evaluation, Residual, VariationalProblem, _dimension, evaluate

__all__ = [
    "Transformation",
    "NoetherReport",
    "invariance_residual",
    "conserved_quantity",
    "check_conservation",
]


class Transformation(_Value):
    """Generator pair (tau, xi) of a one-parameter transformation family,
    equal to a pair of equal expressions."""

    __slots__ = ("tau", "xi")

    def __init__(self, tau: Expr, xi: tuple[Expr, ...]):
        _frozen(self, tau=tau, xi=tuple(xi))

    @classmethod
    def from_text(
        cls, dim: int, tau: str, xi: str | list[str] | tuple[str, ...]
    ) -> "Transformation":
        names = ("t",) + tuple(f"q{k + 1}" for k in range(_dimension(dim)))
        if isinstance(xi, str):
            xi = [xi]
        if len(xi) != dim:
            raise ValueError(f"xi needs {dim} components, got {len(xi)}")
        return cls(parse(tau, names), tuple(parse(s, names) for s in xi))

    @property
    def dim(self) -> int:
        return len(self.xi)


class NoetherReport(_Record):
    """Bundle of the invariance magnitude, the conserved samples, and the
    max-minus-min deviation of those samples; equal only to itself.
    Pass/fail against a tolerance is left to the caller."""

    __slots__ = ("invariance_magnitude", "conserved", "conservation_deviation")

    def __init__(
        self, invariance_magnitude: float, conserved: GridFunction,
        conservation_deviation: float,
    ):
        _frozen(
            self, invariance_magnitude=invariance_magnitude, conserved=conserved,
            conservation_deviation=conservation_deviation,
        )


def _sample(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> tuple[Evaluation, np.ndarray]:
    """L and its partials along q, not held to the boundary values, and
    the generators g = (tau, xi)(t_i, q_i) at every scale point, shape
    (N, 1+n)."""
    if tr.dim != p.dim:
        raise ValueError("transformation dimension does not match the problem")
    e = evaluate(p, q, boundary=False)
    values = [q.base.points, *q.values.T]
    return e, np.array([c._forward(values)[0] for c in (tr.tau, *tr.xi)]).T


def invariance_residual(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> Residual:
    """Pointwise invariance condition of the action along q.

    Evaluates dL/dt tau_sigma + dL/du . xi_sigma + dL/dv . xi_delta
    - H tau_delta, identically zero iff the action is invariant under the
    generator pair.  As tau_sigma = tau + mu tau_delta, that is
    dL/dt tau + dL/du . xi_sigma + dL/dv . xi_delta
    + (L - dL/dv . q_delta) tau_delta up to rounding.
    """
    e, g = _sample(p, q, tr)
    return Residual("invariance", e.t, e.invariance(g), e.approximate)


def conserved_quantity(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> GridFunction:
    """Sample the candidate constant of motion along the trajectory.

    Lagrangian arguments are (t, q_sigma, q_delta); the generators are
    taken at (t, q(t)).  Defined on the derivative prefix of q.
    """
    e, g = _sample(p, q, tr)
    return GridFunction(p.scale, e.conserved(g), approximate=e.approximate)


@_nonfinite()
def check_conservation(
    p: VariationalProblem, q: GridFunction, tr: Transformation
) -> NoetherReport:
    """Invariance magnitude plus the conserved samples and their spread.

    The invariance magnitude is taken over the prefix on which a further
    delta derivative of the residual would exist (one point fewer than
    the residual itself covers).  L and the generators are evaluated once
    for both.
    """
    e, g = _sample(p, q, tr)
    magnitude = float(np.abs(e.invariance(g)[:-1]).max())
    c = e.conserved(g)
    return NoetherReport(
        invariance_magnitude=magnitude,
        conserved=GridFunction(p.scale, c, approximate=e.approximate),
        conservation_deviation=float(c.max() - c.min()),
    )
