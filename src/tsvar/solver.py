"""Produce extremal candidates for variational problems on discrete scales.

Three routes:

* a closed-form affine extremal c*t + k through the boundary values,
* damped Newton iteration on the first Euler-Lagrange residual system
  (unknowns are the interior trajectory values),
* exhaustive enumeration of slope sequences over a finite alphabet, used
  as a ground-truth oracle on small instances.

:func:`solve` picks between the first two.  Candidates carry diagnostics
(action, first and second Euler-Lagrange residual magnitudes), computed
once per candidate, so that a second-equation filter can narrow the set.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .expr import _homogeneous_degree
from .timescale import GridFunction
from .variational import (
    Lagrangian,
    VariationalProblem,
    _along,
    first_el_residual,
)

__all__ = [
    "NewtonOptions",
    "SingularSystem",
    "NoConvergence",
    "Provenance",
    "Candidate",
    "CandidateSet",
    "affine_extremal",
    "solve_newton",
    "solve",
    "enumerate_slope_extremals",
    "filter_second_el",
]

ENUMERATION_GUARD = 10**8
BOUNDARY_HIT_TOL = 1e-9
CONDITION_LIMIT = 1e14


class SingularSystem(RuntimeError):
    """The Newton Jacobian is numerically singular."""


class NoConvergence(RuntimeError):
    """Newton failed to reach the residual target.

    Carries the last iterate and the residual-magnitude history.
    """

    def __init__(self, trajectory: GridFunction, history: list[float]):
        super().__init__(
            f"no convergence after {len(history)} residual evaluations; "
            f"history = {[f'{m:.3e}' for m in history]}"
        )
        self.trajectory = trajectory
        self.history = history


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 50
    max_halvings: int = 20
    fd_step: float = 1e-7

    def __post_init__(self) -> None:
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0 < self.fd_step < np.inf:
            raise ValueError("fd_step must be positive and finite")


class Provenance(enum.Enum):
    NEWTON = "NEWTON"
    ENUMERATED = "ENUMERATED"
    CLOSED_FORM = "CLOSED_FORM"


@dataclass(frozen=True)
class Candidate:
    trajectory: GridFunction
    provenance: Provenance
    action: float
    first_el: float
    second_el: float
    slopes: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        return {
            "slopes": None if self.slopes is None else list(self.slopes),
            "values": [[float(x) for x in row] for row in self.trajectory.values],
            "action": self.action,
            "first_el": self.first_el,
            "second_el": self.second_el,
            "provenance": self.provenance.value,
        }


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __getitem__(self, i: int) -> Candidate:
        return self.candidates[i]

    def to_json_lines(self) -> str:
        """One candidate per line, lexicographic slope order preserved."""
        return "\n".join(json.dumps(c.to_json()) for c in self.candidates)


def affine_extremal(p: VariationalProblem) -> GridFunction:
    """The affine trajectory c*t + k through both boundary values.

    c = (q_b - q_a) / (b - a) and k = (b*q_a - a*q_b) / (b - a),
    componentwise.  For Lagrangians depending only on the slope this is
    an extremal; for the quadratic slope Lagrangian it is the minimizer.
    """
    a, b = p.scale.a, p.scale.b
    c = (p.q_b - p.q_a) / (b - a)
    k = (b * p.q_a - a * p.q_b) / (b - a)
    values = p.scale.points[:, None] * c[None, :] + k[None, :]
    # rounding in c*t + k can miss the boundary values; the ends are pinned
    values[0], values[-1] = p.q_a, p.q_b
    return GridFunction(p.scale, values)


def _assemble(p: VariationalProblem, interior: np.ndarray) -> GridFunction:
    n = p.dim
    inner = interior.reshape(p.scale.n - 2, n)
    return GridFunction(p.scale, np.vstack([p.q_a[None, :], inner, p.q_b[None, :]]))


def solve_newton(
    p: VariationalProblem,
    q_init: GridFunction | None = None,
    opts: NewtonOptions = NewtonOptions(),
) -> GridFunction:
    """Newton iteration on the first Euler-Lagrange residuals.

    Unknowns are the interior values q(t_1) .. q(t_{N-2}); the Jacobian is
    assembled by forward finite differences of the residual, and damped
    steps are accepted only when the residual max-norm decreases.
    ``q_init`` defaults to the affine extremal.
    """
    if not p.scale.is_exact_discrete:
        raise ValueError("Newton solve needs an exact discrete scale")
    if q_init is None:
        q_init = affine_extremal(p)
    _along(p, q_init)  # checks q_init, and that L is defined along it

    def residual_vec(x: np.ndarray) -> np.ndarray:
        return first_el_residual(p, _assemble(p, x)).values.ravel()

    x = q_init.values[1:-1].ravel().copy()
    history: list[float] = []
    for it in range(opts.max_iter + 1):
        F = residual_vec(x)
        mag = float(np.max(np.abs(F)))
        history.append(mag)
        if mag <= opts.tol:
            return _assemble(p, x)
        if it == opts.max_iter:
            raise NoConvergence(_assemble(p, x), history)
        J = np.empty((F.size, x.size))
        for k in range(x.size):
            step = opts.fd_step * max(1.0, abs(x[k]))
            xk = x.copy()
            xk[k] += step
            J[:, k] = (residual_vec(xk) - F) / step
        if np.linalg.cond(J) > CONDITION_LIMIT:
            raise SingularSystem(
                f"jacobian condition estimate exceeds {CONDITION_LIMIT:.0e}"
            )
        dx = np.linalg.solve(J, -F)
        alpha = 1.0
        for _halving in range(opts.max_halvings + 1):
            trial = float(np.max(np.abs(residual_vec(x + alpha * dx))))
            if trial < mag:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(_assemble(p, x), history)
        x = x + alpha * dx


def _detects_quadratic_slope(lagrangian: Lagrangian) -> bool:
    """Whether L is syntactically a quadratic form in v that reads neither
    t nor u, so that every affine trajectory is an extremal."""
    return _homogeneous_degree(lagrangian.body.root, lagrangian.v_names) == 2


def _diagnose(
    p: VariationalProblem, q: GridFunction, provenance: Provenance, slopes=None
) -> Candidate:
    """One evaluation of L along q gives the action and both EL magnitudes."""
    e = _along(p, q)
    first, second = e.first_el().magnitude, e.second_el().magnitude
    return Candidate(q, provenance, e.action(), first, second, slopes)


def solve(p: VariationalProblem, opts: NewtonOptions = NewtonOptions()) -> Candidate:
    """A diagnosed extremal: the affine closed form if L is a pure quadratic
    form in v with no t, u coupling (CLOSED_FORM), else Newton from it (NEWTON)."""
    if _detects_quadratic_slope(p.lagrangian):
        q, provenance = affine_extremal(p), Provenance.CLOSED_FORM
    else:
        q, provenance = solve_newton(p, opts=opts), Provenance.NEWTON
    return _diagnose(p, q, provenance)


def enumerate_slope_extremals(
    p: VariationalProblem,
    alphabet: tuple[float, ...] | list[float],
    tol: float = 1e-8,
) -> CandidateSet:
    """Brute-force all slope sequences over the alphabet; keep extremals.

    A sequence s induces q(t_{i+1}) = q(t_i) + s_i * mu(t_i) from q_a.
    Kept are sequences that hit q_b within 1e-9 and whose first
    Euler-Lagrange residual magnitude is at most ``tol``; each survivor
    carries its action and second-equation diagnostics.  Output is in
    lexicographic slope order (alphabet sorted ascending).
    """
    if not p.scale.is_exact_discrete:
        raise ValueError("enumeration needs an exact discrete scale")
    if p.dim != 1:
        raise ValueError("enumeration is implemented for one-dimensional problems")
    letters = tuple(sorted(float(s) for s in set(alphabet)))
    if not letters:
        raise ValueError("alphabet must be non-empty")
    if not np.all(np.isfinite(letters)):
        raise ValueError(f"alphabet letters must be finite, got {list(letters)}")
    gaps = p.scale.n - 1
    if len(letters) ** gaps > ENUMERATION_GUARD:
        raise ValueError(
            f"{len(letters)}^{gaps} sequences exceed the enumeration guard; "
            "use solve_newton instead"
        )
    qb = float(p.q_b[0])
    kept = []
    for seq in itertools.product(letters, repeat=gaps):
        q = GridFunction.from_slopes(p.scale, p.q_a, seq)
        if not abs(q.values[-1, 0] - qb) <= BOUNDARY_HIT_TOL:  # NaN is no hit
            continue
        if first_el_residual(p, q).magnitude > tol:
            continue
        kept.append(_diagnose(p, q, Provenance.ENUMERATED, slopes=seq))
    return CandidateSet(tuple(kept))


def filter_second_el(
    p: VariationalProblem, cands: CandidateSet, tol: float = 1e-8
) -> CandidateSet:
    """Keep candidates whose second Euler-Lagrange magnitude is within tol."""
    return CandidateSet(tuple(c for c in cands if c.second_el <= tol))
