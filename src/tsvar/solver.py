"""Produce extremal candidates for variational problems on discrete scales.

Three routes:

* a closed-form affine extremal c*t + k through the boundary values,
* damped Newton iteration on the first Euler-Lagrange residual system
  (unknowns are the interior trajectory values),
* enumeration of the slope sequences over a finite alphabet that end at
  the boundary value, used as a ground-truth oracle on small instances:
  a walk over sequence prefixes that drops a prefix once the boundary
  value is out of its reach, and one evaluation of L along all hits.

:func:`solve` picks between the first two.  Candidates carry diagnostics
(action, first and second Euler-Lagrange residual magnitudes), computed
once per candidate, so that a second-equation filter can narrow the set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .expr import ExprError, _homogeneous_degree
from .timescale import GridFunction, _expand_slopes
from .variational import Lagrangian, VariationalProblem, _Along, _along, _alongs

__all__ = [
    "NewtonOptions",
    "SingularSystem",
    "NoConvergence",
    "Provenance",
    "Candidate",
    "affine_extremal",
    "solve_newton",
    "solve",
    "enumerate_slope_extremals",
    "filter_second_el",
]

ENUMERATION_GUARD = 10**8
BOUNDARY_HIT_TOL = 1e-9
# words per enumeration block: bounds the walk's frontier and the frames
# of one kernel pass (with two or more letters a word has at most 26
# frames, since 2^27 words exceed the guard)
_BLOCK_WORDS = 2**13
CONDITION_LIMIT = 1e14
MAX_HALVINGS = 20
FD_STEP = 1e-7


class SingularSystem(RuntimeError):
    """The Newton Jacobian is numerically singular."""


class NoConvergence(RuntimeError):
    """Newton failed to reach the residual target.

    Carries the last iterate and the residual-magnitude history, one entry
    per iterate: the guess and each accepted Newton step.
    """

    def __init__(self, trajectory: GridFunction, history: list[float]):
        super().__init__(
            f"no convergence after {len(history) - 1} Newton step(s); "
            f"history = {[f'{m:.3e}' for m in history]}"
        )
        self.trajectory = trajectory
        self.history = history


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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
            "values": self.trajectory.values.tolist(),
            "action": self.action,
            "first_el": self.first_el,
            "second_el": self.second_el,
            "provenance": self.provenance.value,
        }


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


def _jacobian(residual, x: np.ndarray, F: np.ndarray, n: int) -> np.ndarray:
    """Forward-difference Jacobian of the first-EL residual F = residual(x).

    Row block i reads only q_i, q_{i+1} and q_{i+2}, the unknown blocks
    i-1 .. i+1, so the Jacobian is block-tridiagonal with n x n blocks.
    Columns k with the same colour k mod 3n never meet in a row or a frame
    and are perturbed together (Curtis, Powell & Reid 1974): min(3n, x.size)
    residual evaluations, and each in-band entry is the float a one-column
    perturbation gives.  Out-of-band entries are 0.
    """
    width = min(3 * n, x.size)
    steps = FD_STEP * np.maximum(1.0, np.abs(x))
    colour = np.arange(x.size) % width
    D = np.empty((width, F.size))
    for c in range(width):
        xc, same = x.copy(), colour == c
        xc[same] += steps[same]
        D[c] = residual(xc) - F
    # the band: row r of block r // n meets columns of blocks r // n - 1 .. + 1
    rows = np.repeat(np.arange(F.size), 3 * n)
    cols = (rows // n - 1) * n + np.tile(np.arange(3 * n), F.size)
    inside = (cols >= 0) & (cols < x.size)
    rows, cols = rows[inside], cols[inside]
    J = np.zeros((F.size, x.size))
    J[rows, cols] = D[colour[cols], rows] / steps[cols]
    return J


def solve_newton(
    p: VariationalProblem,
    q_init: GridFunction | None = None,
    opts: NewtonOptions = NewtonOptions(),
) -> GridFunction:
    """Newton iteration on the first Euler-Lagrange residuals.

    Unknowns are the interior values q(t_1) .. q(t_{N-2}); the Jacobian is
    a coloured finite-difference Jacobian, 3n residual evaluations per
    iteration (:func:`_jacobian`), and damped steps are accepted only when
    the residual max-norm decreases.  It stops at ``opts.tol`` or at the
    rounding floor of the residual F, eps * max_i(sum_j |J_ij| |x_j| + |F_i|)
    with the previous Jacobian J.  ``q_init`` defaults to the affine extremal.
    """
    if not p.scale.is_exact_discrete:
        raise ValueError("Newton solve needs an exact discrete scale")
    if q_init is None:
        q_init = affine_extremal(p)
    _along(p, q_init)  # checks q_init, and that L is defined along it

    def residual_vec(x: np.ndarray) -> np.ndarray:
        return _along(p, _assemble(p, x)).first_el().values.ravel()

    x = q_init.values[1:-1].ravel().copy()
    F, floor = residual_vec(x), 0.0
    history: list[float] = []
    for it in range(opts.max_iter + 1):
        mag = float(np.max(np.abs(F)))
        history.append(mag)
        if mag <= max(opts.tol, floor):
            return _assemble(p, x)
        if it == opts.max_iter:
            raise NoConvergence(_assemble(p, x), history)
        J = _jacobian(residual_vec, x, F, p.dim)
        if not np.all(np.isfinite(J)):  # an overflowing residual; cond would fail
            raise SingularSystem("jacobian has non-finite entries")
        if np.linalg.cond(J) > CONDITION_LIMIT:
            raise SingularSystem(
                f"jacobian condition estimate exceeds {CONDITION_LIMIT:.0e}"
            )
        dx = np.linalg.solve(J, -F)
        alpha = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            trial = x + alpha * dx
            F_trial = residual_vec(trial)
            if np.max(np.abs(F_trial)) < mag:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(_assemble(p, x), history)
        x, F = trial, F_trial
        floor = np.finfo(float).eps * np.max(np.abs(J) @ np.abs(x) + np.abs(F))


def _detects_quadratic_slope(lagrangian: Lagrangian) -> bool:
    """Whether L is syntactically a quadratic form in v that reads neither
    t nor u, so that every affine trajectory is an extremal."""
    return _homogeneous_degree(lagrangian.body.root, lagrangian.v_names) == 2


def _diagnose(e: _Along, first: float, prov: Provenance, slopes=None) -> Candidate:
    """Candidate e.q, diagnosed from the record that gave its first-EL magnitude."""
    return Candidate(e.q, prov, e.action(), first, e.second_el().magnitude, slopes)


def solve(p: VariationalProblem, opts: NewtonOptions = NewtonOptions()) -> Candidate:
    """A diagnosed extremal: the affine closed form if L is a pure quadratic
    form in v with no t, u coupling (CLOSED_FORM), else Newton from it (NEWTON)."""
    if _detects_quadratic_slope(p.lagrangian):
        q, provenance = affine_extremal(p), Provenance.CLOSED_FORM
    else:
        q, provenance = solve_newton(p, opts=opts), Provenance.NEWTON
    e = _along(p, q)
    return _diagnose(e, e.first_el().magnitude, provenance)


@np.errstate(all="ignore")  # overflow in the walk only makes a miss
def _boundary_hits(
    p: VariationalProblem, letters: tuple[float, ...], start: int, stop: int
) -> np.ndarray:
    """The slope words of ranks start .. stop-1 that end within
    BOUNDARY_HIT_TOL of q_b, one row of letter indices per word, in order.

    A word's rank is its index in lexicographic order, its letters being
    the base-|A| digits.  The walk extends all live prefixes by one letter
    per level, q_{j+1} = q_j + s * mu_j: the additions of
    :meth:`GridFunction.from_slopes`, so the ends are the ones that
    expansion gives.  A prefix is dropped once no completion can end near
    q_b, and a non-finite one at once: it stays non-finite.
    """
    m, mus, qb = len(letters), p.scale.mus[:-1], float(p.q_b[0])
    gaps, place = mus.size, m ** np.arange(mus.size - 1, -1, -1)
    steps = np.multiply.outer(mus, letters)  # s * mu, as from_slopes forms it
    rest = np.append(np.cumsum(mus[::-1])[::-1][1:], 0.0)  # mu after gap j
    lo, hi = letters[0] * rest, letters[-1] * rest
    size = max(map(abs, letters)) * rest
    # Exact completions of a prefix q end in [q + lo_j, q + hi_j], the mus
    # being positive.  A completion's float end is q plus at most gaps - 1
    # rounded products, added in order, so it lies within gaps * eps/2 *
    # (|q| + size_j) of its exact end (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2002, sec. 4.2, with one more rounding per
    # product).  The bounds' own rounding (rest_j is a rounded sum) adds as
    # much again, and the comparisons and the hit test's difference a few
    # ulps of |q| + size_j + tol.  4 * (gaps + 2) * eps is over twice the
    # total, so no word whose float end passes the hit test is dropped.
    slack = 4 * (gaps + 2) * np.finfo(float).eps
    # the leading letters that all words of the block share: one path,
    # summed in the same order in one pass
    first, last = start // place % m, (stop - 1) // place % m
    differ = np.flatnonzero(first != last)
    shared = int(differ[0]) if differ.size else gaps
    path = [float(p.q_a[0]), *steps[np.arange(shared), first[:shared]]]
    rank, q = np.array([start // m ** (gaps - shared)]), np.cumsum(path)[-1:]
    for j in range(shared, gaps):
        width = m ** (gaps - 1 - j)  # words under each prefix after this level
        rank = (rank[:, None] * m + np.arange(m)).ravel()
        q = (q[:, None] + steps[j]).ravel()
        live = (rank >= start // width) & (rank <= (stop - 1) // width)
        if j < gaps - 1:
            margin = BOUNDARY_HIT_TOL + slack * (np.abs(q) + size[j] + BOUNDARY_HIT_TOL)
            # written so that a NaN bound keeps the prefix
            far = (qb < q + lo[j] - margin) | (qb > q + hi[j] + margin)
            live &= np.isfinite(q) & ~far
        rank, q = rank[live], q[live]
    hit = np.abs(q - qb) <= BOUNDARY_HIT_TOL  # NaN is no hit
    return rank[hit, None] // place % m


def _extremals(
    p: VariationalProblem,
    values: np.ndarray,
    words: np.ndarray,
    letters: tuple[float, ...],
    tol: float,
) -> list[Candidate]:
    """The first-EL extremals among the trajectories ``values`` of the
    slope ``words`` (letter indices), all evaluated in one kernel pass."""
    batch = _alongs(p, values)
    firsts = batch.first_el_magnitudes()
    return [
        _diagnose(
            batch.record(i),
            float(firsts[i]),
            Provenance.ENUMERATED,
            tuple(letters[a] for a in words[i].tolist()),
        )
        for i in np.flatnonzero(firsts <= tol)
    ]


def enumerate_slope_extremals(
    p: VariationalProblem,
    alphabet: tuple[float, ...] | list[float],
    tol: float = 1e-8,
) -> tuple[Candidate, ...]:
    """All slope sequences over the alphabet that are extremals.

    A sequence s induces q(t_{i+1}) = q(t_i) + s_i * mu(t_i) from q_a.
    Kept are sequences that hit q_b within 1e-9 (their trajectory then
    ends at q_b exactly) and whose first Euler-Lagrange residual
    magnitude is at most ``tol``; each survivor carries its action and
    second-EL magnitude from that same evaluation.  Output is in
    lexicographic slope order (alphabet sorted ascending).

    The words are walked in lexicographic blocks of at most
    ``_BLOCK_WORDS``, prefix by prefix, dropping a prefix once q_b is out
    of its reach (:func:`_boundary_hits`); L is evaluated only along the
    boundary hits, all of a block's in one kernel pass.  If that pass
    fails, the block's hits are evaluated one by one, so the error is
    that of the first hit in word order.
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
    m, qb = len(letters), float(p.q_b[0])
    kept = []
    for start in range(0, m**gaps, _BLOCK_WORDS):
        words = _boundary_hits(p, letters, start, min(start + _BLOCK_WORDS, m**gaps))
        if not words.size:
            continue
        values = _expand_slopes(p.scale, p.q_a, np.asarray(letters)[words][..., None])
        ends = values[:, -1, 0]
        # a hit within rounding is pinned, as affine_extremal pins
        values[ends != qb, -1, 0] = qb
        try:
            kept += _extremals(p, values, words, letters, tol)
        except (ExprError, ArithmeticError, Warning):  # Warning: raised as error
            # each hit alone, in word order: the first to fail raises what
            # an evaluation along it alone raises
            for i in range(len(words)):
                _extremals(p, values[i : i + 1], words[i : i + 1], letters, tol)
            raise
    return tuple(kept)


def filter_second_el(
    p: VariationalProblem, cands: tuple[Candidate, ...], tol: float = 1e-8
) -> tuple[Candidate, ...]:
    """Keep candidates whose second Euler-Lagrange magnitude is within tol."""
    return tuple(c for c in cands if c.second_el <= tol)
