"""Produce extremal candidates for variational problems on discrete scales.

Three routes:

* a closed-form affine extremal c*t + k through the boundary values,
* damped Newton iteration on the first Euler-Lagrange residual system
  (unknowns are the interior trajectory values): per step, the exact
  Hessian of the discrete action, symmetric and block-tridiagonal, from
  one second-order pass along the iterate (:meth:`Evaluation.hessian` of
  its record), and one evaluation along each trial iterate; a scalar
  Hessian that strict diagonal dominance proves well conditioned is
  solved on its band in O(N), any other one as a dense matrix,
* enumeration of the slope sequences over a finite alphabet that end at
  the boundary value, used as a ground-truth oracle on small instances:
  a walk over sequence prefixes that drops a prefix once the boundary
  value is out of its reach and keeps the tree of the hits' prefixes,
  values and parent pointers, and one evaluation of L over that tree,
  one frame per distinct prefix.

:func:`solve` picks between the first two and returns one
:class:`Candidate`; the enumeration returns an :class:`Extremals` record,
one column per field and one row per kept word.  Both carry diagnostics
(action, first and second Euler-Lagrange residual magnitudes), computed
on the record that found them, one array pass per quantity, so
that a second-equation filter, a mask over one column, can narrow the set.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator

import numpy as np

from .expr import ExprDomainError, ExprError, _frozen, _nonfinite, _Record, _Value
from .timescale import GridFunction, TimeScale
from .variational import Evaluation, Lagrangian, VariationalProblem, _alongs
from .variational import _check_trajectory

__all__ = [
    "NewtonOptions",
    "SingularSystem",
    "NoConvergence",
    "Provenance",
    "Candidate",
    "Extremals",
    "affine_extremal",
    "solve_newton",
    "solve",
    "enumerate_slope_extremals",
    "filter_second_el",
]

ENUMERATION_GUARD = 10**8
BOUNDARY_HIT_TOL = 1e-9
# words per pass of the enumeration walk (bar one prefix's letters) and
# boundary hits per kernel pass over their prefix tree (with two or
# more letters the tree has at most 26 levels, since 2^27 words exceed the
# guard, and no level more nodes than hits)
_BLOCK_WORDS = 2**13
CONDITION_LIMIT = 1e14
MAX_DENSE = 5 * 10**7  # the most floats in one array Newton holds whole: 400 MB
MAX_HALVINGS = 20
_EPS, _BIG = np.finfo(float).eps, np.finfo(float).max


class SingularSystem(RuntimeError):
    """Newton's system is numerically singular: the action's Hessian is
    ill-conditioned, or it or the residual's Jacobian has a non-finite
    entry, or the residual does."""


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


class NewtonOptions(_Value):
    """Newton's residual target and step limit; equal to options with the
    same two."""

    __slots__ = ("tol", "max_iter")

    def __init__(self, tol: float = 1e-10, max_iter: int = 50):
        if (given := np.asarray(tol)).ndim or given.dtype.kind not in "iuf":
            raise ValueError(f"tol must be a real scalar, got {tol!r}")
        if not 0 < tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        _frozen(self, tol=float(tol), max_iter=int(max_iter))


class Provenance(enum.Enum):
    NEWTON = "NEWTON"
    ENUMERATED = "ENUMERATED"
    CLOSED_FORM = "CLOSED_FORM"


class Candidate(_Record):
    """A trajectory, the route that found it, its action and first- and
    second-EL magnitudes, and its slope word if it was enumerated; equal
    only to itself."""

    __slots__ = (
        "trajectory", "provenance", "action", "first_el", "second_el", "slopes"
    )

    def __init__(
        self, trajectory: GridFunction, provenance: Provenance, action: float,
        first_el: float, second_el: float, slopes: tuple[float, ...] | None = None,
    ):
        _frozen(
            self, trajectory=trajectory, provenance=provenance, action=action,
            first_el=first_el, second_el=second_el, slopes=slopes,
        )


class Extremals(_Record):
    """Enumerated candidates as read-only columns, one row per slope word:
    the slope letters, shape (h, N-1), the trajectory values, shape
    (h, N, n), and the action and first- and second-EL magnitudes, shape
    (h,).  ``len`` is h; ``x[i]`` builds row i's ENUMERATED
    :class:`Candidate`, and iterating yields the rows' candidates in turn;
    any other index, a boolean mask or a slice, gives the record of the
    rows it selects.  Equal only to itself."""

    __slots__ = ("scale", "slopes", "values", "action", "first_el", "second_el")

    def __init__(self, scale: TimeScale, slopes, values, action, first_el, second_el):
        _frozen(
            self, scale=scale, slopes=slopes, values=values, action=action,
            first_el=first_el, second_el=second_el,
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.slopes, self.values, self.action, self.first_el, self.second_el

    def __len__(self) -> int:
        return len(self.action)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return Extremals(self.scale, *(column[i] for column in self._columns()))
        return Candidate(
            GridFunction(self.scale, self.values[i]),
            Provenance.ENUMERATED,
            float(self.action[i]),
            float(self.first_el[i]),
            float(self.second_el[i]),
            tuple(self.slopes[i].tolist()),
        )

    def __iter__(self) -> Iterator[Candidate]:
        return map(self.__getitem__, range(len(self)))


@_nonfinite()
def affine_extremal(p: VariationalProblem) -> GridFunction:
    """The affine trajectory c*t + k through both boundary values.

    c = (q_b - q_a) / (b - a) and k = (b*q_a - a*q_b) / (b - a),
    componentwise.  For Lagrangians depending only on the slope this is
    an extremal; for the quadratic slope Lagrangian it is the minimizer.
    Raises ValueError where c*t + k is not finite, as where b - a overflows.
    """
    a, b = p.scale.a, p.scale.b
    c = (p.q_b - p.q_a) / (b - a)
    k = (b * p.q_a - a * p.q_b) / (b - a)
    values = p.scale.points[:, None] * c[None, :] + k[None, :]
    if np.count_nonzero(~np.isfinite(values)):
        raise ValueError("result overflows in the affine extremal c*t + k")
    # rounding in c*t + k can miss the boundary values; the ends are pinned
    values[0], values[-1] = p.q_a, p.q_b
    return GridFunction(p.scale, values)


def _iterate(p: VariationalProblem, x: np.ndarray) -> tuple[Evaluation, np.ndarray]:
    """The record of the trajectory with the n(N-2) interior values x and
    ends q_a and q_b, from one kernel pass, and Newton's residual vector of
    it, the floats its ``first_el()`` gives."""
    Q = np.empty((p.scale.n, p.dim))
    Q[0], Q[1:-1], Q[-1] = p.q_a, x.reshape(-1, p.dim), p.q_b
    e = _alongs(p, Q)
    return e, e.first_el_values().ravel()


def _check_dense(size: int) -> None:
    """ValueError if an array of ``size`` floats exceeds MAX_DENSE."""
    if size > MAX_DENSE:
        raise ValueError(f"Newton needs {size} floats in one array, above {MAX_DENSE}")


def _dense(D: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The symmetric block-tridiagonal matrix of diagonal blocks D and
    blocks E above them, zero elsewhere."""
    m, n = D.shape[:2]
    H, i = np.zeros((m, n, m, n)), np.arange(m)
    H[i, :, i] = D
    H[i[:-1], :, i[1:]] = E
    H[i[1:], :, i[:-1]] = E.transpose(0, 2, 1)
    return H.reshape(m * n, m * n)


def _eliminate(d: np.ndarray, e: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The solution y of H y = r, H the symmetric tridiagonal matrix of
    diagonal d and off-diagonal e, by Gaussian elimination without
    pivoting: a forward sweep and a back substitution in plain floats,
    O(N), with no BLAS call.  For a strictly diagonally dominant H every
    pivot is nonzero and the elimination is stable (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 9.5)."""
    d, e, y = d.tolist(), e.tolist(), r.tolist()
    for i, c in enumerate(e):  # d[i] becomes the pivot of row i
        m = c / d[i]
        d[i + 1] -= m * c
        y[i + 1] -= m * y[i]
    y[-1] /= d[-1]
    for i in range(len(e) - 1, -1, -1):
        y[i] = (y[i] - e[i] * y[i + 1]) / d[i]
    return np.array(y)


class _Hessian:
    """Newton's matrix H of diagonal blocks D and blocks E above them, n x n,
    as a step reads it: |H|'s row maxima, the floor, the Varah certificate
    and the solve.  The storage is picked once, from n: for n = 1, |H| is
    kept as its two bands and read in O(N), and H is built dense only to be
    solved uncertified; for n >= 2, H and |H| are built dense at once, which
    at Newton's sizes is cheaper than a block band."""

    __slots__ = ("D", "E", "H", "A", "d", "e")

    def __init__(self, D: np.ndarray, E: np.ndarray):
        self.D, self.E, self.H, self.A = D, E, None, None
        if D.shape[1] == 1:  # |H| as its diagonal d and off-diagonal e
            self.d, self.e = np.abs(D.ravel()), np.abs(E.ravel())
        else:
            self.H = _dense(D, E)
            self.A = np.abs(self.H)

    def _product(self, y: np.ndarray) -> np.ndarray:  # |H| y
        if self.A is not None:
            return self.A @ y
        product = self.d * y
        product[:-1] += self.e * y[1:]
        product[1:] += self.e * y[:-1]
        return product

    def row_maxima(self) -> np.ndarray:
        if self.A is not None:
            return self.A.max(axis=1)
        rows = self.d.copy()  # np.maximum, as a max, spreads NaN
        np.maximum(rows[:-1], self.e, out=rows[:-1])
        np.maximum(rows[1:], self.e, out=rows[1:])
        return rows

    @_nonfinite()
    def floor(self, w: np.ndarray, x: np.ndarray, F: np.ndarray) -> float:
        """The rounding floor eps * max_i(sum_j |J_ij| |x_j| + |F_i|) of the
        residual F at x, J = -H/mu its Jacobian, from |H| and the rows' mu
        w, both perhaps times one power of two; inf, which stops no solve,
        if the sum overflows."""
        return _EPS * (self._product(np.abs(x)) / w + np.abs(F)).max()

    @_nonfinite()  # an overflowing sum certifies nothing
    def certified(self) -> bool:
        """Whether |H| proves cond_2(H) <= CONDITION_LIMIT / 2 by strict
        diagonal dominance.  With alpha = min_i(|H_ii| - sum_{j != i} |H_ij|)
        > 0, ||H^-1||_inf <= 1 / alpha (Varah, Linear Algebra Appl. 11,
        1975); H being symmetric, ||H||_1 = ||H||_inf, so for s unknowns
        cond_2(H) <= sqrt(s) * ||H||_inf / alpha.  A row's sum of 3n nonzero
        terms at most and its alpha_i round by less than (3n + 2) * eps times
        the largest row sum, which alpha gives up; the factor 2 under the
        limit leaves room for the rounding of the bound itself and of the
        SVD's own estimate, so a certified H is one np.linalg.cond passes."""
        if self.A is None:  # row sums, equal to column sums
            rows, diagonal = self._product(np.ones_like(self.d)), self.d
        else:
            rows, diagonal = self.A.sum(axis=1), self.A.diagonal()
        norm = rows.max()
        slack = (3 * self.D.shape[1] + 2) * _EPS * norm
        alpha = (diagonal - (rows - diagonal)).min() - slack
        return bool(alpha > 0) and bool(  # no division unless alpha > 0
            np.sqrt(rows.size) * (norm / alpha) <= CONDITION_LIMIT / 2
        )

    def solve(self, r: np.ndarray) -> np.ndarray:
        """y with H y = r, H finite: on the band if H is scalar and certified
        (:func:`_eliminate`), else by np.linalg.solve, after SingularSystem
        if cond_2(H) exceeds CONDITION_LIMIT; an uncertified H takes an SVD
        for that, times a power of two: exact, and it cannot overflow."""
        certified = self.certified()
        if certified and self.A is None:
            return _eliminate(self.D.ravel(), self.E.ravel(), r)
        if self.H is None:
            _check_dense(self.D.size**2)
            self.H = _dense(self.D, self.E)
        if not certified:
            exponent = np.frexp(self.row_maxima().max())[1]  # largest entry to [0.5, 1)
            if np.linalg.cond(np.ldexp(self.H, -exponent)) > CONDITION_LIMIT:
                raise SingularSystem(
                    f"jacobian condition estimate exceeds {CONDITION_LIMIT:.0e}"
                )
        return np.linalg.solve(self.H, r)


def solve_newton(
    p: VariationalProblem,
    q_init: GridFunction | None = None,
    opts: NewtonOptions = NewtonOptions(),
) -> GridFunction:
    """Newton iteration on the first Euler-Lagrange residuals F.

    Unknowns are the interior values q(t_1) .. q(t_{N-2}), in which the
    discrete action S has gradient -mu F.  Each step solves H dx = mu F, H
    the exact Hessian of S, symmetric and block-tridiagonal, from one
    kernel pass along the iterate (:meth:`Evaluation.hessian`); damped
    steps are accepted only when the residual max-norm decreases, and a
    trial outside L's domain is a failed one (the guess, or a Hessian,
    outside it raises ExprDomainError).  Each iterate is evaluated once:
    ``q_init`` is checked without evaluating L, its residual is the
    trajectory's with the ends pinned to q_a and q_b, and an accepted
    trial's evaluation is the next iterate's.  A solve of k steps with no
    halvings thus makes 1 + 2k kernel passes; on a linear-quadratic L the
    first step lands on the root, so k = 1.

    It stops at ``opts.tol`` or at the rounding floor of F, eps *
    max_i(sum_j |J_ij| |x_j| + |F_i|), J = -H/mu being F's Jacobian.  An
    iterate is first tested against the floor from the Hessian of the step
    that reached it, and, if that fails, against the floor from its own
    Hessian, which the next step needs anyway; so the guess can stop at
    its floor, a solve that stops at ``opts.tol`` builds no Hessian there,
    and the iterate of the last allowed step is tested against its own
    floor before NoConvergence is raised (its Hessian's condition is not
    checked: no step follows).  ``q_init`` defaults to the affine extremal.

    A non-finite residual, a J with a non-finite entry (no floor), or an H
    whose 2-norm condition number exceeds CONDITION_LIMIT raises
    SingularSystem.  A strictly diagonally dominant H whose Varah bound
    (Varah 1975) is at most half the limit passes without an SVD, and any
    other H goes to np.linalg.cond.

    Each Hessian is a :class:`_Hessian`, stored by n.  For n = 1 the
    finiteness test, the floor and the Varah bound read |H|'s two bands in
    O(N), and an H that the bound passes is solved on the band by
    elimination without pivoting, O(N) in time and memory.  Any other H,
    n >= 2 or a scalar H the bound does not pass, is built dense,
    (n(N-2))^2 floats, and solved by np.linalg.solve in O((nN)^3).  Where
    that, or for n >= 2 the (2n+1)^2 (N-1) seeds of the Hessian's kernel
    pass, exceeds MAX_DENSE floats, it raises ValueError instead.
    """
    return _newton(p, q_init, opts)[0].q


@_nonfinite()
def _newton(
    p: VariationalProblem, q_init: GridFunction | None, opts: NewtonOptions
) -> tuple[Evaluation, float]:
    """:func:`solve_newton`, returning a pair: the record of the iterate it
    stops at and the magnitude of that iterate's residual."""
    if not p.scale.is_exact_discrete:
        raise ValueError("Newton solve needs an exact discrete scale")
    if q_init is None:  # its ends are q_a and q_b: nothing to check
        q_init = affine_extremal(p)
    else:
        _check_trajectory(p, q_init)
    x = q_init.values[1:-1].ravel().copy()
    e, F = _iterate(p, x)  # ends within BOUNDARY_TOL are pinned
    # H dx = mu F is solved times 2^-k, k >= 0 taking every mu to w <= 1:
    # exact, and neither w F nor 2^-k H overflows where F and J do not
    k, n, m = max(np.frexp(p.scale.mus.max())[1], 0), p.dim, p.scale.n - 2
    w, floor = np.ldexp(p.scale.mus[:-2], -k).repeat(n), 0.0
    dense = max((2 * n + 1) ** 2 * (m + 1), (n * m) ** 2) if n > 1 else 0
    history: list[float] = []
    for it in range(opts.max_iter + 1):
        mag = float(np.abs(F).max())
        history.append(mag)
        if mag <= max(opts.tol, floor):
            return e, mag
        if not math.isfinite(mag):  # only the guess's: a trial must lower mag
            raise SingularSystem("residual has non-finite entries")
        _check_dense(dense)  # n >= 2: the pass's seeds, then H dense (_Hessian)
        hessian = _Hessian(*e.hessian(k))
        # J = -H/mu can overflow where H does not
        finite = math.isfinite((hessian.row_maxima() / w).max())
        floor = hessian.floor(w, x, F) if finite else math.nan  # no J, no floor
        if mag <= floor < np.inf:
            return e, mag
        if it == opts.max_iter:
            raise NoConvergence(e.q, history)
        if not finite:  # the SVD would fail
            raise SingularSystem("jacobian has non-finite entries")
        dx = hessian.solve(w * F)
        alpha = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            trial = x + alpha * dx
            try:
                e_trial, F_trial = _iterate(p, trial)
                if np.abs(F_trial).max() < mag:
                    break
            except ExprDomainError:  # the step left L's domain: a failed trial
                pass
            alpha *= 0.5
        else:
            raise NoConvergence(e.q, history)
        x, F, e = trial, F_trial, e_trial
        floor = hessian.floor(w, x, F)


def _reads_only_slope(lagrangian: Lagrangian) -> bool:
    """Whether L names none of t, u1..un, so that L_t = L_u = 0 and both
    Euler-Lagrange equations hold along every trajectory of constant slope."""
    return all(name[0] == "v" for name in lagrangian.body.reads)


def _magnitudes(r: np.ndarray) -> np.ndarray:
    """Max-norm of each residual of the stack r, shape (..., k, n)."""
    return np.abs(r).max(axis=(-2, -1))


def solve(p: VariationalProblem, opts: NewtonOptions = NewtonOptions()) -> Candidate:
    """A diagnosed extremal: the affine closed form if L names neither t nor
    u (CLOSED_FORM), on any scale, else Newton from it (NEWTON)."""
    # first-EL (Newton's last residual's), action and second-EL: one record's methods
    if _reads_only_slope(p.lagrangian):
        e, provenance = _alongs(p, affine_extremal(p).values), Provenance.CLOSED_FORM
        first = _magnitudes(e.first_el_values())
    else:  # the record Newton stopped at
        (e, first), provenance = _newton(p, None, opts), Provenance.NEWTON
    action = e.action()
    second = _magnitudes(e.second_el_values())
    return Candidate(e.q, provenance, float(action), float(first), float(second))


# a prefix tree, level by level from the prefixes of one letter: their
# ends, each one's parent position in the level above and its letter code
_Levels = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


@_nonfinite()  # overflow in the walk only makes a miss
def _hit_tree(p: VariationalProblem, letters: tuple[float, ...]) -> _Levels:
    """The prefix tree of the slope words that end within BOUNDARY_HIT_TOL
    of q_b: for each level r = 1 .. N-1, the ends of its prefixes of r
    letters, each one's parent position in level r-1 (level 0 is the
    empty prefix, at q_a) and its letter's index in ``letters``, all in
    lexicographic order.  Only the hits' prefixes are kept, and a leaf's
    end other than q_b is pinned to it, as affine_extremal pins.

    The walk extends prefixes by one letter per level, q_{j+1} = q_j + s *
    mu_j: the additions of :meth:`GridFunction.from_slopes`, so the ends
    are the ones that expansion gives.  A prefix is dropped once no
    completion can end near q_b, and a non-finite one at once: it stays
    non-finite.  The tree is walked once, level by level, a level's
    prefixes extended in order, ``_BLOCK_WORDS // m`` at a time (one at
    least), so each level comes out whole and in lexicographic order, and
    each prefix is recorded as its slot, m times its parent's position
    plus its letter's index.  The prefixes that reach no hit, those
    without a child, are then dropped level by level, bottom up.
    """
    m, mus, qb = len(letters), p.scale.mus[:-1], float(p.q_b[0])
    gaps, steps = mus.size, np.multiply.outer(mus, letters)  # s * mu, as from_slopes
    rest = np.concatenate([mus[::-1].cumsum()[::-1][1:], [0.0]])  # mu after gap j
    size = max(map(abs, letters)) * rest
    # Exact completions of a prefix q end in [q + lo_j, q + hi_j], lo_j =
    # s_min * rest_j and hi_j = s_max * rest_j, the mus being positive.  A
    # completion's float end is q plus at most gaps - 1 rounded products,
    # added in order, so it lies within gaps * eps/2 * (|q| + size_j) of its
    # exact end (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2002, sec. 4.2, with one more rounding per product), and the rounding
    # of rest_j, a rounded sum, adds as much again.  So a prefix with a
    # completion whose float end passes the hit test has q within tol + err
    # of [q_b - hi_j, q_b - lo_j], err <= gaps * eps * (|q| + size_j), and
    # hence |q| <= 2 (|q_b| + size_j + tol).  The margin tol + slack * (2
    # |q_b| + 3 size_j + 3 tol), slack = 4 (gaps + 2) eps, is over twice err
    # plus the rounding of the bounds below, a few ulps of |q_b| + size_j +
    # margin, and of the hit test's difference: no such prefix is dropped.
    # Where a product overflows, so does size_j and the margin, and np.fmax
    # and np.fmin turn a bound that is then NaN, or infinite outward, into
    # -+max, which keeps every finite prefix; no bound keeps an infinite
    # prefix, which stays infinite.
    slack = 4 * (gaps + 2) * _EPS
    tol, big = BOUNDARY_HIT_TOL, _BIG
    margin = tol + slack * (2 * abs(qb) + 3 * size + 3 * tol)
    lower = np.fmax(qb - letters[-1] * rest - margin, -big)
    upper = np.fmin(qb - letters[0] * rest + margin, big)
    walk, width = [(p.q_a[:1], None)], max(_BLOCK_WORDS // m, 1)  # ends, slots
    for j in range(gaps):
        q, passes = walk[j][0], []
        for at in range(0, max(q.size, 1), width):  # an empty level takes one pass
            x = (q[at : at + width, None] + steps[j]).ravel()
            if j == gaps - 1:
                live = np.abs(x - qb) <= tol  # NaN is no hit
            else:  # and no bound keeps a NaN
                live = (x >= lower[j]) & (x <= upper[j])
            slot = live.nonzero()[0]
            passes.append((x[slot], slot + at * m))
        walk.append(tuple(map(_joined, zip(*passes))))
    tree, keep = [], None
    for r in range(gaps, 0, -1):
        (q, slot), above = walk[r], walk[r - 1][0].size
        if keep is not None:
            q, slot = q[keep], slot[keep]
        parent = slot // m
        code = slot - parent * m  # np.divmod and % take twice as long
        children, keep = np.bincount(parent, minlength=above), None
        if np.count_nonzero(children) < above:
            alive = children > 0
            keep = alive.nonzero()[0]
            parent = (alive.cumsum() - 1)[parent]  # positions among the kept
        tree.append((q, parent, code))
    leaves = tree[0][0]
    leaves[leaves != qb] = qb  # a -0.0 end equal to q_b stays -0.0
    return tree[::-1]


def _joined(arrays: tuple[np.ndarray, ...]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@_nonfinite()
def _extremals(
    p: VariationalProblem, letters: np.ndarray, tree: _Levels, hits: range, tol: float
) -> tuple[np.ndarray, ...]:
    """The columns of :class:`Extremals` for the first-EL extremals among
    the leaves ``hits`` of the prefix tree ``tree`` (:func:`_hit_tree`),
    from one kernel pass over the frames of their subtree: a contiguous
    run of nodes at each level, the parent positions ascending.

    Nodes are numbered level by level, the root 0, so node i >= 1 is
    kernel entry i-1.  Frame j of a word reads only its first j+1 letters,
    so it is the frame of the word's node in level j+1, (t_j, q, (q -
    q_parent) / mu_j), evaluated once however many hits share that prefix.
    First-EL row j reads frames j and j+1, so it is taken once per node in
    level j+2, from its own frame and its parent's, and a word's magnitude
    is the largest of its nodes' rows, NaN spreading as in a max.  Both
    take the floats and the error state of :func:`timescale._quotients`
    and :func:`variational._outer`.  Only the kept words get a
    trajectory, in one record, for action and second-EL.
    """
    lo, hi, levels = hits.start, hits.stop, []
    for q, parent, code in reversed(tree):  # parents counted from the first
        up = parent[lo:hi]
        levels.append((q[lo:hi], up - up[0], code[lo:hi]))
        lo, hi = up[0], up[-1] + 1
    T, gaps, tree = p.scale, len(tree), levels[::-1]
    sizes = [level[0].size for level in tree]
    # level r holds the nodes first_node[r] up to first_node[r + 1]
    first_node = np.array([0, 1, *sizes]).cumsum()
    q = np.concatenate([p.q_a[:1], *(level[0] for level in tree)])
    parent = np.concatenate([level[1] for level in tree])
    parent += first_node[:-2].repeat(sizes)
    mu = T.mus[:gaps].repeat(sizes)  # the gap of each node's frame
    V = (q[1:] - q[parent]) / mu  # as _quotients
    L, Lt, Lu, Lv = p.lagrangian.partials(T.points[:gaps].repeat(sizes), q[1:], V)
    Lu, Lv, up = Lu[:, 0], Lv[:, 0], parent[sizes[0] :] - 1
    first = np.abs((Lv[sizes[0] :] - Lv[up]) / mu[up] + -Lu[up])  # as _outer
    # each hit's magnitude, the largest |row| down its path, level by level
    edges = first_node[2:] - first_node[2]
    for r in range(2, gaps):
        rows = first[edges[r - 1] : edges[r]]
        np.maximum(first[edges[r - 2] : edges[r - 1]][tree[r][1]], rows, out=rows)
    first = first[edges[-2] :]
    keep = (first <= tol).nonzero()[0]
    # the kept words' nodes, in C order, so that each field is gathered and
    # stored level by level, the layout in which the record's quotients
    # along a path run fastest
    path = np.empty((gaps, keep.size), dtype=np.intp)
    path[-1] = keep
    for r in range(gaps - 1, 0, -1):
        path[r - 1] = tree[r][1][path[r]]
    path += first_node[1:-1, None]
    Q = np.empty((keep.size, gaps + 1, 1))
    Q[:, 0], Q[:, 1:, 0] = p.q_a, q[path].T
    code = np.concatenate([level[2] for level in tree])
    path -= 1
    V, L, Lt, Lu, Lv = (x[path].T for x in (V, L, Lt, Lu, Lv))
    kept = Evaluation(
        p, T.points[:gaps], T.mus[:gaps], Q, Q[:, 1:], V[..., None],
        L, Lt, Lu[..., None], Lv[..., None],
    )
    return (
        letters[code[path].T], Q, kept.action(), first[keep],
        _magnitudes(kept.second_el_values()),
    )


def _check_tol(tol: float) -> None:
    if not tol >= 0:  # written so that NaN fails
        raise ValueError(f"tol must be non-negative, got {tol}")


def enumerate_slope_extremals(
    p: VariationalProblem,
    alphabet: tuple[float, ...] | list[float],
    tol: float = 1e-8,
) -> Extremals:
    """All slope sequences over the alphabet that are extremals.

    A sequence s induces q(t_{i+1}) = q(t_i) + s_i * mu(t_i) from q_a.
    Kept are sequences that hit q_b within 1e-9 (their trajectory then
    ends at q_b exactly) and whose first Euler-Lagrange residual
    magnitude is at most ``tol``; each survivor carries its action and
    second-EL magnitude from that same evaluation.  Output is one
    :class:`Extremals` record, its rows in lexicographic slope order
    (alphabet sorted ascending).  A NaN or negative ``tol`` raises
    ValueError.

    The prefix tree of the words is walked once, level by level, about
    ``_BLOCK_WORDS`` words a pass, dropping a prefix once q_b is out of
    its reach, and the walk keeps the tree of the boundary hits' prefixes
    (:func:`_hit_tree`).  L is evaluated once per distinct prefix of the
    hits, in one kernel pass over the subtree of ``_BLOCK_WORDS`` of them
    in word order (:func:`_extremals`), and only the first-EL extremals
    get a trajectory.  If a pass fails, its hits are evaluated one by
    one, so the error is that of the first hit in word order.
    """
    if not p.scale.is_exact_discrete:
        raise ValueError("enumeration needs an exact discrete scale")
    if p.dim != 1:
        raise ValueError("enumeration is implemented for one-dimensional problems")
    _check_tol(tol)
    letters = tuple(sorted(float(s) for s in set(alphabet)))
    if not letters:
        raise ValueError("alphabet must be non-empty")
    if not np.isfinite(letters).all():
        raise ValueError(f"alphabet letters must be finite, got {list(letters)}")
    gaps = p.scale.n - 1
    if len(letters) ** gaps > ENUMERATION_GUARD:
        raise ValueError(
            f"{len(letters)}^{gaps} sequences exceed the enumeration guard; "
            "use solve_newton instead"
        )
    tree, letters = _hit_tree(p, letters), np.asarray(letters)
    hits = range(tree[-1][0].size)
    # an empty block of columns, so that no hit gives an empty record
    blocks = [(np.empty((0, gaps)), np.empty((0, gaps + 1, 1)), *np.empty((3, 0)))]
    for start in range(0, len(hits), _BLOCK_WORDS):
        block = hits[start : start + _BLOCK_WORDS]
        try:
            blocks.append(_extremals(p, letters, tree, block, tol))
        except (ExprError, ArithmeticError, Warning):  # Warning: raised as error
            for hit in block:  # the first hit that fails alone raises its error
                _extremals(p, letters, tree, range(hit, hit + 1), tol)
            raise  # the block's own error, should no hit fail alone
    return Extremals(p.scale, *map(np.concatenate, zip(*blocks)))


def filter_second_el(cands: Extremals, tol: float = 1e-8) -> Extremals:
    """The rows of cands whose second Euler-Lagrange magnitude is within
    tol; a NaN or negative tol raises ValueError."""
    _check_tol(tol)
    return cands[cands.second_el <= tol]
