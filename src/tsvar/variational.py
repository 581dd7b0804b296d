"""Variational problems on time scales and necessary-condition residuals.

A problem minimizes the delta integral of L(t, q(sigma(t)), q_delta(t))
over trajectories with fixed boundary values.  This module evaluates, for
a candidate trajectory:

* the action (the delta integral itself),
* the first Euler-Lagrange residual and its integral (constancy) form,
* the Hamiltonian-like quantity H = -L + dL/dv . v + dL/dt * mu,
* the second Euler-Lagrange (DuBois-Reymond) residual built from it,
* Noether's invariance residual and conserved quantity C for generators,
* the Erdmann deviation of an autonomous L: the spread of H, -C at (1, 0).

Each is a method of one record, :class:`Evaluation`: L and its first
partials at the frames (t, q_sigma, q_delta) of the trajectory, which
:func:`evaluate` checks and builds in one kernel pass.  The command line
and :mod:`tsvar.noether` read its methods, and :mod:`tsvar.solver`
evaluates and diagnoses candidates through it, the enumeration through one
record of a stack.  Each public function below is one method of q's record.

Residual domains: on a scale of N points the delta derivative of a
trajectory covers the first N-1 points, and the outer delta derivative of
a composite built from it covers the first N-2.  Differential-form
residuals therefore live on that N-2 prefix, which matches the count of
interior unknowns; no boundary closure is invented for the lost point.

Lagrangian variables follow a fixed naming convention: ``t`` for time,
``u1..un`` for the q(sigma(t)) slot, and ``v1..vn`` for the q_delta slot.
"""

from __future__ import annotations

import numpy as np

from .expr import _broadcast, _frozen, _nonfinite, _Record, parse
from .timescale import GridFunction, TimeScale, _quotients, _running_integral

__all__ = [
    "Lagrangian",
    "VariationalProblem",
    "Residual",
    "Evaluation",
    "evaluate",
    "action",
    "first_el_residual",
    "first_el_integral_residual",
    "second_el_residual",
    "classical_check",
]

BOUNDARY_TOL = 1e-12
AUTONOMY_TOL = 1e-10
MAX_DIM = 1000  # a Lagrangian's seeds are (2n+1)^2 floats: 32 MB at n = 1000


def _dimension(dim) -> int:
    """``dim`` as an int; ValueError unless it is an integer from 1 to MAX_DIM."""
    if not isinstance(dim, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds {MAX_DIM}")
    return int(dim)


class Lagrangian(_Record):
    """Scalar integrand L(t, u, v) with exact first and second partials
    via forward-mode (hyper-)dual numbers; equal only to itself.

    ``dim`` is the trajectory dimension n; the body is the text of an
    expression over t, u1..un, v1..vn.  :meth:`partials` evaluates L and
    all its first partials, and on request all its second partials, over
    an array of frames.
    """

    __slots__ = ("dim", "body", "_unit")

    def __init__(self, dim: int, body: str):
        n = _dimension(dim)
        names = ("t", *(f"{slot}{k + 1}" for slot in "uv" for k in range(n)))
        # row j, variable j's column of seeds: one unit seed for each
        # variable in turn (see partials)
        unit = np.eye(2 * n + 1)[:, :, None]
        _frozen(self, dim=n, body=parse(body, names), _unit=unit)

    def partials(
        self, t: np.ndarray, U: np.ndarray, V: np.ndarray, order: int = 1, moving=None
    ):
        """L, dL/dt, dL/du and dL/dv at every frame (t_i, U_i, V_i), and
        with ``order=2`` the second partials too.

        ``t`` has k entries and ``U``, ``V`` have k rows of n; the results
        have shapes (k,), (k,), (k, n) and (k, n).  With ``order=2`` a
        fifth, of shape (k, 2n+1, 2n+1), holds at each frame the symmetric
        matrix of second partials over (t, u1..un, v1..vn), from the same
        pass.  One forward pass carries every direction at once, a unit
        seed for each of t, u1..un, v1..vn, and L rides along in every
        one.  ``moving``, a boolean mask that broadcasts to (k, 2n+1),
        keeps the seed of variable j at frame i only where entry (i, j) is
        set: a partial along a variable held there is not taken, and is 0
        where every value along the pass is finite (a zero seed times an
        overflowed value is NaN, without a warning, by ``expr._nonfinite``:
        1e300*u1*1e300*v1 + t gives dL/dt = NaN with t held).  Raises
        :class:`ExprDomainError` if L or a partial of the order asked for,
        along the moving variables, is undefined at any frame.

        A first-order pass judges each subexpression by its own value and
        first derivative, so it cannot see a kink behind an inner
        derivative of 0: at u1 = 0 it returns dL/du = 0 for
        ``sqrt(u1^2)`` and ``(u1^2)^0.5``, which are |u1|, as it does for
        the differentiable ``sqrt(u1^4)``.  The second-order pass raises
        on the first two there.

        A call is one :meth:`Expr._forward` pass of the body, whose tree
        parse compiled once, plus a few numpy calls here: its seeds are the
        rows of a unit matrix built with the Lagrangian, or of their one
        product with a mask.  The results are views of the pass's arrays,
        not copies (``scripts/ab_timing.py`` prints the cost of a call).
        """
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order!r}")
        t = np.asarray(t, dtype=float)
        k, n = t.size, self.dim
        U = np.asarray(U).reshape(k, n)
        V = np.asarray(V).reshape(k, n)
        seeds = self._unit
        if moving is not None:
            mask = _broadcast(np.asarray(moving), (k, 2 * n + 1)).T
            # one product for every seed, laid out as the frames are
            seeds = np.multiply(self._unit, mask, order="C")
        value, d, H = self.body._forward([t, *U.T, *V.T], seeds, order)
        first = value, d[0], d[1 : n + 1].T, d[n + 1 :].T
        return first if order == 1 else (*first, H.transpose(2, 0, 1))

    def __repr__(self) -> str:
        return f"Lagrangian(dim={self.dim}, body={str(self.body)!r})"


class VariationalProblem(_Record):
    """A time scale, a Lagrangian, and fixed boundary values; equal only
    to itself."""

    __slots__ = ("scale", "lagrangian", "q_a", "q_b")

    def __init__(
        self, scale: TimeScale, lagrangian: Lagrangian, q_a: np.ndarray, q_b: np.ndarray
    ):
        if scale.n < 3:
            raise ValueError("the scale needs at least three points")
        qa = np.array(q_a, dtype=float, ndmin=1)
        qb = np.array(q_b, dtype=float, ndmin=1)
        n = lagrangian.dim
        if qa.shape != (n,) or qb.shape != (n,):
            raise ValueError(f"boundary vectors must have length {n}")
        if not (np.isfinite(qa) & np.isfinite(qb)).all():
            raise ValueError(f"boundary vectors must be finite: q_a {qa}, q_b {qb}")
        _frozen(self, scale=scale, lagrangian=lagrangian, q_a=qa, q_b=qb)

    @property
    def dim(self) -> int:
        return self.lagrangian.dim


class Residual(_Record):
    """Pointwise residual values over a leading prefix of a scale; equal
    only to itself.

    ``magnitude`` is the max-norm over all entries.  ``approximate`` is
    set when any DENSE gap contributed to the computation.
    """

    __slots__ = ("kind", "points", "values", "approximate", "magnitude")

    def __init__(
        self, kind: str, points: np.ndarray, values: np.ndarray, approximate: bool
    ):
        pts = np.asarray(points, dtype=float).copy()
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        vals = vals.copy()
        if pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must have matching length")
        _frozen(
            self, kind=kind, points=pts, values=vals, approximate=approximate,
            magnitude=float(np.abs(vals).max()) if vals.size else 0.0,
        )


class Evaluation(_Record):
    """L and its first partials at the frames (t, U, v) = (t, q_sigma,
    q_delta) that :func:`_frames` built from the trajectory values Q, with
    the graininess mu there; equal only to itself.  :func:`evaluate` checks
    a trajectory and builds its record.  Q is one trajectory, shape (N, n),
    and ``e.q`` is that trajectory.  Only the enumeration builds the record
    of a stack of h, shape (h, N, n), whose fields Q, U, v, L, Lt, Lu and
    Lv then lead with the axis h.  The methods that return arrays, bar
    ``hessian`` and ``erdmann``, read a stack, one array pass per quantity,
    entry i bit for bit as trajectory i's own record; those two and the
    ones that return a Residual read one trajectory's.  Its arrays are
    read-only: the constructor freezes those it is given, in place."""

    __slots__ = ("p", "t", "mu", "approximate", "Q", "U", "v", "L", "Lt", "Lu", "Lv")

    def __init__(self, p, t, mu, approximate, Q, U, v, L, Lt, Lu, Lv):
        _frozen(
            self, p=p, t=t, mu=mu, approximate=approximate, Q=Q, U=U, v=v,
            L=L, Lt=Lt, Lu=Lu, Lv=Lv,
        )

    @property
    def q(self) -> GridFunction:
        return GridFunction(self.p.scale, self.Q)

    @_nonfinite()
    def hamiltonian(self) -> np.ndarray:
        """-L + dL/dv . q_delta + dL/dt * mu at each frame: the classical
        Hamiltonian -L + dL/dv . v wherever the graininess vanishes."""
        return -self.L + (self.Lv * self.v).sum(axis=-1) + self.Lt * self.mu

    @_nonfinite()
    def invariance(self, g: np.ndarray) -> np.ndarray:
        """L_t tau_sigma + L_u . xi_sigma + L_v . xi_delta - H tau_delta for the
        generators g = (tau, xi) at the scale points, shape (..., N, 1+n),
        framed as Q is."""
        T = self.p.scale
        if not T.is_exact_discrete:
            raise ValueError("invariance residual needs an exact discrete scale")
        _, g_s, g_d = _frames(T, g)
        return (
            self.Lt * g_s[..., 0]
            + (self.Lu * g_s[..., 1:]).sum(axis=-1)
            + (self.Lv * g_d[..., 1:]).sum(axis=-1)
            - self.hamiltonian() * g_d[..., 0]
        )

    @_nonfinite()
    def conserved(self, g: np.ndarray) -> np.ndarray:
        """L_v . xi - H tau for the generators g on the derivative prefix."""
        g = g[..., : len(self.t), :]
        return (self.Lv * g[..., 1:]).sum(axis=-1) - self.hamiltonian() * g[..., 0]

    def action(self) -> np.ndarray:
        """Delta integral of L(t, q_sigma, q_delta) over the whole scale."""
        T, L = self.p.scale, self.L
        if T.kappa_length == T.n:
            # a DENSE last gap also needs L at the final point, where q_sigma
            # is q and the backward quotient is the last row of q_delta
            t = np.full(L[..., -1:].shape, T.b)  # one frame per trajectory
            U, V = self.Q[..., -1, :], self.v[..., -1, :]
            closing = self.p.lagrangian.partials(t.ravel(), U, V)[0]
            L = np.concatenate([L, closing.reshape(t.shape)], axis=-1)
        return _running_integral(T, L[..., None], 0, T.n - 1)[..., -1, 0]

    def first_el_values(self) -> np.ndarray:
        """(d/dt)_delta dL/dv - dL/du, shape (..., k-1, n)."""
        return _outer(self.t, self.Lv, -self.Lu)

    def first_el(self) -> Residual:
        """Residual of (d/dt)_delta dL/dv = dL/du along the trajectory:
        zero everywhere on its domain exactly when q is an extremal there."""
        r = self.first_el_values()
        return Residual("first_el", self.t[:-1], r, self.approximate)

    @_nonfinite()  # Newton judges a non-finite |J|
    def hessian(self, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """2^-k times the Hessian H of the discrete action S in the interior
        values, from one second-order kernel pass along the frames (t, U, v),
        U_i = q_{i+1}, of an exact discrete scale: its diagonal blocks D, shape
        (N-2, n, n), and the blocks above them E, shape (N-3, n, n).

        Frame i adds f_i = mu_i L(t_i, q_{i+1}, (q_{i+1} - q_i)/mu_i) to S;
        with t held its Hessian in (q_i, q_{i+1}) has the blocks a = L_vv/mu_i
        at (q_i, q_i), b = -(L_vu + a) at (q_i, q_{i+1}) and c = mu_i L_uu +
        (L_uv + L_vu) + a at (q_{i+1}, q_{i+1}), so D_j = c_j + a_{j+1} and
        E_j = b_{j+1}.  The kernel's second partials are symmetric bit for
        bit, and so is every D_j.  The gradient of S is -mu F, F the first-EL
        residual, so H = -mu J for F's Jacobian J (Marsden & West, Acta
        Numerica 10, 2001).  The factor 2^-k, exact, is applied before the
        products, so 2^-k mu_i L_uu is finite even where mu_i L_uu is not.

        The pass takes only the second partials that H reads: along u and v,
        which the interior values move, and at the last frame, whose u is
        q_{N-1}, along v alone.  So L need not be twice differentiable in t,
        nor in u at q_b.
        """
        n, L, mu = self.p.dim, self.p.lagrangian, self.mu[:, None, None]
        moving = np.ones((self.t.size, 2 * n + 1), dtype=bool)
        moving[:, 0] = moving[-1, 1 : n + 1] = False
        H = L.partials(self.t, self.U, self.v, order=2, moving=moving)[4]
        u, v = slice(1, n + 1), slice(n + 1, None)
        a = np.ldexp(H[:, v, v] / mu, -k)
        b = -(np.ldexp(H[:, v, u], -k) + a)
        c = np.ldexp(mu, -k) * H[:, u, u] + np.ldexp(H[:, u, v] + H[:, v, u], -k) + a
        return c[:-1] + a[1:], b[1:-1]

    @_nonfinite()
    def first_el_integral(self) -> Residual:
        """Deviation from constancy of dL/dv minus the running integral of dL/du.

        Values are per-component deviations above the component minimum, so
        the magnitude is the largest max-minus-min spread.  Zero exactly when
        the integral form of the first Euler-Lagrange equation holds with
        some constant vector.
        """
        g = self.Lv - _running_integral(self.p.scale, self.Lu, 0, len(self.t) - 1)
        g -= g.min(axis=0)
        return Residual("first_el_integral", self.t, g, self.approximate)

    def second_el_values(self) -> np.ndarray:
        """(d/dt)_delta of the Hamiltonian composite + dL/dt, shape (..., k-1, 1)."""
        return _outer(self.t, self.hamiltonian()[..., None], self.Lt[..., None])

    def second_el(self) -> Residual:
        """Residual of the second Euler-Lagrange (DuBois-Reymond) equation:
        (d/dt)_delta of the Hamiltonian composite plus dL/dt, zero where the
        equation holds."""
        r = self.second_el_values()
        return Residual("second_el", self.t[:-1], r, self.approximate)

    def classical(self) -> Residual:
        """The second Euler-Lagrange residual on an all-DENSE (sampled
        continuum) scale, where the graininess is identically zero and the
        Hamiltonian reduces to the classical -L + dL/dv . v: it approximates
        the classical DuBois-Reymond equation and converges as the grid is
        refined."""
        if self.p.scale.mus.any():
            raise ValueError("classical check needs an all-dense scale")
        r = self.second_el()
        return Residual("classical_second_el", r.points, r.values, approximate=True)

    @_nonfinite()
    def erdmann(self) -> np.ndarray:
        """Max-minus-min of the Hamiltonian along the trajectory.

        Only defined for autonomous Lagrangians; dL/dt is checked pointwise
        along the trajectory, within AUTONOMY_TOL of 0, and the first
        violating point is reported.  H is then -L + dL/dv . q_delta up to
        dL/dt * mu.
        """
        moving = (np.abs(self.Lt) > AUTONOMY_TOL).nonzero()[0]
        if moving.size:
            i = moving[0]
            raise ValueError(
                f"lagrangian is not autonomous: dL/dt = {self.Lt[i]:.3e} "
                f"at t = {float(self.t[i])!r}"
            )
        H = self.hamiltonian()
        return H.max() - H.min()


@_nonfinite()  # an end that overflows q - q_a fails the check
def _check_trajectory(
    p: VariationalProblem, q: GridFunction, boundary: bool = True
) -> None:
    """Raise ValueError unless q covers p's scale in p's dimension and,
    unless ``boundary`` is False, starts and ends within BOUNDARY_TOL of
    q_a and q_b."""
    if q.base != p.scale:
        raise ValueError("trajectory lives on a different scale")
    if not q.is_full:
        raise ValueError("trajectory must cover every point of the scale")
    if q.dim != p.dim:
        raise ValueError(f"trajectory dimension {q.dim} != problem dimension {p.dim}")
    # written so that a NaN endpoint fails
    if boundary and not np.abs(q.values[0] - p.q_a).max() <= BOUNDARY_TOL:
        raise ValueError(f"trajectory start {q.values[0]} != q_a {p.q_a}")
    if boundary and not np.abs(q.values[-1] - p.q_b).max() <= BOUNDARY_TOL:
        raise ValueError(f"trajectory end {q.values[-1]} != q_b {p.q_b}")


def evaluate(p: VariationalProblem, q: GridFunction, boundary=True) -> Evaluation:
    """q's record: check q, then evaluate L and its partials along it in one
    kernel pass.

    ``boundary=False`` leaves the boundary values unchecked, for quantities
    that range over unconstrained trajectories.
    """
    _check_trajectory(p, q, boundary)
    return _alongs(p, q.values, q.approximate)


@_nonfinite()
def _outer(t: np.ndarray, composite: np.ndarray, term: np.ndarray) -> np.ndarray:
    """(d/dt)_delta composite + term at the frames t, shape (k,), for
    composite and term of shape (..., k, n); the result covers the first
    k-1 frames."""
    return _quotients(t, composite) + term[..., :-1, :]


def _frames(T: TimeScale, Q: np.ndarray) -> tuple[np.ndarray, ...]:
    """The frames (t_i, q(sigma(t_i)), q_delta(t_i)) of the trajectory or
    stack of trajectories Q, shape (..., N, n), on the derivative prefix of
    k = N-1 points: t of shape (k,) and U, V of shape (..., k, n), q_delta
    being the forward quotient that :func:`delta_derivative` takes."""
    k = T.n - 1
    return T.points[:k], Q[..., T.sigmas[:k], :], _quotients(T.points, Q)


def _alongs(p: VariationalProblem, Q: np.ndarray, approximate=False) -> Evaluation:
    """Evaluate L and its partials along the trajectory Q, shape (N, n), in
    one pass.

    Q is not checked; its frames are :func:`_frames`'.
    """
    T = p.scale
    t, U, V = _frames(T, Q)
    return Evaluation(
        p, t, T.mus[: T.n - 1], approximate or T.has_dense, Q, U, V,
        *p.lagrangian.partials(t, U, V),
    )


def action(p: VariationalProblem, q: GridFunction) -> float:
    """:meth:`Evaluation.action` of q's record, as a float."""
    return float(evaluate(p, q).action())


def first_el_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """:meth:`Evaluation.first_el` of q's record."""
    return evaluate(p, q).first_el()


def first_el_integral_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """:meth:`Evaluation.first_el_integral` of q's record."""
    return evaluate(p, q).first_el_integral()


def second_el_residual(p: VariationalProblem, q: GridFunction) -> Residual:
    """:meth:`Evaluation.second_el` of q's record."""
    return evaluate(p, q).second_el()


def classical_check(p: VariationalProblem, q: GridFunction) -> Residual:
    """:meth:`Evaluation.classical` of q's record."""
    return evaluate(p, q).classical()
