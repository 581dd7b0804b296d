"""Random expression machinery shared by the expression tests and the
acceptance suite: a generator of safe expression strings plus a central
finite-difference oracle for partial derivatives.  Also the one-column-
at-a-time forward-difference Jacobian, the reference for Newton's
exact Jacobian.  The gap-kind queries of a time scale as walks
over a tuple of :class:`GapKind`, the reference for the ones
:class:`TimeScale` reads off its graininess.  And the word-by-word slope
enumeration, the reference for the walk of
:func:`tsvar.solver.enumerate_slope_extremals`.  And the root of the
linear first-EL system of a linear-quadratic Lagrangian, the reference
for Newton.  And L with its partials at one frame, read from a
one-frame call of :meth:`Lagrangian.partials`, and an expression's
value and derivative at one point, read from a one-frame forward pass.
And the discrete Euler-Lagrange map, the reference for Newton that
solves no band.  And the reader of a report that ``tsvar --json``
wrote."""

import itertools
import json
from pathlib import Path

import numpy as np

from tsvar import GapKind, GridFunction, TimeScaleError, parse, solver
from tsvar.variational import evaluate


def random_expr_text(rng, variables, depth=3) -> str:
    """A random expression over the given variables.

    Division is guarded by denominators of the form x^2 + 1 and log/sqrt
    arguments likewise, so every generated expression is total; only
    magnitude blowups need rejection by the caller.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return f"{rng.uniform(0.3, 2.5):.6f}"
        return str(rng.choice(variables))

    def sub():
        return random_expr_text(rng, variables, depth - 1)

    r = rng.random()
    if r < 0.50:
        op = rng.choice(["+", "-", "*"])
        return f"({sub()} {op} {sub()})"
    if r < 0.60:
        return f"({sub()} / (({sub()})^2 + 1))"
    if r < 0.72:
        k = int(rng.choice([2, 3]))
        return f"({sub()})^{k}"
    if r < 0.84:
        fn = rng.choice(["sin", "cos"])
        return f"{fn}({sub()})"
    if r < 0.90:
        return f"exp({sub()} / 4)"
    if r < 0.96:
        return f"log(({sub()})^2 + 1)"
    return f"sqrt(({sub()})^2 + 1)"


def at_point(expr, env, seed=None) -> tuple[float, float]:
    """The value of ``expr`` at the point ``env`` and its derivative along
    ``seed``: a mapping of every variable to its seed, the name of one
    variable for the partial along it, or None for a zero seed.  One
    forward pass over a stack of one frame gives both floats."""
    if isinstance(seed, str):
        seed = {name: float(name == seed) for name in expr.variables}
    value, deriv, _ = expr._forward(
        [[env[name]] for name in expr.variables],
        None if seed is None else [[seed[name]] for name in expr.variables],
    )
    return value.item(), deriv.item()


def finite_difference_partial(expr, var, env) -> float:
    """Central difference with step 1e-6 * max(1, |x|)."""
    step = 1e-6 * max(1.0, abs(env[var]))
    hi = dict(env)
    lo = dict(env)
    hi[var] += step
    lo[var] -= step
    return (at_point(expr, hi)[0] - at_point(expr, lo)[0]) / (2.0 * step)


def random_checked_pair(rng, variables, value_cap=1e4):
    """(expr, env) with all values and partials below the cap."""
    while True:
        text = random_expr_text(rng, variables)
        expr = parse(text, variables)
        env = {v: float(rng.uniform(-2.0, 2.0)) for v in variables}
        value = at_point(expr, env)[0]
        if not np.isfinite(value) or abs(value) > value_cap:
            continue
        partials = [at_point(expr, env, v)[1] for v in variables]
        if all(np.isfinite(p) and abs(p) <= value_cap for p in partials):
            return expr, env


def frame_partials(L, t, u, v):
    """L, dL/dt, dL/du and dL/dv at the single frame (t, u, v), from one
    ``partials`` call on a stack of one frame: two floats and two
    length-n arrays."""
    value, Lt, Lu, Lv = L.partials([t], [u], [v])
    return float(value[0]), float(Lt[0]), Lu[0], Lv[0]


FD_STEP = 1e-7  # column_jacobian's relative step in the tests


def column_jacobian(residual, x, F, fd_step):
    """Forward differences, one residual evaluation per unknown: column k
    is (residual(x + step*e_k) - F) / step, step = fd_step * max(1, |x_k|)."""
    J = np.empty((F.size, x.size))
    for k in range(x.size):
        step = fd_step * max(1.0, abs(x[k]))
        xk = x.copy()
        xk[k] += step
        J[:, k] = (residual(xk) - F) / step
    return J


def as_gap(g) -> GapKind:
    """One gap kind from a GapKind or its letter."""
    if isinstance(g, GapKind):
        return g
    try:
        return GapKind(g)
    except ValueError:
        raise TimeScaleError(f"unknown gap kind {g!r} (expected 'S' or 'D')") from None


class TupleScale:
    """Points plus one GapKind per gap in a tuple; every query walks it."""

    def __init__(self, points, gaps):
        self.points = np.asarray(points, dtype=float)
        self.gaps = tuple(as_gap(g) for g in gaps)
        self.n = self.points.size

    @property
    def is_exact_discrete(self) -> bool:
        return all(g is GapKind.SCATTERED for g in self.gaps)

    @property
    def has_dense(self) -> bool:
        return any(g is GapKind.DENSE for g in self.gaps)

    def rho(self, i: int) -> int:
        if i > 0 and self.gaps[i - 1] is GapKind.SCATTERED:
            return i - 1
        return i

    def classify(self, i: int) -> tuple[bool, bool]:
        """(left_scattered, right_scattered) of point i."""
        right = i < self.n - 1 and self.gaps[i] is GapKind.SCATTERED
        left = i > 0 and self.gaps[i - 1] is GapKind.SCATTERED
        return left, right

    @property
    def kappa_length(self) -> int:
        if self.n >= 2 and self.gaps[-1] is GapKind.SCATTERED:
            return self.n - 1
        return self.n

    def __repr__(self) -> str:
        kinds = "".join(g.value for g in self.gaps)
        a, b = float(self.points[0]), float(self.points[-1])
        return f"TimeScale(n={self.n}, [{a:g}, {b:g}], gaps={kinds!r})"


def loop_enumerate(p, alphabet, tol=1e-8):
    """Every slope word over the sorted alphabet, in itertools.product
    order: each is expanded with GridFunction.from_slopes and, if it ends
    within BOUNDARY_HIT_TOL of q_b, pinned there and evaluated alone, its
    candidate built from that one-trajectory record's action(),
    first_el() and second_el()."""
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
    if len(letters) ** gaps > solver.ENUMERATION_GUARD:
        raise ValueError(
            f"{len(letters)}^{gaps} sequences exceed the enumeration guard; "
            "use solve_newton instead"
        )
    qb = float(p.q_b[0])
    kept = []
    for seq in itertools.product(letters, repeat=gaps):
        q = GridFunction.from_slopes(p.scale, p.q_a, seq)
        end = q.values[-1, 0]
        if not abs(end - qb) <= solver.BOUNDARY_HIT_TOL:  # NaN is no hit
            continue
        if end != qb:
            q = GridFunction(p.scale, np.vstack([q.values[:-1], p.q_b]))
        e = evaluate(p, q)
        first = e.first_el().magnitude
        if first <= tol:
            kept.append(
                solver.Candidate(
                    q,
                    solver.Provenance.ENUMERATED,
                    float(e.action()),
                    first,
                    e.second_el().magnitude,
                    seq,
                )
            )
    return tuple(kept)


def lq_first_el_root(scale, a, b, C, q_a, q_b) -> np.ndarray:
    """The trajectory, shape (N, n), with ends q_a and q_b along which the
    first-EL residual of L = sum_k (a_k + b_k t) v_k^2 + sum_ij C_ij u_i u_j
    vanishes on the exact scale: rows i = 0 .. N-3 of the linear system
    (P_{i+1} - P_i) / mu_i = 2 C q_{i+1}, P_i = 2 (a + b t_i) (q_{i+1} - q_i) / mu_i,
    assembled over the trajectory flattened point by point and solved for
    the interior values with np.linalg.solve.  C is symmetric."""
    t, mu = scale.points, np.diff(scale.points)
    N, n = t.size, len(a)
    slopes = (np.eye(N - 1, N, 1) - np.eye(N - 1, N)) / mu[:, None]
    outer = (np.eye(N - 2, N - 1, 1) - np.eye(N - 2, N - 1)) / mu[:-1, None]
    M = -np.kron(np.eye(N - 2, N, 1), 2 * np.asarray(C))  # q_sigma = q_{i+1}
    for k in range(n):
        weight = 2 * (a[k] + b[k] * t[:-1])
        M += np.kron(outer @ (weight[:, None] * slopes), np.diag(np.eye(n)[k]))
    rhs = -(M[:, :n] @ q_a + M[:, -n:] @ q_b)
    interior = np.linalg.solve(M[:, n:-n], rhs).reshape(N - 2, n)
    return np.vstack([q_a, interior, q_b])


def march(p, q_0, q_1) -> np.ndarray:
    """The trajectory, shape (N, n), that the discrete Euler-Lagrange map
    of p carries from q_0 and q_1 on p's exact discrete scale (Marsden &
    West, Acta Numerica 10, 2001).  First-EL row i, (Lv_{i+1} - Lv_i)/mu_i
    = Lu_i at the frames (t_j, q_{j+1}, (q_{j+1} - q_j)/mu_j), reads q_{i+2}
    only through Lv_{i+1}: each step solves Lv_{i+1} = Lv_i + mu_i Lu_i
    for q_{i+2} by Newton from the linear extrapolation, its n x n
    Jacobian L_vu + L_vv/mu_{i+1} read from a second-order
    ``Lagrangian.partials`` pass at frame i+1, until a step moves q_{i+2}
    by at most 1e-15 (1 + max|q_{i+2}|).  No band, no residual assembly
    and no stop test is shared with the solver.  A singular step block
    raises np.linalg.LinAlgError naming the problem and the row."""
    L, t, mu, n = p.lagrangian, p.scale.points, p.scale.mus, p.dim
    u, v = slice(1, n + 1), slice(n + 1, None)
    Q = np.empty((t.size, n))
    Q[0], Q[1] = q_0, q_1
    slope = (Q[1] - Q[0]) / mu[0]
    _, _, Lu, Lv = L.partials(t[:1], Q[1:2], slope[None])
    for i in range(t.size - 2):
        target, h = Lv[0] + mu[i] * Lu[0], mu[i + 1]
        x, dx = Q[i + 1] + h * slope, None
        for _ in range(50):
            slope = (x - Q[i + 1]) / h
            _, _, Lu, Lv, H = L.partials(t[i + 1 : i + 2], x[None], slope[None], 2)
            if dx is not None and np.abs(dx).max() <= 1e-15 * (1 + np.abs(x).max()):
                break
            try:
                dx = np.linalg.solve(H[0, v, u] + H[0, v, v] / h, target - Lv[0])
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"singular step block at row {i} of {L!r} on {p.scale!r}"
                ) from exc
            x = x + dx
        else:
            raise RuntimeError(f"step of row {i} of {L!r} on {p.scale!r} did not settle")
        Q[i + 2] = x
    return Q


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def load_report(path: str | Path):
    """Re-read a report written by --json (object or JSON-lines); a NaN,
    Infinity or -Infinity in it raises ValueError."""
    text = Path(path).read_text()
    try:
        return json.loads(text, parse_constant=_not_json)
    except json.JSONDecodeError:
        lines = text.splitlines()
        return [json.loads(line, parse_constant=_not_json) for line in lines if line.strip()]
