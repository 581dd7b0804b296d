"""Random expression machinery shared by the expression tests and the
acceptance suite: a generator of safe expression strings plus a central
finite-difference oracle for partial derivatives.  Also the one-column-
at-a-time forward-difference Jacobian, the reference for Newton's
coloured assembly.  The gap-kind queries of a time scale as walks
over a tuple of :class:`GapKind`, the reference for the ones
:class:`TimeScale` reads off its graininess.  And the word-by-word slope
enumeration, the reference for the walk of
:func:`tsvar.solver.enumerate_slope_extremals`."""

import itertools

import numpy as np

from tsvar import GapKind, GridFunction, TimeScaleError, parse, solver
from tsvar.variational import _along


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


def finite_difference_partial(expr, var, env) -> float:
    """Central difference with step 1e-6 * max(1, |x|)."""
    step = 1e-6 * max(1.0, abs(env[var]))
    hi = dict(env)
    lo = dict(env)
    hi[var] += step
    lo[var] -= step
    return (expr.evaluate(hi) - expr.evaluate(lo)) / (2.0 * step)


def random_checked_pair(rng, variables, value_cap=1e4):
    """(expr, env) with all values and partials below the cap."""
    while True:
        text = random_expr_text(rng, variables)
        expr = parse(text, variables)
        env = {v: float(rng.uniform(-2.0, 2.0)) for v in variables}
        value = expr.evaluate(env)
        if not np.isfinite(value) or abs(value) > value_cap:
            continue
        partials = [expr.partial(v, env) for v in variables]
        if all(np.isfinite(p) and abs(p) <= value_cap for p in partials):
            return expr, env


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

    def to_json(self) -> dict:
        return {
            "points": [float(t) for t in self.points],
            "gaps": [g.value for g in self.gaps],
        }

    def __repr__(self) -> str:
        kinds = "".join(g.value for g in self.gaps)
        a, b = float(self.points[0]), float(self.points[-1])
        return f"TimeScale(n={self.n}, [{a:g}, {b:g}], gaps={kinds!r})"


def loop_enumerate(p, alphabet, tol=1e-8):
    """Every slope word over the sorted alphabet, in itertools.product
    order: each is expanded with GridFunction.from_slopes and, if it ends
    within BOUNDARY_HIT_TOL of q_b, pinned there and evaluated alone."""
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
        e = _along(p, q)
        first = e.first_el().magnitude
        if first <= tol:
            kept.append(
                solver._diagnose(e, first, solver.Provenance.ENUMERATED, slopes=seq)
            )
    return tuple(kept)
