"""Random expression machinery shared by the expression tests and the
acceptance suite: a generator of safe expression strings plus a central
finite-difference oracle for partial derivatives.  Also the one-column-
at-a-time forward-difference Jacobian, the reference for Newton's
coloured assembly."""

import numpy as np

from tsvar import parse


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
