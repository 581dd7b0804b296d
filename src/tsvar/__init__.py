"""Calculus of variations on time scales.

Time-scale representation and delta calculus, expression parsing with
forward-mode derivatives, Euler-Lagrange and DuBois-Reymond residuals,
extremal solvers, and Noether-type conserved quantities.
"""

from .expr import Expr, ExprDomainError, ExprError, ExprSyntaxError, parse
from .noether import (
    NoetherReport,
    Transformation,
    check_conservation,
    conserved_quantity,
    invariance_residual,
)
from .solver import (
    Candidate,
    Extremals,
    NewtonOptions,
    NoConvergence,
    Provenance,
    SingularSystem,
    affine_extremal,
    enumerate_slope_extremals,
    filter_second_el,
    solve,
    solve_newton,
)
from .timescale import (
    GapKind,
    GridFunction,
    PointClass,
    TimeScale,
    TimeScaleError,
    delta_derivative,
    delta_integral,
    pushforward,
)
from .variational import (
    Lagrangian,
    Residual,
    VariationalProblem,
    action,
    classical_check,
    erdmann_deviation,
    first_el_integral_residual,
    first_el_residual,
    hamiltonian,
    second_el_residual,
)

__version__ = "0.1.0"
