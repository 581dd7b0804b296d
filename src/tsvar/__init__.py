"""Calculus of variations on time scales.

Time-scale representation and delta calculus, expression parsing with
forward-mode derivatives, Euler-Lagrange and DuBois-Reymond residuals,
extremal solvers, and Noether-type conserved quantities.  The package's
names are its modules' ``__all__``.
"""

from .expr import *
from .noether import *
from .solver import *
from .timescale import *
from .variational import *

__version__ = "0.1.0"
