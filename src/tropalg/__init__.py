"""Tropical linear algebra over max-plus and min-plus semirings.

The package bundles four layers: scalar semiring arithmetic with
idempotent addition, matrices with closure and residuation-based
equation solving, shortest-path search on weighted digraphs, exact
rational linear programming, and a small script interpreter that ties
them to a command-line calculator.
"""

from . import errors, graph, lp, semiring, solvers, trmatrix
from .errors import *
from .graph import *
from .lp import *
from .semiring import *
from .solvers import *
from .trmatrix import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *semiring.__all__,
    *trmatrix.__all__,
    *solvers.__all__,
    *graph.__all__,
    *lp.__all__,
]
