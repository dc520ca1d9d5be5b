"""Gegenbauer spectral solver for the Dirichlet problem of the 1D
fractional Laplacian on finite unions of disjoint intervals.  It
re-exports what posing, solving and evaluating a problem take; every
other building block is imported from its module.

The package logs to the "fraclap" logger, which is silent unless the
caller configures it (for example logging.basicConfig(level=logging.DEBUG)).
"""

import logging

from .gegenbauer import GegenbauerCoeffs, eval_gegenbauer, evaluate_expansion
from .multi_interval import Domain, solve
from .problem import ProblemSpec, make_rhs, resolve_rhs
from .quadrature import gauss_jacobi
from .specfun import DomainError, eigenvalue_lambda, gegenbauer_norm_h

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
