"""Gegenbauer spectral solver for the Dirichlet problem of the 1D
fractional Laplacian on finite unions of disjoint intervals.
"""

from .gegenbauer import (
    GegenbauerCoeffs,
    eval_gegenbauer,
    evaluate_expansion,
    forward_transform,
)
from .multi_interval import Domain, MultiSolution, apply_offdiagonal, gmres, solve
from .operator_core import (
    Polynomial,
    apply_diagonal,
    ln_polynomial,
    solve_diagonal,
    ts_weighted_monomial_image,
)
from .oracle import PVConfig, pv_apply, pv_exterior
from .problem import ProblemSpec, make_rhs, resolve_rhs
from .quadrature import QuadratureRule, gauss_jacobi, map_to_interval
from .sobolev_metrics import (
    error_between,
    fit_order,
    hrs_norm,
)
from .specfun import (
    DomainError,
    eigenvalue_lambda,
    gegenbauer_norm_h,
    pochhammer,
)

__version__ = "0.1.0"
