"""The paper's regularity theorem as a property: phi = K^-1 f is analytic
in the same Bernstein ellipse as f, so its Gegenbauer coefficients decay
at the ellipse's rate.

On (-1, 1), f = 1/(x^2 + eps^2) has its poles at +-i eps, on the ellipse
with parameter rho = eps + sqrt(1 + eps^2).  The coefficients c_k of phi
(even k only: f is even) fall as rho^-k k^-beta, the k^-beta with
beta ~ 2s from the 1/lambda_k of K^-1.  A pure geometric fit reads rho
too high by up to 3 %, so the fit carries the log k term.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fraclap import Domain, ProblemSpec, solve


def fitted_rho(coeffs, first=20, floor=1e-13):
    """rho of the least-squares fit log|c_k| = a - k log rho - beta log k
    over the even k >= first with |c_k| > floor * max|c|."""
    c = np.abs(coeffs)
    k = np.arange(c.size)
    keep = (k >= first) & (k % 2 == 0) & (c > floor * c.max())
    design = np.column_stack([np.ones(keep.sum()), -k[keep], -np.log(k[keep])])
    (_, log_rho, _), *_ = np.linalg.lstsq(design, np.log(c[keep]), rcond=None)
    return math.exp(log_rho)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 0.5), st.floats(0.1, 0.9))
@example(0.1, 0.1)
@example(0.1, 0.5)
@example(0.1, 0.9)
@example(0.5, 0.1)
@example(0.5, 0.5)
@example(0.5, 0.9)
def test_coefficients_decay_at_the_rate_of_the_ellipse_of_f(eps, s):
    rho = eps + math.sqrt(1.0 + eps * eps)
    n = math.ceil(math.log(1e12) / math.log(rho)) + 16
    spec = ProblemSpec(s, Domain(((-1.0, 1.0),)), lambda x: 1.0 / (x * x + eps * eps), n)
    (block,) = solve(spec).blocks
    assert abs(fitted_rho(block.coeffs) / rho - 1.0) <= 0.01
