"""Cross-checks of the single-interval weighted fractional Laplacian:
its diagonal application and inversion in the normalized Gegenbauer
basis, and the closed-form operator images of weighted monomials, which
eigencheck and the tests hold against the spectrum.  The solver does
not import this module; the kernel constant C_1(s) lives in specfun.

The closed forms live on the interval (0,1): the image of
x^s (1-x)^s x^n under the operator is an explicit degree-n polynomial
for x inside (0,1).  Outside [0,1] the image is not that polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerCoeffs
from .specfun import DomainError, pochhammer, s_value, spectrum

_TRIM_REL = 1e-14


@dataclass(frozen=True)
class Polynomial:
    """Monomial-basis polynomial; index k holds the coefficient of x^k.

    Trailing coefficients below 1e-14 of the largest magnitude are
    trimmed on construction; the zero polynomial keeps a single 0.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        top = np.max(np.abs(coeffs)) if coeffs.size else 0.0
        if top > 0.0:
            keep = np.nonzero(np.abs(coeffs) > _TRIM_REL * top)[0]
            coeffs = coeffs[: keep[-1] + 1]
        else:
            coeffs = np.zeros(1)
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)


def image_prefactor(s) -> float:
    """(1-2s) C_s rewritten as Gamma(2s+1) sin(pi s) / (2 s pi).

    The product has a removable limit at s = 1/2; this form is finite
    on all of (0,1), so the closed-form images need no special casing.
    """
    sv = s_value(s)
    return math.gamma(2.0 * sv + 1.0) * math.sin(math.pi * sv) / (2.0 * sv * math.pi)


def apply_diagonal(c: GegenbauerCoeffs) -> GegenbauerCoeffs:
    """Coefficients of the weighted fractional Laplacian image: lambda_j c_j.

    The eigenvalues are interval-independent (affine scale invariance),
    so the interval tag passes through untouched.
    """
    lam = spectrum(len(c) - 1, c.s)[0]
    return GegenbauerCoeffs(c.s, c.interval, lam * c.coeffs)


def solve_diagonal(f_coeffs: GegenbauerCoeffs) -> GegenbauerCoeffs:
    """Coefficients phi_j = f_j / lambda_j of the Dirichlet solve."""
    lam = spectrum(len(f_coeffs) - 1, f_coeffs.s)[0]
    return GegenbauerCoeffs(f_coeffs.s, f_coeffs.interval, f_coeffs.coeffs / lam)


def ln_polynomial(n: int, s) -> Polynomial:
    """The degree-(n-1) polynomial L^s_n on (0,1).

    L^s_n(x) = Gamma(s) sum_{k=0}^{n-1} (2s)_k/k!
               * Gamma(n-k-s+1) / ((s+k-n) Gamma(n-k)) x^k.
    Finite for every s in (0,1); n = 0 gives the zero polynomial.
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if n == 0:
        return Polynomial(np.zeros(1))
    gs = math.gamma(sv)
    coeffs = np.empty(n)
    for k in range(n):
        coeffs[k] = (
            gs
            * pochhammer(2.0 * sv, k)
            / math.factorial(k)
            * math.gamma(n - k - sv + 1.0)
            / ((sv + k - n) * math.gamma(float(n - k)))
        )
    return Polynomial(coeffs)


def ts_weighted_monomial_image(n: int, s) -> Polynomial:
    """Image of x^s (1-x)^s x^n on (0,1) under the fractional Laplacian.

    p(x) = (1-2s) C_s [ (s+n) L^s_n - (2s+n) L^s_{n+1} ], an exact
    degree-n polynomial, valid only for x inside (0,1).
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    pre = image_prefactor(sv)
    ln = ln_polynomial(n, sv).coeffs
    ln1 = ln_polynomial(n + 1, sv).coeffs
    out = np.zeros(max(ln.size, ln1.size, n + 1))
    out[: ln.size] += (sv + n) * ln
    out[: ln1.size] -= (2.0 * sv + n) * ln1
    return Polynomial(pre * out)


def monomial_operator_matrix(m: int, s) -> np.ndarray:
    """Matrix [P] with column n = monomial coefficients of the image of
    the weighted monomial x^s (1-x)^s x^n, n = 0..m.  Upper-triangular
    with diagonal Gamma(2s+n+1)/n!.
    """
    mat = np.zeros((m + 1, m + 1))
    for n in range(m + 1):
        col = ts_weighted_monomial_image(n, s).coeffs
        mat[: col.size, n] = col
    return mat
