"""Closed-form operator images of weighted monomials on (0,1), which
eigencheck and the tests hold against the spectrum.  The solver does not
import this module; the kernel constant C_1(s) lives in specfun.

The image of x^s (1-x)^s x^n under the fractional Laplacian is an
explicit degree-n polynomial for x inside (0,1), returned as its
monomial coefficients (index k holds the coefficient of x^k).  Outside
[0,1] the image is not that polynomial.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import DomainError, s_value


def image_prefactor(s) -> float:
    """(1-2s) C_s rewritten as Gamma(2s+1) sin(pi s) / (2 s pi).

    The product has a removable limit at s = 1/2; this form is finite
    on all of (0,1), so the closed-form images need no special casing.
    """
    sv = s_value(s)
    return math.gamma(2.0 * sv + 1.0) * math.sin(math.pi * sv) / (2.0 * sv * math.pi)


def ln_polynomial(n: int, s) -> np.ndarray:
    """Monomial coefficients of the degree-(n-1) polynomial L^s_n on (0,1).

    L^s_n(x) = Gamma(s) sum_{k=0}^{n-1} (2s)_k/k!
               * Gamma(n-k-s+1) / ((s+k-n) Gamma(n-k)) x^k.
    Finite for every s in (0,1); n = 0 gives the zero polynomial, [0.0].
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if n == 0:
        return np.zeros(1)
    gs = math.gamma(sv)
    coeffs = np.empty(n)
    acc = 1.0  # (2s)_k
    for k in range(n):
        coeffs[k] = gs * acc / math.factorial(k) * math.gamma(n - k - sv + 1.0)
        coeffs[k] /= (sv + k - n) * math.gamma(float(n - k))
        acc *= 2.0 * sv + k
    return coeffs


def ts_weighted_monomial_image(n: int, s) -> np.ndarray:
    """Monomial coefficients, n+1 of them, of the image of x^s (1-x)^s x^n
    on (0,1) under the fractional Laplacian.

    p(x) = (1-2s) C_s [ (s+n) L^s_n - (2s+n) L^s_{n+1} ], an exact
    degree-n polynomial, valid only for x inside (0,1).
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    pre = image_prefactor(sv)
    out = -(2.0 * sv + n) * ln_polynomial(n + 1, sv)
    out[:n] += (sv + n) * ln_polynomial(n, sv)[:n]  # L^s_0 is [0.0]
    return pre * out


def monomial_operator_matrix(m: int, s) -> np.ndarray:
    """Matrix [P] with column n = monomial coefficients of the image of
    the weighted monomial x^s (1-x)^s x^n, n = 0..m.  Upper-triangular
    with diagonal Gamma(2s+n+1)/n!.
    """
    mat = np.zeros((m + 1, m + 1))
    for n in range(m + 1):
        mat[: n + 1, n] = ts_weighted_monomial_image(n, s)
    return mat
