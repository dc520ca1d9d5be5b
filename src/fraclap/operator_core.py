"""Single-interval weighted fractional Laplacian: diagonal application
and inversion in the normalized Gegenbauer basis, plus closed-form
operator images of weighted monomials used as internal cross-checks.

The closed forms live on the interval (0,1): the image of
x^s (1-x)^s x^n under the operator is an explicit degree-n polynomial,
valid for all real x away from 0 and 1.
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
    trimmed on construction, so degree == len(coeffs) - 1 is meaningful.
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

    @property
    def degree(self) -> int:
        if self.coeffs.size == 1 and self.coeffs[0] == 0.0:
            return -1
        return self.coeffs.size - 1

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)


def c1_constant(s) -> float:
    """Normalization constant of the singular-integral kernel
    C_1(s) |x-y|^{-1-2s}: C_1(s) = 2^{2s} s Gamma(s+1/2) / (sqrt(pi) Gamma(1-s)) > 0.
    """
    sv = s_value(s)
    return 2.0 ** (2.0 * sv) * sv * math.gamma(sv + 0.5) / (math.sqrt(math.pi) * math.gamma(1.0 - sv))


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
    degree-n polynomial, valid at every real x other than 0 and 1.
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


def n_alpha_series(n: int, s, x: float, tol: float = 1e-14) -> float:
    """The analytic continuation N^s_{s+n}(x) = sum_k (2s)_k/(s-n+k) x^k / k!.

    Truncates once a geometric tail majorant (ratio test; the terms
    behave like k^{2s-1} x^k) falls below tol.  Requires |x| < 1.
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    if not abs(x) < 1.0:
        raise DomainError(f"series requires |x| < 1, got x = {x}")
    ax = abs(x)
    total = 1.0 / (sv - n)
    term = 1.0  # (2s)_k x^k / k!, currently k = 0
    for k in range(1, 10**6):
        term *= (2.0 * sv + k - 1.0) * x / k
        total += term / (sv - n + k)
        # tail majorant: |term| * ax / (1 - ax), with the 1/(s-n+k)
        # factor bounded by its current value once k > n
        if k > n + 1 and ax < 1.0:
            tail = abs(term) * ax / (1.0 - ax) / abs(sv - n + k)
            if tail < tol:
                return total
    raise RuntimeError(f"series for N^s at x = {x} did not converge within 1e6 terms")
