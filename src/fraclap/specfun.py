"""Special-function kernel: the check of the fractional order, the
normalization C_1(s) of the singular-integral kernel, and the spectrum
of the edge-weighted fractional Laplacian (its eigenvalues and the
Gegenbauer norms).

All functions here are pure; they can be called concurrently without
restriction.
"""

from __future__ import annotations

import math

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


def s_value(s) -> float:
    """The fractional order s as a float, checked to lie in (0, 1).

    The one place that decides which s is valid.
    """
    sv = float(s)
    if not 0.0 < sv < 1.0:
        raise DomainError(f"fractional order must satisfy 0 < s < 1, got {sv}")
    return sv


def check_addressable(doubles: int, what: str) -> None:
    """DomainError naming `what` when an array of that many doubles is
    larger than this platform can address (np.intp bytes); callers check
    before they allocate."""
    if doubles > np.iinfo(np.intp).max // 8:
        raise DomainError(f"{what} needs an array larger than this platform can address")


def c1_constant(s) -> float:
    """Normalization constant of the singular-integral kernel
    C_1(s) |x-y|^{-1-2s}: C_1(s) = 2^{2s} s Gamma(s+1/2) / (sqrt(pi) Gamma(1-s)) > 0.
    """
    sv = s_value(s)
    return 2.0 ** (2.0 * sv) * sv * math.gamma(sv + 0.5) / (math.sqrt(math.pi) * math.gamma(1.0 - sv))


def spectrum(n: int, s) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lambda_j and Gegenbauer norms h_j for j = 0..n.

    lambda_j = Gamma(2s+j+1)/j! is the eigenvalue of the weighted
    fractional Laplacian on C_j^(s+1/2), formed as Gamma(2s+1) times the
    running product of (j+2s)/j; each factor is rounded once, so the
    error grows like sqrt(j) ulp, not with log j as in a gamma quotient.
    The eigenvalues are interval-independent: the affine change of
    variables to the reference interval leaves the operator invariant.
    h_j is the weighted L2 norm of C_j^(s+1/2),

        h_j^2 = 2^(-2s) pi / Gamma(s+1/2)^2 * lambda_j / (j+s+1/2).

    DomainError when n < 0, or when n+1 doubles are more than this
    platform can address.
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"mode index must be >= 0, got {n}")
    check_addressable(n + 1, f"mode index {n}")
    j = np.arange(1, n + 1, dtype=float)  # exactly n entries; a float stop n + 1.0 may round
    lam = np.cumprod(np.concatenate(([math.gamma(2.0 * sv + 1.0)], (j + 2.0 * sv) / j)))
    g = math.gamma(sv + 0.5)
    h = np.sqrt(2.0 ** (-2.0 * sv) * math.pi / (g * g) * lam / (np.arange(n + 1, dtype=float) + sv + 0.5))
    return lam, h


def eigenvalue_lambda(n: int, s) -> float:
    """Eigenvalue lambda_n = Gamma(2s+n+1)/n!, entry n of spectrum(n, s)."""
    return float(spectrum(n, s)[0][n])


def gegenbauer_norm_h(j: int, s) -> float:
    """Weighted L2 norm h_j of C_j^(s+1/2), entry j of spectrum(j, s)."""
    return float(spectrum(j, s)[1][j])
