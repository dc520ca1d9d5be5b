"""Special-function kernel: the check of the fractional order,
Pochhammer symbols, and the spectrum of the edge-weighted fractional
Laplacian (its eigenvalues and the Gegenbauer norms).

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


def pochhammer(z: float, k: int) -> float:
    """Rising factorial (z)_k = z (z+1) ... (z+k-1), as a running product."""
    if k < 0:
        raise DomainError(f"pochhammer requires k >= 0, got {k}")
    acc = 1.0
    for j in range(k):
        factor = z + j
        if factor == 0.0:
            raise DomainError(f"pochhammer hit a zero factor at z + {j} = 0")
        acc *= factor
    return acc


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
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"mode index must be >= 0, got {n}")
    j = np.arange(1.0, n + 1.0)
    lam = np.cumprod(np.concatenate(([math.gamma(2.0 * sv + 1.0)], (j + 2.0 * sv) / j)))
    g = math.gamma(sv + 0.5)
    h = np.sqrt(2.0 ** (-2.0 * sv) * math.pi / (g * g) * lam / (np.arange(n + 1.0) + sv + 0.5))
    return lam, h


def eigenvalue_lambda(n: int, s) -> float:
    """Eigenvalue lambda_n = Gamma(2s+n+1)/n!, entry n of spectrum(n, s)."""
    return float(spectrum(n, s)[0][n])


def gegenbauer_norm_h(j: int, s) -> float:
    """Weighted L2 norm h_j of C_j^(s+1/2), entry j of spectrum(j, s)."""
    return float(spectrum(j, s)[1][j])
