"""Stable special-function kernel: the check of the fractional order,
gamma ratios, Pochhammer symbols, Gegenbauer norms and the eigenvalues
of the edge-weighted fractional Laplacian.

All functions here are pure; they can be called concurrently without
restriction.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


# Above this argument size gamma ratios switch from direct gamma
# quotients to the asymptotic (Stirling/Bernoulli) difference, which
# avoids the ~log10(x) digits lost to exp(lgamma - lgamma) cancellation.
_ASYMPTOTIC_CUTOFF = 100.0

# Bernoulli-number coefficients B_{2n} / (2n (2n-1)) of the Stirling
# tail sum_{n>=1} c_n x^{1-2n}.  Five terms give < 1e-18 relative error
# for x >= 100.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


def s_value(s) -> float:
    """The fractional order s as a float, checked to lie in (0, 1).

    The one place that decides which s is valid.
    """
    sv = float(s)
    if not 0.0 < sv < 1.0:
        raise DomainError(f"fractional order must satisfy 0 < s < 1, got {sv}")
    return sv


def _stirling_tail(x: float) -> float:
    xi = 1.0 / x
    x2 = xi * xi
    acc = 0.0
    p = xi
    for c in _STIRLING_COEFFS:
        acc += c * p
        p *= x2
    return acc


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a) / Gamma(b), accurate for large arguments.

    For max(a, b) above the asymptotic cutoff the ratio is formed from a
    cancellation-free rearrangement of the Stirling series,

        lnG(a) - lnG(b) = (a - 1/2) log1p((a-b)/b) + (a-b) (log b - 1)
                          + S(a) - S(b),

    after shifting the smaller argument past the cutoff with the
    recurrence Gamma(z) = Gamma(z+1)/z.  Overflow is reported as inf.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"gamma_ratio requires positive arguments, got ({a}, {b})")
    if max(a, b) <= _ASYMPTOTIC_CUTOFF:
        return math.gamma(a) / math.gamma(b)

    # Shift both arguments above the cutoff; track the shift products.
    shift_a = 1.0
    while a < _ASYMPTOTIC_CUTOFF:
        shift_a *= a
        a += 1.0
    shift_b = 1.0
    while b < _ASYMPTOTIC_CUTOFF:
        shift_b *= b
        b += 1.0

    d = a - b
    t = (a - 0.5) * math.log1p(d / b) + d * (math.log(b) - 1.0)
    t += _stirling_tail(a) - _stirling_tail(b)
    try:
        ratio = math.exp(t)
    except OverflowError:
        return math.inf * shift_b / shift_a
    return ratio * (shift_b / shift_a)


def pochhammer(z: float, k: int) -> float:
    """Rising factorial (z)_k = Gamma(z+k) / Gamma(z).

    Uses the running product for k <= 64 (or whenever z <= 0, where the
    gamma quotient is unusable), and gamma_ratio otherwise.
    """
    if k < 0:
        raise DomainError(f"pochhammer requires k >= 0, got {k}")
    if k == 0:
        return 1.0
    if k <= 64 or z <= 0.0:
        acc = 1.0
        for j in range(k):
            factor = z + j
            if factor == 0.0:
                raise DomainError(f"pochhammer hit a zero factor at z + {j} = 0")
            acc *= factor
        return acc
    return gamma_ratio(z + k, z)


def eigenvalue_lambda(n: int, s: float) -> float:
    """Eigenvalue Gamma(2s+n+1)/n! of the weighted fractional Laplacian.

    Interval-independent: the affine change of variables that maps a
    general interval to the reference one leaves the operator invariant.
    """
    sv = s_value(s)
    if n < 0:
        raise DomainError(f"mode index must be >= 0, got {n}")
    return gamma_ratio(2.0 * sv + n + 1.0, n + 1.0)


def gegenbauer_norm_h(j: int, s: float) -> float:
    """Weighted L2 norm h_j of the Gegenbauer polynomial C_j^(s+1/2).

    h_j^2 = 2^(-2s) pi / Gamma(s+1/2)^2 * Gamma(j+2s+1) / (j! (j+s+1/2)).
    """
    sv = s_value(s)
    if j < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {j}")
    g = math.gamma(sv + 0.5)
    h2 = (
        2.0 ** (-2.0 * sv)
        * math.pi
        / (g * g)
        * gamma_ratio(j + 2.0 * sv + 1.0, j + 1.0)
        / (j + sv + 0.5)
    )
    return math.sqrt(h2)
