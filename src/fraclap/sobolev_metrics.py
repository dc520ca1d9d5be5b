"""Weighted Sobolev norms over Gegenbauer coefficients, error
measurement between resolutions and convergence-order fitting.

The H^r_s norm of a coefficient vector is
(sum_j |c_j|^2 (1+j^2)^r)^{1/2}; r = 0 recovers the weighted L2 norm
by Parseval.
"""

from __future__ import annotations

import numpy as np

from .gegenbauer import GegenbauerCoeffs
from .specfun import DomainError

# A fitted order on the trailing half of the rows exceeding the
# full-window fit by more than this flags faster-than-algebraic decay.
_SUPER_ALGEBRAIC_MARGIN = 0.5

# A relative error at or below this sits on the roundoff floor and
# carries no convergence-order information.
_ROUNDOFF_FLOOR = 1e-12


def hrs_norm(c: GegenbauerCoeffs, r: float) -> float:
    """Norm (sum_j |c_j|^2 (1+j^2)^r)^{1/2} of the expansion."""
    if r < 0.0:
        raise DomainError(f"Sobolev order must be >= 0, got {r}")
    j = np.arange(len(c), dtype=float)
    return float(np.sqrt(np.sum(c.coeffs**2 * (1.0 + j * j) ** r)))


def error_between(c1: GegenbauerCoeffs, c2: GegenbauerCoeffs, r: float) -> float:
    """H^r_s norm of the coefficient difference; shorter vector zero-padded."""
    if abs(c1.s - c2.s) > 1e-12 or c1.interval != c2.interval:
        raise ValueError(
            f"coefficient vectors live on different spaces: "
            f"(s={c1.s}, {c1.interval}) vs (s={c2.s}, {c2.interval})"
        )
    n = max(len(c1), len(c2))
    d = np.zeros(n)
    d[: len(c1)] = c1.coeffs
    d[: len(c2)] -= c2.coeffs
    return hrs_norm(GegenbauerCoeffs(c1.s, c1.interval, d), r)


def _slope_order(ns, errors) -> float:
    return float(-np.polyfit(np.log(ns), np.log(errors), 1)[0])


def fit_order(ns, errors) -> float:
    """Least-squares slope of log(err) against log(N), sign-flipped so
    that order p > 0 means err ~ N^-p.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size < 3:
        raise ValueError(f"order fit needs at least 3 rows, got {ns.size}")
    if np.any(errors <= 0.0):
        raise ValueError("order fit needs strictly positive errors")
    if np.ptp(np.log(errors)) < 1e-12:
        raise ValueError("degenerate error sequence (constant); no order to fit")
    return _slope_order(ns, errors)


def is_super_algebraic(ns, errors) -> bool | None:
    """True when the local order keeps increasing with N: over the rows
    above the roundoff floor (relative error 1e-12), the fit over their
    trailing half exceeds the fit over all of them by more than 0.5.
    Exponential decay err ~ rho^-N always trips this.  Rows on the floor
    would flatten the trailing fit, so they are left out.  None when it
    cannot tell: with fewer than 6 rows, or fewer than 3 above the floor.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    above = errors > _ROUNDOFF_FLOOR
    if ns.size < 6 or np.count_nonzero(above) < 3:
        return None
    ns, errors = ns[above], errors[above]
    full = fit_order(ns, errors)
    half = ns.size // 2
    tail = _slope_order(ns[half:], errors[half:])
    return tail > full + _SUPER_ALGEBRAIC_MARGIN
