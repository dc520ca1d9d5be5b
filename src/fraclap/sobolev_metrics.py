"""Weighted Sobolev norms over Gegenbauer coefficients, error
measurement between resolutions, convergence-order fitting and
coefficient-decay diagnostics.

The H^r_s norm of a coefficient vector is
(sum_j |c_j|^2 (1+j^2)^r)^{1/2}; r = 0 recovers the weighted L2 norm
by Parseval.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def is_super_algebraic(ns, errors) -> bool:
    """True when the local order keeps increasing with N: over the rows
    above the roundoff floor (relative error 1e-12), the fit over their
    trailing half exceeds the fit over all of them by more than 0.5.
    Exponential decay err ~ rho^-N always trips this.  Rows on the floor
    would flatten the trailing fit, so they are left out; fewer than 3
    rows above it leave nothing to compare and read False.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size < 6:
        raise ValueError("super-algebraic detection needs at least 6 rows")
    above = errors > _ROUNDOFF_FLOOR
    ns, errors = ns[above], errors[above]
    if ns.size < 3:
        return False
    full = fit_order(ns, errors)
    half = ns.size // 2
    tail = _slope_order(ns[half:], errors[half:])
    return tail > full + _SUPER_ALGEBRAIC_MARGIN


@dataclass(frozen=True)
class DecayDiagnostic:
    exponent: float | None
    flag: str  # "ok" | "spectrally-exact" | "no-fit"


def coefficient_decay_check(c: GegenbauerCoeffs) -> DecayDiagnostic:
    """Fit |c_j| ~ j^-q over the interior tail j in [n/4, 3n/4] and
    return q.  The topmost quarter of indices is excluded because for
    functions of limited smoothness the discrete transform aliases
    unresolved content into those coefficients, flattening the decay.

    Tails below 1e-13 of the largest coefficient are flagged as
    spectrally exact; sparse tails (isolated spikes) yield no fit.
    """
    if len(c) < 16:
        raise ValueError(f"decay fit needs at least 16 coefficients, got {len(c)}")
    n = len(c)
    start, stop = n // 4, 3 * n // 4 + 1
    tail = np.abs(c.coeffs[start:stop])
    j = np.arange(start, stop, dtype=float)
    scale = np.max(np.abs(c.coeffs))
    if scale == 0.0 or np.max(tail) < 1e-13 * scale:
        return DecayDiagnostic(None, "spectrally-exact")
    keep = tail > 1e-15 * scale
    if np.count_nonzero(keep) < 5:
        return DecayDiagnostic(None, "no-fit")
    slope = np.polyfit(np.log(j[keep]), np.log(tail[keep]), 1)[0]
    return DecayDiagnostic(float(-slope), "ok")


@dataclass(frozen=True)
class ConvergenceReport:
    """Error table for a sweep of resolutions against one reference run.

    Rows are (N, err_L2s, err_H2ss, seconds), sorted by N ascending;
    fitted orders use all rows of each norm column.
    """

    s: float
    domain: tuple[tuple[float, float], ...]
    rhs_label: str
    rows: tuple[tuple[int, float, float, float], ...]
    reference_n: int
    order_l2: float | None = None
    order_h2s: float | None = None
    super_algebraic: bool = False

    def __post_init__(self):
        ns = [row[0] for row in self.rows]
        if ns != sorted(ns):
            raise ValueError("rows must be sorted by N ascending")
        if any(row[1] < 0.0 or row[2] < 0.0 for row in self.rows):
            raise ValueError("errors must be nonnegative")


def make_report(s, domain, rhs_label, rows, reference_n) -> ConvergenceReport:
    """Assemble a ConvergenceReport, fitting orders where the data allows."""
    rows = tuple(sorted(rows, key=lambda row: row[0]))
    ns = [row[0] for row in rows]
    order_l2 = order_h2s = None
    super_flag = False
    try:
        order_l2 = fit_order(ns, [row[1] for row in rows])
        order_h2s = fit_order(ns, [row[2] for row in rows])
    except ValueError:
        pass
    if len(rows) >= 6:
        try:
            super_flag = is_super_algebraic(ns, [row[1] for row in rows])
        except ValueError:
            pass
    return ConvergenceReport(
        float(s), tuple(domain), rhs_label, rows, int(reference_n), order_l2, order_h2s, super_flag
    )
