"""Brute-force ground truth: the fractional Laplacian evaluated by
principal-value quadrature of its singular-integral form.

For interior points the operator is written through the derivative,

    (-Lap)^s u(x) = C_1(s)/(2s) PV int_a^b sgn(x-z)|x-z|^{-2s} u'(z) dz,

with the principal value realized as a symmetric excision limit: the
ball (x-eps, x+eps) is removed, the remaining integral is computed with
dyadically graded composite Gauss panels, and the limit eps -> 0 is
taken by Richardson extrapolation (the excision error expands in powers
eps^{2-2s}, eps^{4-2s}, ...; one-sided excision diverges for s >= 1/2).

Deliberately slow and entirely independent of the spectral machinery;
used only by tests and the eigencheck command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .operator_core import c1_constant
from .specfun import DomainError, gegenbauer_norm_h, s_value


@dataclass(frozen=True)
class PVConfig:
    """Excision schedule and panel layout for the PV quadrature.

    The excision radii are eps_m = eps0 * 2^-m for m = 0..levels-1,
    with eps0 = eps0_frac * dist(x, boundary) unless eps0 is given
    outright.  Each smooth piece is covered by `panels_per_side`
    dyadically graded Gauss panels of the stated order; panels that end
    on an interval endpoint switch to a Gauss-Jacobi rule absorbing the
    algebraic endpoint singularity of the integrand.
    """

    eps0_frac: float = 1e-2
    eps0: float | None = None
    levels: int = 6
    panels_per_side: int = 12
    gauss_order: int = 16

    def __post_init__(self):
        if self.levels < 3:
            raise ValueError(f"need at least 3 extrapolation levels, got {self.levels}")
        if self.panels_per_side < 2 or self.gauss_order < 2:
            raise ValueError("panel layout too coarse")


@lru_cache(maxsize=None)
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=None)
def _jacobi_left(order: int, beta: float):
    # weight (1+t)^beta on (-1,1); beta > -1
    return roots_jacobi(order, 0.0, beta)


def _segment_toward_lo(fn, lo, hi, cfg: PVConfig, endpoint_power=None, resolve=None):
    """Integrate fn over [lo, hi] with panels graded geometrically
    toward lo.  With endpoint_power = p, the innermost panel integrates
    (z-lo)^p * [fn(z) (z-lo)^-p] by a mapped Gauss-Jacobi rule, which
    absorbs an algebraic singularity of fn at lo.

    With resolve = d, the grading is deepened until the innermost panel
    is narrower than d; needed when fn is nearly singular a distance d
    below lo (the excision-adjacent segments), where a fixed grading
    depth would leave an under-resolved boundary layer.
    """
    length = hi - lo
    if length <= 0.0:
        return 0.0
    panels = cfg.panels_per_side
    if resolve is not None and resolve > 0.0:
        panels = max(panels, int(math.ceil(math.log2(length / resolve))) + 3)
    tL, wL = _legendre(cfg.gauss_order)
    total = 0.0
    upper = hi
    for _ in range(panels - 1):
        lower = lo + 0.5 * (upper - lo)
        half = 0.5 * (upper - lower)
        z = lower + half * (tL + 1.0)
        total += half * np.dot(wL, fn(z))
        upper = lower
    # innermost panel [lo, upper]
    h = upper - lo
    if endpoint_power is None:
        half = 0.5 * h
        z = lo + half * (tL + 1.0)
        total += half * np.dot(wL, fn(z))
    else:
        tJ, wJ = _jacobi_left(cfg.gauss_order, endpoint_power)
        z = lo + 0.5 * h * (tJ + 1.0)
        smooth = fn(z) * (z - lo) ** (-endpoint_power)
        total += (0.5 * h) ** (endpoint_power + 1.0) * np.dot(wJ, smooth)
    return total


def _segment_toward_hi(fn, lo, hi, cfg: PVConfig, endpoint_power=None, resolve=None):
    """Mirror of _segment_toward_lo; endpoint_power refers to (hi-z)^p."""
    return _segment_toward_lo(lambda z: fn(lo + hi - z), lo, hi, cfg, endpoint_power, resolve)


def _excised_integral(uprime, x, sv, a, b, eps, cfg: PVConfig):
    """int over [a, x-eps] u [x+eps, b] of sgn(x-z)|x-z|^{-2s} u'(z) dz."""
    def left(z):
        return (x - z) ** (-2.0 * sv) * uprime(z)

    def right(z):
        return -((z - x) ** (-2.0 * sv)) * uprime(z)

    cl = 0.5 * (a + x - eps)
    cr = 0.5 * (x + eps + b)
    total = _segment_toward_lo(left, a, cl, cfg, endpoint_power=sv - 1.0)
    total += _segment_toward_hi(left, cl, x - eps, cfg, resolve=eps)
    total += _segment_toward_lo(right, x + eps, cr, cfg, resolve=eps)
    total += _segment_toward_hi(right, cr, b, cfg, endpoint_power=sv - 1.0)
    return total


def _richardson(values, exponents):
    """Eliminate the error terms eps^p, p in `exponents`, from the
    sequence values[m] = I(eps0 * 2^-m).  Returns the full triangular
    table; the bottom-right entry is the extrapolated limit.
    """
    table = [list(values)]
    for i, p in enumerate(exponents):
        prev = table[-1]
        fac = 2.0**p
        table.append([(fac * prev[m + 1] - prev[m]) / (fac - 1.0) for m in range(len(prev) - 1)])
        if len(table[-1]) == 1:
            break
    return table


def _extrapolate(values, sv):
    exponents = [2.0 * (i + 1) - 2.0 * sv for i in range(len(values) - 1)]
    table = _richardson(values, exponents)
    limit = table[-1][-1]
    prev = table[-2][-1]
    err_est = abs(limit - prev)
    if not math.isfinite(limit):
        raise RuntimeError(f"PV extrapolation diverged; level table: {table}")
    return limit, err_est, table


def pv_apply(uprime, x: float, s, interval, cfg: PVConfig = PVConfig()) -> float:
    """(-Lap)^s u at an interior point x, from the derivative u'.

    u must vanish at the interval endpoints (the u = omega^s phi form);
    u' may blow up like dist^{s-1} at the endpoints, which the
    Gauss-Jacobi endpoint panels absorb.  Target absolute accuracy is
    about 1e-7 on unit-scale data.
    """
    sv = s_value(s)
    a, b = interval
    if not a < x < b:
        raise DomainError(f"x = {x} is not interior to ({a}, {b})")
    dist = min(x - a, b - x)
    eps0 = cfg.eps0 if cfg.eps0 is not None else cfg.eps0_frac * dist
    if not 0.0 < eps0 < dist:
        raise DomainError(f"excision radius {eps0} does not fit inside the interval at x = {x}")
    values = [
        _excised_integral(uprime, x, sv, a, b, eps0 * 2.0**-m, cfg) for m in range(cfg.levels)
    ]
    limit, _, _ = _extrapolate(values, sv)
    return c1_constant(sv) / (2.0 * sv) * limit


def pv_exterior(u, x: float, s, interval, cfg: PVConfig = PVConfig()) -> float:
    """(-Lap)^s u at a point x strictly outside [a, b].

    Since u vanishes at the endpoints, integration by parts turns the
    derivative form into the ordinary (non-PV) integral

        -C_1(s) int_a^b u(z) |x-z|^{-1-2s} dz,

    which needs only u itself; the endpoint factors (z-a)^s, (b-z)^s of
    u are absorbed by Gauss-Jacobi endpoint panels.
    """
    sv = s_value(s)
    a, b = interval
    if a <= x <= b:
        raise DomainError(f"x = {x} must lie strictly outside [{a}, {b}]")

    def fn(z):
        return u(z) * np.abs(x - z) ** (-1.0 - 2.0 * sv)

    c = 0.5 * (a + b)
    total = _segment_toward_lo(fn, a, c, cfg, endpoint_power=sv)
    total += _segment_toward_hi(fn, c, b, cfg, endpoint_power=sv)
    return -c1_constant(sv) * total


def weighted_mode(n: int, s, interval):
    """Convenience pair (u, u') for u = omega^s C~_n on the interval.

    These are the operator eigenfunctions; pv_apply on them should
    reproduce lambda_n^s C~_n(x).
    """
    from .gegenbauer import eval_gegenbauer

    sv = s_value(s)
    a, b = interval
    half = 0.5 * (b - a)
    h = gegenbauer_norm_h(n, sv)
    alpha = sv + 0.5

    def xt(z):
        return (z - 0.5 * (a + b)) / half

    def u(z):
        z = np.asarray(z, dtype=float)
        return (z - a) ** sv * (b - z) ** sv * eval_gegenbauer(n, alpha, xt(z)) / h

    def uprime(z):
        z = np.asarray(z, dtype=float)
        w = (z - a) ** sv * (b - z) ** sv
        dw = sv * (z - a) ** (sv - 1.0) * (b - z) ** sv - sv * (z - a) ** sv * (b - z) ** (
            sv - 1.0
        )
        cj = eval_gegenbauer(n, alpha, xt(z))
        if n == 0:
            dcj = 0.0
        else:
            dcj = 2.0 * alpha * eval_gegenbauer(n - 1, alpha + 1.0, xt(z)) / half
        return (dw * cj + w * dcj) / h

    return u, uprime
