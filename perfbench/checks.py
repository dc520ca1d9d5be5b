"""Output checks that do not trust the solver's own numerics.

A solution is u = omega^s phi on each interval, omega = (x-a)(b-x) and
phi = sum_j c_j C_j^(s+1/2)(t) / h_j in the reference variable t.  The
checks here evaluate phi, u and u' with their own Gegenbauer recurrence
and norms (nothing from fraclap.gegenbauer or fraclap.specfun), then
apply the fractional Laplacian with the principal-value quadrature
oracle of fraclap.oracle at seeded interior points:

    (-Lap)^s u(x) = pv_apply(u' on the own interval)
                    + sum over the other intervals of pv_exterior(u).

The residual |(-Lap)^s u - f| / max|f| must stay below
ORACLE_RESIDUAL_LIMIT.  Method properties (affine invariance of the phi
blocks, super-algebraic convergence for smooth data, the algebraic
orders for |x|) are checked from the outputs as well.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from fraclap.oracle import PVConfig, pv_apply, pv_exterior

# Residuals measured on resolved problems stay below 3e-7; the kept
# fault (gap 1e-4) gives 0.4 and above at the edge points.
ORACLE_RESIDUAL_LIMIT = 1e-4

# Finer panels than the oracle's default.  Past about 20 panels per side
# pv_apply's innermost panels only add rounding (40 moves an eigenmode
# value by 4e-8), and each Richardson level past five amplifies rounding
# near an endpoint more than it removes excision error.  pv_exterior has
# no excision and takes a finer grading.
PV_INTERIOR = PVConfig(levels=5, panels_per_side=20, gauss_order=20)
PV_EXTERIOR = PVConfig(panels_per_side=28, gauss_order=24)

# criterion 4's ranges for the |x| orders (tests/test_acceptance.py)
ABSX_L2_ORDER = (1.45, 2.1)
ABSX_H2S_ORDER = (1.35, 1.65)

# Relative distance of the edge oracle points from the endpoints.
EDGE = 1e-3

# A convergence row at or below this error sits on the roundoff floor.
ERROR_FLOOR = 1e-12


def gegenbauer_table(n: int, alpha: float, t: np.ndarray) -> np.ndarray:
    """C_j^alpha(t) for j = 0..n by the three-term recurrence."""
    out = np.empty((n + 1, t.size))
    out[0] = 1.0
    if n >= 1:
        out[1] = 2.0 * alpha * t
    for j in range(2, n + 1):
        out[j] = (2.0 * (j + alpha - 1.0) * t * out[j - 1] - (j + 2.0 * alpha - 2.0) * out[j - 2]) / j
    return out


def norm_h(n: int, s: float) -> np.ndarray:
    """Weighted L2 norms h_j of C_j^(s+1/2), j = 0..n, from log-gamma."""
    j = np.arange(n + 1, dtype=float)
    log_h2 = (
        -2.0 * s * math.log(2.0)
        + math.log(math.pi)
        - 2.0 * gammaln(s + 0.5)
        + gammaln(j + 2.0 * s + 1.0)
        - gammaln(j + 1.0)
        - np.log(j + s + 0.5)
    )
    return np.exp(0.5 * log_h2)


class _Barycentric:
    """Exact evaluation on (-1, 1) of a polynomial of degree < m from its
    values at the m Chebyshev points of the second kind."""

    def __init__(self, m: int):
        k = np.arange(m)
        self.t = np.cos(np.pi * k / (m - 1))[::-1]
        w = (-1.0) ** k
        w[0] *= 0.5
        w[-1] *= 0.5
        # reversing the points multiplies every weight by one common
        # sign, which cancels in the barycentric quotient
        self.w = w
        self.values = None

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        d = t[:, None] - self.t[None, :]
        hit = d == 0.0
        d[hit] = 1.0
        r = self.w / d
        out = (r @ self.values) / r.sum(axis=1)
        rows, cols = np.nonzero(hit)
        out[rows] = self.values[cols]
        return out


class IntervalSolution:
    """u = omega^s phi and u' on (a, b), from normalized coefficients.

    phi and q = omega^(1-s) u' are polynomials in the reference variable
    t, so they are interpolated exactly in t; only the singular factor
    (z-a)(b-z) is formed in x.
    """

    def __init__(self, coeffs, s: float, a: float, b: float):
        c = np.asarray(coeffs, dtype=float)
        n = c.size - 1
        self.s, self.a, self.b = s, a, b
        alpha = s + 0.5
        scaled = c / norm_h(n, s)
        # phi has degree n and q degree n+1 in t
        self.phi = _Barycentric(n + 2)
        self.q = _Barycentric(n + 2)
        t = self.phi.t
        phi_vals = scaled @ gegenbauer_table(n, alpha, t)
        if n >= 1:
            # d/dt C_j^alpha = 2 alpha C_{j-1}^alpha+1
            dphi_dt = 2.0 * alpha * (scaled[1:] @ gegenbauer_table(n - 1, alpha + 1.0, t))
        else:
            dphi_dt = np.zeros_like(t)
        self.phi.values = phi_vals
        # omega = (L/2)^2 (1-t^2), omega' = -L t, d/dx = (2/L) d/dt
        self.q.values = (b - a) * (-s * t * phi_vals + 0.5 * (1.0 - t * t) * dphi_dt)

    def moved(self, shift: float) -> "IntervalSolution":
        """The same solution translated by shift (the operator commutes
        with translation)."""
        other = object.__new__(IntervalSolution)
        other.__dict__.update(self.__dict__)
        other.a = self.a + shift
        other.b = self.b + shift
        return other

    def reference(self, z):
        """The reference variable t in (-1, 1) of the points z."""
        return (2.0 * z - self.a - self.b) / (self.b - self.a)

    def u(self, z):
        z = np.asarray(z, dtype=float)
        return ((z - self.a) * (self.b - z)) ** self.s * self.phi(self.reference(z)).reshape(z.shape)

    def uprime(self, z):
        z = np.asarray(z, dtype=float)
        return ((z - self.a) * (self.b - z)) ** (self.s - 1.0) * self.q(self.reference(z)).reshape(z.shape)


def oracle_points(intervals, per_interval: int, rng) -> list[tuple[int, float]]:
    """Points EDGE of the length inside both ends of every interval, where
    an unresolved coupling shows first, plus seeded points in the middle."""
    points = []
    for i, (a, b) in enumerate(intervals):
        for t in (EDGE, 1.0 - EDGE, *rng.uniform(0.1, 0.9, per_interval)):
            points.append((i, a + t * (b - a)))
    return points


def oracle_residual(blocks, s: float, intervals, rhs, points) -> float:
    """max |(-Lap)^s u - f| / max |f| over the given (interval, x) points.

    Each point is evaluated in a frame whose origin is the nearest end of
    its interval: the oracle's distances to that end then carry no
    rounding from the interval's position.
    """
    sols = [IntervalSolution(c, s, a, b) for c, (a, b) in zip(blocks, intervals)]
    worst = 0.0
    scale = 0.0
    for i, x in points:
        a, b = intervals[i]
        shift = -(a if x - a < b - x else b)
        moved = [sol.moved(shift) for sol in sols]
        value = pv_apply(moved[i].uprime, x + shift, s, (moved[i].a, moved[i].b), PV_INTERIOR)
        for k, sol in enumerate(moved):
            if k != i:
                value += pv_exterior(sol.u, x + shift, s, (sol.a, sol.b), PV_EXTERIOR)
        f = float(rhs(np.array([x]))[0])
        worst = max(worst, abs(value - f))
        scale = max(scale, abs(f))
    return worst / max(scale, 1e-300)


def coefficient_digits(blocks, ref_blocks) -> float:
    """-log10 of the relative coefficient-norm difference, zero-padded."""
    diff = 0.0
    norm = 0.0
    for c, r in zip(blocks, ref_blocks):
        m = max(len(c), len(r))
        cp = np.zeros(m)
        rp = np.zeros(m)
        cp[: len(c)] = c
        rp[: len(r)] = r
        diff += float(np.sum((cp - rp) ** 2))
        norm += float(np.sum(rp**2))
    if diff == 0.0:
        return 17.0  # identical: more digits than a double holds
    return -0.5 * math.log10(diff / norm)


def max_relative_difference(blocks, other_blocks) -> float:
    scale = max(float(np.max(np.abs(b))) for b in blocks)
    return max(float(np.max(np.abs(np.asarray(b) - np.asarray(o)))) for b, o in zip(blocks, other_blocks)) / scale


def fitted_order(ns, errors) -> float:
    """Least-squares algebraic order p of err ~ N^-p."""
    slope = np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(errors, float)), 1)[0]
    return float(-slope)


def super_algebraic(ns, errors) -> bool:
    """Smooth data: the local order grows from row to row until the error
    reaches the roundoff floor, and the finest row is on that floor."""
    above = [(n, e) for n, e in zip(ns, errors) if e > ERROR_FLOOR]
    if errors[-1] > ERROR_FLOOR or len(above) < 3:
        return False
    orders = [
        math.log(e0 / e1) / math.log(n1 / n0) for (n0, e0), (n1, e1) in zip(above, above[1:])
    ]
    return all(o1 > o0 for o0, o1 in zip(orders, orders[1:]))


def absx_orders_ok(ns, err_l2, err_h2s) -> tuple[bool, float, float]:
    p_l2 = fitted_order(ns, err_l2)
    p_h = fitted_order(ns, err_h2s)
    ok = ABSX_L2_ORDER[0] <= p_l2 <= ABSX_L2_ORDER[1] and ABSX_H2S_ORDER[0] <= p_h <= ABSX_H2S_ORDER[1]
    return ok, p_l2, p_h
