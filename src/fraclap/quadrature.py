"""Gauss-Jacobi rules for the symmetric weight (1-x^2)^alpha on [-1,1],
the affine map of their nodes onto an interval, and jacobi_ratios, the
recurrence they run on and the package's one evaluation of Jacobi and
so of Gegenbauer polynomials (gegenbauer.py builds its values from it).

The rules are built in NumPy alone, in O(n) work per Newton pass, after
Hale & Townsend (SISC 2013).  Only the nonnegative half is computed; the
mirror image gives the rest, exactly symmetric.

- Guesses: the asymptotic nodes of Gatteschi & Pittaluga (1985),
  x_k = cos(phi_k + (1/4 - alpha^2) cot(phi_k) / (2 rho^2)) with
  rho = n + alpha + 3/2 and phi_k = (k + alpha/2 - 1/4) pi / rho; exact
  for alpha = +-1/2.
- Newton: P_{n+1} and P_n, each divided by its value at 1, come from one
  pass of jacobi_ratios over the nodes.  With m = n+1 the identity
  (1-x^2) P'_m = m (P_{m-1} - x P_m) (normalized values) gives P'_m,
  and the Jacobi equation the next three derivatives; the step is the
  root of the fourth-order Taylor polynomial (the plain Newton step
  where that step is large).  From the guesses the second pass's step
  is at roundoff for alpha in (0, 1), so a rule takes two passes, and
  one for alpha = +-1/2.  The passes stop once the step is at
  roundoff; a rule that does not get there within a few passes raises
  instead of being returned.
- Nodes: the points of the last pass, within 2 eps of the roots.  Given
  a table rows, that pass also writes P_k / P_k(1), k = 0..n, at them:
  the solver's Gegenbauer table at no extra cost.  The first pass, from
  the guesses, writes none unless the guesses are (all but) exact.
- Weights: w_i ~ (1-x_i^2) / (P_{m-1} - x_i P_m)^2 at the roots, scaled
  to the total weight mass (a Beta-function identity).  The last pass's
  values and step give them at the exact root rather than at its
  rounded double, so the endpoint weights keep full relative accuracy.

Newton from the asymptotic guesses lands on wrong roots from about
alpha = 12, so gauss_jacobi accepts alpha in (-1, 10], the range its
tests verify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a reference rule on (-1,1).

    Nodes are strictly increasing inside (-1,1) and weights positive.
    The solver uses one rule per (n, s) on every interval: K^-1 does not
    depend on the interval (affine scale invariance), so only the nodes
    are ever mapped (map_nodes).
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes and weights must be matching 1-d vectors")
        # each check fails on NaN
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not (-1.0 < nodes[0] and nodes[-1] < 1.0):
            raise ValueError("nodes must lie strictly inside (-1, 1)")
        if not np.all(weights > 0.0):
            raise ValueError("weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)

    def __len__(self) -> int:
        return self.nodes.size


def total_mass(alpha: float) -> float:
    """Integral of (1-x^2)^alpha over (-1,1): B(1/2, alpha+1).

    Gamma(alpha+1.5) overflows a double just above alpha = 170.
    """
    if not -1.0 < alpha <= 170.0:
        raise DomainError(f"Jacobi exponent must lie in (-1, 170], got {alpha}")
    return math.sqrt(math.pi) * (math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5))


# Largest exponent gauss_jacobi accepts: its node sweep test covers (-1, 10].
_MAX_ALPHA = 10.0

# Newton passes allowed; alpha in (0, 1) needs 2, alpha = 10 up to 7.
_NEWTON_PASSES = 12


def jacobi_ratios(m: int, alpha: float, x: np.ndarray, rows=None):
    """P_m and P_{m-1} of exponents (alpha, alpha) at x, each divided by
    its value at 1 (P_{-1} = 0); without rows it keeps no table.

    The recurrence carries the increments d_k = P_k - P_{k-1}, which
    hold a factor (x - 1) and so keep their accuracy near x = 1, where
    the plain three-term recurrence loses digits; near x = -1 they
    cancel, so callers take |x| and the parity of P_k.  Given rows, of
    shape (r, x.size) with r <= m + 1, it also writes P_k / P_k(1) at x
    into rows[k] for k < r; each degree's sum lands there directly, so
    the table costs no extra ufunc call.  gauss_jacobi passes rows to
    its last Newton pass only.
    """
    k = np.arange(1.0, m)
    t = 2.0 * k + 2.0 * alpha
    den = 2.0 * (k + alpha + 1.0) * (k + 2.0 * alpha + 1.0) * t
    a = t * (t + 1.0) * (t + 2.0) / den
    b = 2.0 * k * (k + alpha) * (t + 2.0) / den
    # each degree's row: those of rows, then one scratch row for the rest
    out = itertools.chain(() if rows is None else rows, itertools.repeat(np.empty_like(x)))
    p = next(out)
    p[...] = 1.0
    if m == 0:
        return p, np.zeros_like(x)
    p = next(out)
    p[...] = x  # P_1 / P_1(1) = x
    xm1 = x - 1.0
    d = xm1.copy()
    tmp = np.empty_like(x)
    # in place, five ufunc calls per degree; a_k and b_k come as 0-d
    # arrays, which a ufunc takes faster than Python floats
    for (ak, bk), row in zip(np.nditer((a, b), flags=["zerosize_ok"]), out):
        np.multiply(xm1, p, out=tmp)
        tmp *= ak
        d *= bk
        d += tmp
        np.add(p, d, out=row)
        p = row
    return p, p - d


def _newton_step(m: int, alpha: float, x, p, g, one_minus_x2):
    """The step from x to the root of P_m through its first four derivatives.

    With q = 1-x^2 and D_k = q^k P_m^(k), D_0 = P_m and D_1 = m g, and
    the Jacobi equation differentiated k times gives

        D_{k+2} = (2 alpha + 2k + 2) x D_{k+1} - (M - k (k + 2 alpha + 1)) q D_k,

    M = m (m + 2 alpha + 1).  In t = step / q the root of the Taylor
    polynomial D_0 - t D_1 + t^2 D_2 / 2 - t^3 D_3 / 6 + t^4 D_4 / 24 is
    found by Newton from the plain Newton step t0 = D_0 / D_1; each
    iteration squares the relative error, about t0 D_2 / D_1.  Where t0
    exceeds 1e-2 the polynomial is not trusted and t0 is taken.
    """
    big_m = m * (m + 2.0 * alpha + 1.0)
    t0 = p / (m * g)
    # a_k = D_k / D_1
    a2 = (2.0 * alpha + 2.0) * x - big_m * one_minus_x2 * t0
    a3 = (2.0 * alpha + 4.0) * x * a2 - (big_m - (2.0 * alpha + 2.0)) * one_minus_x2
    a4 = (2.0 * alpha + 6.0) * x * a3 - (big_m - (4.0 * alpha + 6.0)) * one_minus_x2 * a2
    t = t0
    for _ in range(3):
        poly = t * (1.0 - t * (a2 / 2.0 - t * (a3 / 6.0 - t * a4 / 24.0))) - t0
        t = t - poly / (1.0 - t * (a2 - t * (a3 / 2.0 - t * a4 / 6.0)))
    return np.where(np.abs(t0) <= 1e-2, t, t0) * one_minus_x2


def gauss_jacobi(n: int, alpha: float, rows=None) -> QuadratureRule:
    """(n+1)-point Gauss-Jacobi rule for (1-x^2)^alpha, exact to degree 2n+1.

    alpha must lie in (-1, 10].  Given rows, a float array of shape
    (n+1, n//2+1), it also fills rows[k] with P_k / P_k(1), the Jacobi
    polynomial of exponents (alpha, alpha), at the rule's nonnegative
    nodes in increasing order; the rule itself does not depend on rows.
    Only the last Newton pass writes rows; the first, from the guesses, none.
    """
    if n < 0:
        raise DomainError(f"rule index must be >= 0, got {n}")
    if not -1.0 < alpha <= _MAX_ALPHA:
        raise DomainError(f"Gauss-Jacobi exponent must lie in (-1, {_MAX_ALPHA:g}], got {alpha}")
    if rows is not None and (rows.shape != (n + 1, n // 2 + 1) or rows.dtype != np.float64):
        raise ValueError(f"rows must be a float64 array of shape {(n + 1, n // 2 + 1)}")

    mass = total_mass(alpha)
    m = n + 1
    odd = m % 2 == 1  # odd point count: the centre node is 0
    mirror = slice(1 if odd else 0, None)  # the half's nodes other than 0
    rho = m + alpha + 0.5
    phi = (np.arange((m + 1) // 2, 0, -1) + 0.5 * alpha - 0.25) * (np.pi / rho)
    x = np.cos(phi + (0.25 - alpha * alpha) / np.tan(phi) / (2.0 * rho * rho))
    if odd:
        x[0] = 0.0

    # Only the last pass need write rows.  The guesses are exact at alpha = +-1/2 and near
    # it the first step is over 0.01 |1/4 - alpha^2| / rho^2, so outside this band the
    # first pass is not the last; every later pass writes (for alpha in (0, 1) the second is last).
    last = abs(0.25 - alpha * alpha) <= 1e-12 * rho * rho
    for _ in range(_NEWTON_PASSES):
        p, prev = jacobi_ratios(m, alpha, x, rows if last else None)
        # (1-x^2) P'_m = m (P_{m-1} - x P_m); 1-x^2 as (1-x)(1+x) keeps
        # its digits near the endpoint
        g = prev - x * p
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        step = _newton_step(m, alpha, x, p, g, one_minus_x2)
        if odd:
            step[0] = 0.0
        if np.max(np.abs(step)) <= 2.0 * np.finfo(float).eps:
            break
        x = x - step
        last = True
    else:
        raise RuntimeError(
            f"Gauss-Jacobi Newton iteration did not converge for n={n}, alpha={alpha}"
        )
    if rows is not None and not last:  # n = 0: the first pass was the last
        jacobi_ratios(m, alpha, x, rows)

    # The nodes are this last pass's points, where rows was filled; they
    # are within 2 eps of the root r = x - step.  The weights
    # (1-r^2) / g(r)^2 are taken at r itself, which this pass knows
    # better than any double can hold it: 1 - r is formed from the exact
    # 1 - x, and g(r)^2 = g(x)^2 (1 - 4 alpha x step / (1-x^2)) to first
    # order (the Jacobi equation gives g'/g = 2 alpha x / (1-x^2) at a
    # root).  This keeps the endpoint weights to full relative accuracy,
    # where one rounding of x would cost eps / (1 - x).
    u = ((1.0 - x) + step) * ((1.0 + x) - step) / (g * g)
    u *= 1.0 + 4.0 * alpha * x * step / one_minus_x2
    u *= mass / (u.sum() + u[mirror].sum())
    nodes = np.concatenate((-x[mirror][::-1], x))
    weights = np.concatenate((u[mirror][::-1], u))
    return QuadratureRule(nodes, weights)


def map_nodes(rule: QuadratureRule, a: float, b: float) -> np.ndarray:
    """The nodes of a reference rule mapped affinely onto (a, b); DomainError
    unless they are strictly increasing inside it in double precision, as
    they are not for a >= b, on an interval short beside its offset
    (neighbours round together) or longer than the largest double
    (b - a is inf)."""
    nodes = a + 0.5 * (b - a) * (rule.nodes + 1.0)
    if not (a < nodes[0] and nodes[-1] < b and np.all(np.diff(nodes) > 0.0)):
        raise DomainError(
            f"the {len(rule)} nodes mapped to the interval ({a}, {b}) are not strictly "
            "increasing inside it in double precision"
        )
    return nodes
