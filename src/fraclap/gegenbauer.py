"""Gegenbauer polynomials C_j^{(alpha)} and the discrete transform pair in
the normalized basis C~_j = C_j^{(s+1/2)} / h_j.

Values come from quadrature.jacobi_ratios at |x|, the recurrence being
accurate near +1 only: C_j(x) = C_j(1) P_j(|x|) / P_j(1), negated for
odd j at x < 0, with C_j(1) = (2 alpha)_j / j!.  The transforms fold
C_j(1) / h_j and the sign into their coefficient or weight vector and
act with the table's even and odd rows, so no pass rescales the table.

Coefficient vectors are always stored against the reference variable
on [-1,1]; the attached interval only enters through the affine
pullback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule, jacobi_ratios
from .specfun import DomainError, s_value, spectrum


@dataclass(frozen=True)
class GegenbauerCoeffs:
    """Coefficients against the normalized basis C~_j^{(s+1/2)}.

    Entry j multiplies C~_j evaluated in the reference variable
    xt = 2(x-a)/(b-a) - 1; the fractional order s is stored as a float.
    """

    s: float
    interval: tuple[float, float]
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", s_value(self.s))
        a, b = self.interval
        if not a < b:
            raise DomainError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a 1-d vector of length >= 1")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return self.coeffs.size


def _at_one(n: int, alpha: float) -> np.ndarray:
    """C_j^{(alpha)}(1) = (2 alpha)_j / j! for j = 0..n, once n and alpha are checked."""
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if not alpha > -0.5:  # fails on NaN
        raise DomainError(f"Gegenbauer parameter must exceed -1/2, got {alpha}")
    j = np.arange(1.0, n + 1.0)
    return np.cumprod(np.concatenate(([1.0], ((j - 1.0) + 2.0 * alpha) / j)))


def eval_gegenbauer_batch(n: int, alpha: float, x) -> np.ndarray:
    """All C_j^{(alpha)}(x), j = 0..n, of shape (n+1,) + shape(x); any real x."""
    at_one = _at_one(n, alpha)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    rows = np.empty((n + 1, flat.size))
    jacobi_ratios(n, alpha - 0.5, np.abs(flat), rows)
    rows[1::2, flat < 0] *= -1.0
    rows *= at_one[:, None]
    return rows.reshape((n + 1,) + x.shape)


def eval_gegenbauer(n: int, alpha: float, x):
    """C_n^{(alpha)}(x), in O(n) work and O(size(x)) memory."""
    at_one = _at_one(n, alpha)[n]
    x = np.asarray(x, dtype=float)
    p, _ = jacobi_ratios(n, alpha - 0.5, np.abs(x).reshape(-1))
    p *= np.where(x.reshape(-1) < 0, (-1.0) ** n * at_one, at_one)
    return p.reshape(x.shape)[()]


def norm_vector(n: int, s) -> np.ndarray:
    """h_j^{(s+1/2)} for j = 0..n."""
    return spectrum(n, s)[1]


def _reference_rule_view(rule: QuadratureRule):
    """Nodes and weights of the rule pulled back to the reference frame."""
    if rule.interval == (-1.0, 1.0):
        return rule.nodes, rule.weights
    a, b = rule.interval
    half = 0.5 * (b - a)
    ref_x = (rule.nodes - 0.5 * (a + b)) / half
    ref_w = rule.weights / half ** (2.0 * rule.alpha + 1.0)
    return ref_x, ref_w


def forward_transform(values, rule: QuadratureRule, s) -> GegenbauerCoeffs:
    """Discrete coefficients f_j = (1/h_j) sum_i f(x_i) C_j(x_i) w_i, j = 0..n.

    The coefficients are tagged with the rule's interval.  The inner
    product is always formed in the reference frame, so a mapped rule is
    first pulled back; this makes coefficient vectors of affinely
    related data identical across intervals.  Exact to roundoff
    whenever deg(f) + j <= 2n+1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size != len(rule):
        raise ValueError(f"expected {len(rule)} node values, got shape {values.shape}")
    sv = s_value(s)
    if abs(rule.alpha - sv) > 1e-12:
        raise ValueError(f"rule weight exponent {rule.alpha} does not match s = {sv}")
    ref_x, ref_w = _reference_rule_view(rule)
    n = len(rule) - 1
    rows = np.empty((n + 1, n + 1))
    jacobi_ratios(n, sv, np.abs(ref_x), rows)
    weighted = values * ref_w
    coeffs = np.empty(n + 1)
    coeffs[0::2] = rows[0::2] @ weighted
    coeffs[1::2] = rows[1::2] @ np.where(ref_x < 0, -weighted, weighted)
    coeffs *= _at_one(n, sv + 0.5) / norm_vector(n, sv)
    a, b = rule.interval
    return GegenbauerCoeffs(sv, (float(a), float(b)), coeffs)


def evaluate_expansion(c: GegenbauerCoeffs, x):
    """Sum_j c_j C~_j^{(s+1/2)}(xt) at x (scalar or array), xt the reference variable."""
    a, b = c.interval
    xt = 2.0 * (np.asarray(x, dtype=float) - a) / (b - a) - 1.0
    n = len(c) - 1
    flat = xt.reshape(-1)
    rows = np.empty((n + 1, flat.size))
    jacobi_ratios(n, c.s, np.abs(flat), rows)
    scaled = c.coeffs * _at_one(n, c.s + 0.5) / norm_vector(n, c.s)
    even = scaled[0::2] @ rows[0::2]
    odd = scaled[1::2] @ rows[1::2]
    result = np.where(flat < 0, even - odd, even + odd)
    return result.reshape(xt.shape) if xt.shape else float(result[0])
