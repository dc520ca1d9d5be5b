"""Gegenbauer polynomial evaluation and the discrete transform pair in
the normalized basis C~_j = C_j^{(s+1/2)} / h_j.

Coefficient vectors are always stored against the reference variable
on [-1,1]; the attached interval only enters through the affine
pullback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureRule
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


def eval_gegenbauer_batch(n: int, alpha: float, x) -> np.ndarray:
    """All C_j^{(alpha)}(x) for j = 0..n in one recurrence pass.

    Returns an array of shape (n+1,) + shape(x).  The three-term
    recurrence is global in x, so arguments outside [-1,1] are fine.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if alpha <= -0.5:
        raise DomainError(f"Gegenbauer parameter must exceed -1/2, got {alpha}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = 2.0 * alpha * x
    for j in range(2, n + 1):
        out[j] = (2.0 * x * (j + alpha - 1.0) * out[j - 1] - (j + 2.0 * alpha - 2.0) * out[j - 2]) / j
    return out


def eval_gegenbauer(n: int, alpha: float, x):
    """C_n^{(alpha)}(x) by the three-term recurrence, O(n) per point."""
    return eval_gegenbauer_batch(n, alpha, x)[n]


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
    table = eval_gegenbauer_batch(n, sv + 0.5, ref_x)
    coeffs = table @ (values * ref_w) / norm_vector(n, sv)
    a, b = rule.interval
    return GegenbauerCoeffs(sv, (float(a), float(b)), coeffs)


def evaluate_expansion(c: GegenbauerCoeffs, x):
    """Sum_j c_j C~_j^{(s+1/2)}(xt) at x (scalar or array), xt the reference variable."""
    a, b = c.interval
    xt = 2.0 * (np.asarray(x, dtype=float) - a) / (b - a) - 1.0
    n = len(c) - 1
    table = eval_gegenbauer_batch(n, c.s + 0.5, xt)
    result = (c.coeffs / norm_vector(n, c.s)) @ table.reshape(n + 1, -1)
    return result.reshape(xt.shape) if xt.shape else float(result[0])
