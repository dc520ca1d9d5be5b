"""Gauss-Jacobi rules for the symmetric weight (1-x^2)^alpha on [-1,1],
with affine mapping to arbitrary intervals.

Nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
the three-term recurrence, polished by one Newton step on P_{n+1}^{(a,a)}
(scipy's compiled recurrence).  Weights follow from the derivative
formula w_i ~ 1/((1-x_i^2) P'_{n+1}(x_i)^2) at the polished nodes,
scaled to the total weight mass (a Beta-function identity), so no
eigenvector matrix is formed.  Only the nonnegative half is computed; the
mirror image gives the rest, exactly symmetric.  scipy's roots_jacobi is
not used: it takes its weights from the derivative before the Newton
step and forms 1-x^2 directly, which costs endpoint weights about three
digits at n = 1024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import eval_jacobi

from .specfun import DomainError


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for the weight (x-a)^alpha (b-x)^alpha on (a,b).

    Reference rules live on (-1,1); mapped rules carry their interval.
    Nodes are strictly increasing, weights positive, and the node set is
    symmetric about the interval midpoint.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        a, b = self.interval
        if self.alpha <= -1.0:
            raise DomainError(f"Jacobi exponent must exceed -1, got {self.alpha}")
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes and weights must be matching 1-d vectors")
        # each check fails on NaN
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not (a < nodes[0] and nodes[-1] < b):
            raise ValueError("nodes must lie strictly inside the interval")
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


def gauss_jacobi(n: int, alpha: float) -> QuadratureRule:
    """(n+1)-point Gauss-Jacobi rule for (1-x^2)^alpha, exact to degree 2n+1."""
    if n < 0:
        raise DomainError(f"rule index must be >= 0, got {n}")

    mass = total_mass(alpha)
    if n == 0:
        return QuadratureRule(alpha, np.array([0.0]), np.array([mass]))

    # Squared off-diagonal of the Jacobi matrix; beta_1 in its cancelled
    # form, which the general formula leaves as 0/0 at alpha = -1/2.
    k = np.arange(2, n + 1, dtype=float)
    beta = np.concatenate((
        [1.0 / (2.0 * alpha + 3.0)],
        k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0)),
    ))
    odd = n % 2 == 0  # odd point count: the centre node is 0
    x = eigvalsh_tridiagonal(np.zeros(n + 1), np.sqrt(beta))[(n + 1) // 2 :]
    mirror = slice(1 if odd else 0, None)  # the half's nodes other than 0

    # P'_{n+1}^{(a,a)} = (n+2a+2)/2 * P_n^{(a+1,a+1)}; integer degrees keep
    # eval_jacobi on its recurrence rather than the hypergeometric path.
    def derivative(t):
        return 0.5 * (n + 2.0 * alpha + 2.0) * eval_jacobi(n, alpha + 1.0, alpha + 1.0, t)

    x = x - eval_jacobi(n + 1, alpha, alpha, x) / derivative(x)
    if odd:
        x[0] = 0.0

    # Weights from the derivative at the polished nodes.  Scaling d, then
    # u, to a largest entry of 1 keeps d^2 and 1/q in range at large alpha.
    d = derivative(x)
    q = (1.0 - x) * (1.0 + x) * (d / np.max(np.abs(d))) ** 2
    u = q.min() / q
    u *= mass / (u.sum() + u[mirror].sum())
    nodes = np.concatenate((-x[mirror][::-1], x))
    weights = np.concatenate((u[mirror][::-1], u))
    return QuadratureRule(alpha, nodes, weights)


def map_to_interval(rule: QuadratureRule, a: float, b: float) -> QuadratureRule:
    """Affine image of a reference rule, integrating against (y-a)^alpha (b-y)^alpha."""
    if a >= b:
        raise DomainError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
    if rule.interval != (-1.0, 1.0):
        raise ValueError("only reference rules on (-1,1) can be mapped")
    half = 0.5 * (b - a)
    nodes = a + half * (rule.nodes + 1.0)
    weights = rule.weights * half ** (2.0 * rule.alpha + 1.0)
    return QuadratureRule(rule.alpha, nodes, weights, interval=(a, b))
