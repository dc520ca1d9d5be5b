"""Gauss-Jacobi rules for the symmetric weight (1-x^2)^alpha on [-1,1],
with affine mapping to arbitrary intervals.

Construction is Golub-Welsch: the symmetric tridiagonal Jacobi matrix is
assembled from the known three-term recurrence coefficients and
diagonalized; weights come from the first components of the normalized
eigenvectors scaled by the total weight mass (a Beta-function identity,
so no quadrature bootstrap is needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= a or nodes[-1] >= b:
            raise ValueError("nodes must lie strictly inside the interval")
        if np.any(weights <= 0.0):
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
        rule = QuadratureRule(alpha, np.array([0.0]), np.array([mass]))
    else:
        k = np.arange(1, n + 1, dtype=float)
        beta = k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0))
        try:
            nodes, vecs = eigh_tridiagonal(np.zeros(n + 1), np.sqrt(beta))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError(f"eigen-solver failed for rule n={n}, alpha={alpha}") from exc
        weights = mass * vecs[0, :] ** 2
        order = np.argsort(nodes)
        nodes = nodes[order]
        weights = weights[order]
        # De-skew eigen-solver noise: enforce the exact mirror symmetry of
        # the symmetric weight by averaging reflected pairs.
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        rule = QuadratureRule(alpha, nodes, weights)
    return rule


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
