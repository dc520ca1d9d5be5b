"""Multi-interval Nystrom solver for the fractional Dirichlet problem.

On each interval the solution factors as u_j = omega_j^s phi_j; the
single-interval operator K_s is diagonal in the Gegenbauer basis, and
the coupling between intervals is the off-diagonal remainder R_s with
the smooth kernel -C_1(s)|x-y|^{-1-2s} (|x-y| >= gap > 0 across
distinct intervals).  The discrete system is the second-kind equation

    (I + K^-1 R) Y = K^-1 F

over the concatenated node values Y of phi.  Once (domain, s, N) is
fixed the discrete operator is a constant, and GMRES only applies it;
iteration counts stay bounded as the resolution grows.  What depends on
the domain is built per solve: the rules mapped onto the intervals and
one kernel block per pair of intervals.  What depends on (N, s) alone,
the reference block of K^-1, is the same for every interval and every
domain; it comes from gegenbauer.gauss_basis, which holds the discrete
transform pair and shares recurring blocks between solves.  K^-1 is
applied to all intervals of one resolution at once, as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerCoeffs, gauss_basis
from .operator_core import c1_constant
from .quadrature import map_to_interval
from .specfun import DomainError, s_value


@dataclass(frozen=True)
class Domain:
    """Ordered list of open intervals with strictly disjoint closures."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise DomainError("domain needs at least one interval")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"interval endpoints must be finite, got ({a}, {b})")
            if not a < b:
                raise DomainError(f"interval endpoints must satisfy a < b, got ({a}, {b})")
        for (a0, b0), (a1, b1) in zip(ivs, ivs[1:]):
            if not b0 < a1:
                raise DomainError(
                    f"intervals ({a0}, {b0}) and ({a1}, {b1}) must be ordered with disjoint closures"
                )
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class MultiSolution:
    """Per-interval regular factors phi plus solver diagnostics."""

    blocks: tuple[GegenbauerCoeffs, ...]
    gmres_iterations: int
    residual_history: np.ndarray

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("solution needs at least one coefficient block")

    @property
    def final_residual(self) -> float:
        """Relative residual of the last GMRES iteration (0 without GMRES)."""
        return float(self.residual_history[-1])


@dataclass(frozen=True)
class GMRESResult:
    x: np.ndarray
    iterations: int
    history: np.ndarray
    converged: bool


def _coupling_kernels(rules, sv):
    """The kernel |x - y|^{-1-2s} between the nodes of each pair of
    rules j < l, as (j, l, block) with block[i, k] = |x_i^(j) - y_k^(l)|^{-1-2s}.
    The pair's other direction is the transpose, so it is not stored.
    """
    return [
        (j, ell, np.abs(rules[j].nodes[:, None] - rules[ell].nodes[None, :]) ** (-1.0 - 2.0 * sv))
        for j in range(len(rules))
        for ell in range(j + 1, len(rules))
    ]


def _apply_coupling(kernels, weighted, c1):
    """-C_1 sum_{l != j} K_jl v_l for every interval j, from the blocks
    of _coupling_kernels (K_lj = K_jl^T) and the weighted values v_l."""
    acc = [np.zeros(v.size) for v in weighted]
    for j, ell, kernel in kernels:
        acc[j] += kernel @ weighted[ell]
        acc[ell] += kernel.T @ weighted[j]
    return [-c1 * a for a in acc]


def apply_offdiagonal(phi, rules, s):
    """Values of R_s phi at every node: for x = y_k^(j),

        sum_{l != j} sum_i  -C_1(s) |x - y_i^(l)|^{-1-2s} phi(y_i^(l)) w_i^(l),

    where the mapped Gauss-Jacobi weights w already carry the edge
    weight omega^s.  phi holds one node-value vector per rule.  Returns
    a list of per-interval value vectors.
    """
    sv = s_value(s)
    if len(phi) != len(rules):
        raise ValueError("need one phi block per quadrature rule")
    weighted = []
    for block, rule in zip(phi, rules):
        block = np.asarray(block, dtype=float)
        if block.size != len(rule):
            raise ValueError("phi node values do not match rule size")
        weighted.append(block * rule.weights)
    return _apply_coupling(_coupling_kernels(rules, sv), weighted, c1_constant(sv))


def gmres(apply_A, rhs, tol: float = 1e-13) -> GMRESResult:
    """Matrix-free GMRES: full orthogonalization (no restart), modified
    Gram-Schmidt, Givens-rotation least squares, at most one iteration
    per unknown.  The history holds the relative residual after each
    iteration (starting at 1); happy breakdown counts as convergence.
    The Hessenberg matrix grows by one column per iteration, so storage
    follows the iterations taken, not the unknown count.
    """
    b = np.asarray(rhs, dtype=float)
    n = b.size
    normb = float(np.linalg.norm(b))
    if normb == 0.0:
        return GMRESResult(np.zeros(n), 0, np.array([0.0]), True)

    basis = [b / normb]
    columns = []  # column k of the rotated Hessenberg matrix, length k+2
    cs = []
    sn = []
    g = [normb]
    history = [1.0]
    for k in range(n):
        w = np.asarray(apply_A(basis[k]), dtype=float)
        h = np.zeros(k + 2)
        for i in range(k + 1):
            h[i] = np.dot(basis[i], w)
            w = w - h[i] * basis[i]
        h[k + 1] = np.linalg.norm(w)
        breakdown = h[k + 1] <= 1e-15 * normb
        if not breakdown:
            basis.append(w / h[k + 1])
        # apply accumulated rotations to the new column, then a fresh one
        for i in range(k):
            hi = cs[i] * h[i] + sn[i] * h[i + 1]
            h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
            h[i] = hi
        r = np.hypot(h[k], h[k + 1])
        cs.append(h[k] / r)
        sn.append(h[k + 1] / r)
        h[k] = r
        h[k + 1] = 0.0
        g.append(-sn[k] * g[k])
        g[k] = cs[k] * g[k]
        columns.append(h)
        history.append(abs(g[k + 1]) / normb)
        if breakdown or history[-1] <= tol:
            break

    k_done = len(columns)
    H = np.zeros((k_done, k_done))
    for k, h in enumerate(columns):
        H[: k + 1, k] = h[: k + 1]
    y = np.linalg.solve(H, g[:k_done]) if k_done else np.zeros(0)
    x = np.zeros(n)
    for i in range(k_done):
        x += y[i] * basis[i]
    return GMRESResult(x, k_done, np.array(history), history[-1] <= tol)


class _Discretization:
    """The discrete operator of one solve, assembled once.

    Intervals of equal resolution share a reference block, taken from
    gauss_basis, and K^-1 is applied to all of them at once: their node values
    are gathered into one stack, so each distinct resolution costs two
    GEMMs each way however many intervals use it.  The coupling holds
    one kernel block per pair of intervals j < l and applies its
    transpose for the pair's other direction.
    """

    def __init__(self, domain: Domain, s, ns):
        self.sv = s_value(s)
        self.domain = domain
        members = {}
        for j, n in enumerate(ns):
            members.setdefault(n, []).append(j)
        refs = {n: gauss_basis(n, self.sv) for n in members}
        self.rules = [
            map_to_interval(refs[n].rule, a, b) for n, (a, b) in zip(ns, domain.intervals)
        ]
        self.offsets = np.concatenate([[0], np.cumsum([len(r) for r in self.rules])])
        # per resolution: its block, its intervals, and the (intervals, n+1)
        # positions of their node values in the concatenated vector
        self.groups = [
            (refs[n], js, self.offsets[js][:, None] + np.arange(n + 1))
            for n, js in members.items()
        ]
        self.kernels = _coupling_kernels(self.rules, self.sv)
        self.c1 = c1_constant(self.sv)

    def split(self, Y):
        return [Y[self.offsets[j]: self.offsets[j + 1]] for j in range(len(self.rules))]

    def kinv_coeffs(self, Y):
        """Per-interval coefficient vectors of K^-1 Y."""
        blocks = [None] * len(self.rules)
        for ref, js, rows in self.groups:
            for j, c in zip(js, ref.coeffs(Y[rows])):
                blocks[j] = c
        return blocks

    def kinv(self, Y):
        out = np.empty(Y.size)
        for ref, _, rows in self.groups:
            out[rows] = ref.values(ref.coeffs(Y[rows]))
        return out

    def offdiag(self, Y):
        weighted = [v * rule.weights for v, rule in zip(self.split(Y), self.rules)]
        return np.concatenate(_apply_coupling(self.kernels, weighted, self.c1))

    def solution_blocks(self, coeff_blocks):
        return tuple(
            GegenbauerCoeffs(self.sv, interval, c)
            for interval, c in zip(self.domain.intervals, coeff_blocks)
        )


def solve(spec) -> MultiSolution:
    """Solve the Dirichlet problem of the given ProblemSpec.

    Assembles the discrete operator, samples the right-hand side at the
    nodes (DomainError unless it gives one finite value per node), and
    iterates GMRES on Y -> Y + K^-1 R Y.  With a single interval the
    remainder vanishes: the coefficients are K^-1 F and GMRES is skipped.
    """
    disc = _Discretization(spec.domain, spec.s, spec.n)
    samples = [np.asarray(spec.rhs(rule.nodes), dtype=float) for rule in disc.rules]
    if any(f.shape != rule.nodes.shape for f, rule in zip(samples, disc.rules)):
        raise DomainError("the right-hand side does not give one value per quadrature node")
    F = np.concatenate(samples)
    if not np.all(np.isfinite(F)):
        raise DomainError("the right-hand side is not finite at every quadrature node")

    if len(spec.domain) == 1:
        blocks = disc.solution_blocks(disc.kinv_coeffs(F))
        return MultiSolution(blocks, 0, np.array([0.0]))

    result = gmres(lambda Y: Y + disc.kinv(disc.offdiag(Y)), disc.kinv(F), tol=spec.gmres_tol)
    if not result.converged:
        raise RuntimeError(
            "GMRES did not reach the requested tolerance; residual history: "
            f"{result.history.tolist()}"
        )
    # Final coefficients from the residual equation K phi = f - R Y,
    # which keeps the spectral (coefficient-space) representation exact
    # for the converged node values.
    blocks = disc.solution_blocks(disc.kinv_coeffs(F - disc.offdiag(result.x)))
    return MultiSolution(blocks, result.iterations, result.history)
