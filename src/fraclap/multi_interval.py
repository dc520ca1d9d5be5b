"""Multi-interval Nystrom solver for the fractional Dirichlet problem.

On each interval the solution factors as u_j = omega_j^s phi_j; the
single-interval operator K_s is diagonal in the Gegenbauer basis, and
the coupling between intervals is the off-diagonal remainder R_s with
the smooth kernel -C_1(s)|x-y|^{-1-2s} (|x-y| >= gap > 0 across
distinct intervals).  The discrete system is the second-kind equation

    (I + K^-1 R V) phi = K^-1 F

over the concatenated coefficient vectors phi, with V their node
values.  Once (domain, s, N) is fixed the discrete operator is a
constant, and GMRES only applies it; iteration counts stay bounded as
the resolution grows.  What depends on the domain is built per solve:
the rules mapped onto the intervals and one kernel block per interval
against all later intervals.  What depends on (N, s) alone, the
reference block of the transform pair, is the same for every interval
and every domain; it comes from gegenbauer.gauss_basis, which shares
recurring blocks between solves and serves all intervals of one
resolution at once, as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerCoeffs, gauss_basis
from .quadrature import map_to_interval
from .specfun import DomainError, c1_constant, s_value


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
    residual_history: np.ndarray

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("solution needs at least one coefficient block")

    @property
    def gmres_iterations(self) -> int:
        """GMRES iterations taken (0 without GMRES)."""
        return len(self.residual_history) - 1

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


def _coupling_kernels(nodes, offsets, sv):
    """The kernel |x - y|^{-1-2s} from each interval j to all later ones:
    block j holds |x_i^(j) - y_k|^{-1-2s} for y = nodes[offsets[j+1]:].
    The other direction is the transpose, so it is not stored.
    """
    return [
        np.abs(nodes[lo:hi, None] - nodes[None, hi:]) ** (-1.0 - 2.0 * sv)
        for lo, hi in zip(offsets[:-2], offsets[1:-1])
    ]


def _apply_coupling(kernels, offsets, weighted, c1):
    """-C_1 sum_{l != j} K_jl v_l at the nodes of every interval j, from
    the blocks of _coupling_kernels and the concatenated weighted values v."""
    acc = np.zeros(weighted.size)
    for kernel, lo, hi in zip(kernels, offsets, offsets[1:]):
        acc[lo:hi] += kernel @ weighted[hi:]
        acc[hi:] += kernel.T @ weighted[lo:hi]
    return -c1 * acc


def gmres(apply_A, rhs, tol: float = 1e-13) -> GMRESResult:
    """Matrix-free GMRES: full orthogonalization (no restart), modified
    Gram-Schmidt, Givens-rotation least squares, at most one iteration
    per unknown.  The history holds the relative residual after each
    iteration (starting at 1); happy breakdown counts as convergence.
    The Hessenberg matrix grows by one column per iteration, so storage
    follows the iterations taken, not the unknown count.  b is divided
    by the power of two 2^e with 2^(e-1) <= max|b| < 2^e and x multiplied
    back by it, both exactly, so no norm over- or underflows at any scale
    of b.
    """
    b = np.asarray(rhs, dtype=float)
    n = b.size
    if not np.any(b):
        return GMRESResult(np.zeros(n), 0, np.array([0.0]), True)
    e = int(np.frexp(np.max(np.abs(b)))[1])
    b = np.ldexp(b, -e)
    normb = float(np.linalg.norm(b))

    basis = [b / normb]
    columns = []  # column k of the rotated Hessenberg matrix, length k+2
    cs = []
    sn = []
    g = [normb]
    history = [1.0]
    for k in range(n):
        w = np.asarray(apply_A(basis[k]), dtype=float)
        normw = np.linalg.norm(w)  # basis[k] is a unit vector, so this is the scale of column k
        h = np.zeros(k + 2)
        for i in range(k + 1):
            h[i] = np.dot(basis[i], w)
            w = w - h[i] * basis[i]
        h[k + 1] = np.linalg.norm(w)
        breakdown = h[k + 1] <= 1e-15 * normw
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
    with np.errstate(over="ignore"):  # an x past the largest double is inf
        x = np.ldexp(x, e)
    return GMRESResult(x, k_done, np.array(history), history[-1] <= tol)


class _Discretization:
    """The discrete operator of one solve, assembled once.

    Node values, weights and coefficients are concatenated: interval j
    holds entries offsets[j]:offsets[j+1].  Intervals of equal resolution
    share a reference block, taken from gauss_basis, whose transform pair
    is applied to all of them at once as one stack, so each distinct
    resolution costs two GEMMs each way however many intervals use it.
    offdiagonal is R V on coefficient vectors: node values, then one
    kernel block per interval against all later intervals (its transpose
    for the other direction); coupling takes that back to coefficients,
    K^-1 R V.
    """

    def __init__(self, domain: Domain, s, ns):
        self.sv = s_value(s)
        self.domain = domain
        members = {}
        for j, n in enumerate(ns):
            members.setdefault(n, []).append(j)
        refs = {n: gauss_basis(n, self.sv) for n in members}
        rules = [map_to_interval(refs[n].rule, a, b) for n, (a, b) in zip(ns, domain.intervals)]
        self.offsets = np.cumsum([0] + [n + 1 for n in ns])
        self.nodes = np.concatenate([rule.nodes for rule in rules])
        self.weights = np.concatenate([rule.weights for rule in rules])
        # per resolution: its block and its intervals' (intervals, n+1) positions
        self.groups = [
            (refs[n], self.offsets[js][:, None] + np.arange(n + 1)) for n, js in members.items()
        ]
        self.kernels = _coupling_kernels(self.nodes, self.offsets, self.sv)
        self.c1 = c1_constant(self.sv)

    def coeffs(self, Y):
        """Concatenated coefficient vectors of K^-1 Y."""
        out = np.empty(Y.size)
        for ref, rows in self.groups:
            out[rows] = ref.coeffs(Y[rows])
        return out

    def values(self, C):
        """Concatenated node values of the expansions C."""
        out = np.empty(C.size)
        for ref, rows in self.groups:
            out[rows] = ref.values(C[rows])
        return out

    def offdiagonal(self, C):
        """Concatenated node values of R omega^s phi for the expansions C:
        at x = y_k^(j), sum over l != j and i of
        -C_1(s) |x - y_i^(l)|^{-1-2s} phi(y_i^(l)) w_i^(l), the mapped
        weights w carrying omega^s."""
        return _apply_coupling(self.kernels, self.offsets, self.values(C) * self.weights, self.c1)

    def coupling(self, C):
        """Concatenated coefficient vectors of K^-1 R V C."""
        return self.coeffs(self.offdiagonal(C))

    def solution_blocks(self, C):
        return tuple(
            GegenbauerCoeffs(self.sv, interval, c)
            for interval, c in zip(self.domain.intervals, np.split(C, self.offsets[1:-1]))
        )


def solve(spec) -> MultiSolution:
    """Solve the Dirichlet problem of the given ProblemSpec.

    Assembles the discrete operator, samples the right-hand side in one
    call at all nodes (DomainError unless it gives one finite value per
    node) and transforms it once to C = K^-1 F (DomainError unless C is
    finite).  GMRES solves x + K^-1 R V x = C, its residual
    (final_residual) relative in the coefficients' l2 norm, which is
    phi's weighted L2 norm; phi is then C - K^-1 R V x, one refinement
    step (RuntimeError unless it is finite).  With one interval phi is C.
    """
    disc = _Discretization(spec.domain, spec.s, spec.n)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports the fault
        F = np.asarray(spec.rhs(disc.nodes), dtype=float)
    if F.shape != disc.nodes.shape:
        raise DomainError("the right-hand side does not give one value per quadrature node")
    if not np.all(np.isfinite(F)):
        raise DomainError("the right-hand side is not finite at every quadrature node")

    with np.errstate(over="ignore", invalid="ignore"):
        C = disc.coeffs(F)
    if not np.all(np.isfinite(C)):
        raise DomainError("the right-hand side's Gegenbauer coefficients overflow")
    if len(spec.domain) == 1:
        return MultiSolution(disc.solution_blocks(C), np.array([0.0]))

    result = gmres(lambda c: c + disc.coupling(c), C)
    if not result.converged:
        raise RuntimeError(
            "GMRES did not reach the requested tolerance; residual history: "
            f"{result.history.tolist()}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        phi = C - disc.coupling(result.x)
    if not np.all(np.isfinite(phi)):
        raise RuntimeError("the solution's Gegenbauer coefficients overflow")
    return MultiSolution(disc.solution_blocks(phi), result.history)
