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
the reference block of K^-1 (Gauss-Jacobi rule, Gegenbauer table,
spectrum), is the same for every interval and every domain, so the
process keeps the blocks of keys that recur and shares them, read-only,
between solves and threads.  A block is kept only from the second
request for its key on: a sweep over fresh orders or resolutions never
asks twice, and holding its large tables would only grow the heap.  The
kept blocks are evicted least-recently-used beyond a fixed byte budget.

The Gauss-Jacobi nodes are symmetric about 0 and C_j(-x) = (-1)^j C_j(x),
so each table holds only the nonnegative half of its nodes: the even
modes see the sum of mirrored node values and the odd modes their
difference.  K^-1 is applied to all intervals of one resolution at
once, as two GEMMs with the table's even and odd rows each way.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .gegenbauer import GegenbauerCoeffs, eval_gegenbauer_batch
from .operator_core import c1_constant
from .quadrature import gauss_jacobi, map_to_interval
from .specfun import DomainError, s_value, spectrum

_log = logging.getLogger(__name__)


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


class _ReferenceBlock:
    """K^-1 for every interval of resolution n, in the reference frame.

    Holds the Gauss-Jacobi rule, the half-width table
    T[j, i] = C_j^{(s+1/2)}(x_i) on the rule's ceil((n+1)/2) nonnegative
    nodes, the norms h_j and the eigenvalues lambda_j.  K^-1 is
    interval-independent in this frame (affine scale invariance), so
    all intervals of resolution n share one block.

    The rule is exactly symmetric and C_j(-x) = (-1)^j C_j(x), so the
    even rows of T act on the sum of each node's value and its mirror
    image's, and the odd rows on their difference; the centre node of
    an odd-sized rule is counted once.  coeffs and values work on the
    last axis, so one call serves a stack of intervals: two GEMMs each
    way, with the strided row views T[0::2] and T[1::2].
    """

    def __init__(self, n: int, sv: float):
        self.rule = gauss_jacobi(n, sv)
        self.lower = (n + 1) // 2  # nodes below 0; rule.nodes[lower:] are the rest
        self.centre = (n + 1) % 2  # 1 when 0 is a node
        self.table = eval_gegenbauer_batch(n, sv + 0.5, self.rule.nodes[self.lower:])
        self.lam, self.norms = spectrum(n, sv)
        for a in (self.table, self.lam, self.norms):  # shared between solves, as the rule is
            a.setflags(write=False)
        arrays = (self.table, self.lam, self.norms, self.rule.nodes, self.rule.weights)
        self.nbytes = sum(a.nbytes for a in arrays)

    def coeffs(self, values):
        """Coefficients phi_j = f_j / lambda_j of K^-1 f, from the node values of f."""
        weighted = values * self.rule.weights
        mirrored = weighted[..., : self.lower][..., ::-1]
        plus = weighted[..., self.lower:].copy()
        minus = plus.copy()
        plus[..., self.centre:] += mirrored
        minus[..., self.centre:] -= mirrored
        out = np.empty(weighted.shape)
        out[..., 0::2] = plus @ self.table[0::2].T
        out[..., 1::2] = minus @ self.table[1::2].T
        return out / self.norms / self.lam

    def values(self, coeffs):
        """Node values of sum_j c_j C~_j."""
        scaled = coeffs / self.norms
        even = scaled[..., 0::2] @ self.table[0::2]
        odd = scaled[..., 1::2] @ self.table[1::2]
        below = (even - odd)[..., self.centre:][..., ::-1]
        return np.concatenate((below, even + odd), axis=-1)


# Bytes of reference blocks the process keeps, and how many (n, s) keys
# it remembers to tell a recurring key from a new one.
_MEMO_BYTES = 32 * 2**20
_MEMO_KEYS = 256


class _BlockMemo:
    """Reference blocks by (n, s), kept once their key recurs.

    The first request for a key builds a block and remembers only the
    key; a later request builds it again and keeps it (unless it alone
    exceeds _MEMO_BYTES), and requests after that share it.  Kept blocks
    are evicted least-recently-used to stay within _MEMO_BYTES, and the
    remembered keys are the _MEMO_KEYS most recent.  Blocks are built
    outside the lock, so two threads may build the same one; the first
    to finish is kept.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._blocks = OrderedDict()  # key -> block, least recently used first
        self._seen = OrderedDict()  # keys requested, least recently first
        self._bytes = 0

    def get(self, n: int, sv: float) -> _ReferenceBlock:
        key = (n, sv)
        with self._lock:
            block = self._blocks.get(key)
            if block is not None:
                self._blocks.move_to_end(key)
                return block
            recurs = self._seen.pop(key, False)
            self._seen[key] = True
            if len(self._seen) > _MEMO_KEYS:
                self._seen.popitem(last=False)
        block = _ReferenceBlock(n, sv)
        _log.debug("reference block n=%d s=%r built: %d bytes", n, sv, block.nbytes)
        if not recurs or block.nbytes > _MEMO_BYTES:
            return block
        evicted = []
        with self._lock:
            kept = self._blocks.setdefault(key, block)
            if kept is block:
                self._bytes += block.nbytes
                while self._bytes > _MEMO_BYTES:
                    old_key, old = self._blocks.popitem(last=False)
                    self._bytes -= old.nbytes
                    evicted.append((old_key, old.nbytes))
        if kept is block:
            _log.debug("reference block n=%d s=%r retained: %d bytes", n, sv, block.nbytes)
        for (old_n, old_sv), size in evicted:
            _log.debug("reference block n=%d s=%r evicted: %d bytes", old_n, old_sv, size)
        return kept


_MEMO = _BlockMemo()


class _Discretization:
    """The discrete operator of one solve, assembled once.

    Intervals of equal resolution share a _ReferenceBlock, taken from
    _MEMO, and K^-1 is applied to all of them at once: their node values
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
        refs = {n: _MEMO.get(n, self.sv) for n in members}
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
    nodes (DomainError unless every sample is finite), and iterates
    GMRES on Y -> Y + K^-1 R Y.  With a single interval the remainder
    vanishes: the coefficients are K^-1 F and GMRES is skipped.
    """
    disc = _Discretization(spec.domain, spec.s, spec.n)
    F = np.concatenate([np.asarray(spec.rhs(rule.nodes), dtype=float) for rule in disc.rules])
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
