"""Gegenbauer polynomials C_j^{(alpha)} and the discrete transform pair in
the normalized basis C~_j = C_j^{(s+1/2)} / h_j.

Values come from quadrature.jacobi_ratios at |x|, the recurrence being
accurate near +1 only: C_j(x) = C_j(1) P_j(|x|) / P_j(1), negated for
odd j at x < 0, with C_j(1) = (2 alpha)_j / j!.  The transforms fold
C_j(1) / h_j and the sign into their coefficient or weight vector and
act with the table's even and odd rows, so no pass rescales the table.

The discrete transform pair at the Gauss-Jacobi nodes has one home: the
reference block of (n, s) from gauss_basis, through which the solver's
K^-1 runs.  It holds the rule, the table of P_j / P_j(1) that the rule's
last Newton pass writes, and the norms; coeffs(values) times the
eigenvalues lambda_j (specfun.spectrum) is the forward transform
f_j = (1/h_j) sum_i f(x_i) C_j(x_i) w_i, exact to roundoff whenever
deg(f) + j <= 2n+1.  The nodes are symmetric about 0 and
C_j(-x) = (-1)^j C_j(x), so the table covers only the nonnegative half:
even modes see the sum of mirrored node values, odd modes their
difference.  The blocks of keys that recur are kept and shared,
read-only, between solves and threads; a sweep that never repeats a key
holds no extra memory.

Coefficient vectors are always stored against the reference variable
on [-1,1]; the attached interval only enters through the affine
pullback.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_jacobi, jacobi_ratios
from .specfun import DomainError, check_addressable, s_value, spectrum

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GegenbauerCoeffs:
    """Coefficients against the normalized basis C~_j^{(s+1/2)}.

    Entry j multiplies C~_j evaluated in the reference variable
    xt = 2(x-a)/(b-a) - 1; the fractional order s is stored as a float
    and the interval as a pair of floats.
    """

    s: float
    interval: tuple[float, float]
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", s_value(self.s))
        a, b = (float(v) for v in self.interval)
        object.__setattr__(self, "interval", (a, b))
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"interval endpoints must be finite, got ({a}, {b})")
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


def eval_gegenbauer(n: int, alpha: float, x):
    """C_n^{(alpha)}(x), in O(n) work and O(size(x)) memory."""
    at_one = _at_one(n, alpha)[n]
    x = np.asarray(x, dtype=float)
    p, _ = jacobi_ratios(n, alpha - 0.5, np.abs(x).reshape(-1))
    p *= np.where(x.reshape(-1) < 0, (-1.0) ** n * at_one, at_one)
    return p.reshape(x.shape)[()]


class _ReferenceBlock:
    """K^-1 for every interval of resolution n, in the reference frame.

    Holds the Gauss-Jacobi rule, the half-width table
    T[j, i] = P_j(x_i) / P_j(1) of the Jacobi polynomials of exponents
    (s, s) on the rule's ceil((n+1)/2) nonnegative nodes, filled by the
    rule's own last Newton pass, and the norms.  The Gegenbauer
    polynomial is C_j^{(s+1/2)} = C_j(1) P_j / P_j(1) with
    C_j(1) = lambda_j / Gamma(2s+1), so that scale is folded into the
    norms: norms[j] = h_j Gamma(2s+1), and C~_j = lambda_j T[j] / norms[j].
    The eigenvalues themselves are not kept: K^-1 divides by the
    lambda_j that C_j(1) brings, and they cancel.
    K^-1 is interval-independent in this frame (affine scale
    invariance), so all intervals of resolution n share one block.

    The rule is exactly symmetric and P_j(-x) = (-1)^j P_j(x), so the
    even rows of T act on the sum of each node's value and its mirror
    image's, and the odd rows on their difference; the centre node of
    an odd-sized rule is counted once.  coeffs works on the last axis,
    so one call serves a stack of intervals: two GEMMs, with the
    strided row views T[0::2] and T[1::2].
    """

    def __init__(self, n: int, sv: float):
        self.table = np.empty((n + 1, n // 2 + 1))
        self.rule = gauss_jacobi(n, sv, rows=self.table)
        self.lower = (n + 1) // 2  # nodes below 0; rule.nodes[lower:] are the rest
        self.centre = (n + 1) % 2  # 1 when 0 is a node
        self.norms = spectrum(n, sv)[1] * math.gamma(2.0 * sv + 1.0)
        for a in (self.table, self.norms):  # shared between solves, as the rule is
            a.setflags(write=False)
        arrays = (self.table, self.norms, self.rule.nodes, self.rule.weights)
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
        return out / self.norms  # lambda_j of C_j(1) cancels the 1 / lambda_j of K^-1


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
        start = time.perf_counter()
        block = _ReferenceBlock(n, sv)
        ms = (time.perf_counter() - start) * 1e3
        _log.debug("reference block n=%d s=%r built in %.2f ms: %d bytes", n, sv, ms, block.nbytes)
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


def gauss_basis(n: int, s) -> _ReferenceBlock:
    """The reference block of gauss_jacobi(n, s): the discrete transform
    pair at its nodes, shared read-only once the key (n, s) recurs.

    DomainError, before anything is allocated, when the block's table of
    (n+1)(n//2+1) doubles is larger than this platform can address.
    """
    sv = s_value(s)
    check_addressable((n + 1) * (n // 2 + 1), f"resolution N = {n}")
    return _MEMO.get(n, sv)


def evaluate_expansion(c: GegenbauerCoeffs, x):
    """Sum_j c_j C~_j^{(s+1/2)}(xt) at x (scalar or array), xt the reference variable."""
    a, b = c.interval
    xt = 2.0 * (np.asarray(x, dtype=float) - a) / (b - a) - 1.0
    n = len(c) - 1
    flat = xt.reshape(-1)
    rows = np.empty((n + 1, flat.size))
    jacobi_ratios(n, c.s, np.abs(flat), rows)
    scaled = c.coeffs * _at_one(n, c.s + 0.5) / spectrum(n, c.s)[1]
    even = scaled[0::2] @ rows[0::2]
    odd = scaled[1::2] @ rows[1::2]
    result = np.where(flat < 0, even - odd, even + odd)
    return result.reshape(xt.shape) if xt.shape else float(result[0])
