"""Multi-interval spectral solver for the fractional Dirichlet problem.

On each interval the solution factors as u_j = omega_j^s phi_j; the
single-interval operator K_s is diagonal in the Gegenbauer basis, and
the coupling between intervals is the off-diagonal remainder R_s with
the smooth kernel -C_1(s)|x-y|^{-1-2s} (|x-y| >= gap > 0 across
distinct intervals).  The discrete system is the second-kind equation

    (I + K^-1 R) phi = K^-1 F

over the concatenated coefficient vectors phi, with R phi taken at the
nodes.  R never visits the source's nodes: in the Gegenbauer basis of
the source interval the kernel is a sequence of exterior moments
mu_k(X), known in closed form and falling geometrically in k, so each
target node sees the source's coefficients through a short row of
moments, cut where they fall below 1e-16 of the first.  That is exact
up to the cut at any gap.  Once (domain, s, N) is fixed the discrete
operator is a constant, and GMRES only applies it; iteration counts
stay bounded as the resolution grows.  What depends on the domain is
built per solve: the rules mapped onto the intervals and one moment
matrix per target interval.  What depends on (N, s) alone, the
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
from .quadrature import map_nodes, total_mass
from .specfun import DomainError, c1_constant, s_value, spectrum


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


# Source columns whose moments fall below 1e-16 of mu_0 are dropped:
# ln(1e16) / ln(rho) of them.
_LOG_CUT = math.log(1e16)
# GMRES stops at this residual relative to the right-hand side.
_GMRES_TOL = 1e-13
# Where k ln(rho) <= _SERIES and ln(rho) <= _NEAR, mu_k comes from a
# series (_near_ratios); elsewhere from the recurrence.
_SERIES = 1.5
_NEAR = 0.3
# A point beyond X = 1 + _FAR is taken there: X^2 stays finite, and the
# moments are below 1e-150 of the diagonal (mu_k falls like X^(-1-2s)).
_FAR = 1e150


def _log_rho(dx):
    """ln(X + sqrt(X^2 - 1)) at X = 1 + dx, accurate as dx -> 0."""
    return np.log1p(dx + np.sqrt(dx * (2.0 + dx)))


def _columns(lengths):
    """For segments of the given lengths laid end to end: the segment of
    each element and its position within it."""
    lengths = np.asarray(lengths, dtype=np.intp)
    owner = np.repeat(np.arange(lengths.size), lengths)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _hypergeometric(a, b, c, w):
    """2F1(a, b; c; w), elementwise, as its first 32 terms, for the
    arguments _near_ratios passes: there w <= 0.085 and the terms fall
    below 1e-17 of the first within 25 terms (the worst case over
    0 < s < 1, ln(rho) <= _NEAR and k ln(rho) <= _SERIES)."""
    m = np.arange(31.0).reshape((-1,) + (1,) * np.broadcast(a, b, c, w).ndim)
    terms = np.cumprod((a + m) * (b + m) / ((c + m) * (m + 1.0)) * w, axis=0)
    return 1.0 + np.sum(terms, axis=0)


def _near_ratios(sv, dx, k):
    """mu_0 at k = 0 and mu_k / mu_{k-1} at k > 0, elementwise at
    X = 1 + dx <= cosh(_NEAR) with k ln(rho) <= _SERIES, for
    runs k = 0, 1, 2, ... of one point each, laid end to end.

    The 1-y connection formula of mu_k = P_k X^-(k+2s+1)
    2F1((k+2s+1)/2, (k+2s+2)/2; k+s+3/2; y = X^-2), with the duplication
    formula for its gamma functions, gives mu_k = Q_k B_k with
    Q_0 = total_mass(s) Gamma(s+3/2) / (sqrt(pi) X^(2s+1)),
    Q_k / Q_{k-1} = (k+2s)^2 / (k^2 X) and, for w = 1 - y <= 0.09,

        B_k = Gamma(-s) 2F1((k+2s+1)/2, (k+2s+2)/2; 1+s; w)
              + 4^s Gamma(s) w^-s 2F1((k+2)/2, (k+1)/2; 1-s; w) / L_k,

    L_k = Gamma(k+2s+1) / k!, the eigenvalue lambda_k of spectrum.  The
    two terms of B_k have opposite signs and cancel by a factor that
    grows like rho^(2k): by at most about 300 while k ln(rho) <= _SERIES.
    """
    x = 1.0 + dx
    w = dx * (2.0 + dx) / (x * x)
    eigen = spectrum(int(np.max(k)), sv)[0]
    regular, singular = _hypergeometric(
        np.stack((0.5 * (k + 2.0 * sv + 1.0), 0.5 * (k + 2.0))),
        np.stack((0.5 * (k + 2.0 * sv + 2.0), 0.5 * (k + 1.0))),
        np.array([[1.0 + sv], [1.0 - sv]]),
        w,
    )
    b = math.gamma(-sv) * regular + 4.0**sv * math.gamma(sv) * w**-sv / eigen[k] * singular
    first = k == 0
    out = np.empty(b.shape)
    out[first] = total_mass(sv) * math.gamma(sv + 1.5) / math.sqrt(math.pi) * x[first] ** (-2.0 * sv - 1.0) * b[first]
    later = np.flatnonzero(~first)
    out[later] = (k[later] + 2.0 * sv) ** 2 / (k[later] ** 2 * x[later]) * b[later] / b[later - 1]
    return out


def _exterior_moments(sv, dx, r):
    """The moments mu_k(X) = int_{-1}^{1} (1-t^2)^s C_k^{(s+1/2)}(t)
    (X-t)^{-1-2s} dt at X_i = 1 + dx_i > 1, for k < r_i.

    r holds one column count per point, non-increasing.  The result is
    one flat array of ragged columns: column k holds mu_k at the points
    with r_i > k, which lead, in out[starts[k]:starts[k+1]]; (out,
    starts) is returned.  mu_k(-X) = (-1)^k mu_k(X) gives the
    other side.  With lam = s + 1/2 the moments satisfy

        mu_{n+1} = a_n X mu_n - b_n mu_{n-1},
        a_n = 2(n+lam)(n+2lam)/(n+1)^2,  b_n = (n+2lam-1)^2 (n+2lam)/(n(n+1)^2),

    of which they are the minimal solution, falling like rho^-n with
    rho = X + sqrt(X^2 - 1), and the Casoratian

        mu_1 - (2lam)^2 X mu_0 = -(2lam)^2 total_mass(s) (X^2 - 1)^-s.

    A point runs the recurrence backward as ratios mu_n / mu_{n-1}, from
    zero at n0 = max(ceil((r + ln 1e16 / ln rho) / 2), r) + 2, so that
    each kept moment is accurate to about 1e-16 of mu_0, with up to
    min(ln(r) / ln(rho), r) more steps where rho^r < 1e16; the
    Casoratian then fixes mu_0, and the ratios are multiplied up.  All
    points run together, the points that start first leading.

    While k ln(rho) < 1 the recurrence is stable in neither direction,
    and as rho -> 1 that n0 has no bound.  So at ln(rho) <= _NEAR the
    entries k <= _SERIES / ln(rho) come from _near_ratios, and only the
    ones above them, if any, from the recurrence, which then starts at
    most (3 + ln(1e16) / _SERIES) r / 2 + 2 steps out.  Each point's
    work is O(r).
    """
    r = np.asarray(r, dtype=np.intp)
    lam = sv + 0.5
    x = 1.0 + dx
    log_rho = _log_rho(dx)
    near = log_rho <= _NEAR
    with np.errstate(divide="ignore", over="ignore"):
        series = np.where(near, np.minimum(np.floor(_SERIES / log_rho), r - 1), -1).astype(np.intp)
        start = 0.5 * (r + _LOG_CUT / log_rho)
        # where r columns fall short of 1e-16, mu_r is not negligible and
        # mu_k falls like rho^-k only up to a factor growing like k^2
        start += np.where(r * log_rho < _LOG_CUT, np.minimum(np.log(r) / log_rho, r), 0.0)
        start = np.maximum(np.ceil(start), r)
    n0 = np.where(series < r - 1, start, 0).astype(np.intp) + 2
    top = int(r[0])
    steps = np.arange(np.max(n0) + 1.0)
    a = 2.0 * (steps + lam) * (steps + 2.0 * lam) / (steps + 1.0) ** 2
    b = (steps[1:] + 2.0 * lam - 1.0) ** 2 * (steps[1:] + 2.0 * lam) / (steps[1:] * (steps[1:] + 1.0) ** 2)
    # p_n = mu_n / (a_{n-1} mu_{n-1}) obeys p_n = c_n / (X - p_{n+1}),
    # c_n = b_n / (a_{n-1} a_n): one subtraction and one division a step
    c = np.concatenate(([0.0], b / (a[:-1] * a[1:]))).tolist()
    a = a.tolist()
    p = np.zeros(dx.size)  # zero before a point starts
    # the few points that start far above every column take those steps
    # alone, on plain floats (which round as the array operations do)
    deep = np.flatnonzero(n0 > top + 8)
    for i, start_i, x_i in zip(deep.tolist(), n0[deep].tolist(), x[deep].tolist()):
        p_i = 0.0
        for n in range(start_i, top + 8, -1):
            p_i = c[n] / (x_i - p_i)
        p[i] = p_i
    n0[deep] = top + 8
    n0 = np.maximum.accumulate(n0[::-1])[::-1]  # so the points running at each step lead
    running = np.searchsorted(-n0, -np.arange(n0[0] + 1), side="right").tolist()
    widths = np.searchsorted(-r, -np.arange(top), side="left").tolist()  # points with r_i > k
    starts = [0] + np.cumsum(widths).tolist()
    out = np.empty(starts[-1])

    t = np.empty(dx.size)
    m = w = 0
    for n in range(n0[0], 0, -1):
        if running[n] != m:
            m = running[n]
            xm, pm, tm = x[:m], p[:m], t[:m]
        np.subtract(xm, pm, out=tm)
        np.divide(c[n], tm, out=pm)
        if n < top:
            if widths[n] != w:
                w = widths[n]
                pw = p[:w]
            np.multiply(pw, a[n - 1], out=out[starts[n] : starts[n + 1]])
    # the Casoratian, with mu_1 / mu_0 = a_0 p_1 and a_0 = (2 lam)^2
    out[: dx.size] = total_mass(sv) * (dx * (2.0 + dx)) ** -sv / (x - p)

    close = np.flatnonzero(near)
    if close.size:
        point, k = _columns(series[close] + 1)
        out[np.take(starts, k) + close[point]] = _near_ratios(sv, dx[close][point], k)
    for k in range(1, top):
        out[starts[k] : starts[k + 1]] *= out[starts[k - 1] : starts[k - 1] + widths[k]]
    return out, np.array(starts)


def _arnoldi_cycle(apply_A, r, normb, budget):
    """One GMRES cycle from the residual r: at most budget iterations,
    stopping once the least-squares residual is at most _GMRES_TOL *
    normb or the Krylov space stops growing.  Returns the correction, the
    residuals relative to normb after each iteration, and whether it
    broke down."""
    normr = float(np.linalg.norm(r))
    basis = [r / normr]
    columns = []  # column k of the rotated Hessenberg matrix, length k+2
    cs = []
    sn = []
    g = [normr]
    history = []
    breakdown = False
    for k in range(budget):
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
        rot = np.hypot(h[k], h[k + 1])
        cs.append(h[k] / rot)
        sn.append(h[k + 1] / rot)
        h[k] = rot
        h[k + 1] = 0.0
        g.append(-sn[k] * g[k])
        g[k] = cs[k] * g[k]
        columns.append(h)
        history.append(abs(g[k + 1]) / normb)
        if breakdown or history[-1] <= _GMRES_TOL:
            break

    k_done = len(columns)
    H = np.zeros((k_done, k_done))
    for k, h in enumerate(columns):
        H[: k + 1, k] = h[: k + 1]
    y = np.linalg.solve(H, g[:k_done]) if k_done else np.zeros(0)
    x = np.zeros(r.size)
    for i in range(k_done):
        x += y[i] * basis[i]
    return x, history, breakdown


def gmres(apply_A, rhs) -> GMRESResult:
    """Matrix-free GMRES: full orthogonalization, modified Gram-Schmidt,
    Givens-rotation least squares, at most one iteration per unknown.
    The history holds the relative residual after each iteration
    (starting at 1); it stops at _GMRES_TOL, and happy breakdown counts
    as convergence.  A breakdown short of it means that the Krylov space
    stopped growing at rounding level, as it does for a strongly
    non-normal operator (an interval far smaller than, and close to, its
    neighbour); GMRES then restarts from the true residual b - A x, as
    long as that keeps halving and iterations remain.  The Hessenberg
    matrix grows by one column per iteration, so storage follows the
    iterations taken, not the unknown count.  b is divided by the power
    of two 2^e with 2^(e-1) <= max|b| < 2^e and x multiplied back by it,
    both exactly, so no norm over- or underflows at any scale of b.
    """
    b = np.asarray(rhs, dtype=float)
    n = b.size
    if not np.any(b):
        return GMRESResult(np.zeros(n), 0, np.array([0.0]), True)
    e = int(np.frexp(np.max(np.abs(b)))[1])
    b = np.ldexp(b, -e)
    normb = float(np.linalg.norm(b))

    x = np.zeros(n)
    r, normr = b, normb
    history = [1.0]
    while True:
        dx, residuals, breakdown = _arnoldi_cycle(apply_A, r, normb, n - len(history) + 1)
        x += dx
        history += residuals
        if history[-1] <= _GMRES_TOL or not breakdown or len(history) > n:
            break
        r = b - np.asarray(apply_A(x), dtype=float)
        if not np.linalg.norm(r) <= 0.5 * normr:
            break
        normr = np.linalg.norm(r)
    with np.errstate(over="ignore"):  # an x past the largest double is inf
        x = np.ldexp(x, e)
    return GMRESResult(x, len(history) - 1, np.array(history), history[-1] <= _GMRES_TOL)


class _Discretization:
    """The discrete operator of one solve, assembled once.

    Node values and coefficients are concatenated: interval j holds
    entries offsets[j]:offsets[j+1].  Intervals of equal resolution
    share a reference block, taken from gauss_basis, whose transform
    pair is applied to all of them at once as one stack, so each
    distinct resolution costs two GEMMs however many intervals use it.

    The coupling never visits the source's nodes.  In the reference
    frame of source l, centre c and half-length L, a target point x
    sits at X = (x - c) / L, and with phi = sum_k c_k C~_k the integral
    int |x-y|^{-1-2s} omega^s phi dy over l is sum_k c_k mu_k(X) / h_k:
    the lengths cancel.  Each ordered pair (j, l) keeps the columns
    k < r_jl = min(N_l + 1, ceil(ln 1e16 / ln rho_jl)), rho_jl taken at
    j's node nearest l, beyond which the moments fall below 1e-16 of
    mu_0.  Target j stores one matrix, -C_1(s) mu_k(X_i) / h_k (times
    (-1)^k for sources to its right, where X < -1) over all its pairs'
    columns, and the positions of those columns in the coefficient
    vector.  offdiagonal is then one GEMV per target interval;
    coupling takes it back to coefficients, K^-1 R.
    """

    def __init__(self, domain: Domain, s, ns):
        self.sv = s_value(s)
        self.domain = domain
        members = {}
        for j, n in enumerate(ns):
            members.setdefault(n, []).append(j)
        refs = {n: gauss_basis(n, self.sv) for n in members}
        self.offsets = np.cumsum([0] + [n + 1 for n in ns])
        self.nodes = np.concatenate([map_nodes(refs[n].rule, *iv) for n, iv in zip(ns, domain.intervals)])
        # per resolution: its block and its intervals' (intervals, n+1) positions
        self.groups = [
            (refs[n], self.offsets[js][:, None] + np.arange(n + 1)) for n, js in members.items()
        ]
        # h_k for every k that any interval has: the norms are a prefix of the longest block's
        h = refs[max(ns)].norms / math.gamma(2.0 * self.sv + 1.0)
        self.blocks = self._coupling_blocks(np.array(ns), h) if len(ns) > 1 else []

    def _coupling_blocks(self, ns, h):
        """(lo, hi, matrix, columns) for each target interval j: the rows
        lo:hi of R omega^s phi are matrix @ C[columns]."""
        # positions in a unit where every distance is a double: halving is exact
        span = self.domain.intervals[-1][1] - self.domain.intervals[0][0]
        unit = 1.0 if math.isfinite(span) else 0.5
        a, b = unit * np.array(self.domain.intervals).T
        nodes = unit * self.nodes
        half = 0.5 * (b - a)
        m, sizes = ns.size, ns + 1
        owner = np.repeat(np.arange(m), sizes)
        # X - 1 (or -X - 1) of every node in the frame of every source
        # interval, at most _FAR (a ratio past the largest double is inf)
        to_right = owner[None, :] < np.arange(m)[:, None]  # [source, node]: the source lies right
        with np.errstate(over="ignore"):
            dx = np.where(to_right, a[:, None] - nodes, nodes - b[:, None]) / half[:, None]
        dx = np.minimum(dx, _FAR)
        nearest = np.minimum.reduceat(dx, self.offsets[:-1], axis=1)  # [source, target]
        # ordered pairs (target, source) target-major, and their column counts
        target, source = np.nonzero(~np.eye(m, dtype=bool))
        cut = np.ceil(_LOG_CUT / _log_rho(nearest[source, target]))
        r = np.minimum(sizes[source], cut).astype(np.intp)
        # all pairs' points in one run, the pairs with more columns first
        # and each pair's nearest points first (a source to the right sees
        # the target's nodes in reverse)
        order = np.argsort(-r, kind="stable")
        pair, i = _columns(sizes[target[order]])
        pair = order[pair]
        i = np.where(source[pair] > target[pair], sizes[target[pair]] - 1 - i, i)
        mu, starts = _exterior_moments(self.sv, dx[source[pair], self.offsets[target[pair]] + i], r[pair])
        first = np.empty(r.size, dtype=np.intp)  # each pair's first point in the run
        first[order] = np.cumsum(sizes[target[order]]) - sizes[target[order]]
        # the columns of every pair, target-major: where column k of the
        # pair's first point sits in mu, its place in C, and its scale
        # -C_1 (-1)^k / h_k (no (-1)^k for sources to the left)
        col_pair, k = _columns(r)
        base = starts[k] + first[col_pair]
        place = self.offsets[source[col_pair]] + k
        odd = (source[col_pair] > target[col_pair]) & (k % 2 == 1)
        scale = np.where(odd, c1_constant(self.sv), -c1_constant(self.sv)) / h[k]
        # each target's columns are those of its m - 1 consecutive pairs,
        # the sources to its right (their runs reversed) from column flip on
        bounds = [0] + np.cumsum(r).tolist()
        blocks = []
        for j, (lo, hi) in enumerate(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())):
            c0, flip, c1 = bounds[(m - 1) * j], bounds[m * j], bounds[(m - 1) * (j + 1)]
            # row c of the transpose is column c at the target's points: a run of mu
            runs = np.lib.stride_tricks.as_strided(mu, (mu.size - (hi - lo) + 1, hi - lo), mu.strides * 2)
            matrix = runs[base[c0:c1]]
            matrix[flip - c0 :] = matrix[flip - c0 :, ::-1]
            matrix *= scale[c0:c1, None]
            blocks.append((lo, hi, matrix.T, place[c0:c1]))
        return blocks

    def coeffs(self, Y):
        """Concatenated coefficient vectors of K^-1 Y."""
        out = np.empty(Y.size)
        for ref, rows in self.groups:
            out[rows] = ref.coeffs(Y[rows])
        return out

    def offdiagonal(self, C):
        """Concatenated node values of R omega^s phi for the expansions C:
        at x = y_i^(j), the sum over l != j of
        -C_1(s) int_l |x - y|^{-1-2s} omega_l(y)^s phi_l(y) dy, exact up
        to the dropped moments below 1e-16 of mu_0."""
        out = np.zeros(C.size)
        for lo, hi, matrix, columns in self.blocks:
            out[lo:hi] = matrix @ C[columns]
        return out

    def coupling(self, C):
        """Concatenated coefficient vectors of K^-1 R C."""
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
    finite).  GMRES solves x + K^-1 R x = C, its residual
    (final_residual) relative in the coefficients' l2 norm, which is
    phi's weighted L2 norm; phi is then C - K^-1 R x, one refinement
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
