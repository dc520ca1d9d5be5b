import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import beta as sp_beta
from scipy.special import eval_gegenbauer as sp_eval_gegenbauer
from scipy.special import eval_jacobi

from fraclap import quadrature
from fraclap.gegenbauer import eval_gegenbauer
from fraclap.quadrature import (
    QuadratureRule,
    gauss_jacobi,
    map_to_interval,
    total_mass,
)
from fraclap.specfun import DomainError


def closed_moment(m: int, alpha: float) -> float:
    # int_-1^1 x^m (1-x^2)^alpha dx; Beta identity for even m, zero odd
    if m % 2 == 1:
        return 0.0
    return sp_beta((m + 1) / 2.0, alpha + 1.0)


def test_single_point_rule():
    for alpha in (0.1, 0.5, 2.0):
        r = gauss_jacobi(0, alpha)
        assert r.nodes[0] == 0.0
        assert r.weights[0] == pytest.approx(
            math.sqrt(math.pi) * math.gamma(alpha + 1) / math.gamma(alpha + 1.5), rel=1e-14
        )
    assert gauss_jacobi(0, 0.5).weights[0] == pytest.approx(math.pi / 2, rel=1e-14)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 2.0])
def test_exactness_sweep(n, alpha):
    r = gauss_jacobi(n, alpha)
    scale = total_mass(alpha)
    for m in range(2 * n + 2):
        got = float(np.dot(r.weights, r.nodes**m))
        want = closed_moment(m, alpha)
        if m % 2 == 1:
            assert abs(got) < 1e-13 * scale
        else:
            assert got == pytest.approx(want, rel=1e-12)


def test_high_degree_moment():
    r = gauss_jacobi(20, 0.3)
    got = float(np.dot(r.weights, r.nodes**40))
    assert got == pytest.approx(sp_beta(20.5, 1.3), rel=1e-13)


@pytest.mark.parametrize("n", [5, 17, 64, 511, 4096])
def test_rule_invariants(n):
    r = gauss_jacobi(n, 0.35)
    assert len(r) == n + 1
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all(np.abs(r.nodes) < 1.0)
    assert np.all(r.weights > 0)
    # mirror symmetry of the symmetric weight
    assert np.max(np.abs(r.nodes + r.nodes[::-1])) < 1e-13
    assert np.max(np.abs(r.weights - r.weights[::-1])) < 1e-13 * np.max(r.weights)


def test_node_interlacing():
    alpha = 0.6
    for n in (3, 9, 20):
        coarse = gauss_jacobi(n, alpha).nodes
        fine = gauss_jacobi(n + 1, alpha).nodes
        # each coarse node sits strictly between consecutive fine nodes
        for k, x in enumerate(coarse):
            assert fine[k] < x < fine[k + 1]


def test_map_to_interval():
    r = gauss_jacobi(6, 0.4)
    same = map_to_interval(r, -1.0, 1.0)
    np.testing.assert_allclose(same.nodes, r.nodes, atol=1e-15)
    np.testing.assert_allclose(same.weights, r.weights, rtol=1e-15)

    # alpha = 0, n = 1 on (0,1): textbook two-point Gauss-Legendre
    gl = map_to_interval(gauss_jacobi(1, 0.0), 0.0, 1.0)
    np.testing.assert_allclose(gl.nodes, [(3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6], rtol=1e-14)
    np.testing.assert_allclose(gl.weights, [0.5, 0.5], rtol=1e-14)

    # weight-sum scaling identity
    a, b, alpha = 1.5, 4.0, 0.3
    mapped = map_to_interval(gauss_jacobi(9, alpha), a, b)
    want = ((b - a) / 2.0) ** (2 * alpha + 1) * total_mass(alpha)
    assert float(np.sum(mapped.weights)) == pytest.approx(want, rel=1e-13)

    with pytest.raises(DomainError):
        map_to_interval(r, 2.0, 1.0)
    # ((b-a)/2)^(2 alpha + 1) overflows, or underflows to 0; or the
    # interval, two units in the last place wide, cannot hold 5 distinct nodes
    for a, b in ((0.0, 1e308), (-1e308, 1e308), (0.0, 1e-200), (1e16, 1.0000000000000004e16)):
        with pytest.raises(DomainError, match=re.escape(f"interval ({a}, {b})")):
            map_to_interval(gauss_jacobi(4, 0.9), a, b)


def test_type_validation():
    with pytest.raises(ValueError):
        QuadratureRule(0.5, np.array([0.2, 0.1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(0.5, np.array([-0.5, 0.5]), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        gauss_jacobi(4, -1.5)
    # Gamma(alpha + 1.5) overflows above alpha = 170
    assert math.isfinite(total_mass(170.0))
    with pytest.raises(DomainError):
        total_mass(170.5)


def test_rule_domain_ends_at_alpha_10():
    # the range test_nodes_match_tridiagonal_eigenvalues covers
    assert len(gauss_jacobi(64, 10.0)) == 65
    for alpha in (np.nextafter(10.0, np.inf), 12.0, 170.0):
        with pytest.raises(DomainError):
            gauss_jacobi(64, alpha)


def golub_welsch_nodes(n, alpha):
    """Eigenvalues of the symmetric tridiagonal Jacobi matrix of the weight."""
    k = np.arange(2, n + 1, dtype=float)
    beta = np.concatenate((
        [1.0 / (2.0 * alpha + 3.0)],
        k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha + 1.0) * (2.0 * k + 2.0 * alpha - 1.0)),
    ))
    return eigvalsh_tridiagonal(np.zeros(n + 1), np.sqrt(beta))


@pytest.mark.parametrize("alpha", [-0.999, -0.5, 0.0, 0.5, 2.0, 5.0, 10.0])
def test_nodes_match_tridiagonal_eigenvalues(alpha):
    # the documented exponent range (-1, 10]
    for n in [*range(1, 41), 63, 64, 127, 255, 511, 1024, 2048]:
        r = gauss_jacobi(n, alpha)
        np.testing.assert_allclose(r.nodes, golub_welsch_nodes(n, alpha), rtol=0, atol=1e-14, err_msg=f"n={n}")


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_chebyshev_rule_closed_form(n):
    # alpha = -1/2 is the Chebyshev weight 1/sqrt(1-x^2)
    r = gauss_jacobi(n, -0.5)
    i = np.arange(n, -1, -1)
    np.testing.assert_allclose(r.nodes, np.cos((2 * i + 1) * np.pi / (2 * n + 2)), rtol=0, atol=1e-14)
    np.testing.assert_allclose(r.weights, np.pi / (n + 1), rtol=1e-14)


def test_rule_builds_no_square_array():
    # an (n+1)^2 float array at n = 4096 alone would be 134 MB
    tracemalloc.start()
    try:
        gauss_jacobi(4096, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("n", [8, 1024, 2048])
def test_rule_takes_two_recurrence_passes(monkeypatch, n):
    # the fourth-order first step leaves the second pass's step at
    # roundoff, and only that last pass writes the table; the asymptotic
    # guesses are exact for alpha = 1/2, so its one pass writes it
    passes = []
    pair = quadrature.jacobi_ratios

    def recording(m, alpha, x, rows=None):
        passes.append(rows is not None)
        return pair(m, alpha, x, rows)

    monkeypatch.setattr(quadrature, "jacobi_ratios", recording)
    for alpha in (0.01, 0.25, 0.75, 0.99, 0.5):
        passes.clear()
        gauss_jacobi(n, alpha, rows=np.empty((n + 1, n // 2 + 1)))
        assert passes == ([True] if alpha == 0.5 else [False, True]), alpha


@pytest.mark.parametrize("s", [0.25, 0.5, 0.6, 0.75])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 128, 2048])
def test_table_is_written_at_the_returned_nodes(n, s):
    rows = np.full((n + 1, n // 2 + 1), np.nan)
    r = gauss_jacobi(n, s, rows=rows)
    plain = gauss_jacobi(n, s)
    assert r.nodes.tobytes() == plain.nodes.tobytes()
    assert r.weights.tobytes() == plain.weights.tobytes()
    again = np.full_like(rows, np.nan)
    quadrature.jacobi_ratios(n + 1, s, r.nodes[(n + 1) // 2:], again)
    assert rows.tobytes() == again.tobytes()
    # degrees 0, 1 and 2 run the recurrence's early return, empty loop and one step
    x = np.linspace(-1.0, 1.0, 9)
    for k in (0, 1, 2):
        np.testing.assert_allclose(
            eval_gegenbauer(k, s + 0.5, x), sp_eval_gegenbauer(k, s + 0.5, x), rtol=1e-15, atol=1e-15
        )


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 40])
def test_rows_hold_normalized_jacobi_at_nonnegative_nodes(n):
    alpha = 0.3
    rows = np.full((n + 1, n // 2 + 1), np.nan)
    r = gauss_jacobi(n, alpha, rows=rows)
    plain = gauss_jacobi(n, alpha)
    assert r.nodes.tobytes() == plain.nodes.tobytes()
    assert r.weights.tobytes() == plain.weights.tobytes()
    x = r.nodes[(n + 1) // 2:]
    k = np.arange(n + 1)[:, None]
    want = eval_jacobi(k, alpha, alpha, x) / eval_jacobi(k, alpha, alpha, 1.0)
    np.testing.assert_allclose(rows, want, rtol=0, atol=1e-14)
    for wrong in (np.empty((n + 1, n // 2 + 2)), np.empty((n + 1, n // 2 + 1), dtype=np.float32)):
        with pytest.raises(ValueError):
            gauss_jacobi(n, alpha, rows=wrong)


# Reference rules at about 34 digits.  The three-term recurrence runs in
# fixed point on Python integers (scale 2^-112), vectorized over the
# nodes; in mpmath numbers the n = 1024 cases alone take over a minute.
# mpmath at 34 digits does the Newton updates, the normalization and the
# weights.
FIX = 112


def fixed(v) -> int:
    return round(Fraction(v) * (1 << FIX))


def jacobi_pair(m, alpha, x):
    """P_m and P_{m-1} for (alpha, alpha) at fixed-point x (object array), in fixed point."""
    a = Fraction(alpha)
    p0, p1 = np.full(x.shape, 1 << FIX, dtype=object), (fixed(a + 1) * x) >> FIX
    for k in range(2, m + 1):
        c = 2 * k + 2 * a
        d = 2 * k * (k + 2 * a) * (c - 2)
        u, v = fixed((c - 1) * c * (c - 2) / d), fixed(2 * (k + a - 1) ** 2 * c / d)
        p0, p1 = p1, (((u * x) >> FIX) * p1 - v * p0) >> FIX
    return p1, p0


def reference_rule(n, alpha, x0):
    """Nodes and weights of the (n+1)-point rule near the float nodes x0:
    Newton on P_{n+1}, weights K (1-x^2) / ((n+1+alpha) P_n(x))^2 from
    (1-x^2) P'_m = -m x P_m + (m+alpha) P_{m-1}."""
    m = n + 1
    with mpmath.workdps(34):
        a = mpmath.mpf(alpha)

        def pair(points):
            xf = np.array([int(mpmath.nint(mpmath.ldexp(t, FIX))) for t in points], dtype=object)
            return ([mpmath.ldexp(mpmath.mpf(v), -FIX) for v in w] for w in jacobi_pair(m, alpha, xf))

        x = [mpmath.mpf(float(v)) for v in x0]
        for _ in range(2):
            p, q = pair(x)
            x = [t - pt * (1 - t * t) / (-m * t * pt + (m + a) * qt) for t, pt, qt in zip(x, p, q)]
        _, q = pair(x)
        k = 2 ** (2 * a + 1) * mpmath.gamma(m + a + 1) ** 2 / (mpmath.gamma(m + 2 * a + 1) * mpmath.factorial(m))
        w = [k * (1 - t * t) / ((m + a) * qt) ** 2 for t, qt in zip(x, q)]
    return x, w


@pytest.mark.parametrize(
    "alpha, n",
    # and the reference resolution of the convergence study
    [(alpha, n) for n in (32, 255, 1024) for alpha in (0.25, 0.4, 0.75)] + [(0.4, 2048)],
)
def test_rule_matches_extended_precision_reference(n, alpha):
    r = gauss_jacobi(n, alpha)
    half = slice((n + 1) // 2, None)  # x >= 0; the rule is mirror-symmetric
    ref_x, ref_w = reference_rule(n, alpha, r.nodes[half])
    with mpmath.workdps(34):
        node_err = np.array([float(abs(mpmath.mpf(float(v)) - t)) for v, t in zip(r.nodes[half], ref_x)])
        weight_err = np.array([float(abs(mpmath.mpf(float(v)) / t - 1)) for v, t in zip(r.weights[half], ref_w)])
        outermost_gap = float(1 - ref_x[-1])
    assert node_err.max() <= 3e-16
    # inner 90 % of the nodes
    inner = r.nodes[half] <= np.quantile(np.abs(r.nodes), 0.9)
    assert weight_err[inner].max() <= 1e-13
    # Near the endpoints one rounding of x against 1-x costs eps/(1-x)
    # relative; the weights are taken at the unrounded root instead
    assert weight_err.max() <= np.finfo(float).eps / outermost_gap
    assert weight_err.max() <= 1e-13
