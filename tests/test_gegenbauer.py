import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer as sp_gegen

from fraclap.gegenbauer import GegenbauerCoeffs, eval_gegenbauer, evaluate_expansion, gauss_basis
from fraclap.quadrature import gauss_jacobi
from fraclap.specfun import DomainError, gegenbauer_norm_h, spectrum


def test_eval_low_orders():
    for alpha in (0.3, 1.0, 2.5):
        for x in (-0.7, 0.0, 0.4, 1.3):
            assert eval_gegenbauer(0, alpha, x) == 1.0
            assert eval_gegenbauer(1, alpha, x) == pytest.approx(2 * alpha * x, rel=1e-15)
    # C_2^{(1)}(x) = 4x^2 - 1 vanishes at x = 1/2
    assert eval_gegenbauer(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=-1.5, max_value=1.5),
)
def test_eval_matches_scipy(n, alpha, x):
    # beyond [-1,1] too: mode right-hand sides evaluate between intervals
    ours = eval_gegenbauer(n, alpha, x)
    ref = sp_gegen(n, alpha, x)
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_rejects_bad_degree_and_parameter():
    for alpha in (-0.5, -2.0, np.nan):
        with pytest.raises(DomainError):
            eval_gegenbauer(3, alpha, 0.2)
    with pytest.raises(DomainError):
        eval_gegenbauer(-1, 0.7, 0.2)


def test_eval_keeps_no_table():
    # the (n+1) x 2000 table at n = 4096 alone would be 65.6 MB
    x = np.linspace(-1.0, 1.0, 2000)
    tracemalloc.start()
    try:
        eval_gegenbauer(4096, 0.85, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def mp_gegenbauer_table(n, alpha, points):
    """C_j^{(alpha)}(x) for j = 0..n at each point, by the three-term
    recurrence in 40-digit arithmetic; rows are degrees."""
    out = np.empty((n + 1, len(points)))
    with mpmath.workdps(40):
        lam = mpmath.mpf(alpha)
        for i, xi in enumerate(points):
            x = mpmath.mpf(float(xi))
            prev, c = mpmath.mpf(1), 2 * lam * x
            out[0, i], out[1, i] = 1.0, float(c)
            for j in range(2, n + 1):
                prev, c = c, (2 * x * (j + lam - 1) * c - (j + 2 * lam - 2) * prev) / j
                out[j, i] = float(c)
    return out


def test_accurate_near_both_endpoints():
    # the plain three-term recurrence in doubles is off by 3.9e-9 here
    n, s = 1024, 0.35
    nodes = gauss_jacobi(n, s).nodes
    # rounded once so that the pullback of (-1, 1), (x + 1) - 1, keeps them
    points = (np.concatenate(([-1.0], nodes[:2], nodes[-2:], [1.0])) + 1.0) - 1.0
    want = mp_gegenbauer_table(n, s + 0.5, points)
    for j in (0, 1, 2, 7, 64, 255, 511, 512, n - 1, n):
        got = eval_gegenbauer(j, s + 0.5, points)
        assert np.max(np.abs(got - want[j]) / np.abs(want[j])) <= 1e-11
    h = spectrum(n, s)[1]
    for j in (n - 1, n):  # the top modes, where the three-term error is largest
        c = GegenbauerCoeffs(s, (-1.0, 1.0), np.eye(n + 1)[j])
        rel = evaluate_expansion(c, points) * h[j] / want[j] - 1.0
        assert np.max(np.abs(rel)) <= 1e-11


def test_growth_on_interval():
    # sup |C_j^{(s+1/2)}| on [-1,1] grows like j^{2s}
    s = 0.35
    x = np.linspace(-1, 1, 2001)
    ratios = []
    for j in (64, 128, 256, 512, 1024):
        sup = np.max(np.abs(eval_gegenbauer(j, s + 0.5, x)))
        ratios.append(sup / j ** (2 * s))
    assert max(ratios) / min(ratios) < 2.0


def transform(values, n, s):
    """Coefficients f_j = (1/h_j) sum_i f(x_i) C_j(x_i) w_i at the nodes of
    the solver's reference block."""
    return spectrum(n, s)[0] * gauss_basis(n, s).coeffs(values)


@pytest.mark.parametrize("s", [0.25, 0.6])
def test_transform_orthonormality(s):
    n = 14
    nodes = gauss_basis(n, s).rule.nodes
    h = spectrum(n, s)[1]
    for i in range(n + 1):
        samples = eval_gegenbauer(i, s + 0.5, nodes) / h[i]
        np.testing.assert_allclose(transform(samples, n, s), np.eye(n + 1)[i], atol=1e-12)


def test_transform_constant():
    s = 0.4
    n = 6
    c = transform(np.ones(n + 1), n, s)
    assert c[0] == pytest.approx(gegenbauer_norm_h(0, s), rel=1e-13)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-13)


def test_transform_single_node():
    s = 0.3
    v = 2.7
    c = transform(np.array([v]), 0, s)
    weight = gauss_basis(0, s).rule.weights[0]
    assert c[0] == pytest.approx(v * weight / gegenbauer_norm_h(0, s), rel=1e-14)


def test_roundtrip_polynomial():
    s = 0.55
    n = 9
    rng = np.random.default_rng(7)
    mono = rng.standard_normal(n + 1)
    poly = np.polynomial.polynomial.Polynomial(mono)
    c = transform(poly(gauss_basis(n, s).rule.nodes), n, s)
    fresh = np.linspace(-0.95, 0.95, 17)
    expansion = GegenbauerCoeffs(s, (-1.0, 1.0), c)
    np.testing.assert_allclose(evaluate_expansion(expansion, fresh), poly(fresh), rtol=1e-12, atol=1e-12)


def test_discrete_parseval():
    s = 0.35
    n = 12
    rule = gauss_basis(n, s).rule
    # an exact-degree polynomial, so the interpolant is the function itself
    vals = np.polynomial.polynomial.polyval(rule.nodes, np.arange(1, n + 2, dtype=float))
    c = transform(vals, n, s)
    lhs = float(np.sum(c**2))
    rhs = float(np.dot(rule.weights, vals**2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_coeffs_reject_non_finite_endpoints():
    for interval in ((0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(DomainError):
            GegenbauerCoeffs(0.5, interval, np.ones(3))


def test_evaluate_expansion_basics():
    s = 0.45
    c0 = GegenbauerCoeffs(s, (-1.0, 1.0), np.array([1.0]))
    for x in (-0.8, 0.0, 0.9):
        assert evaluate_expansion(c0, x) == pytest.approx(1.0 / gegenbauer_norm_h(0, s), rel=1e-14)
    c1 = GegenbauerCoeffs(s, (2.0, 6.0), np.array([0.0, 1.0]))
    assert evaluate_expansion(c1, 4.0) == pytest.approx(0.0, abs=1e-15)
