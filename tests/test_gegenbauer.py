import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer as sp_gegen

from fraclap import gegenbauer
from fraclap.gegenbauer import (
    GegenbauerCoeffs,
    eval_gegenbauer,
    evaluate_expansion,
    forward_transform,
    norm_vector,
)
from fraclap.quadrature import QuadratureRule, gauss_jacobi, map_to_interval
from fraclap.specfun import DomainError, gegenbauer_norm_h


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
    h = norm_vector(n, s)
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


@pytest.mark.parametrize("s", [0.25, 0.6])
def test_forward_transform_orthonormality(s):
    n = 14
    rule = gauss_jacobi(n, s)
    h = norm_vector(n, s)
    for i in range(n + 1):
        samples = eval_gegenbauer(i, s + 0.5, rule.nodes) / h[i]
        c = forward_transform(samples, rule, s)
        e = np.zeros(n + 1)
        e[i] = 1.0
        np.testing.assert_allclose(c.coeffs, e, atol=1e-12)


def test_forward_transform_constant():
    s = 0.4
    n = 6
    rule = gauss_jacobi(n, s)
    c = forward_transform(np.ones(n + 1), rule, s)
    assert c.coeffs[0] == pytest.approx(gegenbauer_norm_h(0, s), rel=1e-13)
    np.testing.assert_allclose(c.coeffs[1:], 0.0, atol=1e-13)


def test_forward_transform_single_node():
    s = 0.3
    rule = gauss_jacobi(0, s)
    v = 2.7
    c = forward_transform(np.array([v]), rule, s)
    assert c.coeffs[0] == pytest.approx(v * rule.weights[0] / gegenbauer_norm_h(0, s), rel=1e-14)


def test_forward_transform_length_mismatch():
    rule = gauss_jacobi(4, 0.5)
    with pytest.raises(ValueError):
        forward_transform(np.ones(3), rule, 0.5)
    with pytest.raises(ValueError):
        forward_transform(np.ones(5), rule, 0.3)  # alpha mismatch


def test_forward_transform_rejects_rules_not_from_gauss_jacobi():
    # its exactness holds at the Gauss-Jacobi nodes only; a symmetric rule
    # of the right size and exponent, or the right nodes labelled with
    # another interval, is not such a rule
    n, s = 4, 0.3
    hand_built = QuadratureRule(s, np.linspace(-0.8, 0.8, n + 1), np.full(n + 1, 0.3))
    mapped = map_to_interval(gauss_jacobi(n, s), 2.0, 3.0)
    relabelled = QuadratureRule(s, mapped.nodes, mapped.weights, interval=(1.5, 3.5))
    for rule in (hand_built, map_to_interval(hand_built, 2.0, 3.0), relabelled):
        with pytest.raises(ValueError):
            forward_transform(np.ones(n + 1), rule, s)
    for rule in (mapped, map_to_interval(gauss_jacobi(n, s), -1.0, 1.0)):
        forward_transform(np.ones(n + 1), rule, s)


def test_forward_transform_shares_its_basis_once_the_key_recurs(monkeypatch):
    monkeypatch.setattr(gegenbauer, "_MEMO", gegenbauer._BlockMemo())
    built = []
    build = gegenbauer.gauss_jacobi

    def counting(*args, **kwargs):
        built.append(args[:2])
        return build(*args, **kwargs)

    monkeypatch.setattr(gegenbauer, "gauss_jacobi", counting)
    n, s = 16, 0.3
    rule = gauss_jacobi(n, s)
    values = np.cos(rule.nodes)
    first = forward_transform(values, rule, s)
    forward_transform(values, rule, s)
    assert built == [(n, s), (n, s)]
    third = forward_transform(values, rule, s)
    assert built == [(n, s), (n, s)]
    assert np.array_equal(third.coeffs, first.coeffs)


def test_roundtrip_polynomial():
    s = 0.55
    n = 9
    rng = np.random.default_rng(7)
    mono = rng.standard_normal(n + 1)
    poly = np.polynomial.polynomial.Polynomial(mono)
    rule = gauss_jacobi(n, s)
    c = forward_transform(poly(rule.nodes), rule, s)
    fresh = np.linspace(-0.95, 0.95, 17)
    np.testing.assert_allclose(evaluate_expansion(c, fresh), poly(fresh), rtol=1e-12, atol=1e-12)


def test_scale_invariance_of_coefficients():
    # affinely related samples produce identical coefficient vectors
    s = 0.4
    n = 8
    a, b = 3.0, 7.0
    ref_rule = gauss_jacobi(n, s)
    mapped = map_to_interval(ref_rule, a, b)
    f = lambda t: np.cos(1.3 * t) + t**2
    c_ref = forward_transform(f(ref_rule.nodes), ref_rule, s)
    xt = 2 * (mapped.nodes - a) / (b - a) - 1
    c_map = forward_transform(f(xt), mapped, s)
    np.testing.assert_allclose(c_map.coeffs, c_ref.coeffs, rtol=0, atol=1e-13)


def test_discrete_parseval():
    s = 0.35
    n = 12
    rule = gauss_jacobi(n, s)
    vals = np.sin(2.0 * rule.nodes) + 0.3  # interpolated exactly at nodes? no --
    # use an exact-degree polynomial so the interpolant is the function itself
    vals = np.polynomial.polynomial.polyval(rule.nodes, np.arange(1, n + 2, dtype=float))
    c = forward_transform(vals, rule, s)
    lhs = float(np.sum(c.coeffs**2))
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
