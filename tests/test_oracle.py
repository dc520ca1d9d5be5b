import numpy as np
import pytest
from scipy.special import roots_jacobi

from fraclap.gegenbauer import eval_gegenbauer
from fraclap.oracle import PVConfig, _jacobi_left, pv_apply, pv_exterior, weighted_mode
from fraclap.specfun import DomainError, eigenvalue_lambda, gegenbauer_norm_h

FAST = PVConfig(levels=5, panels_per_side=10, gauss_order=12)


def expected_eigenvalue_image(n, s, x):
    return eigenvalue_lambda(n, s) * eval_gegenbauer(n, s + 0.5, x) / gegenbauer_norm_h(n, s)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_eigen_relation(s, n):
    u, uprime = weighted_mode(n, s, (-1.0, 1.0))
    lam = eigenvalue_lambda(n, s)
    for x in (-0.55, 0.12, 0.61):
        got = pv_apply(uprime, x, s, (-1.0, 1.0))
        assert abs(got - expected_eigenvalue_image(n, s, x)) <= 1e-6 * max(1.0, lam)


def test_eigen_relation_other_interval():
    # the eigenvalues do not depend on the interval
    s, n = 0.35, 2
    interval = (1.0, 4.0)
    u, uprime = weighted_mode(n, s, interval)
    x = 2.2
    xt = (x - 2.5) / 1.5
    want = eigenvalue_lambda(n, s) * eval_gegenbauer(n, s + 0.5, xt) / gegenbauer_norm_h(n, s)
    assert pv_apply(uprime, x, s, interval) == pytest.approx(want, abs=1e-6)


def test_odd_mode_at_center():
    s = 0.6
    u, uprime = weighted_mode(1, s, (-1.0, 1.0))
    assert abs(pv_apply(uprime, 0.0, s, (-1.0, 1.0))) < 1e-8


def test_log_kernel_case():
    # s = 1/2, constant mode: the image is Gamma(2) = 1
    u, uprime = weighted_mode(0, 0.5, (-1.0, 1.0))
    got = pv_apply(lambda z: uprime(z) * gegenbauer_norm_h(0, 0.5), 0.3, 0.5, (-1.0, 1.0))
    assert got == pytest.approx(1.0, abs=1e-8)
    u1, up1 = weighted_mode(1, 0.5, (-1.0, 1.0))
    assert abs(pv_apply(up1, 0.0, 0.5, (-1.0, 1.0))) < 1e-9


def test_continuity_in_s_across_half():
    u, uprime = weighted_mode(2, 0.5, (-1.0, 1.0))
    x = 0.27
    mid = pv_apply(uprime, x, 0.5, (-1.0, 1.0))
    lo = pv_apply(uprime, x, 0.5 - 1e-3, (-1.0, 1.0))
    hi = pv_apply(uprime, x, 0.5 + 1e-3, (-1.0, 1.0))
    assert min(lo, hi) - 1e-3 <= mid <= max(lo, hi) + 1e-3


def test_interior_point_required():
    u, uprime = weighted_mode(0, 0.3, (-1.0, 1.0))
    with pytest.raises(DomainError):
        pv_apply(uprime, 1.5, 0.3, (-1.0, 1.0))
    with pytest.raises(DomainError):
        pv_exterior(u, 0.2, 0.3, (-1.0, 1.0))


def test_exterior_far_field_decay():
    s = 0.3
    u, _ = weighted_mode(0, s, (-1.0, 1.0))
    xs = np.array([10.0, 40.0, 160.0, 640.0])
    vals = np.array([abs(pv_exterior(u, x, s, (-1.0, 1.0), FAST)) for x in xs])
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope == pytest.approx(-1.0 - 2 * s, abs=0.05)


def test_exterior_symmetry():
    s = 0.45
    u, _ = weighted_mode(2, s, (-1.0, 1.0))  # even mode
    for x in (1.4, 2.5, 7.0):
        assert pv_exterior(u, x, s, (-1.0, 1.0)) == pytest.approx(
            pv_exterior(u, -x, s, (-1.0, 1.0)), rel=1e-10
        )


def test_exterior_sign_and_magnitude():
    # nonnegative u gives strictly negative exterior values
    s = 0.3
    u, _ = weighted_mode(0, s, (0.0, 1.0))
    for x in (-0.5, 1.5, 3.0):
        assert pv_exterior(u, x, s, (0.0, 1.0)) < 0.0


def test_exterior_vs_reference_integral():
    # x^{s+n}(1-x)^s on (0,1) at x = 1.5, n = 1, s = 0.3; reference from
    # 30-digit adaptive quadrature of the same integral
    s, n = 0.3, 1
    u = lambda z: np.asarray(z, float) ** (s + n) * (1 - np.asarray(z, float)) ** s
    ref = -0.0945875892069451455
    assert pv_exterior(u, 1.5, s, (0.0, 1.0)) == pytest.approx(ref, abs=1e-9)


def test_extrapolation_self_consistency():
    # halving the excision start and adding a level moves the answer by
    # far less than the coarse-config deviation from truth
    s, n, x = 0.7, 2, 0.33
    _, uprime = weighted_mode(n, s, (-1.0, 1.0))
    a = pv_apply(uprime, x, s, (-1.0, 1.0), PVConfig(levels=5))
    b = pv_apply(uprime, x, s, (-1.0, 1.0), PVConfig(levels=7, eps0_frac=5e-3))
    assert abs(a - b) < 1e-7


@pytest.mark.parametrize("order", [16, 20, 24])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("shift", [-1.0, 0.0])
def test_endpoint_rule_matches_scipy_and_is_exact(order, s, shift):
    # the endpoint panels' Golub-Welsch rule for the weight (1+t)^beta,
    # beta = s-1 (pv_apply) or s (pv_exterior); worst seen 2.1e-12
    beta = s + shift
    nodes, weights = _jacobi_left(order, beta)
    want_nodes, want_weights = roots_jacobi(order, 0.0, beta)
    np.testing.assert_allclose(nodes, want_nodes, rtol=1e-11, atol=0)
    np.testing.assert_allclose(weights, want_weights, rtol=1e-11, atol=0)
    # exact for (1+t)^m, m <= 2 order - 1: int (1+t)^(beta+m) dt = 2^(beta+m+1)/(beta+m+1)
    m = np.arange(2 * order)
    moments = weights @ (1.0 + nodes[:, None]) ** m
    np.testing.assert_allclose(moments, 2.0 ** (beta + m + 1.0) / (beta + m + 1.0), rtol=1e-13, atol=0)
