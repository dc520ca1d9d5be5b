import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from fraclap.specfun import (
    DomainError,
    eigenvalue_lambda,
    gamma_ratio,
    gegenbauer_norm_h,
    pochhammer,
    s_value,
)

# high-precision reference values (40-digit big-float evaluation)
GAMMA_RATIO_2001 = 44.729744193535717925
LAMBDA_100_S025 = 10.037445400568830802  # Gamma(101.5)/100!
H0_S025 = 1.3221340210160541337  # sqrt(int_-1^1 (1-x^2)^{1/4} dx)


def test_s_value_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            s_value(bad)
    assert s_value(0.5) == 0.5


def test_gamma_ratio_small_args():
    assert gamma_ratio(3.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    n = 50
    assert gamma_ratio(n + 2.0, n + 1.0) == pytest.approx(n + 1.0, rel=1e-13)


def test_gamma_ratio_large_args():
    assert gamma_ratio(2001.5, 2001.0) == pytest.approx(GAMMA_RATIO_2001, rel=1e-13)
    # both huge, ratio modest
    assert gamma_ratio(1e4 + 2.5, 1e4) == pytest.approx(
        math.exp(math.lgamma(1e4 + 2.5) - math.lgamma(1e4)), rel=1e-10
    )


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
)
def test_gamma_ratio_reciprocal(a, b):
    prod = gamma_ratio(a, b) * gamma_ratio(b, a)
    if math.isfinite(prod):
        assert prod == pytest.approx(1.0, rel=1e-13)


def test_pochhammer_values():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(1.0, 5) == 120.0
    assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
def test_pochhammer_additive(z, j, k):
    lhs = pochhammer(z, j + k)
    rhs = pochhammer(z, j) * pochhammer(z + j, k)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_eigenvalue_lambda():
    for s in (0.1, 0.37, 0.9):
        assert eigenvalue_lambda(0, s) == pytest.approx(math.gamma(2 * s + 1), rel=1e-14)
    for n in range(12):
        assert eigenvalue_lambda(n, 0.5) == pytest.approx(n + 1.0, rel=1e-13)
    assert eigenvalue_lambda(100, 0.25) == pytest.approx(LAMBDA_100_S025, rel=1e-13)
    lams = [eigenvalue_lambda(n, 0.3) for n in range(50)]
    assert np.all(np.diff(lams) > 0)


def test_eigenvalue_lambda_asymptotic():
    # lambda_n / n^{2s} settles: ratio at n and 2n within 5% for large n
    s = 0.35
    for n in (512, 1024):
        r1 = eigenvalue_lambda(n, s) / n ** (2 * s)
        r2 = eigenvalue_lambda(2 * n, s) / (2 * n) ** (2 * s)
        assert abs(r1 / r2 - 1.0) < 0.05


def test_gegenbauer_norm_h_halfcase():
    # s = 1/2: both h_0 and h_1 equal sqrt(pi/2)
    assert gegenbauer_norm_h(0, 0.5) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-13)
    assert gegenbauer_norm_h(1, 0.5) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-13)
    assert gegenbauer_norm_h(0, 0.25) == pytest.approx(H0_S025, rel=1e-12)


@pytest.mark.parametrize("s", [0.15, 0.5, 0.85])
def test_gegenbauer_norm_h_vs_quadrature(s):
    # h_j^2 = int C_j^2 (1-x^2)^s dx, computed with an independent rule
    from scipy.special import eval_gegenbauer as sp_gegen

    x, w = roots_jacobi(80, s, s)
    for j in range(0, 51, 5):
        val = np.dot(w, sp_gegen(j, s + 0.5, x) ** 2)
        assert gegenbauer_norm_h(j, s) ** 2 == pytest.approx(val, rel=1e-11)


def test_gegenbauer_norm_h_asymptotic_bounded():
    s = 0.3
    vals = [gegenbauer_norm_h(j, s) * j ** (0.5 - s) for j in (64, 256, 1024)]
    assert max(vals) / min(vals) < 1.5
