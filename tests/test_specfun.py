import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from fraclap.specfun import (
    DomainError,
    eigenvalue_lambda,
    gegenbauer_norm_h,
    s_value,
    spectrum,
)

# high-precision reference values (40-digit big-float evaluation)
LAMBDA_100_S025 = 10.037445400568830802  # Gamma(101.5)/100!
H0_S025 = 1.3221340210160541337  # sqrt(int_-1^1 (1-x^2)^{1/4} dx)


def test_s_value_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            s_value(bad)
    assert s_value(0.5) == 0.5


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


def test_spectrum_matches_scalar_entries():
    lam, h = spectrum(40, 0.3)
    assert lam.shape == h.shape == (41,)
    for j in (0, 1, 17, 40):
        assert eigenvalue_lambda(j, 0.3) == lam[j]
        assert gegenbauer_norm_h(j, 0.3) == h[j]
    with pytest.raises(DomainError):
        spectrum(-1, 0.3)
    # the first n whose n+1 doubles are more than the platform can address
    first = np.iinfo(np.intp).max // 8
    with pytest.raises(DomainError, match=f"mode index {first} "):
        spectrum(first, 0.3)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.4, 0.6, 0.9])
def test_spectrum_accuracy_to_4096(s):
    # the same product recurrence in 30-digit arithmetic, at the float s
    n = 4096
    with mpmath.workdps(30):
        two_s = 2 * mpmath.mpf(s)
        c = mpmath.mpf(2) ** -two_s * mpmath.pi / mpmath.gamma(mpmath.mpf(s) + 0.5) ** 2
        lam = mpmath.gamma(two_s + 1)
        ref_lam = [lam]
        for j in range(1, n + 1):
            lam = lam * (j + two_s) / j
            ref_lam.append(lam)
        ref_h = [mpmath.sqrt(c * v / (j + mpmath.mpf(s) + 0.5)) for j, v in enumerate(ref_lam)]
        ref_lam = np.array([float(v) for v in ref_lam])
        ref_h = np.array([float(v) for v in ref_h])
    lam, h = spectrum(n, s)
    assert np.max(np.abs(lam / ref_lam - 1.0)) <= 3e-13
    assert np.max(np.abs(h / ref_h - 1.0)) <= 3e-13
