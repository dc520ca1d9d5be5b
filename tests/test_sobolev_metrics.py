import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.gegenbauer import GegenbauerCoeffs
from fraclap.sobolev_metrics import (
    error_between,
    fit_order,
    hrs_norm,
    is_super_algebraic,
)
from fraclap.specfun import DomainError

IV = (-1.0, 1.0)


def coeffs(vec, s=0.5, interval=IV):
    return GegenbauerCoeffs(s, interval, np.asarray(vec, dtype=float))


def test_hrs_norm_examples():
    c = coeffs([3.0, 4.0])
    assert hrs_norm(c, 0.0) == pytest.approx(5.0, rel=1e-14)
    e3 = coeffs([0.0, 0.0, 0.0, 1.0])
    assert hrs_norm(e3, 1.0) == pytest.approx(math.sqrt(10.0), rel=1e-14)
    assert hrs_norm(e3, 2.0) == pytest.approx(10.0, rel=1e-14)
    both = coeffs([1.0, 0.0, 0.0, 1.0])
    assert hrs_norm(both, 1.0) == pytest.approx(math.sqrt(11.0), rel=1e-14)
    with pytest.raises(DomainError):
        hrs_norm(c, -1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=20),
    st.floats(min_value=0, max_value=3),
    st.floats(min_value=0, max_value=3),
)
def test_hrs_norm_monotone_in_r(vec, r1, r2):
    c = coeffs(vec)
    lo, hi = sorted((r1, r2))
    assert hrs_norm(c, lo) <= hrs_norm(c, hi) + 1e-12


def test_error_between():
    c1 = coeffs([1.0, 2.0])
    assert error_between(c1, c1, 0.0) == 0.0
    z = coeffs([0.0])
    assert error_between(c1, z, 1.5) == pytest.approx(hrs_norm(c1, 1.5), rel=1e-14)
    e5 = coeffs([0, 0, 0, 0, 0, 1.0])
    short = coeffs([0.0, 0.0])
    assert error_between(e5, short, 0.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        error_between(c1, coeffs([1.0], s=0.3), 0.0)
    with pytest.raises(ValueError):
        error_between(c1, coeffs([1.0], interval=(0.0, 1.0)), 0.0)


@pytest.mark.parametrize("interval", [[0, 1], np.array([0.0, 1.0])], ids=["int-list", "ndarray"])
def test_error_between_reads_any_spelling_of_one_interval(interval):
    # the interval was kept as given: a list of ints was another space
    # than (0.0, 1.0), and an ndarray made the comparison ambiguous
    block = coeffs([1.0, 2.0], interval=interval)
    assert block.interval == (0.0, 1.0) and all(type(v) is float for v in block.interval)
    assert error_between(block, coeffs([1.0, 2.0], interval=(0.0, 1.0)), 0.0) == 0.0


def test_fit_order_exact_power_laws():
    ns = np.array([8, 16, 32, 64, 128])
    assert fit_order(ns, ns**-1.5) == pytest.approx(1.5, abs=1e-10)
    assert fit_order(ns, 3.0 * ns**-2.0) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        fit_order(ns[:2], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_order(ns, np.ones(5))


def test_fit_order_recovers_noisy_exponent():
    rng = np.random.default_rng(2)
    ns = 2 ** np.arange(3, 13)  # three decades
    errs = 5.0 * ns**-1.7 * np.exp(0.02 * rng.standard_normal(ns.size))
    assert fit_order(ns, errs) == pytest.approx(1.7, abs=0.05)


def test_super_algebraic_detection():
    ns = 2 ** np.arange(3, 10)
    assert is_super_algebraic(ns, 2.0**-ns)
    assert not is_super_algebraic(ns, ns**-2.0)


def test_super_algebraic_ignores_roundoff_floor():
    # runge, s = 0.3, N = 32..1024 against N = 2048: the last three rows
    # sit on the roundoff floor and must not flatten the trailing fit
    ns = np.array([32, 64, 128, 256, 512, 1024])
    errors = np.array([9.06e-3, 2.30e-4, 2.55e-7, 4.75e-13, 7.54e-16, 5.51e-16])
    assert is_super_algebraic(ns, errors)
    assert not is_super_algebraic(ns, ns**-2.0)
    # a floor reached within two rows, or fewer than 6 rows, cannot tell
    assert is_super_algebraic(ns, np.array([1e-3, 1e-9, 1e-15, 1e-15, 1e-15, 1e-15])) is None
    assert is_super_algebraic(ns[:5], errors[:5]) is None
