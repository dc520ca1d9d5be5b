import math

import numpy as np
import pytest
from scipy.special import beta as sp_beta

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
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
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


def test_type_validation():
    with pytest.raises(ValueError):
        QuadratureRule(0.5, np.array([0.2, 0.1]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(0.5, np.array([-0.5, 0.5]), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        gauss_jacobi(4, -1.5)
