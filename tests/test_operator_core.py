import math

import numpy as np
import pytest

from fraclap.gegenbauer import GegenbauerCoeffs, evaluate_expansion, gauss_basis
from fraclap.multi_interval import Domain, solve
from fraclap.operator_core import (
    image_prefactor,
    ln_polynomial,
    monomial_operator_matrix,
    ts_weighted_monomial_image,
)
from fraclap.oracle import pv_exterior
from fraclap.problem import ProblemSpec
from fraclap.specfun import c1_constant, eigenvalue_lambda, spectrum

polyval = np.polynomial.polynomial.polyval

# high-precision references (40-digit quadrature of the singular integrals)
L3_S03_SAMPLES = {
    0.1: -2.4922519293078333776,
    0.3: -2.9675583115878138876,
    0.5: -3.5919804216419037874,
    0.7: -4.365518259470095063,
    0.9: -5.2881718250723413662,
}


def solve_on(interval, s, f, n):
    """The single-interval solve of the program: (phi, GMRES iterations)."""
    sol = solve(ProblemSpec(s, Domain((interval,)), f, n))
    return sol.blocks[0], sol.gmres_iterations


def test_norm_constants():
    for s in (0.1, 0.3, 0.49, 0.51, 0.9):
        assert c1_constant(s) > 0
    assert c1_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_image_prefactor_matches_cs_form():
    # (1-2s) C_s in its removable-limit form; compare with the direct
    # product away from s = 1/2
    for s in (0.2, 0.45, 0.7):
        direct = (1 - 2 * s) * (-math.gamma(2 * s - 1) * math.sin(math.pi * s) / math.pi)
        assert image_prefactor(s) == pytest.approx(direct, rel=1e-12)
    assert math.isfinite(image_prefactor(0.5))


def test_solve_constant_rhs():
    # f = 1 gives phi = 1/Gamma(2s+1), i.e. u = (1-x^2)^s / Gamma(2s+1)
    s = 0.3
    n = 5
    phi, iterations = solve_on((-1.0, 1.0), s, np.ones_like, n)
    assert iterations == 0
    for x in (-0.7, 0.0, 0.4):
        assert evaluate_expansion(phi, x) == pytest.approx(1.0 / math.gamma(2 * s + 1), rel=1e-13)


def test_ln_polynomial_basics():
    assert ln_polynomial(0, 0.4).tolist() == [0.0]
    for s in (0.2, 0.5, 0.8):
        p = ln_polynomial(1, s)
        assert p.size == 1
        assert p[0] == pytest.approx(-math.pi / math.sin(math.pi * s), rel=1e-12)
    for n in range(1, 8):
        assert ln_polynomial(n, 0.3).size == n


def test_ln_polynomial_vs_quadrature():
    p = ln_polynomial(3, 0.3)
    for x, ref in L3_S03_SAMPLES.items():
        assert polyval(x, p) == pytest.approx(ref, abs=1e-7)


def test_image_constant_mode():
    for s in np.linspace(0.05, 0.95, 20):
        p = ts_weighted_monomial_image(0, s)
        assert p.size == 1
        assert p[0] == pytest.approx(math.gamma(2 * s + 1), rel=1e-12)


def test_image_polynomial_only_inside_unit_interval():
    # s = 1/2, n = 0: the image of sqrt(x(1-x)) is 1 on (0,1), but at
    # x = 1.5 it is the exterior integral 1 - 1/sqrt(0.75)
    s = 0.5
    p = ts_weighted_monomial_image(0, s)
    u = lambda z: (np.asarray(z, float) * (1.0 - np.asarray(z, float))) ** s
    exterior = pv_exterior(u, 1.5, s, (0.0, 1.0))
    assert exterior == pytest.approx(1.0 - 1.0 / math.sqrt(0.75), rel=1e-10)
    assert polyval(1.5, p) == pytest.approx(1.0, rel=1e-14)
    assert abs(polyval(1.5, p) - exterior) > 1.0


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_monomial_matrix_triangular(s):
    m = 12
    mat = monomial_operator_matrix(m, s)
    lam = np.array([eigenvalue_lambda(n, s) for n in range(m + 1)])
    scale = np.max(np.abs(lam))
    assert np.max(np.abs(np.tril(mat, -1))) <= 1e-10 * scale
    np.testing.assert_allclose(np.diag(mat), lam, rtol=1e-10)


def test_eigen_consistency_matrix_conjugation():
    # conjugating the monomial-basis operator matrix into the Gegenbauer
    # basis must diagonalize it
    s = 0.4
    m = 12
    mat = monomial_operator_matrix(m, s)
    # column j of T: monomial coefficients (in x on (0,1)) of C~_j(2x-1)
    P = np.polynomial.Polynomial
    h = spectrum(m, s)[1]
    alpha = s + 0.5
    shift = P([-1.0, 2.0])
    polys = [P([1.0]), P([0.0, 2.0 * alpha])]
    for j in range(2, m + 1):
        polys.append(
            (2.0 * P([0.0, 1.0]) * (j + alpha - 1) * polys[j - 1] - (j + 2 * alpha - 2) * polys[j - 2]) / j
        )
    T = np.zeros((m + 1, m + 1))
    for j in range(m + 1):
        comp = polys[j](shift) / h[j]
        T[: len(comp.coef), j] = comp.coef
    lam = np.array([eigenvalue_lambda(n, s) for n in range(m + 1)])
    resid = mat @ T - T * lam[None, :]
    scale = np.max(np.abs(T)) * np.max(lam)
    assert np.max(np.abs(resid)) <= 1e-9 * scale


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_self_adjointness(s):
    # <K p, q>_s = <p, K q>_s for polynomials through degree 10, inner
    # products by exact-degree quadrature on (-1,1)
    deg = 10
    rng = np.random.default_rng(3)
    basis = gauss_basis(2 * deg + 2, s)
    lam = spectrum(2 * deg + 2, s)[0]

    for _ in range(6):
        p = np.polynomial.polynomial.Polynomial(rng.standard_normal(deg + 1))
        q = np.polynomial.polynomial.Polynomial(rng.standard_normal(deg + 1))
        cp = lam * basis.coeffs(p(basis.rule.nodes))
        cq = lam * basis.coeffs(q(basis.rule.nodes))
        lhs = float(np.sum((lam * cp) * cq))
        rhs = float(np.sum(cp * (lam * cq)))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-11 * scale


def test_polynomial_exactness_residual():
    # for polynomial f of degree <= n the discrete solve is exact:
    # applying the operator back reproduces f pointwise
    s = 0.4
    n = 9
    rng = np.random.default_rng(11)
    f = np.polynomial.polynomial.Polynomial(rng.standard_normal(n + 1))
    phi, _ = solve_on((-1.0, 1.0), s, f, n)
    back = GegenbauerCoeffs(s, phi.interval, spectrum(n, s)[0] * phi.coeffs)  # K phi
    x = rng.uniform(-0.99, 0.99, 100)
    resid = evaluate_expansion(back, x) - f(x)
    scale = np.max(np.abs(f(x)))
    assert np.max(np.abs(resid)) <= 1e-12 * max(scale, 1.0)


def test_scale_invariant_solution():
    # f on (a, b) pulled back to (-1, 1) gives the same coefficients
    s = 0.3
    n = 7
    a, b = -2.0, 5.0
    f = lambda t: 1.0 / (t**2 + 2.0)
    phi_ref, _ = solve_on((-1.0, 1.0), s, f, n)
    phi_map, _ = solve_on((a, b), s, lambda x: f(2 * (x - a) / (b - a) - 1), n)
    np.testing.assert_allclose(phi_map.coeffs, phi_ref.coeffs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_solver_reproduces_closed_form_images(s):
    # f = image of x^s (1-x)^s x^n on (0,1), so phi = x^n exactly once
    # N >= n; an independent reference for the single-interval solve
    x = np.linspace(0.01, 0.99, 57)
    for n in range(11):
        image = ts_weighted_monomial_image(n, s)
        for resolution in (max(n, 1), n + 5):
            phi, iterations = solve_on((0.0, 1.0), s, lambda z: polyval(z, image), resolution)
            assert iterations == 0
            assert np.max(np.abs(evaluate_expansion(phi, x) - x**n)) <= 1e-12
