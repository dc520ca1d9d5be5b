"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (direct to the terminal, bypassing capture) with the worst
observed deviation, so a full run gives a nine-line scoreboard.
"""

import math

import numpy as np
from scipy.special import beta as sp_beta

from fraclap.gegenbauer import GegenbauerCoeffs, eval_gegenbauer, evaluate_expansion, gauss_basis
from fraclap.multi_interval import Domain, _Discretization, solve
from fraclap.operator_core import monomial_operator_matrix, ts_weighted_monomial_image
from fraclap.oracle import pv_apply, pv_exterior, weighted_mode
from fraclap.problem import ProblemSpec, resolve_rhs
from fraclap.quadrature import gauss_jacobi, map_nodes, total_mass
from fraclap.sobolev_metrics import error_between, fit_order, is_super_algebraic
from fraclap.specfun import eigenvalue_lambda, gegenbauer_norm_h, spectrum

TWO_INTERVALS = Domain(((-1.075, -0.075), (0.075, 1.075)))


def report(capfd, num: int, ok: bool, detail: str):
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def make_spec(domain, s, rhs_name, n):
    rhs, label = resolve_rhs(rhs_name, s, domain)
    return ProblemSpec(s, domain, rhs, n, rhs_label=label)


def relative_errors(domain, s, rhs_name, n_list, ref_n, r=0.0):
    ref = solve(make_spec(domain, s, rhs_name, ref_n))
    ref_norm = np.sqrt(sum(float(np.sum(b.coeffs**2)) for b in ref.blocks))
    errs = []
    iters = []
    for n in n_list:
        sol = solve(make_spec(domain, s, rhs_name, n))
        e = np.sqrt(
            sum(error_between(b, rb, r) ** 2 for b, rb in zip(sol.blocks, ref.blocks))
        )
        errs.append(float(e) / ref_norm)
        iters.append(sol.gmres_iterations)
    return errs, iters


def test_criterion_1_eigen_decomposition_oracle(capfd):
    points = (-0.83, -0.41, 0.07, 0.52, 0.88)
    worst = 0.0
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for n in range(7):
            _, uprime = weighted_mode(n, s, (-1.0, 1.0))
            lam = eigenvalue_lambda(n, s)
            h = gegenbauer_norm_h(n, s)
            for x in points:
                want = lam * eval_gegenbauer(n, s + 0.5, x) / h
                dev = abs(pv_apply(uprime, x, s, (-1.0, 1.0)) - want)
                worst = max(worst, dev / (1e-6 * max(1.0, lam)))
    report(capfd, 1, worst <= 1.0, f"worst deviation {worst:.2e} of tolerance")


def test_criterion_2_closed_form_images(capfd):
    worst0 = 0.0
    for s in np.linspace(0.04, 0.96, 20):
        p = ts_weighted_monomial_image(0, s)
        worst0 = max(worst0, abs(p[0] - math.gamma(2 * s + 1)))
    ok0 = worst0 <= 1e-12
    worst_tri = 0.0
    for s in (0.25, 0.75):
        mat = monomial_operator_matrix(12, s)
        lam = np.array([eigenvalue_lambda(n, s) for n in range(13)])
        scale = np.max(lam)
        worst_tri = max(
            worst_tri,
            np.max(np.abs(np.tril(mat, -1))) / scale,
            np.max(np.abs(np.diag(mat) - lam) / lam),
        )
    ok = ok0 and worst_tri <= 1e-10
    report(capfd, 2, ok, f"constant-mode dev {worst0:.2e}, matrix dev {worst_tri:.2e}")


def test_criterion_3_runge_exponential_convergence(capfd):
    dom = Domain(((-1.0, 1.0),))
    n_list = [8, 16, 32, 64, 128, 256]
    ok = True
    detail = []
    for s in (1e-4, 0.25, 0.5, 0.75):
        errs, _ = relative_errors(dom, s, "runge", n_list, 512)
        final = errs[-1]
        superflag = is_super_algebraic(n_list, errs)
        ok &= final <= 1e-11 and superflag
        detail.append(f"s={s:g}: err(256)={final:.2e} super={superflag}")
    report(capfd, 3, ok, "; ".join(detail))


def test_criterion_4_absx_orders(capfd):
    dom = Domain(((-1.0, 1.0),))
    n_list = [16, 32, 64, 128, 256]
    ok = True
    detail = []
    for s in (0.25, 0.5, 0.75):
        e_l2, _ = relative_errors(dom, s, "absx", n_list, 512, r=0.0)
        e_h, _ = relative_errors(dom, s, "absx", n_list, 512, r=2.0 * s)
        p_l2 = fit_order(n_list, e_l2)
        p_h = fit_order(n_list, e_h)
        ok &= 1.45 <= p_l2 <= 2.1 and 1.35 <= p_h <= 1.65
        detail.append(f"s={s:g}: L2 order {p_l2:.2f}, H2s order {p_h:.2f}")
    report(capfd, 4, ok, "; ".join(detail))


def test_criterion_5_two_interval_table(capfd):
    table = {8: 9.3134e-05, 16: 3.1795e-08, 28: 1.4699e-13}
    n_list = sorted(table)
    errs, iters = relative_errors(TWO_INTERVALS, 0.5, "constant:1", n_list, 64)
    ok = True
    detail = []
    for n, err in zip(n_list, errs):
        ratio = err / table[n]
        ok &= 0.1 <= ratio <= 10.0
        detail.append(f"N={n}: err {err:.2e} ({ratio:.2f}x table)")
    ok &= max(iters) <= 8
    detail.append(f"iterations {iters}")
    report(capfd, 5, ok, "; ".join(detail))


def test_criterion_6_quadrature_exactness(capfd):
    worst = 0.0
    for n in (4, 8, 16, 32):
        for alpha in (0.1, 0.5, 0.9):
            rule = gauss_jacobi(n, alpha)
            scale = total_mass(alpha)
            for m in range(2 * n + 2):
                got = float(np.dot(rule.weights, rule.nodes**m))
                if m % 2 == 1:
                    worst = max(worst, abs(got) / scale)
                    continue
                want = sp_beta((m + 1) / 2.0, alpha + 1.0)
                worst = max(worst, abs(got - want) / want)
    report(capfd, 6, worst <= 1e-12, f"worst relative moment error {worst:.2e}")


def test_criterion_7_self_adjointness(capfd):
    deg = 10
    worst_lam = worst_gram = 0.0
    for s in (0.25, 0.5, 0.75):
        basis = gauss_basis(2 * deg + 2, s)
        lam = spectrum(2 * deg + 2, s)[0]
        # coefficient vectors of all monomials x^i, i <= deg, by the
        # solver's transform; bilinearity extends the check to every
        # polynomial pair of degree <= deg
        cs = [lam * basis.coeffs(basis.rule.nodes**i) for i in range(deg + 1)]
        for ci in cs:
            for cj in cs:
                lhs = float(np.sum((lam * ci) * cj))
                rhs = float(np.sum(ci * (lam * cj)))
                worst_lam = max(worst_lam, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        # without the Gegenbauer basis: S_mn = int_0^1 omega^s x^m (-Delta)^s[omega^s x^n]
        # from the monomial matrix and a 13-point rule, exact to degree 25
        rule = gauss_jacobi(12, s)
        nodes, weights = map_nodes(rule, 0.0, 1.0), rule.weights * 0.5 ** (2.0 * s + 1.0)
        V = nodes[:, None] ** np.arange(deg + 1)
        S = V.T @ (weights[:, None] * V) @ monomial_operator_matrix(deg, s)
        worst_gram = max(worst_gram, float(np.max(np.abs(S - S.T)) / np.max(np.abs(S))))
    ok = max(worst_lam, worst_gram) <= 1e-11
    report(capfd, 7, ok, f"worst symmetry defect {worst_lam:.2e}, monomial Gram matrix {worst_gram:.2e}")


def test_criterion_8_polynomial_exactness(capfd):
    rng = np.random.default_rng(17)
    worst = 0.0
    for s in (0.25, 0.6):
        for n in (5, 11):
            f = np.polynomial.polynomial.Polynomial(rng.standard_normal(n + 1))
            phi = solve(ProblemSpec(s, Domain(((-1.0, 1.0),)), f, n)).blocks[0]
            back = GegenbauerCoeffs(s, phi.interval, spectrum(n, s)[0] * phi.coeffs)
            x = rng.uniform(-0.999, 0.999, 100)
            resid = np.abs(evaluate_expansion(back, x) - f(x))
            scale = max(np.max(np.abs(f(x))), 1.0)
            worst = max(worst, float(np.max(resid)) / scale)
    report(capfd, 8, worst <= 1e-12, f"worst pointwise residual {worst:.2e}")


def test_criterion_9_offdiagonal_vs_oracle(capfd):
    s = 0.5
    n = 16
    disc = _Discretization(TWO_INTERVALS, s, (n, n))
    a0, b0 = TWO_INTERVALS.intervals[0]
    h = spectrum(2, s)[1]
    # the densities 1 = h_0 C~_0, C~_1 and C~_2 on the left interval: the
    # index and value of their one coefficient, and their closed form
    densities = (
        (0, h[0], lambda xt: np.ones_like(xt)),
        (1, 1.0, lambda xt: 2.0 * (s + 0.5) * xt / h[1]),
        (2, 1.0, lambda xt: eval_gegenbauer(2, s + 0.5, xt) / h[2]),
    )
    worst = 0.0
    for j, cj, phi_ref in densities:
        C = np.zeros(2 * (n + 1))
        C[j] = cj
        out = disc.offdiagonal(C)[n + 1 :]

        def u(z):
            z = np.asarray(z, dtype=float)
            xt = 2.0 * (z - a0) / (b0 - a0) - 1.0
            return (z - a0) ** s * (b0 - z) ** s * phi_ref(xt)

        for k in range(0, n + 1, 4):
            x = disc.nodes[n + 1 + k]
            ref = pv_exterior(u, x, s, (a0, b0))
            worst = max(worst, abs(out[k] - ref))
    report(capfd, 9, worst <= 1e-6, f"worst deviation from quadrature oracle {worst:.2e}")
