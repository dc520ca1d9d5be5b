import collections
import sys
import tracemalloc

import numpy as np
import pytest

from fraclap.gegenbauer import evaluate_expansion, forward_transform
from fraclap.multi_interval import (
    Domain,
    apply_offdiagonal,
    gmres,
    solve,
)
from fraclap.operator_core import solve_diagonal
from fraclap.oracle import PVConfig, pv_exterior
from fraclap.problem import ProblemSpec, resolve_rhs
from fraclap.quadrature import gauss_jacobi, map_to_interval
from fraclap.specfun import DomainError


def two_interval_domain(gap=0.3, length=1.0):
    return Domain(((-length - gap / 2, -gap / 2), (gap / 2, length + gap / 2)))


def test_domain_validation():
    Domain(((-1.0, 1.0),))
    Domain(((-2.0, -1.0), (0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(DomainError):
        Domain(((1.0, -1.0),))
    with pytest.raises(DomainError):
        Domain(((-1.0, 0.5), (0.4, 1.0)))  # overlap
    with pytest.raises(DomainError):
        Domain(((-1.0, 0.0), (0.0, 1.0)))  # touching closures
    with pytest.raises(DomainError):
        Domain(())


def test_offdiagonal_single_interval_zero():
    s = 0.5
    rules = [map_to_interval(gauss_jacobi(6, s), -1.0, 1.0)]
    out = apply_offdiagonal([np.ones(7)], rules, s)
    np.testing.assert_array_equal(out[0], np.zeros(7))


def test_offdiagonal_sign_for_nonnegative_density():
    # positive density on the other interval pulls the value down:
    # the cross-interval kernel contribution is negative
    s = 0.4
    dom = two_interval_domain()
    rules = [map_to_interval(gauss_jacobi(8, s), a, b) for a, b in dom.intervals]
    out = apply_offdiagonal([np.ones(9), np.ones(9)], rules, s)
    assert np.all(out[0] < 0) and np.all(out[1] < 0)


def test_offdiagonal_mirror_symmetry():
    s = 0.35
    dom = Domain(((-2.0, -1.0), (1.0, 2.0)))
    rules = [map_to_interval(gauss_jacobi(10, s), a, b) for a, b in dom.intervals]
    # even density: phi(y) = y^2
    phi = [rule.nodes**2 for rule in rules]
    out = apply_offdiagonal(phi, rules, s)
    np.testing.assert_allclose(out[0], out[1][::-1], atol=1e-13)


def test_offdiagonal_matches_exterior_oracle():
    s = 0.5
    dom = two_interval_domain()
    n = 16
    rules = [map_to_interval(gauss_jacobi(n, s), a, b) for a, b in dom.intervals]
    a0, b0 = dom.intervals[0]
    # density 1 on the left interval, zero on the right
    out = apply_offdiagonal([np.ones(n + 1), np.zeros(n + 1)], rules, s)
    u = lambda z: (np.asarray(z, float) - a0) ** s * (b0 - np.asarray(z, float)) ** s
    for k in range(0, n + 1, 5):
        x = rules[1].nodes[k]
        assert out[1][k] == pytest.approx(pv_exterior(u, x, s, (a0, b0)), abs=1e-6)


def test_gmres_identity():
    b = np.array([3.0, -1.0, 2.0])
    res = gmres(lambda v: v, b)
    assert res.iterations == 1 and res.converged
    np.testing.assert_allclose(res.x, b, rtol=1e-14)


def test_gmres_vs_dense_lu():
    rng = np.random.default_rng(5)
    A = np.eye(20) + 0.3 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    res = gmres(lambda v: A @ v, b, tol=1e-13)
    ref = np.linalg.solve(A, b)
    assert res.converged
    np.testing.assert_allclose(res.x, ref, rtol=0, atol=1e-10 * np.max(np.abs(ref)))


def test_gmres_residual_history_monotone():
    rng = np.random.default_rng(9)
    A = np.eye(30) + 0.5 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    res = gmres(lambda v: A @ v, b)
    assert np.all(np.diff(res.history) <= 1e-14)


def test_gmres_zero_rhs():
    res = gmres(lambda v: v, np.zeros(4))
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(4))


def test_gmres_happy_breakdown():
    # rhs is an eigenvector: exact solution in one step, clean exit
    A = np.diag([2.0, 3.0, 5.0])
    b = np.array([1.0, 0.0, 0.0])
    res = gmres(lambda v: A @ v, b)
    assert res.converged
    np.testing.assert_allclose(res.x, [0.5, 0.0, 0.0], atol=1e-14)


def test_gmres_storage_follows_iterations():
    # maxit defaults to the unknown count; storage must not scale with it
    b = np.random.default_rng(3).standard_normal(200_000)
    tracemalloc.start()
    try:
        res = gmres(lambda v: 2.0 * v, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged and res.iterations == 1
    assert peak < 50e6
    np.testing.assert_allclose(res.x, 0.5 * b, rtol=1e-14)


def make_spec(domain, s, rhs_name, n, tol=1e-13):
    rhs, label = resolve_rhs(rhs_name, s, domain)
    return ProblemSpec(s, domain, rhs, n, gmres_tol=tol, rhs_label=label)


def test_single_interval_matches_diagonal_path():
    s = 0.45
    dom = Domain(((-1.0, 1.0),))
    spec = make_spec(dom, s, "runge", 24)
    sol = solve(spec)
    assert sol.gmres_iterations == 0
    rule = gauss_jacobi(24, s)
    direct = solve_diagonal(forward_transform(spec.rhs(rule.nodes), rule, s))
    np.testing.assert_allclose(sol.blocks[0].coeffs, direct.coeffs, rtol=0, atol=1e-14)


def test_two_interval_solution_symmetry():
    # symmetric domain, even rhs: blocks mirror each other up to parity signs
    s = 0.5
    spec = make_spec(two_interval_domain(), s, "constant:1", 18)
    sol = solve(spec)
    left, right = sol.blocks[0].coeffs, sol.blocks[1].coeffs
    parity = (-1.0) ** np.arange(left.size)
    np.testing.assert_allclose(left, parity * right, atol=1e-11)


def test_interval_label_permutation():
    # domain intervals are ordered, so a permutation of the inputs is the
    # identity after sorting; instead check stability: re-running the
    # same spec yields bit-identical coefficients
    spec = make_spec(two_interval_domain(), 0.5, "constant:1", 16)
    a = solve(spec)
    b = solve(spec)
    for ba, bb in zip(a.blocks, b.blocks):
        np.testing.assert_array_equal(ba.coeffs, bb.coeffs)


def test_large_gap_decouples():
    s = 0.3
    n = 14
    far = Domain(((-1.0, 0.0), (1e6, 1e6 + 1.0)))
    spec = make_spec(far, s, "constant:1", n)
    sol = solve(spec)
    iso = solve(make_spec(Domain(((-1.0, 0.0),)), s, "constant:1", n))
    diff = np.max(np.abs(sol.blocks[0].coeffs - iso.blocks[0].coeffs))
    assert diff <= 1e-6 * np.max(np.abs(iso.blocks[0].coeffs))


def test_iteration_count_independent_of_resolution():
    dom = two_interval_domain()
    iters = {}
    for n in (8, 64):
        sol = solve(make_spec(dom, 0.5, "constant:1", n))
        iters[n] = sol.gmres_iterations
    assert iters[64] <= iters[8] + 2
    assert sol.final_residual <= 1e-13


def test_per_interval_resolutions():
    dom = two_interval_domain()
    spec = make_spec(dom, 0.5, "constant:1", (10, 14))
    sol = solve(spec)
    assert len(sol.blocks[0]) == 11 and len(sol.blocks[1]) == 15


def test_solution_values_against_fine_reference():
    s = 0.5
    dom = two_interval_domain()
    coarse = solve(make_spec(dom, s, "constant:1", 20))
    fine = solve(make_spec(dom, s, "constant:1", 40))
    a, b = dom.intervals[1]
    x = np.linspace(a + 0.05, b - 0.05, 9)
    np.testing.assert_allclose(
        evaluate_expansion(coarse.blocks[1], x),
        evaluate_expansion(fine.blocks[1], x),
        rtol=1e-10,
    )


EIGHT_INTERVALS = Domain(tuple((1.3 * k, 1.3 * k + 1.0 + 0.1 * (k % 3)) for k in range(8)))
EIGHT_NS = (12, 20, 12, 12, 20, 12, 12, 12)


def test_operator_assembled_once_per_solve(monkeypatch):
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("eigenvalue_lambda", "gegenbauer_norm_h", "gauss_jacobi")
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fraclap" or mod_name.startswith("fraclap.")):
            continue
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    sol = solve(make_spec(EIGHT_INTERVALS, 0.4, "polynomial:1,0.1", EIGHT_NS))
    assert sol.gmres_iterations > 0
    distinct = set(EIGHT_NS)
    assert calls["gauss_jacobi"] == len(distinct)
    assert calls["eigenvalue_lambda"] <= sum(n + 1 for n in distinct)
    assert calls["gegenbauer_norm_h"] <= sum(n + 1 for n in distinct)


def test_coefficients_solve_residual_equation():
    # phi = K^-1 (f - R Y) with Y the node values of the returned phi,
    # rebuilt from the standalone transform, diagonal solve and coupling
    s = 0.6
    spec = make_spec(EIGHT_INTERVALS, s, "runge", EIGHT_NS)
    sol = solve(spec)
    rules = [
        map_to_interval(gauss_jacobi(n, s), a, b) for n, (a, b) in zip(EIGHT_NS, EIGHT_INTERVALS.intervals)
    ]
    Y = [evaluate_expansion(block, rule.nodes) for block, rule in zip(sol.blocks, rules)]
    RY = apply_offdiagonal(Y, rules, s)
    scale = max(np.max(np.abs(block.coeffs)) for block in sol.blocks)
    for block, rule, ry in zip(sol.blocks, rules, RY):
        expect = solve_diagonal(forward_transform(spec.rhs(rule.nodes) - ry, rule, s))
        np.testing.assert_allclose(block.coeffs, expect.coeffs, rtol=0, atol=1e-12 * scale)
