import collections
import logging
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap import gegenbauer, multi_interval
from fraclap.gegenbauer import _ReferenceBlock, eval_gegenbauer, evaluate_expansion, gauss_basis
from fraclap.multi_interval import Domain, gmres, solve
from fraclap.oracle import PVConfig, pv_exterior
from fraclap.problem import ProblemSpec, resolve_rhs
from fraclap.quadrature import gauss_jacobi, map_nodes
from fraclap.specfun import DomainError, c1_constant, spectrum


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
    for interval in ((0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)):
        with pytest.raises(DomainError):
            Domain((interval,))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("intervals", [((-1.0, 1.0),), ((-1.0, -0.1), (0.1, 1.0))])
def test_solve_rejects_non_finite_rhs(intervals, value):
    def f(x):
        out = np.ones_like(x)
        out[len(out) // 2] = value
        return out

    with pytest.raises(DomainError):
        solve(ProblemSpec(0.5, Domain(intervals), f, n=8))


@pytest.mark.parametrize(
    "rhs",
    [lambda x: 1.0, lambda x: np.ones(1), lambda x: np.ones((x.size, 2))],
    ids=["scalar", "length-1", "two-columns"],
)
@pytest.mark.parametrize("intervals", [((-1.0, 1.0),), ((-1.0, -0.1), (0.1, 1.0))])
def test_solve_rejects_rhs_without_one_value_per_node(intervals, rhs):
    with pytest.raises(DomainError, match="right-hand side"):
        solve(ProblemSpec(0.5, Domain(intervals), rhs, n=8))
    # a list of one value per node is fine
    as_list = solve(ProblemSpec(0.5, Domain(intervals), lambda x: [1.0] * x.size, n=8))
    as_array = solve(ProblemSpec(0.5, Domain(intervals), np.ones_like, n=8))
    for got, want in zip(as_list.blocks, as_array.blocks):
        assert np.array_equal(got.coeffs, want.coeffs)


def test_offdiagonal_single_interval_zero():
    disc = multi_interval._Discretization(Domain(((-1.0, 1.0),)), 0.5, (6,))
    out = disc.offdiagonal(np.random.default_rng(1).standard_normal(7))
    np.testing.assert_array_equal(out, np.zeros(7))


def test_offdiagonal_sign_for_nonnegative_density():
    # positive density on the other interval pulls the value down:
    # the cross-interval kernel contribution is negative
    disc = multi_interval._Discretization(two_interval_domain(), 0.4, (8, 8))
    C = np.zeros(18)
    C[disc.offsets[:-1]] = 1.0  # phi = 1/h_0 on both intervals
    assert np.all(disc.offdiagonal(C) < 0)


def test_offdiagonal_mirror_symmetry():
    # x -> -x swaps the intervals and maps C~_j to (-1)^j C~_j, so the
    # mirrored density's values come out mirrored
    disc = multi_interval._Discretization(Domain(((-2.0, -1.0), (1.0, 2.0))), 0.35, (10, 10))
    c = np.random.default_rng(2).standard_normal(11)
    out = np.split(disc.offdiagonal(np.concatenate([c, (-1.0) ** np.arange(11) * c])), 2)
    np.testing.assert_allclose(out[0], out[1][::-1], atol=1e-13 * np.max(np.abs(out[0])))


def test_offdiagonal_matches_exterior_oracle():
    s = 0.5
    dom = two_interval_domain()
    n = 16
    disc = multi_interval._Discretization(dom, s, (n, n))
    a0, b0 = dom.intervals[0]
    # density 1 on the left interval, zero on the right
    C = np.zeros(2 * (n + 1))
    C[0] = spectrum(0, s)[1][0]
    out = disc.offdiagonal(C)[n + 1 :]
    u = lambda z: (np.asarray(z, float) - a0) ** s * (b0 - np.asarray(z, float)) ** s
    for k in range(0, n + 1, 5):
        x = disc.nodes[n + 1 + k]
        assert out[k] == pytest.approx(pv_exterior(u, x, s, (a0, b0)), abs=1e-6)


def test_offdiagonal_matches_exterior_oracle_at_small_gap():
    # the moments are exact at any gap; a node rule for the kernel was
    # 1.3e-2 off at the target node nearest a 1e-4 gap
    s, n = 0.5, 64
    dom = two_interval_domain(gap=1e-4)
    disc = multi_interval._Discretization(dom, s, (n, n))
    a0, b0 = dom.intervals[0]
    h = spectrum(2, s)[1]
    for j, cj, phi in (
        (0, h[0], lambda xt: np.ones_like(xt)),
        (2, 1.0, lambda xt: eval_gegenbauer(2, s + 0.5, xt) / h[2]),
    ):
        C = np.zeros(2 * (n + 1))
        C[j] = cj
        out = disc.offdiagonal(C)[n + 1 :]

        def u(z):
            z = np.asarray(z, dtype=float)
            return (z - a0) ** s * (b0 - z) ** s * phi(2.0 * (z - a0) / (b0 - a0) - 1.0)

        for k in range(0, n + 1, 5):
            want = pv_exterior(u, disc.nodes[n + 1 + k], s, (a0, b0))
            assert out[k] == pytest.approx(want, rel=1e-12)


def closed_form_moment(k, s, x):
    """mu_k(X) = P_k X^-(k+2s+1) 2F1((k+2s+1)/2, (k+2s+2)/2; k+s+3/2; X^-2)
    with P_k = (1+2s)_k^2 / (2^k k! (s+1)_k) 2^(2k+2s+1) B(k+s+1, k+s+1),
    in mpmath at the working precision."""
    s = mpmath.mpf(s)
    p = mpmath.rf(1 + 2 * s, k) ** 2 / (2**k * mpmath.factorial(k) * mpmath.rf(s + 1, k))
    p *= 2 ** (2 * k + 2 * s + 1) * mpmath.beta(k + s + 1, k + s + 1)
    a = (k + 2 * s + 1) / 2
    return p * x ** -(k + 2 * s + 1) * mpmath.hyp2f1(a, a + mpmath.mpf(0.5), k + s + 1.5, x**-2)


def moments(s, dx, r):
    """mu_k(1 + dx_i), k < r, as the solver forms them: a (r, points) array."""
    mu, _ = multi_interval._exterior_moments(s, np.asarray(dx, dtype=float), np.full(len(dx), r))
    return mu.reshape(r, len(dx))


@pytest.mark.parametrize("s", [0.1, 0.35, 0.9])
def test_moments_match_closed_form(s):
    # near X = 1 the moments grow like k^(2s) (mu_60 is 987 mu_0 at
    # s = 0.9, X = 1 + 1e-8), so each is held to 1e-13 of mu_0 or of
    # itself, whichever is larger; X = 1 + 1e-8 and 1 + 1e-4 take the
    # series, 1.3 and 60 the recurrence
    dx = [1e-8, 1e-4, 0.3, 59.0]
    got = moments(s, dx, 61)
    with mpmath.workdps(30):
        for i, d in enumerate(dx):
            x = 1 + mpmath.mpf(d)
            want = np.array([float(closed_form_moment(k, s, x)) for k in range(61)])
            scale = np.maximum(want[0], np.abs(want))
            assert np.all(np.abs(got[:, i] - want) <= 1e-13 * scale), d


FOUR_INTERVALS = ((-3.0, -1.5), (-1.0, 0.0), (0.2, 1.4), (2.0, 2.5))


def pairwise_nystrom(targets, sources, phi, s):
    """The dense reference for R omega^s phi at every target node: the
    Nystrom sum over every ordered pair of intervals, one pair and one
    target node at a time, from phi's values at the source rules' nodes."""
    out = [np.zeros(len(nodes)) for nodes in targets]
    for j, nodes in enumerate(targets):
        for ell, source in enumerate(sources):
            if ell != j:
                for i, x in enumerate(nodes):
                    kernel = np.abs(x - source.nodes) ** (-1.0 - 2.0 * s)
                    out[j][i] -= c1_constant(s) * np.sum(kernel * phi[ell] * source.weights)
    return out


def weighted_rule(n, s, a, b):
    """gauss_jacobi(n, s) mapped onto (a, b), weights and all: a rule for
    the weight (x-a)^s (b-x)^s there."""
    rule = gauss_jacobi(n, s)
    return SimpleNamespace(nodes=map_nodes(rule, a, b), weights=rule.weights * (0.5 * (b - a)) ** (2.0 * s + 1.0))


def fine_rules(ns, s, intervals):
    """Rules of 4N+64 points: on these domains their Nystrom sums are
    exact to rounding, so they measure the coupling's exact integral."""
    return [weighted_rule(4 * n + 64, s, a, b) for n, (a, b) in zip(ns, intervals)]


def test_offdiagonal_matches_pairwise_nystrom_sum():
    s = 0.3
    ns = (8, 0, 5, 3)
    disc = multi_interval._Discretization(Domain(FOUR_INTERVALS), s, ns)
    C = np.random.default_rng(4).standard_normal(disc.offsets[-1])
    sources = fine_rules(ns, s, FOUR_INTERVALS)
    phi = [evaluate_expansion(block, rule.nodes) for block, rule in zip(disc.solution_blocks(C), sources)]
    want = pairwise_nystrom(np.split(disc.nodes, disc.offsets[1:-1]), sources, phi, s)
    got = disc.offdiagonal(C)
    assert got.size == sum(w.size for w in want)
    want = np.concatenate(want)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_coupling_stores_each_pairs_rho_cut():
    # target j sees the first r_jl = min(N_l + 1, ceil(ln 1e16 / ln rho))
    # coefficients of source l, rho taken at j's node nearest l; far
    # pairs keep fewer than all of them
    ns = (24, 1, 16, 40)
    disc = multi_interval._Discretization(Domain(FOUR_INTERVALS), 0.3, ns)
    targets = np.split(disc.nodes, disc.offsets[1:-1])
    kept = {}
    for j, (lo, hi, matrix, columns) in enumerate(disc.blocks):
        assert (lo, hi) == (disc.offsets[j], disc.offsets[j + 1])
        assert matrix.shape == (ns[j] + 1, columns.size)
        for ell, (a, b) in enumerate(FOUR_INTERVALS):
            if ell != j:
                mine = columns[(columns >= disc.offsets[ell]) & (columns < disc.offsets[ell + 1])]
                near = np.min(np.abs(targets[j] - 0.5 * (a + b))) / (0.5 * (b - a))
                r = min(ns[ell] + 1, math.ceil(math.log(1e16) / math.log(near + math.sqrt(near * near - 1.0))))
                np.testing.assert_array_equal(mine, disc.offsets[ell] + np.arange(r))
                kept[j, ell] = r
    assert sum(kept.values()) == sum(block[3].size for block in disc.blocks)
    assert kept[3, 0] < ns[0] + 1 and kept[0, 3] < ns[3] + 1


def test_rhs_sampled_once_at_every_node():
    seen = []

    def f(x):
        seen.append(np.array(x))
        return np.cos(x)

    spec = ProblemSpec(0.4, Domain(FOUR_INTERVALS[:3]), f, n=(6, 9, 6))
    solve(spec)
    rules = [weighted_rule(n, 0.4, a, b) for n, (a, b) in zip(spec.n, spec.domain.intervals)]
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.concatenate([rule.nodes for rule in rules]))


def test_gmres_identity():
    b = np.array([3.0, -1.0, 2.0])
    res = gmres(lambda v: v, b)
    assert res.iterations == 1 and res.converged
    np.testing.assert_allclose(res.x, b, rtol=1e-14)


def test_gmres_vs_dense_lu():
    rng = np.random.default_rng(5)
    A = np.eye(20) + 0.3 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    res = gmres(lambda v: A @ v, b)
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


@pytest.mark.parametrize("scale", [1e-100, 1e100, 2.0**-560, 2.0**560])
def test_gmres_scale_invariant(scale):
    # breakdown is judged against the column A v, not against |b|: at
    # 1e100 a unit basis vector once looked like a breakdown.  At 2^-560
    # and 2^560 the square of |b| leaves the doubles, so a norm taken at
    # b's own scale reads 0 or inf; b is taken to a power-of-two unit
    # first, which is exact
    rng = np.random.default_rng(5)
    A = np.eye(20) + 0.3 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    base = gmres(lambda v: A @ v, b)
    res = gmres(lambda v: A @ v, scale * b)
    assert res.converged and res.iterations == base.iterations
    assert np.linalg.norm(res.x / scale - base.x) <= 1e-14 * np.linalg.norm(base.x)
    if math.log2(scale).is_integer():
        assert np.array_equal(res.x, scale * base.x)
        assert np.array_equal(res.history, base.history)


def test_gmres_storage_follows_iterations():
    # iterations are capped at the unknown count; storage must not scale with it
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


def make_spec(domain, s, rhs_name, n):
    rhs, label = resolve_rhs(rhs_name, s, domain)
    return ProblemSpec(s, domain, rhs, n, rhs_label=label)


@pytest.mark.parametrize("k", [-560, 560])
def test_solve_exact_under_power_of_two_scaling_of_rhs(k):
    # f = 2^k once read as f = 0 (|b|^2 underflowed: no GMRES, no
    # coupling) or ended in a singular least-squares system (it overflowed)
    domain = Domain(((0.0, 1.0), (1.5, 2.5)))
    base = solve(make_spec(domain, 0.5, "constant:1", 16))
    sol = solve(make_spec(domain, 0.5, f"constant:{2.0**k!r}", 16))
    assert base.gmres_iterations > 0
    for block, ref in zip(sol.blocks, base.blocks, strict=True):
        assert np.array_equal(block.coeffs, 2.0**k * ref.coeffs)
    assert np.array_equal(sol.residual_history, base.residual_history)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("k", [-1022, 1023])
def test_solve_exact_under_extreme_power_of_two_scaling_of_domain(k, s):
    # Omega -> 2^k Omega leaves every X, so every coefficient, bitwise as
    # it was.  At 2^-1022 the quadrature weights underflow; at 2^1023
    # they overflow, and so does every distance across the gap
    domain = Domain(((-1.5, -1.0), (1.0, 1.5)))
    base = solve(make_spec(domain, s, "constant:1", 16))
    scaled = Domain(tuple((2.0**k * a, 2.0**k * b) for a, b in domain.intervals))
    sol = solve(make_spec(scaled, s, "constant:1", 16))
    assert base.gmres_iterations > 0
    for block, ref in zip(sol.blocks, base.blocks, strict=True):
        assert np.array_equal(block.coeffs, ref.coeffs)
    assert np.array_equal(sol.residual_history, base.residual_history)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_far_interval_couples_without_overflow(s):
    # (1e100, 2e100) sees (0, 1e-100) at X ~ 2e200, where X^2 overflows;
    # from (1, 2) it is at X ~ 2e100.  Either coupling is below 1e-100,
    # and (0, 1e-100) sees the other interval at X = 3 in both domains
    far = solve(make_spec(Domain(((0.0, 1e-100), (1e100, 2e100))), s, "constant:1", 16))
    near = solve(make_spec(Domain(((0.0, 1e-100), (1.0, 2.0))), s, "constant:1", 16))
    assert np.array_equal(far.blocks[0].coeffs, near.blocks[0].coeffs)
    np.testing.assert_allclose(far.blocks[1].coeffs, near.blocks[1].coeffs, rtol=0, atol=1e-100)


def test_single_interval_matches_diagonal_path():
    # phi_j = f_j / lambda_j, f_j = (1/h_j) sum_i f(x_i) C_j(x_i) w_i, with
    # each mode evaluated on its own instead of through the solver's table
    s, n = 0.45, 24
    spec = make_spec(Domain(((-1.0, 1.0),)), s, "runge", n)
    sol = solve(spec)
    assert sol.gmres_iterations == 0
    rule = gauss_jacobi(n, s)
    lam, h = spectrum(n, s)
    weighted = spec.rhs(rule.nodes) * rule.weights
    direct = np.array([weighted @ eval_gegenbauer(j, s + 0.5, rule.nodes) for j in range(n + 1)]) / (h * lam)
    np.testing.assert_allclose(sol.blocks[0].coeffs, direct, rtol=0, atol=2e-15 * np.max(np.abs(direct)))


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


@pytest.mark.parametrize("n", [16, (16,), np.int64(16)])
def test_problem_spec_stores_a_resolution_for_each_interval(n):
    dom = Domain(((-3.0, -2.0), (-1.0, 1.0), (2.0, 3.0)))
    spec = make_spec(dom, 0.5, "constant:1", n)
    assert spec.n == (16, 16, 16)
    assert replace(spec, n=8).n == (8, 8, 8)
    for bad in ((16, 16), (16, 16, 16, 16), 0, (16, 0, 16)):
        with pytest.raises(DomainError):
            make_spec(dom, 0.5, "constant:1", bad)
    with pytest.raises(TypeError):
        make_spec(dom, 0.5, "constant:1", 16.5)


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


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh process-wide memo of reference blocks for one test."""
    memo = gegenbauer._BlockMemo()
    monkeypatch.setattr(gegenbauer, "_MEMO", memo)
    return memo


def test_operator_assembled_once_per_solve(monkeypatch, empty_memo):
    # one rule and one spectrum per distinct resolution, no scalar
    # eigenvalue or norm lookups; from the third solve of the same
    # problem on, the reference blocks are shared and nothing is rebuilt
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name, args[0]] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("eigenvalue_lambda", "gegenbauer_norm_h", "gauss_jacobi", "spectrum")
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fraclap" or mod_name.startswith("fraclap.")):
            continue
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    spec = make_spec(EIGHT_INTERVALS, 0.4, "polynomial:1,0.1", EIGHT_NS)
    sol = solve(spec)
    assert sol.gmres_iterations > 0
    once = {n: 1 for n in set(EIGHT_NS)}
    assert {n: c for (name, n), c in calls.items() if name == "gauss_jacobi"} == once
    assert {n: c for (name, n), c in calls.items() if name == "spectrum"} == once
    assert not any(name in ("eigenvalue_lambda", "gegenbauer_norm_h") for name, _ in calls)
    solve(spec)
    calls.clear()
    solve(spec)
    assert not calls


def test_solve_through_kept_block_is_bitwise_equal(empty_memo):
    spec = make_spec(EIGHT_INTERVALS, 0.55, "runge", EIGHT_NS)
    fresh = solve(spec)  # first request: blocks built, not kept
    assert not empty_memo._blocks
    solve(spec)  # second request: built again and kept
    assert set(empty_memo._blocks) == {(n, 0.55) for n in EIGHT_NS}
    kept = solve(spec)
    assert kept.gmres_iterations == fresh.gmres_iterations
    np.testing.assert_array_equal(kept.residual_history, fresh.residual_history)
    for k, f in zip(kept.blocks, fresh.blocks):
        assert np.array_equal(k.coeffs, f.coeffs)


def test_memo_keeps_a_block_once_its_key_recurs(empty_memo):
    first = empty_memo.get(10, 0.3)
    assert not empty_memo._blocks  # requested once: only the key is remembered
    empty_memo.get(12, 0.3)
    empty_memo.get(10, 0.35)
    second = empty_memo.get(10, 0.3)
    assert second is not first
    assert list(empty_memo._blocks) == [(10, 0.3)]
    assert empty_memo.get(10, 0.3) is second
    assert empty_memo._bytes == second.nbytes


def test_memo_remembers_a_bounded_number_of_keys(empty_memo, monkeypatch):
    monkeypatch.setattr(gegenbauer, "_MEMO_KEYS", 3)
    for s in (0.1, 0.2, 0.3, 0.1, 0.4):
        empty_memo.get(4, s)
    assert list(empty_memo._seen) == [(4, 0.3), (4, 0.1), (4, 0.4)]
    assert list(empty_memo._blocks) == [(4, 0.1)]
    empty_memo.get(4, 0.2)  # forgotten: a first request again
    assert list(empty_memo._blocks) == [(4, 0.1)]


def test_memo_evicts_least_recently_used_within_budget(empty_memo, monkeypatch):
    size = _ReferenceBlock(16, 0.3).nbytes  # the same for every s
    monkeypatch.setattr(gegenbauer, "_MEMO_BYTES", 2 * size + size // 2)

    def request_twice(n, s):
        empty_memo.get(n, s)
        return empty_memo.get(n, s)

    a = request_twice(16, 0.3)
    request_twice(16, 0.4)
    assert empty_memo.get(16, 0.3) is a  # 0.3 is now the most recently used
    request_twice(16, 0.5)
    assert list(empty_memo._blocks) == [(16, 0.3), (16, 0.5)]
    assert empty_memo._bytes == 2 * size
    # a block larger than the whole budget is never kept
    assert _ReferenceBlock(64, 0.3).nbytes > gegenbauer._MEMO_BYTES
    for _ in range(3):
        empty_memo.get(64, 0.3)
    assert list(empty_memo._blocks) == [(16, 0.3), (16, 0.5)]
    assert empty_memo._bytes == 2 * size


def test_shared_block_arrays_are_read_only(empty_memo):
    empty_memo.get(9, 0.45)
    block = empty_memo.get(9, 0.45)
    for array in (block.table, block.norms, block.rule.nodes, block.rule.weights):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_memo_logs_builds_kept_and_evicted_blocks(empty_memo, monkeypatch, caplog):
    size = _ReferenceBlock(6, 0.3).nbytes
    monkeypatch.setattr(gegenbauer, "_MEMO_BYTES", size)
    with caplog.at_level(logging.DEBUG, logger="fraclap"):
        for s in (0.3, 0.3, 0.4, 0.4):
            empty_memo.get(6, s)
    # the build time is checked by test_memo_logs_build_time
    records = [(r.name, r.levelno, re.sub(r" in \S+ ms", "", r.getMessage())) for r in caplog.records]
    line = "reference block n=6 s={} {}: %d bytes" % size
    assert records == [
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.3, "built")),
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.3, "built")),
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.3, "retained")),
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.4, "built")),
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.4, "built")),
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.4, "retained")),
        ("fraclap.gegenbauer", logging.DEBUG, line.format(0.3, "evicted")),
    ]


def test_memo_logs_build_time(empty_memo, monkeypatch, caplog):
    class SlowBlock(_ReferenceBlock):
        def __init__(self, n, sv):
            time.sleep(0.05)
            super().__init__(n, sv)

    monkeypatch.setattr(gegenbauer, "_ReferenceBlock", SlowBlock)
    with caplog.at_level(logging.DEBUG, logger="fraclap"):
        empty_memo.get(6, 0.3)
    [record] = caplog.records
    built = re.fullmatch(r"reference block n=6 s=0.3 built in (\S+) ms: \d+ bytes", record.getMessage())
    assert built and 50.0 <= float(built.group(1)) < 60e3


def test_concurrent_solves_share_blocks_bitwise(empty_memo, monkeypatch):
    # more threads than cores, a budget of a few blocks so that blocks are
    # kept, shared and evicted while other threads solve through them
    specs = [
        make_spec(EIGHT_INTERVALS, s, rhs, ns)
        for s, rhs, ns in (
            (0.4, "runge", EIGHT_NS),
            (0.6, "polynomial:1,0.1", EIGHT_NS),
            (0.4, "constant:1", (20,) * 8),
            (0.25, "runge", (12, 16) * 4),
        )
    ]
    want = [[block.coeffs for block in solve(spec).blocks] for spec in specs]
    monkeypatch.setattr(gegenbauer, "_MEMO_BYTES", 3 * _ReferenceBlock(20, 0.4).nbytes)
    errors = []
    done = collections.Counter()
    deadline = time.monotonic() + 2.0

    def worker(k):
        try:
            i = k
            while time.monotonic() < deadline:
                spec = specs[i % len(specs)]
                got = [block.coeffs for block in solve(spec).blocks]
                if not all(np.array_equal(g, w) for g, w in zip(got, want[i % len(specs)])):
                    errors.append(f"thread {k}: solve {i} differs")
                    return
                done[k] += 1
                i += 1
        except Exception as exc:  # reported in the main thread
            errors.append(f"thread {k}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(k,)) for k in range((os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(done) == len(threads)
    kept = sum(block.nbytes for block in empty_memo._blocks.values())
    assert empty_memo._bytes == kept <= gegenbauer._MEMO_BYTES


def test_coefficients_solve_residual_equation():
    # phi = K^-1 (f - R omega^s phi) at the nodes, R omega^s phi rebuilt
    # as the dense pairwise sum over fine source rules, K^-1 from the
    # reference blocks
    s = 0.6
    spec = make_spec(EIGHT_INTERVALS, s, "runge", EIGHT_NS)
    sol = solve(spec)
    rules = [weighted_rule(n, s, a, b) for n, (a, b) in zip(EIGHT_NS, EIGHT_INTERVALS.intervals)]
    sources = fine_rules(EIGHT_NS, s, EIGHT_INTERVALS.intervals)
    Y = [evaluate_expansion(block, rule.nodes) for block, rule in zip(sol.blocks, sources)]
    RY = pairwise_nystrom([rule.nodes for rule in rules], sources, Y, s)
    scale = max(np.max(np.abs(block.coeffs)) for block in sol.blocks)
    for block, n, rule, ry in zip(sol.blocks, EIGHT_NS, rules, RY):
        expect = gauss_basis(n, s).coeffs(spec.rhs(rule.nodes) - ry)
        np.testing.assert_allclose(block.coeffs, expect, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("s", [0.25, 0.6, 0.9])
@pytest.mark.parametrize("rhs", ["runge", "constant:1"])
def test_solve_matches_dense_coefficient_system(s, rhs):
    # (I + K^-1 R V) phi = K^-1 F built column by column from the
    # discretization and solved densely; without its refinement step the
    # solve is off by up to 3.7e-14 here
    spec = make_spec(EIGHT_INTERVALS, s, rhs, EIGHT_NS)
    disc = multi_interval._Discretization(EIGHT_INTERVALS, s, EIGHT_NS)
    eye = np.eye(disc.nodes.size)
    A = eye + np.column_stack([disc.coupling(e) for e in eye])
    want = np.linalg.solve(A, disc.coeffs(spec.rhs(disc.nodes)))
    got = np.concatenate([block.coeffs for block in solve(spec).blocks])
    assert np.linalg.norm(got - want) <= 5e-15 * np.linalg.norm(want)


FIX = 112  # fixed-point scale 2^-112 of exact_gegenbauer_table


def exact_gegenbauer_table(n, lam, x):
    """C_j^{(lam)}(x_i) for j = 0..n, rounded once to doubles.

    The three-term recurrence runs in fixed point on Python integers from
    the exact values of lam and x; the digits it loses near +-1 lie far
    below those of a double.
    """
    one = 1 << FIX

    def fixed(v):
        return round(Fraction(v) * one)

    lam = Fraction(lam)
    xf = np.array([fixed(v) for v in x], dtype=object)
    rows = [np.full(xf.shape, one, dtype=object), (fixed(2 * lam) * xf) >> FIX]
    for j in range(2, n + 1):
        u, v = fixed(2 * (j + lam - 1) / j), fixed((j + 2 * lam - 2) / j)
        rows.append((((u * xf) >> FIX) * rows[-1] - v * rows[-2]) >> FIX)
    return np.array([[c / one for c in row] for row in rows[: n + 1]])


class DenseBlock:
    """K^-1 through the full (n+1)^2 table at every node: the reference
    for the half-width table of _ReferenceBlock.  The table is exact to
    a double's rounding, as the three-term recurrence in doubles is not
    near the endpoints."""

    def __init__(self, n, sv):
        self.rule = gauss_jacobi(n, sv)
        self.table = exact_gegenbauer_table(n, sv + 0.5, self.rule.nodes)
        self.lam, self.norms = spectrum(n, sv)

    def coeffs(self, values):
        return (values * self.rule.weights) @ self.table.T / self.norms / self.lam


class DenseDiscretization(multi_interval._Discretization):
    """The transform pair one interval at a time through DenseBlock."""

    def __init__(self, domain, s, ns):
        super().__init__(domain, s, ns)
        self.dense = [DenseBlock(n, self.sv) for n in ns]

    def coeffs(self, Y):
        blocks = np.split(Y, self.offsets[1:-1])
        return np.concatenate([ref.coeffs(v) for ref, v in zip(self.dense, blocks)])


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 255, 256])
def test_half_table_matches_dense_table(n):
    # odd and even point counts, the centre-node rules and the smallest ones;
    # one interval's vector and a stack of three
    s = 0.35
    half, dense = _ReferenceBlock(n, s), DenseBlock(n, s)
    assert half.table.shape == (n + 1, n // 2 + 1)
    rng = np.random.default_rng(n)
    for shape in ((n + 1,), (3, n + 1)):
        v = rng.standard_normal(shape)
        want = dense.coeffs(v)
        np.testing.assert_allclose(half.coeffs(v), want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_block_rows_match_mpmath_at_outermost_nodes():
    # the rule's increment recurrence keeps its digits near +-1, where
    # the three-term recurrence in doubles loses about 1e-9 at n = 1024
    n, s = 1024, 0.35
    block = _ReferenceBlock(n, s)
    got = block.table[:, -2:]
    want = np.empty(got.shape)
    with mpmath.workdps(40):
        lam = mpmath.mpf(s) + mpmath.mpf(0.5)
        for i, xi in enumerate(block.rule.nodes[-2:]):
            x = mpmath.mpf(float(xi))
            prev, c = mpmath.mpf(1), 2 * lam * x  # C_0, C_1
            at_one = 2 * lam  # C_1(1)
            want[0, i], want[1, i] = 1.0, float(c / at_one)
            for j in range(2, n + 1):
                prev, c = c, (2 * x * (j + lam - 1) * c - (j + 2 * lam - 2) * prev) / j
                at_one *= (j + 2 * lam - 1) / j
                want[j, i] = float(c / at_one)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


@pytest.mark.parametrize("ns", [(8, 5, 8), (5, 8, 5, 8)])
def test_batched_transforms_with_non_adjacent_resolutions(monkeypatch, ns):
    # intervals of one resolution are gathered into one stack even when
    # another resolution sits between them
    domain = Domain(((0.0, 1.0), (1.2, 2.0), (2.5, 4.0), (4.4, 5.0))[: len(ns)])
    spec = make_spec(domain, 0.45, "runge", ns)
    got = solve(spec)
    monkeypatch.setattr(multi_interval, "_Discretization", DenseDiscretization)
    want = solve(spec)
    assert got.gmres_iterations == want.gmres_iterations > 0
    scale = max(np.max(np.abs(block.coeffs)) for block in want.blocks)
    for g, w in zip(got.blocks, want.blocks):
        np.testing.assert_allclose(g.coeffs, w.coeffs, rtol=0, atol=1e-13 * scale)


def test_single_interval_solve_memory():
    # the full (N+1)^2 table at N = 2048 alone would be 33.6 MB
    spec = make_spec(Domain(((-1.0, 1.0),)), 0.4, "runge", 2048)
    tracemalloc.start()
    try:
        solve(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_large_multi_interval_solve_memory():
    # eight intervals at N = 1024: a node-pair kernel held 7 blocks of
    # 1025 x 1025 doubles per later interval and peaked at 237 MB
    domain = Domain(tuple((2.0 * k, 2.0 * k + 1.5) for k in range(8)))
    spec = make_spec(domain, 0.5, "runge", 1024)
    tracemalloc.start()
    try:
        sol = solve(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.gmres_iterations > 0
    assert peak < 100e6


def test_tiny_interval_next_to_a_large_one():
    # the tiny interval sits 1e-12 from the large one, 2e-12 of the
    # large one's half-length: a backward recurrence there would start
    # millions of steps out, and the system is so non-normal that GMRES
    # breaks down short of its tolerance and restarts once
    domain = Domain(((-1.0, 0.0), (1e-12, 1.01e-10)))
    spec = make_spec(domain, 0.5, "constant:1", 32)
    start = time.perf_counter()
    sol = solve(spec)
    assert time.perf_counter() - start < 1.0
    assert all(np.all(np.isfinite(block.coeffs)) for block in sol.blocks)
    disc = multi_interval._Discretization(domain, 0.5, (32, 32))
    C = np.concatenate([block.coeffs for block in sol.blocks])
    got = disc.offdiagonal(C)
    h = spectrum(32, 0.5)[1]
    with mpmath.workdps(40):
        for j, rows in ((0, range(30, 33)), (1, range(33, 36))):
            (a, b), block = domain.intervals[1 - j], sol.blocks[1 - j]
            for i in rows:
                # X - 1 in the source's frame, from the exact node and endpoints
                node = mpmath.mpf(float(disc.nodes[i]))
                x = 1 + (a - node if j == 0 else node - b) * 2 / (mpmath.mpf(b) - a)
                want = -c1_constant(0.5) * sum(
                    (-1) ** (k * (j == 0)) * c * closed_form_moment(k, 0.5, x) / h[k]
                    for k, c in enumerate(block.coeffs)
                )
                assert got[i] == pytest.approx(float(want), rel=1e-12)


# Invariances of the discrete solve that the mathematics guarantees,
# on 2-4 intervals with gaps >= 0.05.
INVARIANCE_REL = 1e-12


@st.composite
def domains(draw):
    m = draw(st.integers(2, 4))
    a = draw(st.floats(-3.0, 1.0))
    intervals = []
    for k in range(m):
        if k:
            a += draw(st.floats(0.05, 1.0))
        length = draw(st.floats(0.2, 2.0))
        intervals.append((a, a + length))
        a += length
    ns = tuple(draw(st.lists(st.integers(6, 24), min_size=m, max_size=m)))
    return Domain(tuple(intervals)), draw(st.floats(0.1, 0.9)), ns


smooth_rhs = st.builds(
    lambda w, p, c: lambda x: np.cos(w * np.asarray(x, float) + p) + c * np.asarray(x, float),
    st.floats(0.5, 2.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
)
nonzero_factor = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))


def phi_blocks(domain, s, ns, f):
    return [block.coeffs for block in solve(ProblemSpec(s, domain, f, ns)).blocks]


def peak(blocks):
    return max(np.max(np.abs(c)) for c in blocks)


def assert_blocks_close(got, want, scale):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=INVARIANCE_REL * scale)


@settings(max_examples=20, deadline=None)
@given(domains(), smooth_rhs, st.floats(0.5, 2.0), st.floats(-3.0, 3.0))
def test_invariance_under_translation_and_scale(problem, f, scale, shift):
    # blocks live in each interval's reference frame, so Omega -> L Omega + t
    # with f -> f((x - t) / L) leaves every phi block unchanged
    domain, s, ns = problem
    moved = Domain(tuple((scale * a + shift, scale * b + shift) for a, b in domain.intervals))
    base = phi_blocks(domain, s, ns, f)
    got = phi_blocks(moved, s, ns, lambda x: f((np.asarray(x, float) - shift) / scale))
    assert_blocks_close(got, base, peak(base))


@settings(max_examples=20, deadline=None)
@given(domains(), smooth_rhs)
def test_invariance_under_reflection(problem, f):
    # x -> -x reverses the block order and the reference variable, which
    # flips the sign of the odd coefficients
    domain, s, ns = problem
    mirrored = Domain(tuple((-b, -a) for a, b in reversed(domain.intervals)))
    base = phi_blocks(domain, s, ns, f)
    got = phi_blocks(mirrored, s, ns[::-1], lambda x: f(-np.asarray(x, float)))
    want = [(-1.0) ** np.arange(c.size) * c for c in base[::-1]]
    assert_blocks_close(got, want, peak(base))


@settings(max_examples=20, deadline=None)
@given(domains(), smooth_rhs, smooth_rhs, nonzero_factor, nonzero_factor, st.integers(-100, 100))
def test_linearity_in_rhs(problem, f, g, alpha, beta, magnitude):
    domain, s, ns = problem
    alpha, beta = alpha * 10.0**magnitude, beta * 10.0**magnitude
    phi_f = phi_blocks(domain, s, ns, f)
    phi_g = phi_blocks(domain, s, ns, g)
    got = phi_blocks(domain, s, ns, lambda x: alpha * f(x) + beta * g(x))
    want = [alpha * cf + beta * cg for cf, cg in zip(phi_f, phi_g)]
    assert_blocks_close(got, want, abs(alpha) * peak(phi_f) + abs(beta) * peak(phi_g))
