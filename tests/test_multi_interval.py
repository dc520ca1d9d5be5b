import collections
import logging
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap import multi_interval
from fraclap.gegenbauer import eval_gegenbauer_batch, evaluate_expansion, forward_transform
from fraclap.multi_interval import (
    Domain,
    _ReferenceBlock,
    apply_offdiagonal,
    gmres,
    solve,
)
from fraclap.operator_core import solve_diagonal
from fraclap.oracle import PVConfig, pv_exterior
from fraclap.problem import ProblemSpec, resolve_rhs
from fraclap.quadrature import gauss_jacobi, map_to_interval
from fraclap.specfun import DomainError, spectrum


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
    memo = multi_interval._BlockMemo()
    monkeypatch.setattr(multi_interval, "_MEMO", memo)
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
    monkeypatch.setattr(multi_interval, "_MEMO_KEYS", 3)
    for s in (0.1, 0.2, 0.3, 0.1, 0.4):
        empty_memo.get(4, s)
    assert list(empty_memo._seen) == [(4, 0.3), (4, 0.1), (4, 0.4)]
    assert list(empty_memo._blocks) == [(4, 0.1)]
    empty_memo.get(4, 0.2)  # forgotten: a first request again
    assert list(empty_memo._blocks) == [(4, 0.1)]


def test_memo_evicts_least_recently_used_within_budget(empty_memo, monkeypatch):
    size = _ReferenceBlock(16, 0.3).nbytes  # the same for every s
    monkeypatch.setattr(multi_interval, "_MEMO_BYTES", 2 * size + size // 2)

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
    assert _ReferenceBlock(64, 0.3).nbytes > multi_interval._MEMO_BYTES
    for _ in range(3):
        empty_memo.get(64, 0.3)
    assert list(empty_memo._blocks) == [(16, 0.3), (16, 0.5)]
    assert empty_memo._bytes == 2 * size


def test_shared_block_arrays_are_read_only(empty_memo):
    empty_memo.get(9, 0.45)
    block = empty_memo.get(9, 0.45)
    for array in (block.table, block.lam, block.norms, block.rule.nodes, block.rule.weights):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_memo_logs_builds_kept_and_evicted_blocks(empty_memo, monkeypatch, caplog):
    size = _ReferenceBlock(6, 0.3).nbytes
    monkeypatch.setattr(multi_interval, "_MEMO_BYTES", size)
    with caplog.at_level(logging.DEBUG, logger="fraclap"):
        for s in (0.3, 0.3, 0.4, 0.4):
            empty_memo.get(6, s)
    records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    line = "reference block n=6 s={} {}: %d bytes" % size
    assert records == [
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.3, "built")),
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.3, "built")),
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.3, "retained")),
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.4, "built")),
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.4, "built")),
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.4, "retained")),
        ("fraclap.multi_interval", logging.DEBUG, line.format(0.3, "evicted")),
    ]


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
    monkeypatch.setattr(multi_interval, "_MEMO_BYTES", 3 * _ReferenceBlock(20, 0.4).nbytes)
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
    assert empty_memo._bytes == kept <= multi_interval._MEMO_BYTES


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


class DenseBlock:
    """K^-1 through the full (n+1)^2 table at every node: the reference
    for the half-width table of _ReferenceBlock."""

    def __init__(self, n, sv):
        self.rule = gauss_jacobi(n, sv)
        self.table = eval_gegenbauer_batch(n, sv + 0.5, self.rule.nodes)
        self.lam, self.norms = spectrum(n, sv)

    def coeffs(self, values):
        return (values * self.rule.weights) @ self.table.T / self.norms / self.lam

    def values(self, coeffs):
        return (coeffs / self.norms) @ self.table


class DenseDiscretization(multi_interval._Discretization):
    """K^-1 one interval at a time through DenseBlock."""

    def __init__(self, domain, s, ns):
        super().__init__(domain, s, ns)
        self.dense = [DenseBlock(n, self.sv) for n in ns]

    def kinv_coeffs(self, Y):
        return [ref.coeffs(v) for ref, v in zip(self.dense, self.split(Y))]

    def kinv(self, Y):
        return np.concatenate([ref.values(c) for ref, c in zip(self.dense, self.kinv_coeffs(Y))])


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
        c = rng.standard_normal(shape) * dense.lam
        want = dense.values(c)
        np.testing.assert_allclose(half.values(c), want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("ns", [(8, 5, 8), (5, 8, 5, 8)])
def test_batched_kinv_with_non_adjacent_resolutions(monkeypatch, ns):
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


# Invariances of the discrete solve that the mathematics guarantees,
# on 2-4 intervals with gaps >= 0.05 (the Nystrom coupling is not
# accurate for nearly touching intervals).
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
@given(domains(), smooth_rhs, smooth_rhs, nonzero_factor, nonzero_factor)
def test_linearity_in_rhs(problem, f, g, alpha, beta):
    domain, s, ns = problem
    phi_f = phi_blocks(domain, s, ns, f)
    phi_g = phi_blocks(domain, s, ns, g)
    got = phi_blocks(domain, s, ns, lambda x: alpha * f(x) + beta * g(x))
    want = [alpha * cf + beta * cg for cf, cg in zip(phi_f, phi_g)]
    assert_blocks_close(got, want, abs(alpha) * peak(phi_f) + abs(beta) * peak(phi_g))
