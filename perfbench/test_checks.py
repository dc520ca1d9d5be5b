"""Tests of the benchmark's own checker and request streams.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from fraclap import (  # noqa: E402
    Domain,
    GegenbauerCoeffs,
    ProblemSpec,
    eigenvalue_lambda,
    eval_gegenbauer,
    evaluate_expansion,
    gegenbauer_norm_h,
    make_rhs,
    solve,
)


def _residual(intervals, s, n, rhs="constant:1", seed=0):
    name, _, params = rhs.partition(":")
    f, _ = make_rhs(name, params)
    sol = solve(ProblemSpec(s=s, domain=Domain(intervals), rhs=f, n=n))
    points = checks.oracle_points(intervals, 1, np.random.default_rng(seed))
    blocks = [b.coeffs for b in sol.blocks]
    return checks.oracle_residual(blocks, s, intervals, workloads.rhs_function(rhs), points)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("n", [0, 3, 12])
def test_oracle_passes_on_eigenfunctions(s, n):
    a, b = -0.3, 1.4
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    lam = eigenvalue_lambda(n, s)
    h = gegenbauer_norm_h(n, s)

    def f(x):
        return lam * eval_gegenbauer(n, s + 0.5, 2.0 * (np.asarray(x) - a) / (b - a) - 1.0) / h

    points = checks.oracle_points([(a, b)], 2, np.random.default_rng(n))
    residual = checks.oracle_residual([coeffs], s, [(a, b)], f, points)
    assert residual <= 1e-3 * checks.ORACLE_RESIDUAL_LIMIT


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_oracle_passes_at_gap_015(s):
    assert _residual(workloads.two_intervals(0.15), s, 48) <= 1e-2 * checks.ORACLE_RESIDUAL_LIMIT


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_oracle_flags_gap_1e4(s):
    assert _residual(workloads.two_intervals(1e-4), s, 64) >= 100 * checks.ORACLE_RESIDUAL_LIMIT


def test_interval_solution_matches_fraclap_evaluation():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(41) / (1.0 + np.arange(41)) ** 2
    a, b, s = 2.0, 3.5, 0.3
    x = np.linspace(a, b, 17)[1:-1]
    ours = checks.IntervalSolution(coeffs, s, a, b)
    want = evaluate_expansion(GegenbauerCoeffs(s, (a, b), coeffs), x)
    assert np.allclose(ours.phi(ours.reference(x)), want, rtol=0, atol=1e-13)
    assert np.allclose(ours.u(x), ((x - a) * (b - x)) ** s * want, rtol=0, atol=1e-13)
    # u' against a centred difference
    step = 1e-6
    numeric = (ours.u(x + step) - ours.u(x - step)) / (2 * step)
    assert np.allclose(ours.uprime(x), numeric, rtol=1e-7, atol=1e-7)


def test_convergence_properties():
    ns = [32, 64, 128, 256, 512, 1024]
    runge = [1.63e-02, 4.94e-04, 6.30e-07, 1.35e-12, 5.14e-15, 5.50e-15]
    assert checks.super_algebraic(ns, runge)
    algebraic = [3.27e-03, 9.41e-04, 2.63e-04, 7.20e-05, 1.90e-05, 4.50e-06]
    assert not checks.super_algebraic(ns, algebraic)
    ok, p_l2, _ = checks.absx_orders_ok(ns, algebraic, [1e-2 / (n / 32) ** 1.5 for n in ns])
    assert ok and 1.8 < p_l2 < 2.0


def test_coefficient_digits():
    ref = [np.ones(5), np.ones(3)]
    assert checks.coefficient_digits([np.ones(5), np.ones(3)], ref) == 17.0
    perturbed = [np.ones(4), np.ones(3)]  # last coefficient missing
    assert checks.coefficient_digits(perturbed, ref) == pytest.approx(-np.log10(1 / np.sqrt(8)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_repeat_for_a_seed(workload):
    first = [next(workloads.rounds(workload, 7)) for _ in range(2)]
    stream = workloads.rounds(workload, 7)
    assert next(stream) == first[0]
    assert next(workloads.rounds(workload, 8)) != first[0]


def test_one_fault_per_two_interval_round_independent_of_seed():
    for seed in range(20):
        stream = workloads.rounds("two-interval", seed)
        for _ in range(3):
            faults = [r["problem"] for r in next(stream) if r["problem"].get("fault")]
            assert len(faults) == 1
            assert faults[0] == dict(workloads.FAULT_PROBLEM, intervals=workloads.two_intervals(1e-4), fault=True)
