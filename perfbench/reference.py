"""Regenerates the reference figures quoted in perfbench/README.md.

    PYTHONPATH=src python3 perfbench/reference.py

Prints oracle residuals of the checker on the quoted cases, cProfile
shares of the hot functions for one solve of each workload's typical
request, and the time of the largest Gauss-Jacobi rule.  The counts of
the reference problem are printed by every traced run (--trace 1).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import cProfile  # noqa: E402
import io  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import workloads  # noqa: E402
from fraclap import Domain, ProblemSpec, cli, gauss_jacobi, make_rhs, solve  # noqa: E402

RESIDUAL_CASES = (
    ("gap 0.15, f=1, s=1/2, N=64", workloads.two_intervals(0.15), 0.5, "constant:1", 64),
    ("gap 0.15, f=1, s=1/4, N=64", workloads.two_intervals(0.15), 0.25, "constant:1", 64),
    ("gap 0.15, runge, s=3/4, N=128", workloads.two_intervals(0.15), 0.75, "runge", 128),
    ("8 unit intervals 0.15 apart, f=1, s=3/4, N=128",
     [[1.15 * k, 1.15 * k + 1.0] for k in range(8)], 0.75, "constant:1", 128),
    ("gap 1e-4, f=1, s=1/4, N=64", workloads.two_intervals(1e-4), 0.25, "constant:1", 64),
    ("gap 1e-4, f=1, s=1/2, N=64 (the kept fault)", workloads.two_intervals(1e-4), 0.5, "constant:1", 64),
)

HOT = (
    "eval_gegenbauer_batch", "norm_vector", "gegenbauer_norm_h", "gamma_ratio",
    "eigenvalue_lambda", "solve_diagonal", "apply_offdiagonal", "gauss_jacobi", "main",
)


def _spec(intervals, s, rhs, n):
    name, _, params = rhs.partition(":")
    f, label = make_rhs(name, params)
    return ProblemSpec(s=s, domain=Domain(tuple(map(tuple, intervals))), rhs=f, n=n, rhs_label=label)


def residuals():
    for label, intervals, s, rhs, n in RESIDUAL_CASES:
        sol = solve(_spec(intervals, s, rhs, n))
        points = checks.oracle_points(intervals, 1, np.random.default_rng(0))
        r = checks.oracle_residual([b.coeffs for b in sol.blocks], s, intervals, workloads.rhs_function(rhs), points)
        print(f"oracle residual, {label}: {r:.1e}")


def shares(label, call):
    profile = cProfile.Profile()
    t = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.enable()
        call()
        profile.disable()
    total = time.perf_counter() - t
    stats = pstats.Stats(profile).stats
    parts = []
    for (_, _, name), (_, calls, own, cumulative, _) in stats.items():
        if name in HOT:
            parts.append(f"{name} {100 * cumulative / total:.0f}% incl / {100 * own / total:.0f}% self ({calls} calls)")
    print(f"cProfile, {label} ({total:.2f} s under the profiler): " + "; ".join(sorted(parts)))


def main():
    residuals()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        solve_argv = ["solve", "--s", "0.5", "--interval", "-1.075", "-0.075", "--interval", "0.075", "1.075"]
        profiles = [
            ("two-interval CLI solve, N=256", lambda: cli.main(solve_argv + ["--n", "256", "--out", out])),
            ("two-interval CLI solve, N=24", lambda: cli.main(solve_argv + ["--n", "24", "--out", out])),
            ("8 unit intervals, N=128, s=1/2", lambda: solve(_spec([[1.15 * k, 1.15 * k + 1.0] for k in range(8)], 0.5, "constant:1", 128))),
            ("convergence-sweep request, runge, s=0.4", lambda: cli.main(
                ["convergence", "--s", "0.4", "--interval", "-1", "1", "--rhs", "runge",
                 "--n", "32,64,128,256,512,1024", "--ref-n", "2048", "--out", out])),
        ]
        for label, call in profiles:
            shares(label, call)
    t = time.perf_counter()
    gauss_jacobi(2048, 0.4)
    print(f"gauss_jacobi(2048, 0.4): {time.perf_counter() - t:.3f} s")


if __name__ == "__main__":
    main()
