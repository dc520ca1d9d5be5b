"""Seeded request streams of the three workloads.

Only the standard library is used here, so the worker can build its
requests before it imports fraclap (and numpy) for the set-up timing.

A workload is a sequence of rounds; every run executes whole rounds, so
the share of requests of each kind (and of the kept fault) is the same
in every run.  Round r of a seed is the same in every run of that seed.

Requests are plain dicts:
  {"kind": "cli", "argv": [...], "problem": {...}}     fraclap.cli.main
  {"kind": "library", "problem": {...}}                fraclap.solve
A problem is {"s", "intervals", "rhs", "n"}; "fault": true marks the kept
fault request.
"""

from __future__ import annotations

import random
from decimal import Decimal

WORKLOADS = ("two-interval", "many-intervals", "convergence-sweep")

# two unit intervals 0.15 apart, the paper's experiment
TWO_GAP = 0.15
# kept fault: the coupling rule cannot resolve a gap this far below the
# endpoint node spacing; the inputs do not depend on the seed
FAULT_GAP = 1e-4
FAULT_PROBLEM = {"s": 0.5, "rhs": "constant:1", "n": 64}

# The two-interval round: (N, s, right-hand side) of its seven slots;
# the seed draws the polynomial coefficients and where the kept fault
# goes.  Every s and every kind of f appears, and the median request
# falls among the three N=128 slots, so request_s does not depend on
# which problems a seed happens to draw.  Slot 0 is the set-up request.
TWO_SLOTS = (
    (128, 0.5, "constant:1"),
    (24, 0.5, "polynomial"),
    (64, 0.25, "runge"),
    (128, 0.25, "polynomial"),
    (192, 0.75, "runge"),
    (256, 0.5, "polynomial"),
    (128, 0.75, "runge"),
)

# (N, s) of the many-intervals requests in a round (set-up request
# first); the seed draws the domains and right-hand sides.  The median
# request falls among the N=128 ones.
MANY_ROUND = ((128, 0.5), (64, 0.25), (128, 0.75), (64, 0.5), (128, 0.25), (64, 0.75), (128, 0.5), (128, 0.25))
MANY_INTERVALS = 8

CONV_N = (32, 64, 128, 256, 512, 1024)
CONV_REF_N = 2048
CONV_ROUND_RHS = ("runge", "absx", "runge", "absx")
CONV_S_RANGE = (0.25, 0.75)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed, *tags)))


def _polynomial(rng: random.Random) -> str:
    degree = rng.randint(1, 2)
    coeffs = [rng.uniform(0.5, 1.5), rng.uniform(-0.1, 0.1), rng.uniform(-0.01, 0.01)]
    return "polynomial:" + ",".join(f"{c:.4f}" for c in coeffs[: degree + 1])


def two_intervals(gap: float) -> list[list[float]]:
    h = 0.5 * gap
    return [[-1.0 - h, -h], [h, 1.0 + h]]


def _cli_number(x: float) -> str:
    """Positional notation: the CLI takes "-5e-05" for an option."""
    return format(Decimal(repr(x)), "f")


def _cli_solve(problem: dict, out: str) -> dict:
    argv = ["solve", "--s", repr(problem["s"])]
    for a, b in problem["intervals"]:
        argv += ["--interval", _cli_number(a), _cli_number(b)]
    argv += ["--rhs", problem["rhs"], "--n", str(problem["n"]), "--out", out]
    return {"kind": "cli", "argv": argv, "problem": problem}


def _two_interval_round(seed: int) -> list[dict]:
    rng = _rng(seed, "two-interval")
    problems = [
        {"s": s, "rhs": _polynomial(rng) if rhs == "polynomial" else rhs, "n": n, "intervals": two_intervals(TWO_GAP)}
        for n, s, rhs in TWO_SLOTS
    ]
    fault = dict(FAULT_PROBLEM, intervals=two_intervals(FAULT_GAP), fault=True)
    problems.insert(rng.randint(1, len(problems)), fault)
    return problems


def _many_domain(rng: random.Random) -> list[list[float]]:
    intervals = []
    a = 0.0
    for _ in range(MANY_INTERVALS):
        length = rng.uniform(0.5, 2.0)
        intervals.append([a, a + length])
        a += length + rng.uniform(0.1, 0.5)
    return intervals


def rounds(workload: str, seed: int):
    """Yield the rounds of a workload; each is a list of requests whose
    CLI outputs go to out/slot<k>."""
    if workload == "two-interval":
        # the same problems every round: assembled operators recur
        problems = _two_interval_round(seed)
        while True:
            yield [_cli_solve(p, f"out/slot{k}") for k, p in enumerate(problems)]
    r = 0
    while True:
        rng = _rng(seed, workload, r)
        if workload == "many-intervals":
            yield [
                {
                    "kind": "library",
                    "problem": {
                        "s": s,
                        "intervals": _many_domain(rng),
                        "rhs": rng.choice(("constant:1", _polynomial(rng))),
                        "n": n,
                    },
                }
                for n, s in MANY_ROUND
            ]
        elif workload == "convergence-sweep":
            requests = []
            for k, rhs in enumerate(CONV_ROUND_RHS):
                s = round(rng.uniform(*CONV_S_RANGE), 6)
                problem = {"s": s, "intervals": [[-1.0, 1.0]], "rhs": rhs, "n": list(CONV_N)}
                argv = [
                    "convergence", "--s", repr(s), "--interval", "-1", "1", "--rhs", rhs,
                    "--n", ",".join(map(str, CONV_N)), "--ref-n", str(CONV_REF_N),
                    "--out", f"out/slot{k}",
                ]
                requests.append({"kind": "cli", "argv": argv, "problem": problem})
            yield requests
        else:
            raise ValueError(f"unknown workload {workload!r}")
        r += 1


def setup_request(workload: str, seed: int) -> dict:
    """The request a fresh interpreter finishes cold: the first of round 0."""
    return next(rounds(workload, seed))[0]


def rhs_function(descriptor: str):
    """The benchmark's own f(x) for a descriptor, independent of fraclap."""
    import numpy as np

    name, _, params = descriptor.partition(":")
    if name == "constant":
        c = float(params) if params else 1.0
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    if name == "runge":
        return lambda x: 1.0 / (np.asarray(x, dtype=float) ** 2 + 0.01)
    if name == "absx":
        return lambda x: np.abs(np.asarray(x, dtype=float))
    if name == "polynomial":
        coeffs = [float(v) for v in params.split(",")]
        return lambda x: sum(c * np.asarray(x, dtype=float) ** k for k, c in enumerate(coeffs))
    raise ValueError(f"unknown rhs {descriptor!r}")
