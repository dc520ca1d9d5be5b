"""Checks of a run's outputs, made after the timed worker has exited.

Each verify_* function takes the worker's request log and the directory
of kept outputs and returns a Verdict.  A request whose output fails a
check is failed; `correct` turns false when any request other than the
kept fault fails, or a method property does not hold.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import workloads

# Two outputs of one problem closer than this are the same solution.
SAME_OUTPUT = 1e-10
# phi blocks of an affinely mapped problem agree to roundoff (measured
# differences are below 2e-14)
AFFINE_INVARIANCE = 1e-10
# CLI curve values must match the solution coefficients to this
# relative accuracy (the CSV keeps 16 significant digits).
CURVE_MATCH = 1e-10
CURVE_ROWS_CHECKED = 12
# program's fitted orders must equal the benchmark's own fit
ORDER_MATCH = 1e-8
# reference solves for min_digits use N + REF_EXTRA
REF_EXTRA = 64
# many-intervals requests that get the oracle check, drawn from all the
# run's rounds (two-interval checks every distinct output)
MANY_ORACLE_SAMPLES = 2


@dataclass
class Verdict:
    correct: bool = True
    failed: int = 0
    min_digits: float = math.inf
    notes: list = field(default_factory=list)

    def fail(self, note: str):
        self.correct = False
        self.notes.append("FAIL " + note)


def _spec(fraclap, problem, n=None, shift=0.0, scale=1.0):
    rhs = workloads.rhs_function(problem["rhs"])
    intervals = tuple((scale * a + shift, scale * b + shift) for a, b in problem["intervals"])
    return fraclap.ProblemSpec(
        s=problem["s"],
        domain=fraclap.Domain(intervals),
        rhs=lambda x: rhs((np.asarray(x, dtype=float) - shift) / scale),
        n=problem["n"] if n is None else n,
    )


def _blocks(solution):
    return [b.coeffs for b in solution.blocks]


def _oracle(problem, blocks, rng) -> float:
    points = checks.oracle_points(problem["intervals"], 1, rng)
    rhs = workloads.rhs_function(problem["rhs"])
    return checks.oracle_residual(blocks, problem["s"], problem["intervals"], rhs, points)


def _affine_check(fraclap, verdict, problem, blocks, rng, what):
    scale = float(rng.uniform(0.5, 2.0))
    shift = float(rng.uniform(-3.0, 3.0))
    moved = fraclap.solve(_spec(fraclap, problem, shift=shift, scale=scale))
    diff = checks.max_relative_difference(blocks, _blocks(moved))
    verdict.notes.append(f"affine invariance ({what}, L={scale:.3f}, t={shift:.3f}): {diff:.1e}")
    if not diff <= AFFINE_INVARIANCE:
        verdict.fail(f"phi blocks change under x -> {scale:.3f} x + {shift:.3f}: {diff:.2e}")


def _read_cli_solution(keep, key, problem, verdict, rng) -> list:
    with open(os.path.join(keep, key + "_solution.json")) as fh:
        data = json.load(fh)
    blocks = [np.array(iv["phi_coeffs"]) for iv in data["intervals"]]
    layout = [[iv["a"], iv["b"], iv["n"]] for iv in data["intervals"]]
    want = [[a, b, problem["n"]] for a, b in problem["intervals"]]
    if data["s"] != problem["s"] or layout != want or any(len(c) != problem["n"] + 1 for c in blocks):
        verdict.fail(f"{key}: solution JSON does not describe the requested problem")
    if not all(np.all(np.isfinite(c)) for c in blocks):
        verdict.fail(f"{key}: non-finite coefficients")
    # the curve CSV: u and phi at 1000 points per interval
    with open(os.path.join(keep, key + "_curve.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    per = len(rows) // len(blocks)
    worst = 0.0
    for i, (c, (a, b)) in enumerate(zip(blocks, problem["intervals"])):
        sol = checks.IntervalSolution(c, problem["s"], a, b)
        picks = rng.choice(per, CURVE_ROWS_CHECKED // len(blocks), replace=False)
        x, u, phi = np.array([[float(v) for v in rows[i * per + k]] for k in picks]).T
        scale = max(float(np.max(np.abs(sol.phi.values))), 1e-300)
        worst = max(worst, float(np.max(np.abs(sol.phi(sol.reference(x)) - phi))) / scale)
        worst = max(worst, float(np.max(np.abs(sol.u(x) - u))) / (scale * ((b - a) / 2.0) ** (2 * problem["s"])))
    if len(rows) != per * len(blocks) or not worst <= CURVE_MATCH:
        verdict.fail(f"{key}: curve CSV disagrees with the coefficients ({worst:.1e})")
    return blocks


def verify_two_interval(fraclap, entries, keep, seed) -> Verdict:
    """Every distinct output of every slot: JSON and curve consistency,
    oracle residual and digits against a solve at N + REF_EXTRA; one
    slot's affine invariance."""
    verdict = Verdict()
    rng = np.random.default_rng([seed, 2])
    slots = {}
    for e in entries:
        slots.setdefault(e["slot"], (e["problem"], []))[1].append(e)
    bad_outputs = set()
    invariance_slot = int(rng.choice([k for k, (p, _) in slots.items() if not p.get("fault")]))
    for slot, (problem, slot_entries) in sorted(slots.items()):
        fault = bool(problem.get("fault"))
        reference = None if fault else _blocks(fraclap.solve(_spec(fraclap, problem, n=problem["n"] + REF_EXTRA)))
        checked = []  # (blocks, passed)
        for key in dict.fromkeys(e["output"] for e in slot_entries):
            blocks = _read_cli_solution(keep, key, problem, verdict, rng)
            same = [ok for b, ok in checked if checks.max_relative_difference(b, blocks) <= SAME_OUTPUT]
            if same:
                passed = same[0]
            else:
                residual = _oracle(problem, blocks, rng)
                passed = residual <= checks.ORACLE_RESIDUAL_LIMIT
                verdict.notes.append(
                    f"slot {slot} N={problem['n']} s={problem['s']} {problem['rhs']}"
                    f"{' gap 1e-4 (kept fault)' if fault else ''}: oracle residual {residual:.1e}"
                )
            checked.append((blocks, passed))
            if not passed:
                bad_outputs.add(key)
                if not fault:
                    verdict.fail(f"slot {slot} output {key} fails the oracle")
            if reference is not None:
                verdict.min_digits = min(verdict.min_digits, checks.coefficient_digits(blocks, reference))
            if slot == invariance_slot and len(checked) == 1:
                _affine_check(fraclap, verdict, problem, blocks, rng, f"slot {slot}")
    verdict.failed = sum(e["output"] in bad_outputs for e in entries)
    return verdict


def verify_many_intervals(fraclap, entries, keep, seed) -> Verdict:
    """Every solution: shape, finiteness and GMRES residual.  First timed
    round: digits against N + REF_EXTRA.  A seeded sample: oracle.  One
    request: affine invariance."""
    verdict = Verdict()
    rng = np.random.default_rng([seed, 3])
    first_round = min(e["round"] for e in entries)
    bad = set()
    with open(os.path.join(keep, "solutions.npy"), "rb") as fh:
        solutions = [np.load(fh) for _ in entries]
    for k, (e, blocks) in enumerate(zip(entries, solutions)):
        p = e["problem"]
        if (
            blocks.shape != (len(p["intervals"]), p["n"] + 1)
            or not np.all(np.isfinite(blocks))
            or not e["gmres_residual"] <= 1e-13
        ):
            bad.add(k)
            verdict.fail(f"request {e['round']}:{e['slot']}: malformed solution or GMRES residual {e['gmres_residual']:.1e}")
        if e["round"] == first_round and not e["traced"]:
            reference = fraclap.solve(_spec(fraclap, p, n=p["n"] + REF_EXTRA))
            verdict.min_digits = min(verdict.min_digits, checks.coefficient_digits(blocks, _blocks(reference)))
    for k in rng.choice(len(entries), min(MANY_ORACLE_SAMPLES, len(entries)), replace=False):
        e = entries[int(k)]
        residual = _oracle(e["problem"], solutions[int(k)], rng)
        verdict.notes.append(
            f"request {e['round']}:{e['slot']} s={e['problem']['s']} N={e['problem']['n']} "
            f"{e['problem']['rhs']}: oracle residual {residual:.1e}, {e['gmres_iterations']} GMRES iterations"
        )
        if not residual <= checks.ORACLE_RESIDUAL_LIMIT:
            bad.add(int(k))
            verdict.fail(f"request {e['round']}:{e['slot']} fails the oracle")
    k = int(rng.integers(len(entries)))
    e = entries[k]
    _affine_check(fraclap, verdict, e["problem"], solutions[k], rng, f"request {e['round']}:{e['slot']}")
    verdict.failed = len(bad)
    return verdict


def verify_convergence_sweep(fraclap, entries, keep, seed) -> Verdict:
    """Every request: the error table's rows, super-algebraic decay for
    runge, criterion 4's orders for absx, and the program's fitted orders
    against the benchmark's own fit.  min_digits: the program's err_L2s at
    the finest N over the first timed round."""
    verdict = Verdict()
    first_round = min(e["round"] for e in entries)
    bad = 0
    absx_orders = []
    for e in entries:
        p = e["problem"]
        with open(os.path.join(keep, e["output"] + "_convergence.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(keep, e["output"] + "_orders.json")) as fh:
            orders = json.load(fh)
        ns = [int(r["N"]) for r in rows]
        e_l2 = [float(r["err_L2s"]) for r in rows]
        e_h = [float(r["err_H2ss"]) for r in rows]
        problems = []
        if ns != p["n"] or not all(v > 0.0 and math.isfinite(v) for v in e_l2 + e_h):
            problems.append("malformed error table")
        elif p["rhs"] == "runge" and not checks.super_algebraic(ns, e_l2):
            problems.append(f"runge not super-algebraic: {e_l2}")
        elif p["rhs"] == "absx":
            ok, p_l2, p_h = checks.absx_orders_ok(ns, e_l2, e_h)
            absx_orders.append((p_l2, p_h))
            if not ok:
                problems.append(f"absx orders {p_l2:.3f}, {p_h:.3f} outside criterion 4's ranges")
        if ns == p["n"] and (
            abs(orders["order_l2"] - checks.fitted_order(ns, e_l2)) > ORDER_MATCH
            or abs(orders["order_h2s"] - checks.fitted_order(ns, e_h)) > ORDER_MATCH
        ):
            problems.append("orders JSON disagrees with the error table")
        for note in problems:
            verdict.fail(f"request {e['round']}:{e['slot']} s={p['s']} {p['rhs']}: {note}")
        bad += bool(problems)
        if e["round"] == first_round and not e["traced"] and e_l2[-1] > 0.0:
            verdict.min_digits = min(verdict.min_digits, -math.log10(e_l2[-1]))
    if absx_orders:
        l2, h = zip(*absx_orders)
        verdict.notes.append(
            f"{len(entries)} sweeps; absx orders L2 {min(l2):.3f}..{max(l2):.3f}, H2s {min(h):.3f}..{max(h):.3f}"
        )
    verdict.failed = bad
    return verdict


VERIFY = {
    "two-interval": verify_two_interval,
    "many-intervals": verify_many_intervals,
    "convergence-sweep": verify_convergence_sweep,
}
