"""Runs a workload's requests in a fresh interpreter, one at a time.

    python3 worker.py CONFIG.json

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread variables pinned, in an empty working directory.  CONFIG
holds the mode, workload, seed, run length and result path:

  setup       import fraclap and finish the set-up request cold
  loop        the same, then time whole rounds for the run length
  trace       time whole rounds, each once plain and once traced
  crosscheck  trace the reference problem under cProfile as well

Nothing but the standard library is loaded before the set-up clock
starts, so setup_s includes importing fraclap with numpy and scipy.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time

import workloads


def run_request(fraclap, request):
    """Execute one request; returns the solution for library requests."""
    if request["kind"] == "cli":
        code = fraclap.cli.main(request["argv"])
        if code != 0:
            raise RuntimeError(f"fraclap {request['argv'][0]} exited {code}")
        return None
    p = request["problem"]
    name, _, params = p["rhs"].partition(":")
    rhs, label = fraclap.make_rhs(name, params)
    spec = fraclap.ProblemSpec(
        s=p["s"],
        domain=fraclap.Domain(tuple(tuple(iv) for iv in p["intervals"])),
        rhs=rhs,
        n=p["n"],
        rhs_label=label,
    )
    return fraclap.solve(spec)


class Recorder:
    """Keeps what the checks need, outside the timed region: each
    distinct CLI output once (by content hash), and every library
    solution's coefficients streamed to keep/solutions.npy so that they
    do not add to the worker's memory."""

    def __init__(self):
        self.entries = []
        self.kept = set()
        os.makedirs("keep", exist_ok=True)
        self.solutions = open(os.path.join("keep", "solutions.npy"), "wb")

    def close(self):
        self.solutions.close()

    def record(self, request, rnd, slot, seconds, solution, traced=False):
        entry = {
            "round": rnd,
            "slot": slot,
            "seconds": seconds,
            "traced": traced,
            "problem": request["problem"],
        }
        if request["kind"] == "cli":
            prefix = request["argv"][request["argv"].index("--out") + 1]
            directory, stem = os.path.split(prefix)
            names = sorted(f for f in os.listdir(directory) if f.startswith(stem + "_"))
            digest = hashlib.sha1()
            size = 0
            for f in names:
                with open(os.path.join(directory, f), "rb") as fh:
                    data = fh.read()
                digest.update(f.encode() + b"\0" + data)
                size += len(data)
            key = f"slot{slot}-{digest.hexdigest()[:16]}"
            if key not in self.kept:
                self.kept.add(key)
                for f in names:
                    shutil.copyfile(os.path.join(directory, f), os.path.join("keep", key + f[len(stem):]))
            entry.update(output=key, bytes_written=size)
        else:
            import numpy as np  # loaded with fraclap already

            np.save(self.solutions, np.array([b.coeffs for b in solution.blocks]))
            entry.update(
                gmres_iterations=solution.gmres_iterations,
                gmres_residual=solution.final_residual,
                bytes_written=0,
            )
        self.entries.append(entry)


def calibration_s() -> float:
    """A fixed pure-Python kernel; its time tracks the host's speed."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(50_000):
        acc += i * 0.5
    return time.perf_counter() - t


def timed_rounds(fraclap, cfg, recorder, calibration, tracer=None):
    """Whole rounds after round 0 (whose first request is the set-up
    request) until the run length is used up.  The calibration kernel
    runs once after each round, outside the timed calls."""
    rounds = workloads.rounds(cfg["workload"], cfg["seed"])
    next(rounds)
    start = time.perf_counter()
    rnd = 1
    while True:
        requests = next(rounds)
        passes = (False, True) if tracer is not None else (False,)
        for traced in passes:
            for slot, request in enumerate(requests):
                if tracer is not None:
                    tracer.request = f"{rnd}:{slot}"
                    tracer.enabled = traced
                t = time.perf_counter()
                solution = run_request(fraclap, request)
                seconds = time.perf_counter() - t
                if tracer is not None:
                    tracer.enabled = False
                recorder.record(request, rnd, slot, seconds, solution, traced)
        calibration.append(calibration_s())
        rnd += 1
        if time.perf_counter() - start >= cfg["seconds"]:
            return


def crosscheck(fraclap, tracer):
    """Counts of the reference problem from the wrappers and from cProfile."""
    import cProfile
    import pstats

    intervals = tuple((1.15 * k, 1.15 * k + 1.0) for k in range(8))
    rhs, label = fraclap.make_rhs("constant", "1")
    spec = fraclap.ProblemSpec(s=0.5, domain=fraclap.Domain(intervals), rhs=rhs, n=128, rhs_label=label)
    tracer.request = "reference"
    profile = cProfile.Profile()
    tracer.enabled = True
    profile.enable()
    solution = fraclap.solve(spec)
    profile.disable()
    tracer.enabled = False
    stats = pstats.Stats(profile).stats
    profiled = {}
    for name, fn in tracer.functions.items():
        code = fn.__code__
        row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        profiled[name + ".calls"] = row[1] if row else 0
    return {
        "wrapper": tracer.per_request().get("reference", {}),
        "cprofile": profiled,
        "iterations": solution.gmres_iterations,
    }


def main(cfg):
    mode = cfg["mode"]
    result = {}
    t0 = time.perf_counter()
    import fraclap
    import fraclap.cli

    recorder = Recorder()
    if mode in ("setup", "loop"):
        request = workloads.setup_request(cfg["workload"], cfg["seed"])
        run_request(fraclap, request)
        result["setup_s"] = time.perf_counter() - t0
    result["calibration_s"] = []
    if mode == "loop":
        timed_rounds(fraclap, cfg, recorder, result["calibration_s"])
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif mode in ("trace", "crosscheck"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        result["untraced"] = tracer.missing
        if mode == "trace":
            timed_rounds(fraclap, cfg, recorder, result["calibration_s"], tracer)
            result["per_request"] = tracer.per_request()
            with open(cfg["spans"], "w") as fh:
                json.dump(tracer.spans, fh)
        else:
            result["crosscheck"] = crosscheck(fraclap, tracer)
    recorder.close()
    result["requests"] = recorder.entries
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        main(json.load(fh))
