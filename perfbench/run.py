"""Solver benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: two-interval (CLI solve,
recurring problems, one kept fault per round), many-intervals (library
solve, a fresh 8-interval domain per request), convergence-sweep (CLI
convergence, a fresh s per request).  See perfbench/README.md.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters importing fraclap and finishing the first request cold),
request_s (median warm request in the timed loop), peak_rss_mb (of the
process that ran the timed loop) and min_digits.  --trace 1 runs the
loop once plain and once traced per round and prints the per-layer
metrics.  The last line of output is the result as one JSON object.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any worker:
# results differ bitwise between thread counts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# fresh interpreters for setup_s besides the timed worker's own sample,
# half before and half after the timed loop
SETUP_EXTRA = 2
# a worker may take this long beyond --seconds (set-up, last round, output)
WORKER_SLACK_S = 120

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]

# counts of the reference problem (8 unit intervals 0.15 apart, N=128,
# s=1/2, f=1, one solve), recorded with cProfile before any optimisation
REFERENCE_COUNTS = {
    "specfun.gegenbauer_norm_h.calls": 23736,
    "specfun.eigenvalue_lambda.calls": 12384,
    "specfun.gamma_ratio.calls": 36128,
    "quadrature.gauss_jacobi.calls": 8,
    "multi_interval.apply_offdiagonal.calls": 11,
    "gegenbauer.forward_transform.calls": 96,
    "operator_core.solve_diagonal.calls": 96,
}
REFERENCE_ITERATIONS = 10


class BenchmarkError(Exception):
    pass


def run_worker(mode, args, tag, **extra):
    """Run worker.py in a fresh interpreter and directory; returns its result."""
    directory = os.path.join(args.work, tag)
    os.makedirs(os.path.join(directory, "out"))
    cfg = dict(mode=mode, workload=args.workload, seed=args.seed, seconds=args.seconds, **extra)
    cfg["result"] = os.path.join(directory, "result.json")
    with open(os.path.join(directory, "config.json"), "w") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(os.path.join(directory, "worker.log"), "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "config.json"],
                cwd=directory, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=args.seconds + WORKER_SLACK_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker {tag} timed out") from exc
    if proc.returncode != 0:
        with open(os.path.join(directory, "worker.log")) as fh:
            tail = fh.read()[-3000:]
        raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    with open(cfg["result"]) as fh:
        return json.load(fh), directory


def environment_line():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (
        f"environment: numpy {np.__version__}, scipy {scipy.__version__}, blas {blas}, "
        f"cpu_count {os.cpu_count()}, {threads}, python {sys.version.split()[0]}"
    )


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_outputs(args, result, directory):
    sys.path.insert(0, SRC)
    import fraclap
    import verify

    verdict = verify.VERIFY[args.workload](fraclap, result["requests"], os.path.join(directory, "keep"), args.seed)
    for note in verdict.notes:
        print("check: " + note)
    return verdict


def end_to_end(args):
    setups = []
    for k in range(SETUP_EXTRA // 2):
        setups.append(run_worker("setup", args, f"setup-{k}")[0]["setup_s"])
    loop, directory = run_worker("loop", args, "loop")
    setups.append(loop["setup_s"])
    for k in range(SETUP_EXTRA // 2, SETUP_EXTRA):
        setups.append(run_worker("setup", args, f"setup-{k}")[0]["setup_s"])

    times = [e["seconds"] for e in loop["requests"]]
    verdict = check_outputs(args, loop, directory)
    rounds = len({e["round"] for e in loop["requests"]})
    print(
        f"request_s: median {statistics.median(times):.6f} s, p90 {quantile(times, 0.9):.6f} s "
        f"over {len(times)} requests in {rounds} rounds"
    )
    print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setups))
    calibration = statistics.median(loop["calibration_s"])
    print(
        f"calibration_s (not gated; a fixed kernel after each round, tracks host speed): median "
        f"{calibration:.6f} s over {len(loop['calibration_s'])} rounds; request_s / calibration_s "
        f"{statistics.median(times) / calibration:.2f}"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "request_s": statistics.median(times),
        "peak_rss_mb": loop["peak_rss_kb"] / 1024.0,
        "min_digits": verdict.min_digits,
    }
    return verdict, len(times), metrics


def per_layer(args):
    traced, directory = run_worker(
        "trace", args, "trace", spans=os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
    )
    if traced["untraced"]:
        print("trace: not in the program, metrics read 0: " + ", ".join(traced["untraced"]))
    entries = traced["requests"]
    plain = [e["seconds"] for e in entries if not e["traced"]]
    timed = [e["seconds"] for e in entries if e["traced"]]
    overhead = statistics.median(timed) - statistics.median(plain)
    print(
        f"tracing overhead: traced request_s {statistics.median(timed):.6f} - untraced "
        f"{statistics.median(plain):.6f} = {overhead:.6f} s over {len(timed)} request pairs"
    )
    first = min(e["round"] for e in entries)
    firsts = [e for e in entries if e["traced"] and e["round"] == first]
    per_request = traced["per_request"]
    metrics = {}
    for name in PER_LAYER:
        if name == "cli.bytes_written":
            values = [e["bytes_written"] for e in firsts]
        else:
            values = [per_request.get(f"{e['round']}:{e['slot']}", {}).get(name, 0.0) for e in firsts]
        metrics[name] = statistics.median(values)

    cross, _ = run_worker("crosscheck", args, "crosscheck")
    cross = cross["crosscheck"]
    rows = []
    agree = cross["iterations"] == cross["wrapper"].get("multi_interval.gmres.iterations")
    for name, count in sorted(cross["cprofile"].items()):
        wrapped = cross["wrapper"].get(name, 0)
        agree &= wrapped == count
        reference = REFERENCE_COUNTS.get(name)
        rows.append(f"{name} {wrapped:g}/{count}" + (f" (reference {reference})" if reference is not None else ""))
    print(
        f"trace cross-check on the reference problem, wrapper/cProfile: "
        f"{'AGREE' if agree else 'MISMATCH'}; iterations {cross['iterations']} (reference {REFERENCE_ITERATIONS}); "
        + ", ".join(rows)
    )
    verdict = check_outputs(args, traced, directory)
    return verdict, len(entries), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "fraclap", "__init__.py")):
        print(f"error: no fraclap package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    args.work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(args.work, ignore_errors=True)
    try:
        print(environment_line())
        verdict, attempted, metrics = (per_layer if args.trace else end_to_end)(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    print(f"requests: {attempted} attempted, {verdict.failed} failed; outputs {'correct' if verdict.correct else 'WRONG'}")
    result = {
        "correct": verdict.correct,
        "attempted": attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
