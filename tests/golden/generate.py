"""Write or check the golden corpus: the CLI's results on a fixed set of
problems, kept in corpus.json next to this file.

    python tests/golden/generate.py           # rewrite corpus.json
    python tests/golden/generate.py --check   # compare with it, entry by entry

Both run the package of this tree (src/) at one BLAS thread, pinned
before NumPy loads, since results differ bitwise between thread
counts.  --check prints "bitwise equal" for each entry that reproduces
exactly, or else its largest difference relative to the entry's
largest value, and exits 1 when any entry differs.

Each solve entry keeps the coefficient vectors of _solution.json as
float.hex strings, the GMRES record, and the SHA-256 of both output
files; the convergence entry keeps the rows of _convergence.csv
without the seconds column, and _orders.json as written; the
eigencheck entry keeps _eigencheck.txt as written.
tests/test_golden.py holds the package to the corpus at the default
thread count: the GMRES iteration counts and the eigencheck text
exactly, the numbers within a bound.
"""

import os
import sys

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import tempfile

from fraclap.cli import main

CORPUS = pathlib.Path(__file__).with_name("corpus.json")

ONE = ((-1.0, 1.0),)
TWO = ((-1.075, -0.075), (0.075, 1.075))  # the paper's experiment: unit intervals 0.15 apart
TOUCHING = ((-1.00005, -0.00005), (0.00005, 1.00005))  # 1e-4 apart: N = 64 does not resolve phi there
EIGHT = tuple((1.3 * k, 1.3 * k + 1.0 + 0.1 * (k % 3)) for k in range(8))

# name: (subcommand, s, intervals, right-hand side, n[, reference n]);
# eigencheck takes no intervals and no right-hand side
ENTRIES = {
    "one-constant": ("solve", 0.5, ONE, "constant:1", "16"),
    "one-runge": ("solve", 0.1, ((0.0, 3.0),), "runge", "64"),
    "one-absx": ("solve", 0.9, ONE, "absx", "128"),
    "two-runge": ("solve", 0.5, TWO, "runge", "128"),
    "two-polynomial": ("solve", 0.35, TWO, "polynomial:1,0.05,-0.01", "24"),
    "two-mode": ("solve", 0.9, TWO, "gegenbauer-mode:5", "32"),
    "two-per-interval-n": ("solve", 0.1, ((0.0, 1.0), (1.5, 2.5)), "absx", "16,40"),
    "two-constant-256": ("solve", 0.35, TWO, "constant:2.5", "256"),
    "gap-1e-4": ("solve", 0.5, TOUCHING, "constant:1", "64"),
    "eight-runge": ("solve", 0.35, EIGHT, "runge", "32"),
    "eight-per-interval-n": ("solve", 0.9, EIGHT, "polynomial:1,-0.2,0.03", "12,20,12,12,20,12,12,12"),
    "eight-mode": ("solve", 0.1, EIGHT, "gegenbauer-mode:2", "48"),
    "convergence-two-runge": ("convergence", 0.5, TWO, "runge", "8,16,24,32", "64"),
    "eigencheck-half": ("eigencheck", 0.5, (), None, "2"),
    "tiny-fast": ("solve", 0.5, ((0.0, 1e-120),), "constant:1", "16"),
    "tiny-fallback": ("solve", 0.9, ((0.0, 1e-160),), "constant:1", "16"),
}


def argv(command, s, intervals, rhs, n, ref_n=None):
    out = [command, "--s", repr(s)]
    for a, b in intervals:
        out += ["--interval", repr(a), repr(b)]
    if rhs:
        out += ["--rhs", rhs]
    out += ["--n", n]
    return out + (["--ref-n", ref_n] if ref_n else [])


def results(args):
    """The recorded results of one CLI run of args; stdout is discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "x")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, "--out", prefix])
        if code != 0:
            raise RuntimeError(f"fraclap {' '.join(args)} exited {code}")
        files = {path.name[2:]: path.read_bytes() for path in pathlib.Path(tmp).iterdir()}
    if args[0] == "eigencheck":
        return {"text": files["eigencheck.txt"].decode()}
    if args[0] == "convergence":
        lines = files["convergence.csv"].decode().splitlines()
        seconds = lines[0].split(",").index("seconds")
        rows = [[v for k, v in enumerate(line.split(",")) if k != seconds] for line in lines]
        return {"rows": rows, "orders": files["orders.json"].decode()}
    solution = json.loads(files["solution.json"])
    return {
        "blocks": [[float.hex(c) for c in iv["phi_coeffs"]] for iv in solution["intervals"]],
        "gmres_iterations": solution["gmres"]["iterations"],
        "gmres_residual": float.hex(solution["gmres"]["residual"]),
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())},
    }


def numbers(record):
    """The floats of a record: one list per coefficient block, the
    err_L2s and err_H2ss columns, or none for eigencheck's text."""
    if "blocks" in record:
        return [[float.fromhex(v) for v in block] for block in record["blocks"]]
    rows = record.get("rows", [])[1:]
    return [[float(row[k]) for row in rows] for k in (1, 2)] if rows else []


def iterations(record):
    """The GMRES iteration counts of a record: the solve's, or the last
    column of the convergence rows."""
    if "blocks" in record:
        return [record["gmres_iterations"]]
    return [row[-1] for row in record.get("rows", [])[1:]]


def largest_difference(want, got) -> float:
    """max |got - want| / max |want| over each block or column, at worst;
    inf when the shapes, the GMRES iteration counts or the text differ."""
    if iterations(want) != iterations(got) or want.get("text") != got.get("text"):
        return math.inf
    want, got = numbers(want), numbers(got)
    if [len(w) for w in want] != [len(g) for g in got]:
        return math.inf
    worst = 0.0
    for w, g in zip(want, got):
        scale = max(map(abs, w)) or 1.0
        worst = max(worst, max(abs(a - b) for a, b in zip(w, g)) / scale)
    return worst


def corpus():
    return {name: {"argv": argv(*entry), **results(argv(*entry))} for name, entry in ENTRIES.items()}


def check() -> int:
    stored = json.loads(CORPUS.read_text())
    failed = False
    for name, entry in stored.items():
        got = results(entry["argv"])
        want = {k: v for k, v in entry.items() if k != "argv"}
        if got == want:
            print(f"{name}: bitwise equal")
            continue
        failed = True
        differ = ", ".join(key for key in want if got.get(key) != want[key])
        print(f"{name}: largest difference {largest_difference(want, got):.3e} ({differ} differ)")
    return 1 if failed else 0


def write() -> int:
    CORPUS.write_text(json.dumps(corpus(), indent=1) + "\n")
    print(f"wrote {CORPUS} ({CORPUS.stat().st_size} bytes, {len(ENTRIES)} entries)")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the corpus instead of writing it")
    sys.exit(check() if parser.parse_args().check else write())
