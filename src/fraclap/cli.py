"""Command-line driver.

Subcommands:
  solve        solve one problem, write solution JSON + sampled curve CSV
  convergence  sweep resolutions, write error table CSV + fitted orders
  eigencheck   run the quadrature-oracle eigenvalue and triangularity sweeps

solve and convergence read an INI-style file (--config) and/or flags;
flags win over the file, the file wins over defaults.  eigencheck reads
only --s, --n and --out.  Exit codes:
0 success, 1 solver/check failure, 2 configuration error (an --out
prefix that cannot be written included; no directory is created).
"""

from __future__ import annotations

import argparse
import configparser
import errno
import functools
import json
import os
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import multi_interval, sobolev_metrics
from .gegenbauer import eval_gegenbauer, evaluate_expansion
from .multi_interval import Domain
from .operator_core import monomial_operator_matrix
from .oracle import PVConfig, pv_apply, weighted_mode
from .problem import ProblemSpec, resolve_rhs
from .specfun import DomainError, spectrum


class ConfigError(Exception):
    pass


# Tokens argparse must read as negative numbers rather than options:
# its default pattern misses exponent notation such as -2e0 or -1e-1,
# and the non-finite spellings float() accepts (-inf, -infinity, -nan,
# any case), which validation then rejects by name.  argparse has no
# public setting for it, so each subcommand parser's internal matcher
# is replaced.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


# Precision of every float written to a CSV file.
_CSV_FLOAT = "%.15e"


def _fmt(v: float) -> str:
    return _CSV_FLOAT % v


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, each with only the flags it reads.

    The dest of each problem flag is its config-file key, so flags
    override file values by name.  Built once per process: parsing
    leaves the parser unchanged, so every main() call shares it.
    """
    parser = argparse.ArgumentParser(prog="fraclap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_subcommand(name):
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    for name in ("solve", "convergence"):
        p = add_subcommand(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--s", type=float, help="fractional order")
        p.add_argument(
            "--interval", nargs=2, type=float, action="append", dest="intervals", metavar=("A", "B")
        )
        p.add_argument("--rhs", help="right-hand side NAME[:params]")
        p.add_argument("--n", help="resolution INT or comma list INT,INT,...")
        p.add_argument("--gmres-tol", type=float, dest="gmres_tol")
        if name == "convergence":
            p.add_argument("--ref-n", type=int, dest="ref_n", help="reference resolution")
        p.add_argument("--out", default="fraclap", help="output path prefix")

    p = add_subcommand("eigencheck")
    p.add_argument("--s", type=float, action="append", help="fractional order (repeatable)")
    p.add_argument("--n", help="highest mode index INT")
    p.add_argument("--out", default="fraclap", help="output path prefix")
    return parser


def _load_config(path):
    cfg = configparser.ConfigParser()
    try:
        read = cfg.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    try:
        return _config_values(cfg)
    except (ValueError, configparser.Error) as exc:  # configparser: a bad % interpolation
        raise ConfigError(f"config file {path!r}: {exc}") from exc


# The keys of a config file's [problem] section and how each is read.
# ref_n is accepted by solve too, so one file can serve both subcommands.
_PROBLEM_KEYS = {"s": float, "gmres_tol": float, "rhs": str, "n": str, "ref_n": int}


def _config_values(cfg):
    """The settings of a parsed config file: a [problem] section and any
    number of [interval] / [interval.<name>] sections with keys a and b.
    Any other section or key is an error."""
    if cfg.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    out = {}
    intervals = []
    for section in cfg.sections():
        sec = cfg[section]
        is_interval = section == "interval" or section.startswith("interval.")
        if section != "problem" and not is_interval:
            raise ConfigError(f"unknown section [{section}]")
        known = ("a", "b") if is_interval else _PROBLEM_KEYS
        unknown = [key for key in sec if key not in known]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]")
        if not is_interval:
            out.update((key, _PROBLEM_KEYS[key](sec[key])) for key in sec)
        elif "a" not in sec or "b" not in sec:
            raise ConfigError(f"section [{section}] needs both a and b")
        else:
            intervals.append((float(sec["a"]), float(sec["b"])))
    if intervals:
        out["intervals"] = intervals
    return out


def _parse_n(raw) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"n must be an integer or a comma list of integers, got {raw!r}") from None


def _settings(args) -> dict:
    """Merge defaults < config file < flags."""
    merged = {
        "s": 0.5,
        "intervals": [(-1.0, 1.0)],
        "rhs": "constant:1",
        "n": 16,
        "gmres_tol": 1e-13,
        "ref_n": None,
    }
    if args.config:
        merged.update(_load_config(args.config))
    merged.update((k, v) for k, v in vars(args).items() if k in merged and v is not None)
    return merged


def _spec(settings: dict, n) -> ProblemSpec:
    """The problem of the merged settings at resolution n."""
    domain = Domain(tuple(settings["intervals"]))
    try:
        rhs, label = resolve_rhs(settings["rhs"], settings["s"], domain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ProblemSpec(
        s=settings["s"],
        domain=domain,
        rhs=rhs,
        n=n,
        gmres_tol=settings["gmres_tol"],
        rhs_label=label,
    )


def _check_out(out_prefix: str, first_output: str) -> None:
    """Fail before any work when the --out prefix's directory does not
    exist (the CLI creates none), with the error that opening its first
    output file would raise."""
    if not os.path.isdir(os.path.dirname(out_prefix) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out_prefix + first_output)


def _solution_json(spec: ProblemSpec, sol) -> dict:
    return {
        "s": spec.s,
        "intervals": [
            {"a": a, "b": b, "n": n, "phi_coeffs": block.coeffs.tolist()}
            for (a, b), n, block in zip(spec.domain.intervals, spec.n, sol.blocks)
        ],
        "gmres": {"iterations": sol.gmres_iterations, "residual": sol.final_residual},
        "rhs": spec.rhs_label,
        "version": "1",
    }


def cmd_solve(spec: ProblemSpec, out_prefix: str) -> int:
    _check_out(out_prefix, "_solution.json")
    t0 = time.perf_counter()
    sol = multi_interval.solve(spec)
    elapsed = time.perf_counter() - t0

    with open(out_prefix + "_solution.json", "w") as fh:
        json.dump(_solution_json(spec, sol), fh, indent=1)
    row = ",".join([_CSV_FLOAT] * 3) + "\n"
    with open(out_prefix + "_curve.csv", "w") as fh:
        fh.write("x,u,phi\n")
        for (a, b), block in zip(spec.domain.intervals, sol.blocks):
            x = np.linspace(a, b, 1000)
            phi = evaluate_expansion(block, x)
            u = (x - a) ** spec.s * (b - x) ** spec.s * phi
            fh.write((row * x.size) % tuple(np.column_stack([x, u, phi]).ravel().tolist()))
    print(
        f"solved: {sol.gmres_iterations} GMRES iterations, "
        f"residual {sol.final_residual:.3e}, {elapsed:.4f} s"
    )
    return 0


def cmd_convergence(spec: ProblemSpec, n_list, ref_n, out_prefix: str) -> int:
    if len(n_list) < 3 or any(lo >= hi for lo, hi in zip(n_list, n_list[1:])):
        raise ConfigError(
            f"convergence needs a strictly ascending list of >= 3 resolutions, got {n_list}"
        )
    if ref_n is None:
        ref_n = max(2 * n_list[-1], n_list[-1] + 16)
    elif ref_n <= n_list[-1]:
        raise ConfigError(f"reference resolution must exceed the largest N = {n_list[-1]}, got {ref_n}")
    _check_out(out_prefix, "_convergence.csv")
    ref = multi_interval.solve(replace(spec, n=ref_n))
    ref_scale = max(
        np.sqrt(sum(sobolev_metrics.hrs_norm(b, 0.0) ** 2 for b in ref.blocks)), 1e-300
    )
    rows = []
    for n in n_list:
        t0 = time.perf_counter()
        sol = multi_interval.solve(replace(spec, n=n))
        elapsed = time.perf_counter() - t0
        e_l2 = np.sqrt(
            sum(
                sobolev_metrics.error_between(b, rb, 0.0) ** 2
                for b, rb in zip(sol.blocks, ref.blocks)
            )
        )
        e_h = np.sqrt(
            sum(
                sobolev_metrics.error_between(b, rb, 2.0 * spec.s) ** 2
                for b, rb in zip(sol.blocks, ref.blocks)
            )
        )
        rows.append((n, float(e_l2 / ref_scale), float(e_h / ref_scale), elapsed))
    _, errs_l2, errs_h2s, _ = zip(*rows)
    order_l2 = order_h2s = None
    try:
        order_l2 = sobolev_metrics.fit_order(n_list, errs_l2)
        order_h2s = sobolev_metrics.fit_order(n_list, errs_h2s)
    except ValueError:
        pass
    try:  # needs at least 6 rows
        super_algebraic = sobolev_metrics.is_super_algebraic(n_list, errs_l2)
    except ValueError:
        super_algebraic = False
    with open(out_prefix + "_convergence.csv", "w") as fh:
        fh.write("N,err_L2s,err_H2ss,seconds\n")
        for n, e1, e2, sec in rows:
            fh.write(f"{n},{_fmt(e1)},{_fmt(e2)},{_fmt(sec)}\n")
    with open(out_prefix + "_orders.json", "w") as fh:
        json.dump(
            {
                "order_l2": order_l2,
                "order_h2s": order_h2s,
                "super_algebraic": super_algebraic,
                "reference_n": ref_n,
            },
            fh,
            indent=1,
        )
    for n, e1, e2, sec in rows:
        print(f"N={n:4d}  err_L2s={e1:.4e}  err_H2ss={e2:.4e}  {sec:.4f} s")
    print(
        f"fitted orders: L2s {order_l2}, H2ss {order_h2s}, "
        f"super-algebraic: {super_algebraic}"
    )
    return 0


def cmd_eigencheck(s_list, nmax: int, out_prefix: str) -> int:
    _check_out(out_prefix, "_eigencheck.txt")
    points = (-0.62, 0.11, 0.54)
    interval = (-1.0, 1.0)
    cfg = PVConfig()
    lines = []
    ok = True
    for s in s_list:
        # modes n <= nmax, and the diagonal of the monomial matrix below
        lam, h = spectrum(nmax + 2, s)
        worst = 0.0
        for n in range(nmax + 1):
            u, uprime = weighted_mode(n, s, interval)
            tol = 1e-6 * max(1.0, lam[n])
            for x in points:
                expect = lam[n] * eval_gegenbauer(n, s + 0.5, x) / h[n]
                dev = abs(pv_apply(uprime, x, s, interval, cfg) - expect)
                worst = max(worst, dev / tol)
        passed = worst <= 1.0
        ok &= passed
        lines.append(
            f"eigen s={s:<6g} n<= {nmax}: worst deviation {worst:.3e} x tol "
            f"{'PASS' if passed else 'FAIL'}"
        )
        # triangularity / diagonal structure of the monomial operator matrix
        m = min(nmax + 2, 12)
        mat = monomial_operator_matrix(m, s)
        diag = lam[: m + 1]
        lower = np.tril(mat, -1)
        tri_dev = np.max(np.abs(lower)) / np.max(np.abs(diag))
        diag_dev = np.max(np.abs(np.diag(mat) - diag) / np.abs(diag))
        passed = tri_dev <= 1e-10 and diag_dev <= 1e-10
        ok &= passed
        lines.append(
            f"matrix s={s:<6g} m={m}: subdiagonal {tri_dev:.3e}, diagonal {diag_dev:.3e} "
            f"{'PASS' if passed else 'FAIL'}"
        )
    text = "\n".join(lines) + "\n"
    with open(out_prefix + "_eigencheck.txt", "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eigencheck":
            n = (4,) if args.n is None else _parse_n(args.n)
            if len(n) != 1 or n[0] < 0:
                raise ConfigError(f"eigencheck takes one integer n >= 0, got {args.n!r}")
            return cmd_eigencheck(args.s or [0.1, 0.25, 0.5, 0.75, 0.9], n[0], args.out)
        settings = _settings(args)
        n = _parse_n(settings["n"])
        if args.command == "solve":
            return cmd_solve(_spec(settings, n), args.out)
        return cmd_convergence(_spec(settings, max(n)), n, settings["ref_n"], args.out)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # only the output files are opened here
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
