"""Command-line driver.

Subcommands:
  solve        solve one problem, write solution JSON + sampled curve CSV
  convergence  sweep resolutions, write error table CSV + fitted orders
  eigencheck   run the quadrature-oracle eigenvalue and triangularity sweeps

Configuration comes from an INI-style file (--config) and/or flags;
flags win over the file, the file wins over defaults.  Exit codes:
0 success, 1 solver/check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
import time

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
# its default pattern misses exponent notation such as -2e0 or -1e-1.
# argparse has no public setting for it, so each subcommand parser's
# internal matcher is replaced.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(v: float) -> str:
    return f"{v:.15e}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fraclap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--s", type=float, action="append", help="fractional order (repeatable for eigencheck)")
        p.add_argument("--interval", nargs=2, type=float, action="append", metavar=("A", "B"))
        p.add_argument("--rhs", help="right-hand side NAME[:params]")
        p.add_argument("--n", help="resolution INT or comma list INT,INT,...")
        p.add_argument("--gmres-tol", type=float, dest="gmres_tol")
        p.add_argument("--ref-n", type=int, dest="ref_n", help="reference resolution for convergence")
        p.add_argument("--out", default="fraclap", help="output path prefix")

    for name in ("solve", "convergence", "eigencheck"):
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        add_common(p)
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
    except ValueError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from exc


def _config_values(cfg):
    out = {}
    if cfg.has_section("problem"):
        sec = cfg["problem"]
        for key in ("s", "gmres_tol"):
            if key in sec:
                out[key] = float(sec[key])
        for key in ("rhs", "n"):
            if key in sec:
                out[key] = sec[key]
        if "ref_n" in sec:
            out["ref_n"] = int(sec["ref_n"])
    intervals = []
    for section in cfg.sections():
        if section.startswith("interval"):
            sec = cfg[section]
            if "a" not in sec or "b" not in sec:
                raise ConfigError(f"section [{section}] needs both a and b")
            intervals.append((float(sec["a"]), float(sec["b"])))
    if intervals:
        out["intervals"] = intervals
    return out


def _parse_n(raw):
    try:
        parts = [int(v) for v in str(raw).split(",")]
    except ValueError:
        raise ConfigError(f"n must be an integer or a comma list of integers, got {raw!r}") from None
    return parts[0] if len(parts) == 1 else tuple(parts)


def _resolve(args, sweep_n=False):
    """Merge defaults < config file < flags into a resolved problem.

    With sweep_n the n entry is a resolution sweep list; the spec is
    built at its maximum and the list is returned alongside.
    """
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
    if args.s:
        merged["s"] = args.s[-1]
    if args.interval:
        merged["intervals"] = [tuple(pair) for pair in args.interval]
    if args.rhs:
        merged["rhs"] = args.rhs
    if args.n is not None:
        merged["n"] = args.n
    if args.gmres_tol is not None:
        merged["gmres_tol"] = args.gmres_tol
    if args.ref_n is not None:
        merged["ref_n"] = args.ref_n

    try:
        domain = Domain(tuple(merged["intervals"]))
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    n_list = None
    n_value = _parse_n(merged["n"])
    if sweep_n:
        n_list = [n_value] if isinstance(n_value, int) else list(n_value)
        n_value = max(n_list)
    try:
        rhs, label = resolve_rhs(str(merged["rhs"]), merged["s"], domain)
        spec = ProblemSpec(
            s=float(merged["s"]),
            domain=domain,
            rhs=rhs,
            n=n_value,
            gmres_tol=float(merged["gmres_tol"]),
            rhs_label=label,
        )
    except (DomainError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    ref_n = merged["ref_n"]
    return spec, (int(ref_n) if ref_n is not None else None), n_list


def _solution_json(spec: ProblemSpec, sol) -> dict:
    return {
        "s": spec.s,
        "intervals": [
            {"a": a, "b": b, "n": n, "phi_coeffs": block.coeffs.tolist()}
            for (a, b), n, block in zip(
                spec.domain.intervals, spec.n_per_interval(), sol.blocks
            )
        ],
        "gmres": {"iterations": sol.gmres_iterations, "residual": sol.final_residual},
        "rhs": spec.rhs_label,
        "version": "1",
    }


def cmd_solve(spec: ProblemSpec, out_prefix: str) -> int:
    t0 = time.perf_counter()
    sol = multi_interval.solve(spec)
    elapsed = time.perf_counter() - t0

    with open(out_prefix + "_solution.json", "w") as fh:
        json.dump(_solution_json(spec, sol), fh, indent=1)
    with open(out_prefix + "_curve.csv", "w") as fh:
        fh.write("x,u,phi\n")
        for (a, b), block in zip(spec.domain.intervals, sol.blocks):
            x = np.linspace(a, b, 1000)
            phi = evaluate_expansion(block, x)
            u = (x - a) ** spec.s * (b - x) ** spec.s * phi
            np.savetxt(fh, np.column_stack([x, u, phi]), fmt="%.15e", delimiter=",")
    print(
        f"solved: {sol.gmres_iterations} GMRES iterations, "
        f"residual {sol.final_residual:.3e}, {elapsed:.4f} s"
    )
    return 0


def _reference_solution(spec: ProblemSpec, n_list, ref_n):
    if ref_n is None:
        ref_n = max(2 * max(n_list), max(n_list) + 16)
    return ref_n, multi_interval.solve(spec.with_n(ref_n))


def cmd_convergence(spec: ProblemSpec, n_list, ref_n, out_prefix: str) -> int:
    if len(n_list) < 3 or sorted(n_list) != list(n_list):
        raise ConfigError(f"convergence needs an ascending list of >= 3 resolutions, got {n_list}")
    if ref_n is not None and ref_n <= n_list[-1]:
        raise ConfigError(f"reference resolution must exceed the largest N = {n_list[-1]}, got {ref_n}")
    ref_n, ref = _reference_solution(spec, n_list, ref_n)
    ref_scale = max(
        np.sqrt(sum(sobolev_metrics.hrs_norm(b, 0.0) ** 2 for b in ref.blocks)), 1e-300
    )
    rows = []
    for n in n_list:
        t0 = time.perf_counter()
        sol = multi_interval.solve(spec.with_n(n))
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
    report = sobolev_metrics.make_report(
        spec.s, spec.domain.intervals, spec.rhs_label, rows, ref_n
    )
    with open(out_prefix + "_convergence.csv", "w") as fh:
        fh.write("N,err_L2s,err_H2ss,seconds\n")
        for n, e1, e2, sec in report.rows:
            fh.write(f"{n},{_fmt(e1)},{_fmt(e2)},{_fmt(sec)}\n")
    with open(out_prefix + "_orders.json", "w") as fh:
        json.dump(
            {
                "order_l2": report.order_l2,
                "order_h2s": report.order_h2s,
                "super_algebraic": report.super_algebraic,
                "reference_n": report.reference_n,
            },
            fh,
            indent=1,
        )
    for n, e1, e2, sec in report.rows:
        print(f"N={n:4d}  err_L2s={e1:.4e}  err_H2ss={e2:.4e}  {sec:.4f} s")
    print(
        f"fitted orders: L2s {report.order_l2}, H2ss {report.order_h2s}, "
        f"super-algebraic: {report.super_algebraic}"
    )
    return 0


def cmd_eigencheck(s_list, nmax: int, out_prefix: str) -> int:
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
            s_list = args.s or [0.1, 0.25, 0.5, 0.75, 0.9]
            nmax = 4 if args.n is None else _parse_n(args.n)
            if not isinstance(nmax, int) or nmax < 0:
                raise ConfigError(f"eigencheck takes one integer n >= 0, got {args.n!r}")
            return cmd_eigencheck(s_list, nmax, args.out)
        if args.command == "solve":
            spec, _, _ = _resolve(args)
            return cmd_solve(spec, args.out)
        spec, ref_n, n_list = _resolve(args, sweep_n=True)
        return cmd_convergence(spec, n_list, ref_n, args.out)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
