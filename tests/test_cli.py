import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fraclap
from fraclap import Domain, ProblemSpec, cli, multi_interval, resolve_rhs, solve
from fraclap.cli import main
from fraclap.gegenbauer import GegenbauerCoeffs, eval_gegenbauer, evaluate_expansion
from fraclap.sobolev_metrics import error_between
from fraclap.specfun import eigenvalue_lambda, gegenbauer_norm_h


def run(args):
    return main(args)


def test_solve_single_interval_constant(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = run(
        ["solve", "--s", "0.3", "--interval", "-1", "1", "--rhs", "constant:1", "--n", "6", "--out", out]
    )
    assert code == 0
    doc = json.loads((tmp_path / "run_solution.json").read_text())
    assert doc["version"] == "1"
    assert doc["s"] == pytest.approx(0.3)
    assert doc["gmres"]["iterations"] == 0
    [block] = doc["intervals"]
    assert block["a"] == -1.0 and block["b"] == 1.0 and block["n"] == 6

    # phi is the constant 1/Gamma(2s+1); check the sampled curve
    lines = (tmp_path / "run_curve.csv").read_text().splitlines()
    assert lines[0] == "x,u,phi"
    assert len(lines) == 1001
    # rows equal the per-row formatting of the sampled expansion
    x = np.linspace(-1.0, 1.0, 1000)
    phi = evaluate_expansion(GegenbauerCoeffs(0.3, (-1.0, 1.0), block["phi_coeffs"]), x)
    u = (x + 1.0) ** 0.3 * (1.0 - x) ** 0.3 * phi
    assert lines[1:] == [f"{xi:.15e},{ui:.15e},{pi:.15e}" for xi, ui, pi in zip(x, u, phi)]
    want = 1.0 / math.gamma(1.6)
    for row in lines[1:200:37]:
        x, u, phi = (float(v) for v in row.split(","))
        assert phi == pytest.approx(want, rel=1e-11)
        assert u == pytest.approx((1 - x * x) ** 0.3 * want, rel=1e-10)
    captured = capsys.readouterr()
    assert "GMRES" in captured.out


def test_solve_two_intervals(tmp_path):
    out = str(tmp_path / "two")
    code = run(
        [
            "solve",
            "--interval", "-1.075", "-0.075",
            "--interval", "0.075", "1.075",
            "--rhs", "constant:1",
            "--n", "28",
            "--out", out,
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "two_solution.json").read_text())
    assert doc["gmres"]["iterations"] <= 8
    assert len(doc["intervals"]) == 2


def test_solve_two_intervals_rhs_of_any_magnitude(tmp_path):
    # GMRES once took a unit basis vector against |f| >= 1e10 for a breakdown
    coeffs = {}
    for c in ("1", "1e10", "1e100", "1e-100"):
        argv = ["solve", "--interval", "-1.075", "-0.075", "--interval", "0.075", "1.075", "--n", "16"]
        assert run([*argv, "--rhs", f"constant:{c}", "--out", str(tmp_path / c)]) == 0
        doc = json.loads((tmp_path / f"{c}_solution.json").read_text())
        coeffs[c] = np.concatenate([iv["phi_coeffs"] for iv in doc["intervals"]])
    for c in ("1e10", "1e100", "1e-100"):
        want = float(c) * coeffs["1"]
        assert np.linalg.norm(coeffs[c] - want) <= 1e-14 * np.linalg.norm(want)


def test_solve_gegenbauer_mode_rhs(tmp_path):
    # f = C~_3 on the interval is an eigenfunction: phi = e_3 / lambda_3
    out = str(tmp_path / "mode")
    code = run(
        ["solve", "--s", "0.3", "--interval", "2", "5", "--rhs", "gegenbauer-mode:3", "--n", "8", "--out", out]
    )
    assert code == 0
    doc = json.loads((tmp_path / "mode_solution.json").read_text())
    assert doc["rhs"] == "gegenbauer-mode:3"
    [block] = doc["intervals"]
    want = np.zeros(9)
    want[3] = 1.0 / eigenvalue_lambda(3, 0.3)
    np.testing.assert_allclose(block["phi_coeffs"], want, rtol=0, atol=1e-13)


def test_mode_rhs_takes_each_point_in_its_own_interval(tmp_path):
    # (0, 10) is long beside (10.5, 11): its nodes above 7.875 lie nearer
    # the other interval's midpoint, yet take their own interval's frame
    intervals = ((0.0, 10.0), (10.5, 11.0))
    s, k = 0.4, 2
    h = gegenbauer_norm_h(k, s)

    def mode(x):
        x = np.asarray(x, dtype=float)
        (a0, b0), (a1, b1) = intervals
        a, b = np.where(x < 10.25, a0, a1), np.where(x < 10.25, b0, b1)
        return eval_gegenbauer(k, s + 0.5, 2.0 * (x - a) / (b - a) - 1.0) / h

    f, _ = resolve_rhs(f"gegenbauer-mode:{k}", s, Domain(intervals))
    assert f(9.0) == pytest.approx(1.1397, abs=1e-4)
    x = np.array([-1.0, 3.0, 9.0, 9.99, 10.1, 10.3, 10.7, 12.0])
    np.testing.assert_allclose(f(x), mode(x), rtol=1e-15, atol=0)

    out = str(tmp_path / "mode")
    argv = ["solve", "--s", str(s), "--interval", "0", "10", "--interval", "10.5", "11"]
    code = run([*argv, "--rhs", f"gegenbauer-mode:{k}", "--n", "12", "--out", out])
    assert code == 0
    doc = json.loads((tmp_path / "mode_solution.json").read_text())
    want = solve(ProblemSpec(s, Domain(intervals), mode, n=12))
    scale = max(np.max(np.abs(block.coeffs)) for block in want.blocks)
    for got, block in zip(doc["intervals"], want.blocks):
        np.testing.assert_allclose(got["phi_coeffs"], block.coeffs, rtol=0, atol=1e-13 * scale)


def test_overlapping_intervals_exit_code(tmp_path, capsys):
    code = run(
        ["solve", "--interval", "-1", "0.5", "--interval", "0.4", "1", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "0.5" in capsys.readouterr().err


def test_bad_rhs_exit_code(tmp_path):
    code = run(["solve", "--rhs", "nosuch", "--out", str(tmp_path / "x")])
    assert code == 2


def assert_config_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--rhs", "constant:nan"],
        ["--rhs", "polynomial:1,nan"],
        ["--rhs", "constant:inf", "--interval", "-1", "-0.1", "--interval", "0.1", "1"],
        # finite at the nodes, but its weighted sum (about 1.89e308) is not
        ["--s", "0.1", "--rhs", "constant:1e308"],
    ],
)
def test_non_finite_rhs_exit_code(tmp_path, capsys, argv):
    code = run(["solve", *argv, "--n", "4", "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)
    assert not (tmp_path / "x_solution.json").exists()


@pytest.mark.parametrize("rhs", ["runge:3", "absx:1"])
def test_parameter_on_parameterless_rhs_exit_code(tmp_path, capsys, rhs):
    code = run(["solve", "--rhs", rhs, "--n", "4", "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)
    assert not (tmp_path / "x_solution.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--rhs", "polynomial"],  # no coefficients
        ["--rhs", "gegenbauer-mode"],  # no index
        ["--rhs", "gegenbauer-mode:-1"],
    ],
)
def test_missing_or_out_of_range_value_exit_code(tmp_path, capsys, argv):
    code = run(["solve", *argv, "--n", "4", "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        # C = K^-1 F is finite, the coupled solution's coefficients are not
        (["--interval", "0", "1", "--interval", "1.01", "2", "--rhs", "constant:1e308"], "Gegenbauer coefficients"),
        # the coefficients are finite, u = omega^s phi on a long interval is not
        (["--interval", "0", "1e3", "--rhs", "constant:1e306"], "sampled solution"),
        # phi is that of (-1, 1), but omega^s on an interval this long overflows
        (["--interval", "0", "1e308"], "sampled solution"),
    ],
)
def test_overflowing_solution_exit_code(tmp_path, capsys, argv, message):
    code = run(["solve", "--s", "0.5", *argv, "--n", "16", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and message in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_overflowing_rhs_reports_one_line(tmp_path, capsys):
    # the rhs overflows at the nodes: the finiteness check reports it,
    # with no NumPy warning before it
    argv = ["solve", "--rhs", "polynomial:1e308,1e308,1e308", "--interval", "0", "1e3", "--n", "8"]
    code = run([*argv, "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)
    assert not (tmp_path / "x_solution.json").exists()


# the length of (-1e308, 1e308) overflows, so its nodes do too
@pytest.mark.parametrize("endpoints", [("0", "inf"), ("nan", "1"), ("-1e308", "1e308")])
def test_unusable_endpoints_exit_code(tmp_path, capsys, endpoints):
    code = run(["solve", "--interval", *endpoints, "--n", "4", "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)


@pytest.mark.parametrize(
    "endpoints",
    [("-inf", "0"), ("-Inf", "0"), ("-INFINITY", "0"), ("-infinity", "1"), ("-nan", "1"), ("0", "-NaN")],
)
def test_negative_non_finite_endpoints_reach_validation(tmp_path, capsys, endpoints):
    # argparse must take these for numbers, not options, so the endpoint
    # check names them
    code = run(["solve", "--interval", *endpoints, "--n", "4", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "config error: interval endpoints must be finite" in capsys.readouterr().err


def test_solve_on_intervals_whose_weights_leave_the_doubles(tmp_path):
    # phi lives in the interval's reference frame, so it is that of
    # (-1, 1) however long the interval; the solver maps nodes, never
    # weights, whose scale ((b-a)/2)^(2s+1) under- or overflows here
    def phi(a, b):
        domain = Domain(((a, b),))
        rhs, _ = resolve_rhs("constant:1", 0.9, domain)
        return solve(ProblemSpec(0.9, domain, rhs, 8)).blocks[0].coeffs

    want = phi(-1.0, 1.0)
    for b in (1e-200, 1e300):
        assert np.array_equal(phi(0.0, b), want)
    code = run(["solve", "--s", "0.9", "--interval", "0", "1e-200", "--n", "8", "--out", str(tmp_path / "x")])
    assert code == 0
    assert json.loads((tmp_path / "x_solution.json").read_text())["intervals"][0]["phi_coeffs"] == want.tolist()


def test_colliding_nodes_exit_code(tmp_path, capsys):
    argv = ["solve", "--interval", "1e16", "1.0000000000000004e16", "--n", "8"]
    code = run([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: the 9 nodes mapped to the interval (1e+16, 1.0000000000000004e+16)")
    assert not (tmp_path / "x_solution.json").exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        # the (N+1) x (N//2+1) table of N, or of the reference at 2N, is more
        # than the platform can address: rejected before anything is allocated
        (["solve", "--n", "4000000000"], "N = 4000000000"),
        (["convergence", "--n", "8,16,4000000000"], "N = 8000000000"),
        # so is the spectrum up to the mode index
        (["solve", "--rhs", "gegenbauer-mode:99999999999999999999"], "mode index 99999999999999999999"),
    ],
    ids=["solve-n", "convergence-reference-n", "gegenbauer-mode-index"],
)
def test_unaddressable_size_exit_code(tmp_path, capsys, argv, name):
    code = run([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "4"],
        ["convergence", "--n", "4,6,8", "--ref-n", "12"],
        ["eigencheck", "--s", "0.5", "--n", "0"],
    ],
)
def test_unwritable_out_exit_code(tmp_path, capsys, monkeypatch, argv):
    # the CLI creates no directories: a prefix in a missing one is a
    # configuration error, not a traceback, reported before any work
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(fraclap.multi_interval, "solve", unreachable)
    monkeypatch.setattr(fraclap.cli, "pv_apply", unreachable)
    out = tmp_path / "missing" / "run"
    code = run([*argv, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and str(out) in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "missing").exists()


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a tolerance below rounding is never met: GMRES stops after one
    # iteration per unknown (2 x 9 here) and the solve reports failure
    monkeypatch.setattr(multi_interval, "_GMRES_TOL", 1e-30)
    out = tmp_path / "x"
    argv = ["solve", "--interval", "0", "1", "--interval", "1.5", "2.5", "--n", "8"]
    code = run([*argv, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: GMRES did not reach the requested tolerance")
    assert len(err.strip().splitlines()) == 1
    history = json.loads(err.split("residual history: ")[1])
    assert len(history) == 1 + 18
    assert not (tmp_path / "x_solution.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # sizes above 1 PiB: refused at once on any 64-bit host, no memory touched
        ["solve", "--n", "1000000000"],  # a 3.47 EiB table
        ["convergence", "--n", "8,16,32", "--ref-n", "1000000000"],
        ["eigencheck", "--n", "1000000000000000"],  # a 7.11 PiB spectrum
    ],
)
def test_refused_allocation_exit_code(tmp_path, capsys, argv):
    code = run([*argv, "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure:") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_consecutive_calls_parse_independently(monkeypatch):
    # main() reuses one parser: no flag of one call leaks into the next
    seen = []
    monkeypatch.setattr(fraclap.cli, "cmd_solve", lambda spec, out: seen.append((spec, out)) or 0)
    monkeypatch.setattr(
        fraclap.cli, "cmd_convergence", lambda spec, ns, ref_n, out: seen.append((spec, ns, ref_n, out)) or 0
    )
    monkeypatch.setattr(fraclap.cli, "cmd_eigencheck", lambda s_list, n, out: seen.append((s_list, n, out)) or 0)
    two = ["--interval", "-2", "-1", "--interval", "1", "2"]
    assert run(["solve", "--s", "0.3", *two, "--n", "6,8", "--out", "a"]) == 0
    assert run(["eigencheck", "--s", "0.2", "--s", "0.7", "--n", "3"]) == 0
    assert run(["convergence", "--n", "4,6,8", "--ref-n", "12", "--out", "c"]) == 0
    assert run(["eigencheck"]) == 0
    assert run(["solve"]) == 0
    first, eig, conv, eig_default, plain = seen
    assert (first[0].s, first[0].domain.intervals, first[0].n, first[1]) == (0.3, ((-2.0, -1.0), (1.0, 2.0)), (6, 8), "a")
    assert eig == ([0.2, 0.7], 3, "fraclap")
    assert (conv[0].s, conv[0].domain.intervals, conv[1:]) == (0.5, ((-1.0, 1.0),), ((4, 6, 8), 12, "c"))
    assert eig_default == ([0.1, 0.25, 0.5, 0.75, 0.9], 4, "fraclap")
    assert (plain[0].s, plain[0].domain.intervals, plain[0].n, plain[1]) == (0.5, ((-1.0, 1.0),), (16,), "fraclap")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "problem.ini"
    cfg.write_text(
        "[problem]\ns = 0.7\nrhs = constant:2\nn = 5\n\n"
        "[interval.1]\na = -1\nb = 1\n"
    )
    out = str(tmp_path / "cfg")
    code = run(["solve", "--config", str(cfg), "--s", "0.4", "--out", out])
    assert code == 0
    doc = json.loads((tmp_path / "cfg_solution.json").read_text())
    assert doc["s"] == pytest.approx(0.4)  # flag wins
    assert doc["rhs"] == "constant:2"  # file value kept
    assert doc["intervals"][0]["n"] == 5


def test_solution_roundtrip_reproducible(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = [
        "solve", "--s", "0.5",
        "--interval", "-2", "-1", "--interval", "1", "2",
        "--rhs", "runge", "--n", "12",
    ]
    assert run(args + ["--out", out1]) == 0
    doc = json.loads((tmp_path / "a_solution.json").read_text())
    # re-run from the embedded spec
    rerun = ["solve", "--s", str(doc["s"]), "--rhs", doc["rhs"], "--n", str(doc["intervals"][0]["n"])]
    for block in doc["intervals"]:
        rerun += ["--interval", str(block["a"]), str(block["b"])]
    assert run(rerun + ["--out", out2]) == 0
    assert (tmp_path / "a_curve.csv").read_bytes() == (tmp_path / "b_curve.csv").read_bytes()
    doc2 = json.loads((tmp_path / "b_solution.json").read_text())
    for b1, b2 in zip(doc["intervals"], doc2["intervals"]):
        assert b1["phi_coeffs"] == b2["phi_coeffs"]


def test_convergence_command(tmp_path):
    out = str(tmp_path / "conv")
    code = run(
        [
            "convergence",
            "--s", "0.5",
            "--interval", "-1", "1",
            "--rhs", "runge",
            "--n", "8,16,32,64",
            "--ref-n", "128",
            "--out", out,
        ]
    )
    assert code == 0
    lines = (tmp_path / "conv_convergence.csv").read_text().splitlines()
    assert lines[0] == "N,err_L2s,err_H2ss,seconds,gmres_iterations"
    assert len(lines) == 5
    assert [row.split(",")[4] for row in lines[1:]] == ["0"] * 4  # one interval: no GMRES
    errs = [float(row.split(",")[1]) for row in lines[1:]]
    assert errs == sorted(errs, reverse=True)
    # 16 significant digits in scientific notation
    assert "e" in lines[1].split(",")[1]
    sidecar = json.loads((tmp_path / "conv_orders.json").read_text())
    assert sidecar["reference_n"] == 128
    assert sidecar["order_l2"] > 2.0


def test_convergence_tabulates_gmres_iterations(tmp_path, capsys):
    # the paper's two-interval experiment: the error decays in N while
    # the GMRES count of each row is the solver's own
    two = ["--interval", "-1.075", "-0.075", "--interval", "0.075", "1.075"]
    argv = ["convergence", "--s", "0.5", *two, "--rhs", "constant:1", "--n", "8,12,16", "--ref-n", "32"]
    assert run([*argv, "--out", str(tmp_path / "two")]) == 0
    lines = (tmp_path / "two_convergence.csv").read_text().splitlines()
    assert lines[0] == "N,err_L2s,err_H2ss,seconds,gmres_iterations"
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("N=")]

    domain = Domain(((-1.075, -0.075), (0.075, 1.075)))
    rhs, label = resolve_rhs("constant:1", 0.5, domain)
    spec = ProblemSpec(0.5, domain, rhs, 32, rhs_label=label)
    ref = solve(spec)
    ref_norm = np.sqrt(sum(float(np.sum(b.coeffs**2)) for b in ref.blocks))
    assert [int(row.split(",")[0]) for row in lines[1:]] == [8, 12, 16]
    for row, shown in zip(lines[1:], printed, strict=True):
        n, err_l2, _, _, iters = row.split(",")
        sol = solve(replace(spec, n=int(n)))
        assert int(iters) == sol.gmres_iterations > 0
        assert shown.endswith(f"GMRES iters={iters}")
        err = np.sqrt(sum(error_between(b, rb, 0.0) ** 2 for b, rb in zip(sol.blocks, ref.blocks))) / ref_norm
        assert float(err_l2) == pytest.approx(err, rel=1e-15)


def test_convergence_super_algebraic_for_smooth_rhs(tmp_path):
    out = str(tmp_path / "conv")
    code = run(
        ["convergence", "--s", "0.4", "--interval", "-1", "1", "--rhs", "runge",
         "--n", "8,16,32,64,128,256", "--ref-n", "512", "--out", out]
    )
    assert code == 0
    assert json.loads((tmp_path / "conv_orders.json").read_text())["super_algebraic"] is True


def test_convergence_too_few_rows_cannot_tell(tmp_path):
    # the README example: five rows cannot show a rising order, so the
    # verdict is null, not false
    out = str(tmp_path / "conv")
    code = run(
        ["convergence", "--s", "0.25", "--interval", "-1", "1", "--rhs", "runge",
         "--n", "16,32,64,128,256", "--ref-n", "512", "--out", out]
    )
    assert code == 0
    assert json.loads((tmp_path / "conv_orders.json").read_text())["super_algebraic"] is None


def test_convergence_default_reference_resolution(tmp_path):
    # without --ref-n the reference takes max(2N, N + 16) of the largest N
    assert run(["convergence", "--n", "8,16,32", "--out", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c_orders.json").read_text())["reference_n"] == 64


def test_convergence_zero_rhs_fits_no_order(tmp_path):
    # every error is 0: no order can be fitted and the sweep cannot tell
    assert run(["convergence", "--rhs", "constant:0", "--n", "8,16,32", "--out", str(tmp_path / "c")]) == 0
    orders = json.loads((tmp_path / "c_orders.json").read_text())
    assert (orders["order_l2"], orders["order_h2s"], orders["super_algebraic"]) == (None, None, None)


def test_convergence_independent_of_rhs_scale(tmp_path):
    # relative errors do not depend on the scale of f; at f = 2^1000 the
    # sums of squares once overflowed, every error read nan and
    # _orders.json held NaN, which is not JSON
    def sweep(rhs, out):
        argv = ["convergence", "--rhs", rhs, "--n", "8,16,32,64", "--out", str(tmp_path / out)]
        assert run(argv) == 0
        columns = [row.split(",")[:3] for row in (tmp_path / f"{out}_convergence.csv").read_text().splitlines()]

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        return columns, json.loads((tmp_path / f"{out}_orders.json").read_text(), parse_constant=reject)

    assert sweep(f"constant:{2.0**1000!r}", "big") == sweep("constant:1", "one")


def test_convergence_bad_n_list(tmp_path):
    code = run(
        ["convergence", "--interval", "-1", "1", "--n", "32,16", "--out", str(tmp_path / "c")]
    )
    assert code == 2


def test_convergence_repeated_n_exit_code(tmp_path, capsys):
    code = run(["convergence", "--n", "8,8,16", "--out", str(tmp_path / "c")])
    assert_config_error(code, capsys)
    assert not (tmp_path / "c_convergence.csv").exists()


@pytest.mark.parametrize("ref_n", ["32", "64"])
def test_convergence_reference_not_finer_exit_code(tmp_path, capsys, ref_n):
    out = tmp_path / "c"
    code = run(["convergence", "--interval", "-1", "1", "--n", "16,32,64", "--ref-n", ref_n, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "c_convergence.csv").exists()


def test_convergence_bad_resolution_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(fraclap.multi_interval, "solve", lambda spec: calls.append(spec))
    code = run(["convergence", "--n", "0,16,32", "--ref-n", "4096", "--out", str(tmp_path / "c")])
    assert_config_error(code, capsys)
    assert calls == []


def test_csv_bit_stable(tmp_path):
    args = ["convergence", "--s", "0.25", "--interval", "-1", "1", "--rhs", "absx",
            "--n", "8,16,32", "--ref-n", "64"]
    assert run(args + ["--out", str(tmp_path / "r1")]) == 0
    assert run(args + ["--out", str(tmp_path / "r2")]) == 0
    c1 = (tmp_path / "r1_convergence.csv").read_text().splitlines()
    c2 = (tmp_path / "r2_convergence.csv").read_text().splitlines()
    # error columns identical; timing column may differ
    for a, b in zip(c1[1:], c2[1:]):
        assert a.split(",")[:3] == b.split(",")[:3]


def percent_rows(curve):
    """The rows of an (n x 3) curve as cmd_solve writes them with %."""
    row = ",".join([cli._CSV_FLOAT] * 3) + "\n"
    return (row * len(curve)) % tuple(curve.ravel().tolist())


def must_format(curve):
    """Whether _csv_rows has to format curve itself: every value is 0, or
    lies in [1e-270, 1e270] with a 16-digit significand, taken exactly,
    at least 1e-9 from a tie."""
    for v in map(abs, curve.ravel().tolist()):
        if v == 0:
            continue
        if not 1e-270 <= v <= 1e270:
            return False
        product = Fraction(v) * Fraction(10) ** (15 - Decimal(v).adjusted())
        if abs(product % 1 - Fraction(1, 2)) < Fraction(1, 10**9):
            return False
    return True


finite_bit_patterns = (
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]).filter(math.isfinite)
)


def curves(elements):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(3)), elements=elements)


@settings(max_examples=500, deadline=None)
@given(st.one_of(curves(finite_bit_patterns), curves(st.floats(allow_nan=False, allow_infinity=False))))
def test_csv_rows_equal_percent_formatting(curve):
    text = cli._csv_rows(curve)
    if text is None:
        assert not must_format(curve)
    else:
        assert text == percent_rows(curve)


@pytest.mark.parametrize(
    "value, fast",
    [
        (0.0, True),
        (-0.0, True),
        (5e-324, False),
        (1e-300, False),
        (1e300, False),
        (1234567890123456.5, False),  # a tie
    ],
)
def test_csv_rows_fixed_values(value, fast):
    curve = np.array([[value, -value, 1.0]])
    text = cli._csv_rows(curve)
    assert (text is not None) == fast
    assert text is None or text == percent_rows(curve)


def test_csv_rows_powers_of_ten():
    """The double nearest 10^k and the one below it: those of
    |k| <= 280 take the fast path, whether or not their rounding carries
    (the double 1e-07 lies below 10^-7 and prints as 1.000000000000000e-07)."""
    for k in range(-300, 301):
        nearest = float(f"1e{k}")
        for v in (nearest, math.nextafter(nearest, 0.0)):
            curve = np.array([[v, -v, 0.0]])
            text = cli._csv_rows(curve)
            assert (text is not None) == (abs(k) <= 280), v
            assert text is None or text == percent_rows(curve), v


@pytest.mark.parametrize("interval", [("-1.075", "-0.075"), ("0", "1e-160")])
def test_curve_csv_same_bytes_with_percent(tmp_path, monkeypatch, interval):
    """(0, 1e-160) at s = 0.9 samples u at about 1e-289, which _csv_rows leaves to %."""
    args = ["solve", "--s", "0.9", "--interval", *interval, "--rhs", "runge", "--n", "16"]
    assert run(args + ["--out", str(tmp_path / "kernel")]) == 0
    monkeypatch.setattr(cli, "_csv_rows", lambda curve: None)
    assert run(args + ["--out", str(tmp_path / "percent")]) == 0
    assert (tmp_path / "kernel_curve.csv").read_bytes() == (tmp_path / "percent_curve.csv").read_bytes()


def test_eigencheck_command(tmp_path, capsys):
    out = str(tmp_path / "eig")
    code = run(["eigencheck", "--s", "0.25", "--s", "0.5", "--n", "2", "--out", out])
    assert code == 0
    text = (tmp_path / "eig_eigencheck.txt").read_text()
    assert "PASS" in text and "FAIL" not in text


@pytest.mark.parametrize("n", ["1,3", "-1"])
def test_eigencheck_rejects_n_other_than_one_integer(tmp_path, capsys, n):
    out = tmp_path / "eig"
    code = run(["eigencheck", "--s", "0.5", "--n", n, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and n in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "eig_eigencheck.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--ref-n", "5"],
        ["eigencheck", "--config", "x.ini"],
        ["eigencheck", "--interval", "0", "1"],
        ["eigencheck", "--rhs", "runge"],
        ["eigencheck", "--gmres-tol", "0.5"],
        ["solve", "--gmres-tol", "1e-10"],  # the GMRES tolerance is the solver's, not an option
        ["convergence", "--n", "8,16,32", "--gmres-tol", "1e-10"],
    ],
)
def test_flag_not_read_by_subcommand_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unrecognized arguments") and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--s", "abc"], "invalid float value: 'abc'"),
        (["solve", "--interval", "0"], "--interval: expected 2 arguments"),
        (["solve", "--s"], "--s: expected one argument"),
        (["solve", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "required: command"),
        (["frob"], "invalid choice: 'frob'"),
    ],
    ids=["non-numeric-s", "one-endpoint", "s-without-value", "unknown-flag", "no-subcommand", "unknown-subcommand"],
)
def test_malformed_command_line_is_a_config_error(tmp_path, capsys, monkeypatch, argv, message):
    # argparse's own error path printed usage and raised SystemExit(2)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--help"])
    assert exc.value.code == 0
    assert "--interval" in capsys.readouterr().out


def test_non_integer_n_exit_code(tmp_path, capsys):
    code = run(["solve", "--n", "abc", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "abc" in err and len(err.strip().splitlines()) == 1


def test_config_interval_without_endpoint_exit_code(tmp_path, capsys):
    cfg = tmp_path / "problem.ini"
    cfg.write_text("[problem]\ns = 0.5\n\n[interval.1]\na = -1\n")
    code = run(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "[interval.1]" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, name",
    [
        ("[problem]\ns = 0.3\ngmres-tol = 0.5\n", "'gmres-tol' in [problem]"),
        ("[problem]\ns = 0.3\nresolution = 8\n", "'resolution' in [problem]"),
        ("[problem]\ns = 0.3\n\n[intervall]\na = -1\nb = 1\n", "[intervall]"),
        ("[problem]\ns = 0.3\n\n[interval_x]\na = -1\nb = 1\n", "[interval_x]"),
        ("[problem]\ns = 0.3\n\n[interval.1]\na = -1\nb = 1\nwidth = 2\n", "'width' in [interval.1]"),
        ("[DEFAULT]\ns = 0.3\n", "[DEFAULT]"),
        ("s = 0.3\n", "no section headers"),
        ("[problem]\ns = 0.3\njunk line\n", "'junk line"),
        ("[problem]\ns = 0.3\ngmres_tol = 1e-13\n", "'gmres_tol' in [problem]"),
    ],
    ids=[
        "problem-dashed-key",
        "problem-unknown-key",
        "misspelt-section",
        "interval-underscore",
        "interval-unknown-key",
        "default-section",
        "no-section-header",
        "unparsable-line",
        "problem-gmres-tol",
    ],
)
@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_config_unknown_name_exits_2(tmp_path, capsys, command, text, name):
    cfg = tmp_path / "problem.ini"
    cfg.write_text(text)
    n = "8,16,32" if command == "convergence" else "8"
    code = run([command, "--config", str(cfg), "--n", n, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and name in err and len(err.strip().splitlines()) == 1
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_unreadable_config_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "missing.ini"
    code = run([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)
    assert list(tmp_path.iterdir()) == []


def test_config_bad_interpolation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "problem.ini"
    cfg.write_text("[problem]\ns = 0.5\nrhs = constant:1%\n")
    code = run(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'%'" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_config_ref_n_accepted_by_both_subcommands(tmp_path, command):
    cfg = tmp_path / "problem.ini"
    cfg.write_text("[problem]\ns = 0.5\nn = 8,16,32\nref_n = 64\n\n[interval]\na = -1\nb = 1\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
    assert run(argv if command == "convergence" else argv + ["--n", "8"]) == 0


def test_negative_endpoints_in_exponent_notation(tmp_path):
    out = str(tmp_path / "exp")
    code = run(
        ["solve", "--interval", "-2e0", "-1e-1", "--interval", "1E-1", "2", "--n", "8", "--out", out]
    )
    assert code == 0
    doc = json.loads((tmp_path / "exp_solution.json").read_text())
    assert [(b["a"], b["b"]) for b in doc["intervals"]] == [(-2.0, -0.1), (0.1, 2.0)]


def test_subcommands_load_no_scipy(tmp_path):
    # SciPy is a test dependency only; a fresh interpreter that imports
    # the package and runs every subcommand must not load any scipy
    # module, and the package alone loads only the solver's modules.  Nor
    # may they write to stderr: the "fraclap" logger carries only a
    # NullHandler, so its debug records (the second request for (8, 0.5)
    # keeps that reference block) reach no stream unless the caller
    # configures logging.
    script = """
import logging, sys
import fraclap
package = sorted(m for m in sys.modules if m == "fraclap" or m.startswith("fraclap."))
solver = ["gegenbauer", "multi_interval", "problem", "quadrature", "specfun"]
assert package == ["fraclap"] + ["fraclap." + m for m in solver], package
import fraclap.cli
assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("fraclap").handlers)
assert fraclap.cli.main(["solve", "--interval", "-1", "-0.1", "--interval", "0.1", "1", "--n", "8"]) == 0
assert fraclap.cli.main(["convergence", "--n", "8,16,32", "--ref-n", "64"]) == 0
assert fraclap.cli.main(["eigencheck", "--n", "2", "--s", "0.5"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(fraclap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
