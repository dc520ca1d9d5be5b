import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fraclap
from fraclap.cli import main
from fraclap.gegenbauer import GegenbauerCoeffs, evaluate_expansion
from fraclap.specfun import eigenvalue_lambda


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
    ],
)
def test_non_finite_rhs_exit_code(tmp_path, capsys, argv):
    code = run(["solve", *argv, "--n", "4", "--out", str(tmp_path / "x")])
    assert_config_error(code, capsys)
    assert not (tmp_path / "x_solution.json").exists()


@pytest.mark.parametrize("endpoints", [("0", "inf"), ("nan", "1"), ("0", "1e308")])
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


def test_colliding_nodes_exit_code(tmp_path, capsys):
    argv = ["solve", "--interval", "1e16", "1.0000000000000004e16", "--n", "8"]
    code = run([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("config error: the 9 nodes mapped to the interval (1e+16, 1.0000000000000004e+16)")
    assert not (tmp_path / "x_solution.json").exists()


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


def test_solver_failure_exit_code(tmp_path, capsys):
    # a tolerance below rounding is never met: GMRES stops after one
    # iteration per unknown (2 x 9 here) and the solve reports failure
    out = tmp_path / "x"
    argv = ["solve", "--interval", "0", "1", "--interval", "1.5", "2.5", "--n", "8", "--gmres-tol", "1e-30"]
    code = run([*argv, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: GMRES did not reach the requested tolerance")
    assert len(err.strip().splitlines()) == 1
    history = json.loads(err.split("residual history: ")[1])
    assert len(history) == 1 + 18
    assert not (tmp_path / "x_solution.json").exists()


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
    assert lines[0] == "N,err_L2s,err_H2ss,seconds"
    assert len(lines) == 5
    errs = [float(row.split(",")[1]) for row in lines[1:]]
    assert errs == sorted(errs, reverse=True)
    # 16 significant digits in scientific notation
    assert "e" in lines[1].split(",")[1]
    sidecar = json.loads((tmp_path / "conv_orders.json").read_text())
    assert sidecar["reference_n"] == 128
    assert sidecar["order_l2"] > 2.0


def test_convergence_super_algebraic_for_smooth_rhs(tmp_path):
    out = str(tmp_path / "conv")
    code = run(
        ["convergence", "--s", "0.4", "--interval", "-1", "1", "--rhs", "runge",
         "--n", "8,16,32,64,128,256", "--ref-n", "512", "--out", out]
    )
    assert code == 0
    assert json.loads((tmp_path / "conv_orders.json").read_text())["super_algebraic"] is True


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
    ],
)
def test_flag_not_read_by_subcommand_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    ],
    ids=["problem-dashed-key", "problem-unknown-key", "misspelt-section", "interval-underscore", "interval-unknown-key"],
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


def test_solve_and_convergence_load_no_scipy(tmp_path):
    # SciPy is a test and eigencheck dependency only; a fresh interpreter
    # that imports the package and runs both solver subcommands must not
    # load any scipy module.  Nor may they write to stderr: the "fraclap"
    # logger carries only a NullHandler, so its debug records (the second
    # request for (8, 0.5) keeps that reference block) reach no stream
    # unless the caller configures logging.
    script = """
import logging, sys
import fraclap, fraclap.cli
assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("fraclap").handlers)
assert fraclap.cli.main(["solve", "--interval", "-1", "-0.1", "--interval", "0.1", "1", "--n", "8"]) == 0
assert fraclap.cli.main(["convergence", "--n", "8,16,32", "--ref-n", "64"]) == 0
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
