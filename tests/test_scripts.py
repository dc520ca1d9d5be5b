"""The experiment script still runs against the package: a name it uses
that goes missing fails here rather than at experiment time.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_run_two_interval(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_two_interval.py"), "--outdir", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    csv = tmp_path / "two_interval_gap0.15_s0.5.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "N,rel_err_L2s,gmres_iterations"
    assert len(lines) == 7
