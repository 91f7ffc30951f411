"""Smoke runs of the experiment scripts: each exits 0 on a small input."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("emit_certificates.py", ["--n-max", "2", "--outdir", "{tmp}"]),
    ("collinear_quartic.py", ["--seeds", "1"]),
    ("negativity_survey.py", ["--max-lines", "5", "--max-collinear", "5"]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
