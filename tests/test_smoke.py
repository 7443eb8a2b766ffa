"""The package as a user meets it: import cost and the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal alone used to cost most of the import time of every CLI call
    proc = run_python("-c", "import sys, flowseg; print('scipy.signal' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_layer_probe_script_runs():
    proc = run_python(str(ROOT / "scripts" / "layer_probe.py"), "--seeds", "2", "--points", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_roundtrip_demo_script_runs(tmp_path):
    proc = run_python(
        str(ROOT / "scripts" / "roundtrip_demo.py"), "--iters", "8", "--outdir", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert any(tmp_path.iterdir())
