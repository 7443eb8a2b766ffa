"""The package as a user meets it: import cost and the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


# each of these would add a large share to the import time of every CLI call
@pytest.mark.parametrize("module", ["scipy.signal", "scipy.spatial"])
def test_import_leaves_module_unloaded(module):
    proc = run_python("-c", f"import sys, flowseg; print({module!r} in sys.modules)")
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
