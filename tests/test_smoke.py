"""The package as a user meets it: import cost and the names its callers read."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowseg

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


def test_top_level_has_every_name_the_benchmark_and_the_contract_read():
    used = set()
    for path in [*(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]:
        used |= set(re.findall(r"\bfs\.(\w+)", path.read_text()))
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "flowseg":
            used |= {alias.name for alias in node.names}
    # perfbench/tracing.py reaches each function it times as fs.<module>.<function>
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED":
            wrapped = ast.literal_eval(node.value)
            used |= {f"{module}.{fn}" for module, fns in wrapped.items() for fn in fns}
    assert {"gcm", "GridShape", "isomorphism_probe", "cluster.recover"} <= used

    def found(dotted):
        obj = flowseg
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        return obj is not None

    assert sorted(name for name in used if not found(name)) == []
