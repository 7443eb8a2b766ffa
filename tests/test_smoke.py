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


# each of these would add a large share to the import time of every CLI call;
# the package loads scipy's CSR kernels from their own extension file when it
# first calls them, never through scipy.sparse, and nothing in it needs the rest
@pytest.mark.parametrize(
    "module", ["scipy.signal", "scipy.spatial", "scipy.sparse", "scipy.ndimage"]
)
def test_import_leaves_module_unloaded(module):
    proc = run_python("-c", f"import sys, flowseg; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_synth_and_eval_load_no_scipy(tmp_path):
    path = str(tmp_path / "m.pgm")
    code = (
        "import sys\n"
        "from flowseg.cli import cli\n"
        f"assert cli(['synth', 'two-blobs-adherent', {path!r}]) == 0\n"
        f"assert cli(['eval', {path!r}, {path!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    # eval's JSON record comes first
    assert proc.stdout.splitlines()[-1] == "[]"


def test_synth_cluster_and_eval_load_no_scipy(tmp_path):
    labels, field, pred = (str(tmp_path / name) for name in ("l.pgm", "f.bin", "p.pgm"))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from flowseg import write_field\n"
        "from flowseg.cli import cli\n"
        f"assert cli(['synth', 'two-blobs-adherent', {labels!r}]) == 0\n"
        f"write_field({field!r}, np.zeros((64, 64, 2)))\n"
        f"assert cli(['cluster', {labels!r}, {field!r}, {pred!r}]) == 0\n"
        f"assert cli(['eval', {pred!r}, {labels!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def scipy_modules_after(code):
    """The scipy modules loaded by a fresh process that runs ``code``."""
    proc = run_python(
        "-c", code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# loading the kernels' extension file registers it under its own name, and
# under that name only: neither scipy's nor scipy.sparse's __init__ runs
def test_gen_df_loads_only_scipy_csr_kernels(tmp_path):
    labels, field = str(tmp_path / "l.pgm"), str(tmp_path / "f.bin")
    code = (
        "from flowseg.cli import cli\n"
        f"assert cli(['synth', 'two-blobs-adherent', {labels!r}]) == 0\n"
        f"assert cli(['gen-df', {labels!r}, {field!r}]) == 0"
    )
    assert scipy_modules_after(code) == "['scipy.sparse._sparsetools']"


def test_layer_forward_loads_only_scipy_csr_kernels():
    code = (
        "import numpy as np\n"
        "from flowseg import GridShape, disk, getconv_forward, grid_adjacency, random_layer_params\n"
        "rng = np.random.default_rng(0)\n"
        "adj = grid_adjacency(GridShape(12, 13), disk(2))\n"
        "params = random_layer_params(rng, 4, adj.n_slots)\n"
        "assert np.isfinite(getconv_forward(rng.normal(size=(156, 4)), adj, params)).all()"
    )
    assert scipy_modules_after(code) == "['scipy.sparse._sparsetools']"


# the kernels flowseg loads and the ones a later or earlier `import
# scipy.sparse` uses are one module; csr_array @ (N, C) calls the same kernel
# on a zeroed output, so it reproduces stencil_sum bit for bit
STENCIL_AGAINST_CSR_ARRAY = """
import sys
import threading
import numpy as np
from flowseg.grid import GridShape, disk, grid_adjacency, stencil_sum
{before}
adj = grid_adjacency(GridShape(13, 17), disk(3))
rng = np.random.default_rng(0)
w = np.where(adj.valid, rng.normal(size=adj.valid.shape), 0.0)
x = rng.normal(size=(adj.shape.n_nodes, 3))
{call}
from scipy.sparse import csr_array
n, n_slots = adj.nbr_safe.shape
want = csr_array((w.ravel(), adj.nbr_safe.ravel(), n_slots * np.arange(n + 1)), shape=(n, n)) @ x
assert all(np.array_equal(g, want) for g in got), "stencil_sum differs from csr_array @"
print("ok")
"""


@pytest.mark.parametrize("scipy_first", [False, True], ids=["kernels first", "scipy.sparse first"])
def test_stencil_sum_and_scipy_sparse_share_the_kernels(scipy_first):
    before = "import scipy.sparse" if scipy_first else ""
    call = (
        "got = [stencil_sum(w, x, adj)]\n"
        f"assert ('scipy.sparse' in sys.modules) is {scipy_first}"
    )
    proc = run_python("-c", STENCIL_AGAINST_CSR_ARRAY.format(before=before, call=call))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_two_threads_making_the_first_kernel_call_at_once():
    # both threads may load the extension file; each must get working kernels
    call = (
        "got, start = [None, None], threading.Barrier(2)\n"
        "def first(k):\n"
        "    start.wait()\n"
        "    got[k] = stencil_sum(w, x, adj)\n"
        "threads = [threading.Thread(target=first, args=(k,)) for k in range(2)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert 'scipy.sparse' not in sys.modules"
    )
    proc = run_python("-c", STENCIL_AGAINST_CSR_ARRAY.format(before="", call=call))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


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


# cluster_for_masking turns a displacement field into the cluster ids the
# masked layer reads (getconv_forward's clusters): the paper's graph cluster
# module, kept though only tests call it today
UNCALLED_BY_DESIGN = {"cluster.cluster_for_masking"}


def references(tree):
    """Names a module reads, by identifier, attribute or exact string (as in
    ``getattr``); a top-level definition's mentions of itself do not count."""
    found = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != owner:
                found.add(name)
    return found


def test_every_public_definition_has_a_caller():
    modules = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "flowseg").glob("*.py")}
    bench = [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(references, [*modules.values(), *bench]))
    # the entry points, `name = "module:function"`, of [project.scripts]
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    used |= set(re.findall(r':(\w+)"', scripts))
    defined = {
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert UNCALLED_BY_DESIGN <= defined
    uncalled = {name for name in defined if name.rpartition(".")[2] not in used}
    missing = sorted(uncalled - UNCALLED_BY_DESIGN)
    assert not missing, f"no caller in src/, perfbench/ or the entry points: {missing}"


def test_every_import_is_read():
    # so that a deletion cannot leave a dead import behind; __init__.py's
    # imports are the package's exports
    unread = []
    for path in sorted((ROOT / "src" / "flowseg").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.stem}: {name}" for name in sorted(imported - read)]
    assert not unread, f"imported but never read: {unread}"
