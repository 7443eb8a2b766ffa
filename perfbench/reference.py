"""Per-stage reference timings for the benchmark README.

    python3 perfbench/reference.py --sizes 64,128 --eval-sizes 512,1024

Times each pipeline stage once per size on a random-voronoi fixture (the
site-field and zero-field maps of ``inputs.lattice_voronoi`` for
``evaluate``) and prints a markdown table. These figures are for reading, not
for gating: the gated metrics come from ``run.py``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import subprocess
import sys
import time

import numpy as np

import inputs
import run
import workloads


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="64,128")
    parser.add_argument("--eval-sizes", default="512")
    parser.add_argument("--getconv-sizes", default="64,128,160")
    args = parser.parse_args()
    fs = run.load_flowseg()
    rows = []
    for size in map(int, args.sizes.split(",")):
        labels = fs.synth("random-voronoi", (size, size), 0)
        t_df, field = timed(lambda: fs.gt_displacement(labels, workloads.RADIUS, workloads.ITERS))
        t_gcm, pred = timed(lambda: fs.gcm(field, (labels > 0).astype(np.int64)))
        t_ev, _ = timed(lambda: fs.evaluate(pred, labels))
        rows.append((f"{size}²", "gt_displacement(r=5, iters=96)", t_df))
        rows.append((f"{size}²", "gcm, gt field", t_gcm))
        rows.append((f"{size}²", "evaluate, exact", t_ev))
    for size in map(int, args.eval_sizes.split(",")):
        inp = inputs.lattice_voronoi(size, round(size / 24), 0)
        t_site, site = timed(lambda: fs.gcm(inp.field, np.ones_like(inp.labels)))
        t_zero, merged = timed(lambda: fs.gcm(np.zeros_like(inp.field), inp.energy))
        t_exact, _ = timed(lambda: fs.evaluate(site, inp.labels))
        t_merged, _ = timed(lambda: fs.evaluate(merged, inp.labels))
        n = inp.labels.max()
        rows.append((f"{size}²", f"gcm, site field ({n} cells)", t_site))
        rows.append((f"{size}²", "gcm, zero field", t_zero))
        rows.append((f"{size}²", "evaluate, exact", t_exact))
        rows.append((f"{size}²", f"evaluate, merged ({merged.max()} objects)", t_merged))
    for size in map(int, args.getconv_sizes.split(",")):
        wl = workloads.GetconvLayer(fs, 0, size, run.ROOT)
        for key, (spec, params) in wl.stencils.items():
            adj = fs.grid_adjacency(wl.shape, spec)
            t_f, _ = timed(lambda: fs.getconv_forward(wl.feats, adj, params))
            t_j, _ = timed(lambda: fs.getconv_forward_jvp(wl.feats, wl.tangent, adj, params))
            rows.append((f"{size}²", f"getconv forward, {key}, C=32", t_f))
            rows.append((f"{size}²", f"getconv JVP, {key}, C=32", t_j))
    env = workloads.child_env(run.ROOT)
    for what in ("numpy", "flowseg"):
        code = f"import time; t = time.perf_counter(); import {what}; print(time.perf_counter() - t)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        rows.append(("-", f"fresh-process import {what}", float(out.stdout)))
    rows.append(("-", "host reference loop", inputs.host_reference()))
    print("| grid | stage | seconds |\n|---|---|---|")
    for grid, stage, seconds in rows:
        print(f"| {grid} | {stage} | {seconds:.3f} |")


if __name__ == "__main__":
    main()
