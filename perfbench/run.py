"""flowseg benchmark: one workload per run, result as one JSON line.

    python3 perfbench/run.py --workload df-roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; flowseg is imported from its ``src``. With
``--trace 0`` the run times whole rounds of the workload's operations for
about ``--seconds`` seconds and reports ``setup_s``, ``op_s_p50`` and
``peak_rss_mb``. With ``--trace 1`` it makes the per-layer pass of
``tracing.py`` instead. See README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7

SETUP_SOURCE = """\
import sys, time
sys.path.insert(0, {src!r})
t = time.perf_counter()
import flowseg as fs
import numpy as np
{warmup}
print(repr(time.perf_counter() - t))
"""


def load_flowseg():
    src = ROOT / "src"
    if not (src / "flowseg" / "__init__.py").is_file():
        sys.exit(f"error: no flowseg sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import flowseg

    return flowseg


def setup_seconds(warmup: str, env: dict[str, str]) -> list[float]:
    """Fresh-process ``import flowseg`` plus the workload's warm-up, timed inside."""
    code = SETUP_SOURCE.format(src=str(ROOT / "src"), warmup=warmup)
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, seconds: float, log=print) -> dict:
    """Whole rounds of the workload's operations until ``seconds`` would be exceeded."""
    times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in workload.ops():
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                log(f"op {op.label} failed:\n{traceback.format_exc()}")
                continue
            elapsed = time.perf_counter() - t0
            times.append(elapsed)
            found = op.check(out)
            problems += found
            log(f"op {op.label} {elapsed:.4f} s{' WRONG: ' + '; '.join(found) if found else ''}")
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    return {"times": times, "attempted": attempted, "failed": failed, "problems": problems}


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-roundtrip" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run(name: str, seed: int, seconds: float, sizes=None, log=print) -> dict:
    """One untraced run of a workload; returns the result object."""
    import inputs
    import workloads

    fs = load_flowseg()
    sizes = sizes or workloads.SIZES
    ref_before = inputs.host_reference()
    wl = workloads.WORKLOADS[name](fs, seed, sizes[name], ROOT)
    try:
        setup = setup_seconds(wl.warmup_source(), workloads.child_env(ROOT))
        exec(wl.warmup_source(), {"fs": fs, "np": np})
        result = measure(wl, seconds, log)
        rss = peak_rss_mb(name)
        result["problems"] += wl.final_checks()
    finally:
        wl.close()
    ref_after = inputs.host_reference()
    for p in result["problems"]:
        log(f"check failed: {p}")
    log(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
    log(f"host reference loop (s): before {ref_before:.4f} after {ref_after:.4f}")
    metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
    if result["times"]:
        metrics["op_s_p50"] = {"value": statistics.median(result["times"]), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return {
        "correct": not result["problems"] and bool(result["times"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        import tracing

        result = tracing.run(load_flowseg(), args.workload, args.seed, ROOT)
    else:
        result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
