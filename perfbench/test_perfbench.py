"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import verify
import workloads

fs = run.load_flowseg()
ROOT = run.ROOT


def make(name, seed=2):
    return workloads.WORKLOADS[name](fs, seed, workloads.TINY[name], ROOT)


def one_op(wl):
    exec(wl.warmup_source(), {"fs": fs, "np": np})
    op = wl.ops()[0]
    return op, op.run()


def merge_two(m):
    out = np.array(m)
    out[out == 2] = 1
    return out


def renumber(m, seed=0):
    m = np.asarray(m)
    ids = np.unique(m[m > 0])
    perm = np.zeros(m.max() + 1, dtype=np.int64)
    perm[ids] = np.random.default_rng(seed).permutation(ids) + 100
    return perm[m]


def move_pixel(m):
    """Renumber, then hand one pixel of the first object to the second."""
    a = np.asarray(m)
    out = renumber(a)
    first, second = np.unique(a[a > 0])[:2]
    r, c = np.argwhere(a == first)[0]
    out[r, c] = out[a == second][0]
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_one_correct_operation(name):
    wl = make(name)
    try:
        op, out = one_op(wl)
        assert op.check(out) == []
        assert wl.final_checks() == []
    finally:
        wl.close()


def test_partition_check_accepts_pure_renumbering_only():
    labels = fs.synth("random-voronoi", (32, 32), 4)
    assert verify.same_partition(renumber(labels), labels)
    assert not verify.same_partition(merge_two(labels), labels)
    assert not verify.same_partition(move_pixel(labels), labels)
    background = renumber(labels)
    background[0, 0] = 0
    assert not verify.same_partition(background, labels)


def test_df_check_rejects_merged_and_wrong_partitions():
    wl = make("df-roundtrip")
    op, (name, labels, field, pred, record) = one_op(wl)
    assert op.check((name, labels, field, renumber(pred), record)) == []
    assert op.check((name, labels, field, merge_two(pred), record))
    assert op.check((name, labels, field, move_pixel(pred), record))
    assert op.check((name, labels, field, pred, {**record, "obj_hd": 0.5}))


def test_df_one_step_mean_matches_and_rejects_a_shift():
    labels = fs.synth("concave-horseshoe", (24, 24))
    ref = verify.one_step_mean(labels, 3)
    np.testing.assert_allclose(fs.gt_displacement(labels, 3, 1), ref, rtol=0, atol=1e-12)
    assert verify.movable_pixels(labels, 3) == int((labels > 0).sum())
    assert not np.allclose(fs.gt_displacement(labels, 3, 2), ref, rtol=0, atol=1e-9)


def test_cluster_eval_checks_reject_wrong_outputs():
    wl = make("cluster-eval")
    op, (site, site_rec, merged, merged_rec) = one_op(wl)
    assert wl.inp.leak_pairs > 0 and merged.max() < site.max()
    assert op.check((renumber(site), site_rec, renumber(merged), merged_rec)) == []
    assert op.check((merge_two(site), site_rec, merged, merged_rec))
    assert op.check((site, site_rec, move_pixel(merged), merged_rec))
    assert op.check((site, site_rec, merged, {**merged_rec, "obj_f1": merged_rec["obj_f1"] + 0.01}))
    assert op.check((site, site_rec, merged, {**merged_rec, "obj_dice": 1.5}))
    assert op.check((site, site_rec, merged, {**merged_rec, "obj_hd": -1.0}))
    wl.last = (site, site_rec, merged, merged_rec)
    assert wl.final_checks() == []
    hd = merged_rec["obj_hd"]
    assert hd > 0
    wl.last = (site, site_rec, merged, {**merged_rec, "obj_hd": hd * (1 + 1e-6)})
    assert wl.final_checks()


def test_hausdorff_score_pairs_by_overlap():
    gt = np.zeros((6, 8), np.int64)
    gt[1:3, 1:3] = 1
    gt[1:5, 5:7] = 2
    pred = np.zeros_like(gt)
    pred[1:3, 1:4] = 7  # overlaps gt 1 only
    pred[0:3, 5:7] = 8  # 4 pixels of gt 2
    pred[3:6, 3:8] = 9  # 4 pixels of gt 2 too, farther off: gt 2 pairs with 8, the earlier
    assert verify.hausdorff_score(pred, gt) == pytest.approx(fs.obj_hd(pred, gt), abs=1e-12)
    assert verify.hausdorff_score(renumber(pred), gt) == verify.hausdorff_score(pred, gt)
    assert verify.hausdorff_score(pred, gt) != verify.hausdorff_score(merge_two(gt), gt)


def test_expected_f1_counts_majority_covers():
    gt = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])
    pred = np.array([[5, 5, 5, 5], [5, 5, 5, 5], [6, 0, 7, 7], [6, 0, 7, 7]])
    # pred 5 covers gt 1 and 2 (one true positive), 6 covers half of gt 3
    # (not a majority), 7 covers gt 4: tp = 2 of 4 gt and 3 pred objects
    assert verify.expected_f1(gt, pred) == pytest.approx(4 / 7)
    assert fs.obj_f1(pred, gt) == pytest.approx(4 / 7)


def test_getconv_checks_reject_an_unstandardized_output_and_a_jvp_off_by_one_percent():
    wl = make("getconv-layer")
    op, (layers, block) = one_op(wl)
    assert op.check((layers, block)) == []
    y, y_jvp, dy = layers["disk5"]
    assert op.check(({**layers, "disk5": (y * 1.01, y_jvp, dy)}, block))
    assert op.check((layers, block + 0.01))
    assert any("getblock" in p for p in wl.final_checks())
    wl.last = (layers, block)
    assert wl.final_checks() == []
    wl.last[0]["disk5"] = (y, y_jvp, dy * 1.01)
    assert any("disk5" in p for p in wl.final_checks())


@pytest.mark.parametrize("fault", ["reciprocal slots", "neighbours"])
def test_getconv_reference_rejects_a_kernel_that_reads_the_wrong_slots(fault):
    wl = make("getconv-layer")
    op, (layers, block) = one_op(wl)
    spec, params = wl.stencils["square3"]
    adj = fs.grid_adjacency(wl.shape, spec)
    if fault == "reciprocal slots":
        wrong = dataclasses.replace(adj, recip=np.arange(adj.n_slots))
    else:
        wrong = dataclasses.replace(adj, nbr_safe=np.roll(adj.nbr_safe, 1, axis=1))
    y = fs.getconv_forward(wl.feats, wrong, params)
    assert op.check(({**layers, "square3": (y, y, layers["square3"][2])}, block)) == []
    wl.last = ({**layers, "square3": (y, y, layers["square3"][2])}, block)
    assert any("square3: forward off" in p for p in wl.final_checks())


def test_cli_check_rejects_merged_instances():
    wl = make("cli-roundtrip")
    try:
        op, (name, pred, record) = one_op(wl)
        assert op.check((name, renumber(pred), record)) == []
        assert op.check((name, merge_two(pred), record))
        assert op.check((name, pred, {**record, "obj_f1": 0.5}))
    finally:
        wl.close()


def test_run_reports_the_end_to_end_metrics():
    result = run.run("getconv-layer", 1, 0.05, sizes=workloads.TINY, log=lambda *a: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "op_s_p50", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_repeats_its_counts():
    results = [
        tracing.run(fs, "df-roundtrip", 5, ROOT, sizes=workloads.TINY, log=lambda *a: None)
        for _ in range(2)
    ]
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for result in results:
        assert result["correct"]
        assert set(result["metrics"]) == set(tracing.UNITS) == declared
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in results
    ]
    assert counts[0] == counts[1]


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    rows = {r["span"]: r for r in tracer.summary()}
    outer = tracer.spans[0]
    assert tracer.spans[1].parent == 0
    assert rows["outer"]["self_s"] == pytest.approx(
        (outer.end - outer.start) - rows["inner"]["total_s"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "df-roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
