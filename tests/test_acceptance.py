"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import time

import numpy as np

from flowseg import (
    GridShape,
    build_tg,
    contract,
    gcm,
    getconv_forward,
    grid_adjacency,
    gt_displacement,
    isomorphism_probe,
    jacobian_check,
    obj_dice,
    obj_f1,
    obj_hd,
    random_check_point,
    random_layer_params,
    square,
    synth,
)
from oracles import (
    components8,
    gt_displacement_naive,
    metric_obj_dice,
    metric_obj_f1,
    metric_obj_hd,
    random_instance_pair,
    random_label_map,
)

FIXTURE_CASES = [
    ("two-squares-separated", (32, 32), 0),
    ("two-blobs-adherent", (32, 32), 0),
    ("concave-horseshoe", (48, 48), 0),
    ("grid-of-9-instances", (64, 64), 0),
    ("random-voronoi", (64, 64), 0),
    ("random-voronoi", (64, 64), 1),
    ("random-voronoi", (64, 64), 2),
    ("random-voronoi", (64, 64), 3),
    ("random-voronoi", (64, 64), 4),
]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _matches_up_to_permutation(ids, labels):
    if not np.array_equal(ids > 0, labels > 0):
        return False
    used = set()
    for k in np.unique(labels[labels > 0]):
        got = np.unique(ids[labels == k])
        if len(got) != 1 or int(got[0]) in used:
            return False
        used.add(int(got[0]))
        if not np.array_equal(labels == k, ids == got[0]):
            return False
    return True


def test_criterion_1_gt_field_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for case in range(20):
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        radius = (2, 5)[case % 2]
        iters = (8, 96)[(case // 2) % 2]
        labels = random_label_map(rng, h, w)
        got = gt_displacement(labels, radius=radius, iters=iters)
        want = gt_displacement_naive(labels, radius, iters)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "displacement synthesis matches naive oracle",
        worst <= 1e-9 and elapsed < 30.0,
        f"20 maps, worst abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cluster_round_trip():
    start = time.perf_counter()
    failures = []
    for name, shape, seed in FIXTURE_CASES:
        labels = synth(name, shape, seed)
        field = gt_displacement(labels)
        ids = gcm(field, (labels > 0).astype(np.int64))
        triple = (obj_f1(ids, labels), obj_dice(ids, labels), obj_hd(ids, labels))
        if not _matches_up_to_permutation(ids, labels) or triple != (1.0, 1.0, 0.0):
            failures.append(f"{name}/seed{seed}: metrics {triple}")
    elapsed = time.perf_counter() - start
    _report(
        2,
        "round trip recovers every fixture exactly",
        not failures and elapsed < 10.0,
        f"{len(FIXTURE_CASES)} fixtures, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_adhesion_separation():
    labels = synth("two-blobs-adherent", (32, 32))
    energy = (labels > 0).astype(np.int64)
    merged = gcm(np.zeros(labels.shape + (2,)), energy)
    split = gcm(gt_displacement(labels), energy)
    n_merged = len(np.unique(merged[merged > 0]))
    n_split = len(np.unique(split[split > 0]))
    _report(
        3,
        "adherent blobs split only with the displacement field",
        n_merged == 1 and n_split == 2,
        f"zero field -> {n_merged} instance(s), true field -> {n_split}",
    )


def test_criterion_4_message_conservation():
    failures = []
    for name, shape, seed in FIXTURE_CASES:
        labels = synth(name, shape, seed)
        energy = (labels > 0).astype(np.int64)
        tg = build_tg(gt_displacement(labels), energy)
        total = int(tg.mes.sum())
        for t0 in (1, 2, 8):
            got = int(contract(tg, t0).mes.sum())
            if got != total:
                failures.append(f"{name}/seed{seed} t0={t0}: {got} != {total}")
    _report(
        4,
        "contraction conserves total message exactly",
        not failures,
        f"{len(FIXTURE_CASES)} fixtures x t0 in (1, 2, 8)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_5_isomorphism_probe():
    iso_zero = 0
    aniso_hits = 0
    for seed in range(100):
        rep = isomorphism_probe(seed)
        iso_zero += rep.isotropic_gap == 0.0
        aniso_hits += rep.anisotropic_gap > 1e-6
    _report(
        5,
        "anisotropic layer separates permuted neighborhoods, isotropic cannot",
        iso_zero == 100 and aniso_hits >= 99,
        f"isotropic gap exactly 0 in {iso_zero}/100, anisotropic gap > 1e-6 in {aniso_hits}/100",
    )


def test_criterion_6_jacobian_checks():
    results = {}
    ok = True
    for op in ("diffusivity", "getconv", "getblock"):
        worst = 0.0
        for i in range(5):
            rep = jacobian_check(random_check_point(op, seed=500 + 31 * i), tol=1e-4)
            worst = max(worst, rep.max_rel_err)
            ok &= rep.passed
        results[op] = worst
    detail = ", ".join(f"{op} {err:.2e}" for op, err in results.items())
    _report(6, "analytic Jacobians match finite differences", ok, f"worst rel err: {detail}")


def test_criterion_7_masking_inertness():
    rng = np.random.default_rng(99)
    labels = synth("two-blobs-adherent", (16, 16))
    cls = labels.ravel()
    shape = GridShape(16, 16)
    adj = grid_adjacency(shape, square(3))
    params = random_layer_params(rng, 4, adj.n_slots)
    feats = rng.normal(size=(shape.n_nodes, 4))
    base = getconv_forward(feats, adj, params, clusters=cls)
    ok = True
    for target_cluster in (1, 2):
        inside = cls == target_cluster
        for _ in range(3):
            bumped = feats.copy()
            bumped[~inside] += rng.uniform(-1e3, 1e3, size=((~inside).sum(), 4))
            out = getconv_forward(bumped, adj, params, clusters=cls)
            ok &= np.array_equal(out[inside], base[inside])
    _report(
        7,
        "cluster-masked layer is exactly inert to outside perturbations",
        ok,
        "perturbations up to 1e3, per-cluster normalization statistics",
    )


def test_criterion_8_metric_oracle_agreement():
    tiles = synth("grid-of-9-instances", (64, 64))
    sane = (
        float(obj_f1(tiles, tiles)),
        float(obj_dice(tiles, tiles)),
        float(obj_hd(tiles, tiles)),
    )
    worst = 0.0
    for seed in range(10):
        pred, gt = random_instance_pair(np.random.default_rng(seed), 32, 32)
        worst = max(
            worst,
            abs(obj_f1(pred, gt) - metric_obj_f1(pred, gt)),
            abs(obj_dice(pred, gt) - metric_obj_dice(pred, gt)),
            abs(obj_hd(pred, gt) - metric_obj_hd(pred, gt)),
        )
    _report(
        8,
        "metrics: identity sanity and brute-force oracle agreement",
        sane == (1.0, 1.0, 0.0) and worst <= 1e-9,
        f"pred=gt -> {sane}, worst oracle diff {worst:.2e} over 10 random 32x32 pairs",
    )


def test_criterion_9_zero_field_reduction():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10):
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        energy = (rng.random((h, w)) < 0.4).astype(np.int64)
        got = gcm(np.zeros((h, w, 2)), energy)
        ok &= np.array_equal(got, components8(energy))
    _report(
        9,
        "zero-field clustering equals 8-connected components exactly",
        ok,
        "10 random binary maps",
    )
