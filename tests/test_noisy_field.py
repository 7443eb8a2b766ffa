"""Recorded outputs of ``gcm`` and ``evaluate`` on noisy displacement fields.

The exact tests elsewhere feed ground-truth fields, zero fields or hand-made
examples. A predicted field is noisy: at sigma = 1 px ``recover`` no longer
settles within ``t1`` rounds, so the map depends on ``t1`` and on
``build_tg``'s rounding, and a refactor of either could change it unseen.
A predicted map also has eroded objects and specks no ground-truth object
overlaps; ``obj_hd`` then measures each speck against every ground-truth
object. These golden values record the map and the scores the code gave when
they were written; they are not a contract, and a change that moves one on
purpose says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from flowseg import evaluate, gcm, gt_displacement, read_map, synth, write_field, write_map
from flowseg.cli import cli
from oracles import eroded_with_specks

# (side, sigma in px) -> (sha256 of gcm's int64 map bytes, float.hex of obj_f1,
# obj_dice, obj_hd); at 64x64 recover settles, at 128x128 and sigma = 1 it does
# not, so one round fewer changes that map
GOLDEN = {
    (64, 0.25): (
        "d8897505d5fbb46816c8fa9b1943fe4766416d3535309412f29e406bab40216d",
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ),
    (64, 0.5): (
        "d8897505d5fbb46816c8fa9b1943fe4766416d3535309412f29e406bab40216d",
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ),
    (64, 1.0): (
        "6886d14451fbf97e02b81b5ca70bfae6f3cffba2820130376f6db090e99ea61a",
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ),
    (128, 1.0): (
        "c7b8b5deaf212c7b8b0ea5600fca9422105c8e64b2282c5c0d231c2caf7fac08",
        ("0x1.f6b0df6b0df6bp-1", "0x1.fc299ea032420p-1", "0x1.4c69dde2814fdp-1"),
    ),
}


def noisy_case(side, sigma, seed=42):
    """The side x side random-voronoi labels, their ground-truth field plus
    seeded Gaussian noise of ``sigma`` px on both coordinates, and the energy
    ``labels > 0``."""
    labels = synth("random-voronoi", (side, side))
    noise = sigma * np.random.default_rng(seed).normal(size=(side, side, 2))
    return labels, gt_displacement(labels) + noise, (labels > 0).astype(np.int64)


@pytest.mark.parametrize("side, sigma", sorted(GOLDEN))
def test_gcm_and_evaluate_give_the_recorded_values(side, sigma):
    labels, field, energy = noisy_case(side, sigma)
    ids = gcm(field, energy)
    digest, scores = GOLDEN[side, sigma]
    assert ids.dtype == np.int64
    assert hashlib.sha256(ids.tobytes()).hexdigest() == digest
    record = evaluate(ids, labels)
    assert tuple(float(record[k]).hex() for k in ("obj_f1", "obj_dice", "obj_hd")) == scores


@pytest.mark.parametrize("side, sigma", sorted(GOLDEN))
def test_cli_cluster_on_the_written_field_gives_the_library_map(side, sigma, tmp_path):
    _, field, energy = noisy_case(side, sigma)
    energy_path, field_path, out_path = tmp_path / "e.pgm", tmp_path / "f.df", tmp_path / "ids.pgm"
    write_map(energy_path, energy)
    write_field(field_path, field)
    assert cli(["cluster", str(energy_path), str(field_path), str(out_path)]) == 0
    np.testing.assert_array_equal(read_map(out_path), gcm(field, energy))


# (side, sigma) -> the values of GOLDEN, on noisy_case's field rounded to the
# nearest 0.5 px; build_tg then meets exact halves, which it rounds away from
# zero, and rounding them half to even gives another map
HALVES = {
    (64, 0.5): (
        "d8897505d5fbb46816c8fa9b1943fe4766416d3535309412f29e406bab40216d",
        ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
    ),
}


@pytest.mark.parametrize("side, sigma", sorted(HALVES))
def test_a_field_on_exact_halves_gives_the_recorded_values(side, sigma):
    labels, field, energy = noisy_case(side, sigma)
    field = np.round(2.0 * field) / 2.0
    assert (field % 1.0 == 0.5).mean() > 0.4
    ids = gcm(field, energy)
    digest, scores = HALVES[side, sigma]
    assert hashlib.sha256(ids.tobytes()).hexdigest() == digest
    record = evaluate(ids, labels)
    assert tuple(float(record[k]).hex() for k in ("obj_f1", "obj_dice", "obj_hd")) == scores


# side -> (sha256 of gcm's int64 map bytes, float.hex of obj_f1, obj_dice,
# obj_hd) on the eroded cells and their speckled prediction
DEGRADED = {
    64: (
        "9c52c35894eb11d80cb85955ac9bb85cd0b32923d19c5db6d608061afdc9dcab",
        ("0x1.b6db6db6db6dbp-1", "0x1.fe50af38d0eb2p-1", "0x1.4ab9eb2e288acp-4"),
    ),
    128: (
        "475b9483557a5379ad0b6832eb8aadd48a672afb20d5f1108b90e019561a2ecb",
        ("0x1.bdef7bdef7bdfp-1", "0x1.fe42c40bc9b2ep-1", "0x1.6cc7e080d945cp-4"),
    ),
}


def degraded_case(side, seed=42):
    """The side x side random-voronoi cells eroded by 2 px as ground truth,
    the prediction that adds side**2 // 2000 specks of 3x3 px, and the
    prediction's own field and energy."""
    labels = synth("random-voronoi", (side, side))
    gt, pred = eroded_with_specks(labels, np.random.default_rng(seed), side * side // 2000)
    return gt, pred, gt_displacement(pred), (pred > 0).astype(np.int64)


@pytest.mark.parametrize("side", sorted(DEGRADED))
def test_eroded_cells_and_specks_give_the_recorded_values(side):
    gt, _, field, energy = degraded_case(side)
    ids = gcm(field, energy)
    # some predicted object lies wholly in the ground truth's background
    assert np.setdiff1d(ids[gt == 0], ids[gt > 0]).any()
    digest, scores = DEGRADED[side]
    assert ids.dtype == np.int64
    assert hashlib.sha256(ids.tobytes()).hexdigest() == digest
    record = evaluate(ids, gt)
    assert tuple(float(record[k]).hex() for k in ("obj_f1", "obj_dice", "obj_hd")) == scores


def test_the_degradation_erodes_cells_and_adds_disjoint_background_specks():
    labels = synth("random-voronoi", (64, 64))
    gt, pred, _, _ = degraded_case(64)
    want = np.zeros_like(labels)
    for r in range(2, labels.shape[0] - 2):
        for c in range(2, labels.shape[1] - 2):
            if (labels[r - 2 : r + 3, c - 2 : c + 3] == labels[r, c]).all():
                want[r, c] = labels[r, c]
    np.testing.assert_array_equal(gt, want)
    specks = np.unique(pred[gt != pred])
    assert len(specks) == 2 and specks.min() > labels.max()
    for k in specks:
        rows, cols = np.nonzero(pred == k)
        assert len(rows) == 9 and np.ptp(rows) == np.ptp(cols) == 2
        assert not gt[rows, cols].any()
