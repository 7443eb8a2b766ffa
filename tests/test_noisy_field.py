"""Recorded outputs of ``gcm`` and ``evaluate`` on noisy displacement fields.

The exact tests elsewhere feed ground-truth fields, zero fields or hand-made
examples. A predicted field is noisy: at sigma = 1 px ``recover`` no longer
settles within ``t1`` rounds, so the map depends on ``t1`` and on
``build_tg``'s rounding, and a refactor of either could change it unseen.
These golden values record the map and the scores the code gave when they were
written; they are not a contract, and a change that moves one on purpose says
so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from flowseg import evaluate, gcm, gt_displacement, read_map, synth, write_field, write_map
from flowseg.cli import cli

# (side, sigma in px) -> (sha256 of gcm's int64 map bytes, float.hex of obj_f1,
# obj_dice, obj_hd); at 64x64 recover settles, at 128x128 and sigma = 1 it does
# not, so one round fewer changes that map
GOLDEN = {
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
