import numpy as np
import pytest
from scipy import ndimage

from flowseg import synth
from flowseg.synth import _voronoi_sites


def adjacent_pairs(labels, a, b):
    """Count 4-adjacent pixel pairs between instances a and b."""
    count = 0
    mask_a = labels == a
    mask_b = labels == b
    count += int((mask_a[:-1, :] & mask_b[1:, :]).sum())
    count += int((mask_a[1:, :] & mask_b[:-1, :]).sum())
    count += int((mask_a[:, :-1] & mask_b[:, 1:]).sum())
    count += int((mask_a[:, 1:] & mask_b[:, :-1]).sum())
    return count


def chebyshev_gap(labels, a, b):
    ra, ca = np.nonzero(labels == a)
    rb, cb = np.nonzero(labels == b)
    dr = np.abs(ra[:, None] - rb[None, :])
    dc = np.abs(ca[:, None] - cb[None, :])
    return int(np.maximum(dr, dc).min())


def test_two_squares_separated():
    labels = synth("two-squares-separated", (32, 32))
    assert set(np.unique(labels)) == {0, 1, 2}
    assert chebyshev_gap(labels, 1, 2) > 1  # background between them


def test_two_blobs_adherent():
    labels = synth("two-blobs-adherent", (32, 32))
    assert set(np.unique(labels)) == {0, 1, 2}
    assert adjacent_pairs(labels, 1, 2) >= 3  # shared 4-boundary length >= 3


def test_concave_horseshoe():
    labels = synth("concave-horseshoe", (48, 48))
    assert set(np.unique(labels)) == {0, 1}
    n_components = ndimage.label(labels == 1, structure=np.ones((3, 3)))[1]
    assert n_components == 1
    rows, cols = np.nonzero(labels == 1)
    bbox_area = (np.ptp(rows) + 1) * (np.ptp(cols) + 1)
    assert len(rows) < 0.75 * bbox_area  # genuinely concave


def test_grid_of_nine():
    labels = synth("grid-of-9-instances", (64, 64))
    assert set(np.unique(labels)) == set(range(1, 10))  # fully tiled
    for k in range(1, 10):
        assert ndimage.label(labels == k)[1] == 1


def test_grid_of_five_leaves_background():
    labels = synth("grid-of-5-instances", (48, 48))
    assert set(np.unique(labels)) == set(range(0, 6))


def test_random_voronoi_is_seed_stable():
    a = synth("random-voronoi", (48, 48), seed=7)
    b = synth("random-voronoi", (48, 48), seed=7)
    c = synth("random-voronoi", (48, 48), seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_voronoi_cells_connected():
    for seed in range(5):
        labels = synth("random-voronoi", (64, 64), seed=seed)
        ids = np.unique(labels)
        assert len(ids) >= 2
        assert 0 not in ids  # full tessellation, no background
        for k in ids:
            assert ndimage.label(labels == k, structure=np.ones((3, 3)))[1] == 1


def test_random_voronoi_matches_stacked_argmin():
    # the former construction: one k x h x w distance stack, argmin over sites
    for shape in [(16, 16), (31, 40), (128, 128)]:
        for seed in range(3):
            labels = synth("random-voronoi", shape, seed=seed)
            sites = _voronoi_sites(shape, seed)
            rr, cc = np.mgrid[0 : shape[0], 0 : shape[1]]
            dist2 = np.stack([(rr - r) ** 2 + (cc - c) ** 2 for r, c in sites], axis=0)
            np.testing.assert_array_equal(labels, dist2.argmin(axis=0) + 1)


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError, match="unknown fixture"):
        synth("three-rings", (32, 32))


def test_too_small_shape_rejected():
    with pytest.raises(ValueError):
        synth("two-blobs-adherent", (4, 4))


def test_grid_of_no_instances_rejected():
    with pytest.raises(ValueError, match="instance count must be >= 1"):
        synth("grid-of-0-instances", (32, 32))


def test_grid_too_small_for_its_tiles_rejected():
    with pytest.raises(ValueError, match="too small for 9 tiled instances"):
        synth("grid-of-9-instances", (8, 8))


def test_a_tile_count_past_int64_raises_value_error():
    # np.sqrt of a Python int past int64 raises TypeError
    with pytest.raises(ValueError, match="too small"):
        synth("grid-of-99999999999999999999-instances", (8, 8), 0)
