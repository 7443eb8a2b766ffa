import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowseg import metrics
from flowseg.metrics import evaluate, match_objects, obj_dice, obj_f1, obj_hd
from flowseg.synth import synth
from oracles import (
    eroded_with_specks,
    metric_obj_dice,
    metric_obj_f1,
    metric_obj_hd,
    random_instance_pair,
)


def two_object_map():
    m = np.zeros((16, 16), dtype=np.int64)
    m[2:6, 2:6] = 3
    m[9:14, 8:15] = 7
    return m


def shifted_tiles(h, w):
    """A grid of 2x2 tiles and its copy shifted by (1, 1): each shifted tile
    overlaps up to four tiles by 1 px, so every best overlap is an exact tie."""
    r, c = np.mgrid[0:h, 0:w]
    gt = (r // 2) * ((w + 1) // 2) + c // 2 + 1
    pred = np.zeros_like(gt)
    pred[1:, 1:] = gt[:-1, :-1]
    return pred, gt


def one_prediction_over_two_objects():
    gt = np.zeros((8, 12), dtype=np.int64)
    gt[2:6, 1:5] = 4
    gt[2:6, 6:10] = 2   # same area as id 4, later in raster order
    pred = np.zeros_like(gt)
    pred[2:6, 1:10] = 7  # covers all of both
    return pred, gt


def unique_extract(m):
    """The extraction by one ``np.unique`` over every pixel: the reference the
    run-based ``_extract`` must equal."""
    a = np.asarray(m)
    uniq, first, inverse, counts = np.unique(
        a.ravel(), return_index=True, return_inverse=True, return_counts=True
    )
    if uniq.size and uniq[0] < 0:
        raise ValueError("instance ids must be >= 0")
    fg = uniq > 0
    order = np.argsort(first[fg], kind="stable")
    rank = np.full(len(uniq), -1, dtype=np.int64)
    rank[np.flatnonzero(fg)[order]] = np.arange(order.size)
    index = rank[inverse].reshape(a.shape)
    return uniq[fg][order], index, counts[fg][order]


ID_DTYPES = [np.uint8, np.int16, np.int64, np.uint64]


@st.composite
def id_maps(draw):
    """Small maps of a few ids, sparse up to 2**62 where the dtype holds them,
    including 0-row and 0-column shapes."""
    dtype = draw(st.sampled_from(ID_DTYPES))
    top = min(int(np.iinfo(dtype).max), 2**62)
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    h, w = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    cells = draw(st.lists(st.sampled_from(pool), min_size=h * w, max_size=h * w))
    return np.array(cells, dtype=dtype).reshape(h, w)


def fixed_id_maps():
    checker = (np.indices((5, 6)).sum(axis=0) % 2).astype(np.int64)
    maps = {
        "checkerboard": checker,
        "checkerboard-two-ids": np.where(checker == 1, 7, 3),
        "checkerboard-2**62": checker * 2**62,
        "single-row": np.array([[0, 5, 5, 2, 0, 5, 9, 9]]),
        "single-column": np.array([[4], [4], [0], [1], [4], [0]]),
        "0x5": np.zeros((0, 5), dtype=np.int64),
        "5x0": np.zeros((5, 0), dtype=np.int64),
        "0x0": np.zeros((0, 0), dtype=np.int64),
        "1x1": np.array([[3]]),
        "background": np.zeros((4, 4), dtype=np.int64),
    }
    return [
        pytest.param(m.astype(dtype), id=f"{name}-{np.dtype(dtype).name}")
        for name, m in maps.items()
        for dtype in ID_DTYPES
        if m.max(initial=0) <= np.iinfo(dtype).max
    ]


def assert_extracts_like_unique(m):
    objs = metrics._extract(m)
    ids, index, areas = unique_extract(m)
    assert objs.ids.dtype == ids.dtype == m.dtype
    assert objs.ids.tolist() == ids.tolist()
    assert objs.index.dtype == index.dtype and np.array_equal(objs.index, index)
    assert objs.areas.dtype == areas.dtype and objs.areas.tolist() == areas.tolist()


class TestExtract:
    @given(id_maps())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_unique_extraction(self, m):
        assert_extracts_like_unique(m)

    @pytest.mark.parametrize("m", fixed_id_maps())
    def test_equals_the_unique_extraction_on_edge_maps(self, m):
        assert_extracts_like_unique(m)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_negative_id_raises(self, dtype):
        with pytest.raises(ValueError, match=r"^instance ids must be >= 0$"):
            metrics._extract(np.array([[0, 3], [-1, 3]], dtype=dtype))


class TestObjF1:
    def test_identical_maps(self):
        m = two_object_map()
        assert obj_f1(m, m) == 1.0

    def test_empty_prediction(self):
        gt = two_object_map()
        assert obj_f1(np.zeros_like(gt), gt) == 0.0

    def test_both_empty(self):
        z = np.zeros((8, 8), dtype=np.int64)
        assert obj_f1(z, z) == 1.0

    def test_majority_rule_is_strict(self):
        gt = np.zeros((12, 12), dtype=np.int64)
        gt[1:11, 1:11] = 1  # 100 pixels
        pred51 = np.zeros_like(gt)
        pred51[1:6, 1:11] = 9          # 50 pixels...
        pred51[6, 1] = 9               # ...plus one: 51 > 50% -> detected
        assert obj_f1(pred51, gt) == 1.0
        pred50 = np.zeros_like(gt)
        pred50[1:6, 1:11] = 9          # exactly 50%: not detected
        assert obj_f1(pred50, gt) == 0.0

    def test_each_gt_claimed_once(self):
        gt = np.zeros((8, 12), dtype=np.int64)
        gt[2:6, 2:6] = 1
        pred = np.zeros_like(gt)
        pred[2:6, 2:5] = 5   # 12 of 16 pixels
        pred[2:6, 5:6] = 8   # 4 of 16 pixels, gt already claimed
        rep = match_objects(pred, gt)
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)
        assert rep.matched_pred == [5]
        assert obj_f1(pred, gt) == pytest.approx(2 / 3)

    def test_one_prediction_covering_two_objects_matches_the_first(self):
        rep = match_objects(*one_prediction_over_two_objects())
        assert (rep.tp, rep.fp, rep.fn) == (1, 0, 1)
        assert rep.matched_pred == [7, None]

    def test_empty_ground_truth(self):
        pred = two_object_map()
        rep = match_objects(pred, np.zeros_like(pred))
        assert (rep.tp, rep.fp, rep.fn) == (0, 2, 0)
        assert obj_f1(pred, np.zeros_like(pred)) == 0.0


class TestObjDice:
    def test_identical_maps(self):
        m = two_object_map()
        assert obj_dice(m, m) == 1.0

    def test_disjoint_supports(self):
        gt = np.zeros((10, 10), dtype=np.int64)
        gt[:3, :3] = 1
        pred = np.zeros_like(gt)
        pred[6:, 6:] = 1
        assert obj_dice(pred, gt) == 0.0

    def test_half_square(self):
        gt = np.zeros((8, 8), dtype=np.int64)
        gt[2:6, 2:6] = 1
        pred = np.zeros_like(gt)
        pred[2:6, 2:4] = 1
        assert obj_dice(pred, gt) == pytest.approx(2 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            pred, gt = random_instance_pair(np.random.default_rng(seed), 14, 14)
            assert obj_dice(pred, gt) == pytest.approx(obj_dice(gt, pred), abs=1e-12)

    def test_both_empty(self):
        z = np.zeros((5, 5), dtype=np.int64)
        assert obj_dice(z, z) == 1.0


class TestObjHd:
    def test_identical_maps(self):
        m = two_object_map()
        assert obj_hd(m, m) == 0.0

    def test_unit_offset_squares(self):
        gt = np.zeros((10, 10), dtype=np.int64)
        gt[3:7, 2:6] = 1
        pred = np.zeros_like(gt)
        pred[3:7, 3:7] = 1
        assert obj_hd(pred, gt) == pytest.approx(1.0)

    def test_one_pixel_wide_object_is_all_boundary(self):
        # every pixel of a 1-wide column has a left or right neighbor outside it
        gt = np.zeros((21, 4), dtype=np.int64)
        gt[:, 0] = 1
        pred = gt.copy()
        pred[10, 1] = 1
        assert obj_hd(pred, gt) == 1.0
        assert metric_obj_hd(pred, gt) == 1.0

    def test_empty_prediction_gives_diagonal(self):
        gt = two_object_map()
        assert obj_hd(np.zeros_like(gt), gt) == pytest.approx(np.hypot(15, 15))

    def test_both_empty(self):
        z = np.zeros((6, 9), dtype=np.int64)
        assert obj_hd(z, z) == 0.0

    def test_symmetry(self):
        for seed in range(5):
            pred, gt = random_instance_pair(np.random.default_rng(seed), 14, 14)
            assert obj_hd(pred, gt) == pytest.approx(obj_hd(gt, pred), abs=1e-12)


def dense_hausdorff(a, b):
    """The unpruned product over all boundary points: the reference that the
    pruned distance must equal bit for bit."""
    d2 = a @ b.T
    d2 *= -2.0
    d2 += (a * a).sum(axis=1)[:, None]
    d2 += (b * b).sum(axis=1)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def unpruned_obj_hd(pred, gt):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_hausdorff", lambda a, b: dense_hausdorff(a[3][:, :2], b[3][:, :2]))
        return obj_hd(pred, gt)


def weak_pruning_maps():
    """Shapes where the bounding balls prune little or sit far off centre."""
    ring = np.zeros((40, 40), dtype=np.int64)
    ring[1:39, 1:39] = 1
    ring[3:37, 3:37] = 0
    for k, (r, c) in enumerate([(6, 6), (6, 30), (30, 6), (30, 30), (18, 18)]):
        ring[r : r + 3, c : c + 3] = k + 2
    inside = ring.copy()
    inside[ring == 1] = 0
    inside[2:38, 2:38] = np.where(inside[2:38, 2:38] == 0, 9, inside[2:38, 2:38])
    lattice = np.zeros((40, 40), dtype=np.int64)
    lattice[1::5, 1::5] = np.arange(1, 65).reshape(8, 8)
    lattice[2::5, 1::5] = lattice[1::5, 1::5]
    pixels = np.zeros((40, 40), dtype=np.int64)
    cells = np.random.default_rng(3).choice(1600, 60, replace=False)
    pixels.ravel()[cells] = np.arange(1, 61)
    border = np.zeros((40, 40), dtype=np.int64)
    border[0, :] = 1
    border[:, 39] = 2
    border[20:, :4] = 3
    border[39, 10:30] = 4
    border[0:2, 0:2] = 5
    return {
        "ring": ring,
        "inside": inside,
        "whole": np.ones((40, 40), dtype=np.int64),
        "lattice": lattice,
        "pixels": pixels,
        "border": border,
    }


def spy_products(monkeypatch):
    """Record the (rows, columns) of every squared-distance product."""
    shapes = []
    sq_dists = metrics._sq_dists
    monkeypatch.setattr(
        metrics, "_sq_dists", lambda p, q: shapes.append((len(p), len(q))) or sq_dists(p, q)
    )
    return shapes


class TestPrunedHausdorff:
    def test_equals_the_dense_product_on_random_pairs(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            h, w = (int(v) for v in rng.integers(6, 40, 2))
            pred, gt = random_instance_pair(rng, h, w)
            assert obj_hd(pred, gt) == unpruned_obj_hd(pred, gt), seed
            assert obj_hd(gt, pred) == unpruned_obj_hd(gt, pred), seed

    @pytest.mark.parametrize("pred_name", sorted(weak_pruning_maps()))
    def test_equals_the_dense_product_on_weak_pruning_shapes(self, pred_name):
        maps = weak_pruning_maps()
        for gt in maps.values():
            assert obj_hd(maps[pred_name], gt) == unpruned_obj_hd(maps[pred_name], gt)

    def test_the_maximiser_can_sit_almost_2r_inside_the_farthest_point(self):
        # B is two points 20 apart (centre c = (0, 10), radius 10 + 1). A's
        # points lie 10, 0, 23 and 35 from c, a spread of at least 2 r, so only
        # A's points at least 35 - 22 from c are measured. Its point (23, 10)
        # lies 12 less than A's farthest point (0, 45) from c, yet it is the
        # one farthest from B: sqrt(23² + 10²) > 45 - 20.
        gt = np.zeros((24, 46), dtype=np.int64)
        pred = np.zeros_like(gt)
        gt[[0, 0, 23, 0], [0, 10, 10, 45]] = 1
        pred[[0, 0], [0, 20]] = 1
        assert obj_hd(pred, gt) == unpruned_obj_hd(pred, gt) == np.sqrt(23**2 + 10**2)

    def test_a_small_object_inside_a_large_one_measures_only_the_far_points(self, monkeypatch):
        big = np.zeros((40, 40), dtype=np.int64)
        big[2:38, 2:38] = 1
        small = np.zeros_like(big)
        small[8:11, 25:28] = 1
        cb, rb, *lift_b = metrics._boundaries(metrics._extract(big))[0]
        cs, rs, *lift_s = metrics._boundaries(metrics._extract(small))[0]
        pb, ps = lift_b[1][:, :2], lift_s[1][:, :2]
        want = dense_hausdorff(pb, ps)
        shapes = spy_products(monkeypatch)
        assert metrics._hausdorff((cb, rb, *lift_b), (cs, rs, *lift_s)) == want
        assert metrics._hausdorff((cs, rs, *lift_s), (cb, rb, *lift_b)) == want
        # each order measures the small object against a part of the large one
        assert [s[0] for s in shapes] == [len(ps)] * 2
        assert all(0 < s[1] < len(pb) for s in shapes)
        assert obj_hd(small, big) == unpruned_obj_hd(small, big) == want
        assert obj_hd(big, small) == unpruned_obj_hd(big, small) == want

    def test_a_ring_around_a_small_object_takes_the_full_product(self, monkeypatch):
        rr, cc = np.mgrid[0:41, 0:41]
        dist = np.hypot(rr - 20, cc - 20)
        ring = ((dist >= 10) & (dist <= 14)).astype(np.int64)
        small = np.zeros_like(ring)
        small[18:23, 18:23] = 1
        a = metrics._boundaries(metrics._extract(ring))[0]
        b = metrics._boundaries(metrics._extract(small))[0]
        pa, pb = a[3][:, :2], b[3][:, :2]
        # the ring's distances to the small object's centre spread below 2 r
        e = np.hypot(*(pa - b[0]).T)
        assert e.max() - e.min() < 2 * b[1]
        shapes = spy_products(monkeypatch)
        want = dense_hausdorff(pa, pb)
        assert metrics._hausdorff(a, b) == metrics._hausdorff(b, a) == want
        # both orders measure every point of the small object against the ring
        assert shapes == [(len(pb), len(pa))] * 2
        assert obj_hd(small, ring) == unpruned_obj_hd(small, ring) == want
        assert obj_hd(ring, small) == unpruned_obj_hd(ring, small) == want

    def test_only_the_pair_that_differs_is_measured(self, monkeypatch):
        gt = np.zeros((30, 30), dtype=np.int64)
        gt[2:12, 2:12] = 1
        gt[2:12, 15:27] = 2
        gt[16:28, 4:26] = 3
        pred = gt.copy()
        # a pixel of object 1 moves into the gap between objects 1 and 2
        pred[2, 2] = 0
        pred[6, 12] = 1
        want = (unpruned_obj_hd(pred, gt), unpruned_obj_hd(gt, pred))
        calls = []
        hausdorff = metrics._hausdorff
        monkeypatch.setattr(metrics, "_hausdorff", lambda a, b: calls.append(1) or hausdorff(a, b))
        assert (obj_hd(pred, gt), obj_hd(gt, pred)) == want
        assert want[0] > 0 and len(calls) == 2

    def test_identical_maps_build_no_boundary(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an identical pair was measured")

        m = synth("random-voronoi", (48, 40), 2)
        monkeypatch.setattr(metrics, "_boundaries", refuse)
        monkeypatch.setattr(metrics, "_hausdorff", refuse)
        record = evaluate(m, m)
        assert (record["obj_f1"], record["obj_dice"], record["obj_hd"]) == (1.0, 1.0, 0.0)

    @given(
        st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), min_size=1, max_size=40),
        st.tuples(st.floats(-80, 80), st.floats(-80, 80)),
    )
    # A's centre sits 3e-7 off B's point: the lifted product can round that
    # e² (9e-14) below 0, which must read as 0 without a RuntimeWarning
    @example(a=[(60, 60)], b=[(60, 60)], shift=(3e-7, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_any_enclosing_ball_keeps_the_exact_distance(self, a, b, shift):
        # the bound holds for any ball that holds the points, not only for the
        # bounding-box centre the metric uses
        def entry(pts, centre):
            radius = np.sqrt(((pts - centre) ** 2).sum(axis=1)).max() + 1.0
            return centre, radius, *metrics._lift(pts)

        a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        box = lambda p: (p.min(axis=0) + p.max(axis=0)) / 2
        want = dense_hausdorff(a, b)
        assert metrics._hausdorff(entry(a, box(a)), entry(b, box(b))) == want
        assert metrics._hausdorff(entry(a, box(a) + shift), entry(b, np.array(shift))) == want


class TestInvariances:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_label_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred, gt = random_instance_pair(rng, 12, 12)
        ids = np.unique(gt[gt > 0])
        relabeled = np.zeros_like(gt)
        for i, v in enumerate(rng.permutation(ids)):
            relabeled[gt == v] = 1000 + 7 * i
        assert obj_f1(pred, gt) == obj_f1(pred, relabeled)
        assert obj_dice(pred, gt) == pytest.approx(obj_dice(pred, relabeled), abs=1e-12)
        assert obj_hd(pred, gt) == pytest.approx(obj_hd(pred, relabeled), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ranges(self, seed):
        pred, gt = random_instance_pair(np.random.default_rng(seed), 12, 12)
        assert 0.0 <= obj_f1(pred, gt) <= 1.0
        assert 0.0 <= obj_dice(pred, gt) <= 1.0
        assert obj_hd(pred, gt) >= 0.0


def assert_equals_oracles(pred, gt):
    """Each metric sums its objects in the oracle's order, so the scores are
    the same floats, not merely close ones."""
    assert obj_f1(pred, gt) == metric_obj_f1(pred, gt)
    assert obj_dice(pred, gt) == metric_obj_dice(pred, gt)
    assert obj_hd(pred, gt) == metric_obj_hd(pred, gt)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        assert_equals_oracles(*random_instance_pair(np.random.default_rng(seed), 16, 16))

    # objects that touch each other and the grid border on every side
    @pytest.mark.parametrize("change", ["shift", "merge"])
    def test_adjacent_objects(self, change):
        gt = synth("random-voronoi", (40, 48))
        if change == "shift":
            pred = np.zeros_like(gt)
            pred[:, 1:] = gt[:, :-1]
        else:
            first, second = np.unique(gt[gt > 0])[:2]
            pred = np.where(gt == second, first, gt)
        assert_equals_oracles(pred, gt)

    # 15 objects per side: a pairwise sum of the contributions rounds
    # differently from the oracle's loop on some of these
    @pytest.mark.parametrize("seed", range(4))
    def test_shifted_voronoi(self, seed):
        gt = synth("random-voronoi", (96, 96), seed)
        pred = np.zeros_like(gt)
        pred[:, 2:] = gt[:, :-2]
        assert_equals_oracles(pred, gt)

    # the raster tie-break on every pair, with 1 px and 2 px edge tiles at 13x11
    @pytest.mark.parametrize("shape", [(12, 12), (13, 11)])
    @pytest.mark.parametrize("swap", [False, True])
    def test_exact_ties_everywhere(self, shape, swap):
        pred, gt = shifted_tiles(*shape)
        assert_equals_oracles(*((gt, pred) if swap else (pred, gt)))


def side_by_side(fixture):
    """The ``fixture`` map in the left half of a 64x64 ground truth and in the
    right half of the prediction: no object overlaps any counterpart."""
    half = synth(fixture, (64, 32), 0)
    gt = np.zeros((64, 64), dtype=np.int64)
    pred = gt.copy()
    gt[:, :32] = half
    pred[:, 32:] = half
    return pred, gt


def equidistant_speck():
    """A 3x3 speck in the prediction only, mirrored between two squares that
    both maps hold: its two candidate distances are the same float."""
    gt = np.zeros((9, 19), dtype=np.int64)
    gt[2:7, 1:6] = 1
    gt[2:7, 13:18] = 2
    pred = gt.copy()
    pred[3:6, 8:11] = 3
    return pred, gt


def speck_by_a_long_bar():
    """A speck whose nearest centre is a long bar's, while a small square
    farther off is nearer in Hausdorff distance."""
    gt = np.zeros((40, 60), dtype=np.int64)
    gt[10:12, :] = 1
    gt[30:33, 28:31] = 2
    pred = gt.copy()
    pred[14:17, 28:31] = 3
    return pred, gt


class TestUnmatchedFallback:
    """An object with no overlapping counterpart takes the exact least
    distance over all counterparts, ties and far centres included."""

    @pytest.mark.parametrize(
        "maps",
        [
            side_by_side("random-voronoi"),
            side_by_side("grid-of-9-instances"),
            eroded_with_specks(synth("random-voronoi", (64, 64), 0), np.random.default_rng(0), 2),
            equidistant_speck(),
            speck_by_a_long_bar(),
        ],
        ids=["disjoint-voronoi", "disjoint-grid", "specks", "tie", "far-centre"],
    )
    @pytest.mark.parametrize("swap", [False, True])
    def test_equals_the_oracle_bit_for_bit(self, maps, swap):
        pred, gt = maps[::-1] if swap else maps
        assert float.hex(obj_hd(pred, gt)) == float.hex(metric_obj_hd(pred, gt))

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_oracle_on_random_half_shifted_maps(self, seed):
        # a shift by half the width leaves most objects with no overlap
        pred, gt = random_instance_pair(np.random.default_rng(seed), 18, 24)
        pred = np.roll(pred, 12, axis=1)
        assert float.hex(obj_hd(pred, gt)) == float.hex(metric_obj_hd(pred, gt))


class TestEvaluate:
    def test_record_structure(self):
        gt = two_object_map()
        pred = np.where(gt == 3, 11, np.where(gt == 7, 4, 0))
        record = evaluate(pred, gt)
        assert record["obj_f1"] == 1.0
        assert record["obj_dice"] == 1.0
        assert record["obj_hd"] == 0.0
        assert record["per_object"] == [
            {"gt_id": 3, "pred_id": 11, "gt_area": 16, "overlap": 16},
            {"gt_id": 7, "pred_id": 4, "gt_area": 35, "overlap": 35},
        ]

    def test_unmatched_object_has_null_match(self):
        gt = two_object_map()
        pred = np.where(gt == 3, 2, 0)
        record = evaluate(pred, gt)
        assert record["per_object"][1]["pred_id"] is None
        assert record["per_object"][1]["overlap"] == 0

    def test_one_prediction_over_two_objects(self):
        record = evaluate(*one_prediction_over_two_objects())
        assert record["per_object"] == [
            {"gt_id": 4, "pred_id": 7, "gt_area": 16, "overlap": 16},
            {"gt_id": 2, "pred_id": None, "gt_area": 16, "overlap": 0},
        ]

    def test_match_report_holds_only_the_detection(self):
        rep = match_objects(*random_instance_pair(np.random.default_rng(0), 12, 12))
        assert [f.name for f in dataclasses.fields(rep)] == [
            "tp", "fp", "fn", "gt_ids", "pred_ids", "matched_pred"
        ]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            obj_f1(np.zeros((3, 3), dtype=int), np.zeros((4, 3), dtype=int))

    def test_a_map_that_is_not_2d_rejected(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            evaluate(np.zeros(9, dtype=int), np.zeros(9, dtype=int))

    def test_one_extraction_per_call(self, monkeypatch):
        calls = []
        pair = metrics._pair
        monkeypatch.setattr(metrics, "_pair", lambda *a: calls.append(1) or pair(*a))
        pred, gt = random_instance_pair(np.random.default_rng(0), 20, 20)
        evaluate(pred, gt)
        assert len(calls) == 1
        evaluate(gt, pred)
        assert len(calls) == 2

    def test_calls_every_public_metric_by_name(self, monkeypatch):
        called = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                called.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("match_objects", "obj_f1", "obj_dice", "obj_hd"):
            monkeypatch.setattr(metrics, name, recorded(name, getattr(metrics, name)))
        gt = two_object_map()
        evaluate(np.where(gt == 3, 5, 0), gt)
        assert set(called) == {"match_objects", "obj_f1", "obj_dice", "obj_hd"}

    def test_no_table_of_every_pair(self):
        # 900 objects per side: one int64 n_gt x n_pred table alone is 6.5 MB
        pred, gt = shifted_tiles(60, 60)
        tracemalloc.start()
        try:
            evaluate(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_pairing_holds_at_most_four_int64_maps(self):
        # the two object indices and the joint id map, plus bool masks: only
        # the ids and areas of the joint map's objects are read, so an object
        # index of that map would be a fourth (h, w) int64 array
        side = 256
        r, c = np.mgrid[0:side, 0:side]
        gt = r // 32 * (side // 32) + c // 32 + 1
        pred = (r + 5) // 32 * (side // 32 + 1) + (c + 3) // 32 + 1
        pred[r % 32 == 9] = 0
        metrics._pair(pred, gt)
        tracemalloc.start()
        try:
            metrics._pair(pred, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * side * side

    def test_scores_equal_separate_calls(self):
        maps = weak_pruning_maps()
        cases = [random_instance_pair(np.random.default_rng(s), 24, 30) for s in range(20)]
        cases += [(maps["whole"], maps["lattice"]), (maps["ring"], maps["pixels"])]
        cases += [(np.zeros((5, 5), dtype=int), two_object_map()[:5, :5])]
        for pred, gt in cases:
            record = evaluate(pred, gt)
            assert (record["obj_f1"], record["obj_dice"], record["obj_hd"]) == (
                obj_f1(pred, gt),
                obj_dice(pred, gt),
                obj_hd(pred, gt),
            )


class TestRejectsMapsThatAreNotIds:
    @pytest.mark.parametrize("metric", [evaluate, match_objects, obj_f1, obj_dice, obj_hd])
    def test_all_nan_prediction(self, metric):
        gt = two_object_map()
        with pytest.raises(ValueError, match="integer"):
            metric(np.full(gt.shape, np.nan), gt)

    @pytest.mark.parametrize("metric", [evaluate, match_objects, obj_f1, obj_dice, obj_hd])
    def test_one_nan_pixel(self, metric):
        gt = two_object_map()
        pred = gt.astype(np.float64)
        pred[3, 3] = np.nan
        with pytest.raises(ValueError, match="integer"):
            metric(pred, gt)

    @pytest.mark.parametrize("metric", [evaluate, match_objects, obj_f1, obj_dice, obj_hd])
    def test_fractional_ids(self, metric):
        gt = two_object_map()
        with pytest.raises(ValueError, match="integer"):
            metric(gt * 0.5, gt)

    @pytest.mark.parametrize("metric", [evaluate, match_objects, obj_f1, obj_dice, obj_hd])
    def test_negative_ids(self, metric):
        gt = two_object_map()
        with pytest.raises(ValueError, match=">= 0"):
            metric(gt, -gt)
