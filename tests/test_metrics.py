import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg.metrics import evaluate, match_objects, obj_dice, obj_f1, obj_hd
from flowseg.synth import synth
from oracles import metric_obj_dice, metric_obj_f1, metric_obj_hd, random_instance_pair


def two_object_map():
    m = np.zeros((16, 16), dtype=np.int64)
    m[2:6, 2:6] = 3
    m[9:14, 8:15] = 7
    return m


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
        gt = np.zeros((8, 12), dtype=np.int64)
        gt[2:6, 1:5] = 4
        gt[2:6, 6:10] = 2   # same area as id 4, later in raster order
        pred = np.zeros_like(gt)
        pred[2:6, 1:10] = 7  # covers all of both
        rep = match_objects(pred, gt)
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


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        pred, gt = random_instance_pair(np.random.default_rng(seed), 16, 16)
        assert obj_f1(pred, gt) == pytest.approx(metric_obj_f1(pred, gt), abs=1e-9)
        assert obj_dice(pred, gt) == pytest.approx(metric_obj_dice(pred, gt), abs=1e-9)
        assert obj_hd(pred, gt) == pytest.approx(metric_obj_hd(pred, gt), abs=1e-9)

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
        assert obj_f1(pred, gt) == pytest.approx(metric_obj_f1(pred, gt), abs=1e-9)
        assert obj_dice(pred, gt) == pytest.approx(metric_obj_dice(pred, gt), abs=1e-9)
        assert obj_hd(pred, gt) == pytest.approx(metric_obj_hd(pred, gt), abs=1e-9)


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            obj_f1(np.zeros((3, 3), dtype=int), np.zeros((4, 3), dtype=int))
