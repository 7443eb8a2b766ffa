import sys
import threading

import numpy as np
import pytest

import flowseg.diffusion
from flowseg.diffusion import _same_label_operator, gt_displacement
from flowseg.grid import GridShape, _csr_index_dtype, disk, grid_adjacency, stencil_offsets
from flowseg.synth import synth
from oracles import gt_displacement_naive, random_label_map

ROUNDTRIP_FIXTURES = ("random-voronoi", "two-blobs-adherent", "concave-horseshoe")


def serial_gt_displacement(lab, radius, iters):
    """gt_displacement's iteration with both planes on the calling thread, one
    after the other: the single-threaded reference for bit equality."""
    shape = GridShape(*lab.shape)
    op = _same_label_operator(lab, radius)
    count = op.sum(axis=1)
    movable = count > 0
    denom = np.maximum(count, 1.0)

    # the row and column coordinates never mix, so each plane iterates alone
    # (two single-vector products are faster than one two-column product)
    planes = []
    for start in np.divmod(np.arange(shape.n_nodes, dtype=np.int64), shape.w):
        start = start.astype(np.float64)
        coords = start
        for _ in range(iters):
            coords = np.where(movable, (op @ coords) / denom, coords)
        planes.append(coords - start)
    return np.stack(planes, axis=-1).reshape(shape.h, shape.w, 2)


class FailingOperator:
    """Wraps the operator; its product raises ``exc`` on one thread only."""

    def __init__(self, op, exc, on_caller):
        self.op, self.exc, self.on_caller = op, exc, on_caller
        self.caller = threading.get_ident()

    def sum(self, axis):
        return self.op.sum(axis=axis)

    def __matmul__(self, coords):
        if (threading.get_ident() == self.caller) == self.on_caller:
            raise self.exc
        return self.op @ coords


class TestGtDisplacement:
    def test_single_pixel_instance_stays(self):
        labels = np.zeros((7, 7), dtype=np.int64)
        labels[3, 3] = 1
        field = gt_displacement(labels, radius=2, iters=10)
        np.testing.assert_array_equal(field, np.zeros((7, 7, 2)))

    def test_centered_square_center_is_fixed(self):
        labels = np.zeros((9, 9), dtype=np.int64)
        labels[2:7, 2:7] = 1  # (2r+1)-square for r=2
        field = gt_displacement(labels, radius=2, iters=30)
        np.testing.assert_allclose(field[4, 4], [0.0, 0.0], atol=1e-12)

    def test_adherent_squares_point_toward_own_centroid(self):
        labels = np.zeros((9, 18), dtype=np.int64)
        labels[:, :9] = 1
        labels[:, 9:] = 2
        field = gt_displacement(labels)
        for k, centroid in [(1, (4.0, 4.0)), (2, (4.0, 13.0))]:
            mask = labels == k
            edge = np.zeros_like(mask)
            edge |= np.pad(~mask, 1)[:-2, 1:-1] & mask  # any 4-neighbor outside
            edge |= np.pad(~mask, 1)[2:, 1:-1] & mask
            edge |= np.pad(~mask, 1)[1:-1, :-2] & mask
            edge |= np.pad(~mask, 1)[1:-1, 2:] & mask
            rows, cols = np.nonzero(edge)
            for r, c in zip(rows, cols):
                to_center = np.array([centroid[0] - r, centroid[1] - c])
                assert field[r, c] @ to_center > 0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for radius, iters in [(2, 8), (5, 12)]:
            labels = random_label_map(rng, 14, 16)
            got = gt_displacement(labels, radius=radius, iters=iters)
            want = gt_displacement_naive(labels, radius, iters)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_bit_identical_to_naive_oracle(self):
        # the sparse product sums each row in slot order from zero, exactly as
        # the oracle does; radius 20 reaches past every side of the grid
        rng = np.random.default_rng(13)
        for (h, w), radius, iters in [((14, 16), 2, 8), ((12, 15), 5, 20), ((9, 11), 20, 3)]:
            labels = random_label_map(rng, h, w)
            got = gt_displacement(labels, radius=radius, iters=iters)
            want = gt_displacement_naive(labels, radius, iters)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ROUNDTRIP_FIXTURES)
    def test_two_threads_bit_identical_to_serial_at_64(self, name):
        # at 64x64 with 96 rounds the two planes overlap in time
        labels = synth(name, (64, 64), seed=1)
        before = threading.active_count()
        got = gt_displacement(labels, radius=5, iters=96)
        assert threading.active_count() == before
        np.testing.assert_array_equal(got, serial_gt_displacement(labels, 5, 96))

    def test_reentrant_from_two_threads(self):
        # two outer calls make four threads on the planes, more than the cores,
        # and a short switch interval interleaves them as often as it can
        labels = synth("random-voronoi", (64, 64), seed=1)
        want = serial_gt_displacement(labels, 5, 96)
        before = threading.active_count()
        got = [None, None]

        def call(k):
            got[k] = gt_displacement(labels, radius=5, iters=96)

        outer = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in outer:
                t.start()
            for t in outer:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in outer)
        assert threading.active_count() == before
        for field in got:
            np.testing.assert_array_equal(field, want)

    @pytest.mark.parametrize("on_caller", [False, True], ids=["worker plane", "caller plane"])
    def test_failing_plane_raises_and_leaves_no_thread(self, monkeypatch, on_caller):
        # an exception in either plane must reach the caller, not come out as
        # a field with one plane never written
        boom = RuntimeError("plane failed")
        build = flowseg.diffusion._same_label_operator
        monkeypatch.setattr(
            flowseg.diffusion,
            "_same_label_operator",
            lambda lab, radius: FailingOperator(build(lab, radius), boom, on_caller),
        )
        labels = random_label_map(np.random.default_rng(4), 12, 12)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            gt_displacement(labels, radius=3, iters=4)
        assert info.value is boom
        assert threading.active_count() == before

    def test_builds_no_adjacency_tables(self):
        labels = random_label_map(np.random.default_rng(2), 13, 19)
        before = grid_adjacency.cache_info()
        gt_displacement(labels, radius=4, iters=2)
        after = grid_adjacency.cache_info()
        assert after.currsize == before.currsize
        assert after.misses == before.misses and after.hits == before.hits

    def test_csr_index_dtype_never_wraps(self):
        slots = len(stencil_offsets(disk(5)))  # 80
        assert _csr_index_dtype(1024 * 1024, slots) is np.int32
        limit = 2**31 // slots  # largest N whose row pointers stay below 2**31
        assert _csr_index_dtype(limit, slots) is np.int32
        assert _csr_index_dtype(limit + 1, slots) is np.int64
        assert _csr_index_dtype(2**31, 1) is np.int64
        assert _csr_index_dtype(2**31 - 1, 1) is np.int32

    def test_radius_beyond_the_grid_diagonal_changes_nothing(self, monkeypatch):
        # no offset longer than ceil(hypot(8, 10)) = 13 lands in a 9x11 grid,
        # so a larger disk must never be enumerated
        def bounded(spec):
            assert spec.size <= 13, f"enumerated {spec}"
            return stencil_offsets(spec)

        labels = random_label_map(np.random.default_rng(6), 9, 11)
        want = gt_displacement(labels, radius=13, iters=8)
        monkeypatch.setattr(flowseg.diffusion, "stencil_offsets", bounded)
        np.testing.assert_array_equal(gt_displacement(labels, radius=10**6, iters=8), want)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        labels = random_label_map(rng, 16, 16)
        relabeled = np.zeros_like(labels)
        for old, new in [(1, 9), (2, 4), (3, 1), (4, 70)]:
            relabeled[labels == old] = new
        f1 = gt_displacement(labels, radius=3, iters=16)
        f2 = gt_displacement(relabeled, radius=3, iters=16)
        np.testing.assert_array_equal(f1, f2)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        labels = random_label_map(rng, 12, 15)
        field = gt_displacement(labels, radius=3, iters=12)
        rot_field = gt_displacement(np.rot90(labels).copy(), radius=3, iters=12)
        h, w = labels.shape
        # np.rot90 sends (r, c) to (w-1-c, r); vectors (dr, dc) become (-dc, dr)
        for r in range(h):
            for c in range(w):
                np.testing.assert_allclose(
                    rot_field[w - 1 - c, r],
                    [-field[r, c, 1], field[r, c, 0]],
                    atol=1e-12,
                )

    def test_background_is_zero(self):
        rng = np.random.default_rng(5)
        labels = random_label_map(rng, 20, 20)
        field = gt_displacement(labels, radius=4, iters=24)
        np.testing.assert_array_equal(field[labels == 0], 0.0)

    def test_contraction_is_monotone(self):
        labels = np.zeros((16, 16), dtype=np.int64)
        labels[2:14, 2:8] = 1
        labels[2:14, 8:14] = 2
        h, w = labels.shape
        pos0 = np.stack(np.mgrid[0:h, 0:w], axis=-1).astype(float)
        prev = None
        for t in range(15):
            pos = pos0 + gt_displacement(labels, radius=3, iters=t)
            spreads = []
            for k in (1, 2):
                mask = labels == k
                centroid = pos0[mask].mean(axis=0)
                spreads.append(np.linalg.norm(pos[mask] - centroid, axis=1).mean())
            if prev is not None:
                assert all(s <= p + 1e-12 for s, p in zip(spreads, prev))
            prev = spreads

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gt_displacement(np.zeros((4, 4)))  # float labels
        with pytest.raises(ValueError):
            gt_displacement(np.zeros((4, 4, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            gt_displacement(-np.ones((4, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            gt_displacement(np.ones((4, 4), dtype=np.int64), radius=0)
        with pytest.raises(ValueError):
            gt_displacement(np.ones((4, 4), dtype=np.int64), iters=-1)
