import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseg.cluster import (
    TransmitGraph,
    build_tg,
    cluster_for_masking,
    connected_components,
    contract,
    gcm,
    recover,
)
from flowseg.diffusion import gt_displacement
from flowseg.grid import GridShape
from flowseg.synth import synth
from oracles import components8


def adherent_squares():
    labels = np.zeros((9, 18), dtype=np.int64)
    labels[:, :9] = 1
    labels[:, 9:] = 2
    return labels


def spiral(n):
    """A one-pixel-wide square spiral on an n x n grid, arms two pixels apart."""
    on = np.zeros((n, n), dtype=bool)

    def inside(r, c):
        return 0 <= r < n and 0 <= c < n

    r, c, dr, dc = 0, 0, 0, 1
    on[r, c] = True
    turns = 0
    while turns < 2:
        # step ahead onto a free pixel unless the one past it is already drawn
        ahead, beyond = (r + dr, c + dc), (r + 2 * dr, c + 2 * dc)
        if inside(*ahead) and not on[ahead] and not (inside(*beyond) and on[beyond]):
            r, c = ahead
            on[r, c] = True
            turns = 0
        else:
            dr, dc = dc, -dr  # turn right
            turns += 1
    return on


def comb(n):
    """One-pixel-wide teeth in every other column, joined by the bottom row."""
    on = np.zeros((n, n), dtype=bool)
    on[:, ::2] = True
    on[-1] = True
    return on


def labelled(binary):
    return connected_components(binary.ravel().astype(float), GridShape(*binary.shape))


class TestBuildTg:
    def test_zero_field_self_loops(self):
        e = np.arange(12).reshape(3, 4)
        tg = build_tg(np.zeros((3, 4, 2)), e)
        np.testing.assert_array_equal(tg.target, np.arange(12))
        np.testing.assert_array_equal(tg.mes, e.ravel())

    def test_targets_clamp_to_grid(self):
        field = np.zeros((4, 4, 2))
        field[0, 0] = (-3.2, 0.0)
        tg = build_tg(field, np.ones((4, 4), dtype=np.int64))
        assert tg.target[0] == 0

    def test_rounding_half_away_from_zero(self):
        field = np.zeros((5, 5, 2))
        field[2, 2] = (0.6, -1.4)   # lands on (2.6, 0.6) -> (3, 1)
        field[1, 1] = (-0.5, 0.5)   # lands on (0.5, 1.5) -> (1, 2)
        tg = build_tg(field, np.ones((5, 5), dtype=np.int64))
        shape = GridShape(5, 5)
        assert tg.target[2 * 5 + 2] == 3 * 5 + 1
        assert tg.target[1 * 5 + 1] == 1 * 5 + 2

    def test_rejects_non_finite_field(self):
        field = np.zeros((3, 3, 2))
        field[1, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_tg(field, np.ones((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf, -np.inf]])
    def test_rejects_non_finite_energy(self, bad):
        # NaN and inf compare unequal to 0, so unchecked they pass for
        # foreground and gcm returns an all-1 map
        e = np.ones((6, 6))
        e.flat[: len(bad)] = bad
        with pytest.raises(ValueError, match="energy must be finite"):
            gcm(np.zeros((6, 6, 2)), e)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            build_tg(np.zeros((3, 3, 2)), np.ones((4, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            build_tg(np.zeros((3, 3)), np.ones((3, 3), dtype=np.int64))

    @pytest.mark.parametrize("dtype", [complex, object, "U1", "datetime64[s]"])
    def test_rejects_an_energy_that_is_not_bool_integer_or_float(self, dtype):
        # a complex energy would lose its imaginary part to the int64 cast
        with pytest.raises(ValueError, match="bool, integer or float"):
            build_tg(np.zeros((2, 2, 2)), np.ones((2, 2)).astype(dtype))

    def test_rejects_a_uint64_energy_whose_messages_would_wrap(self):
        # both vectors land on pixel 0, where 2**63 + 2**63 wraps to 0 in
        # int64: no seed would survive although the energy is nonzero
        field = np.array([[[0.0, 0.0], [0.0, -1.0]]])
        with pytest.raises(ValueError, match="2\\*\\*63"):
            gcm(field, np.array([[2**63, 2**63]], np.uint64))

    @pytest.mark.parametrize(
        "value", [2**61 - 1, 2**61, -(2**61), np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    )
    def test_integer_energy_bound_is_max_abs_times_pixels(self, value):
        # four pixels all landing on pixel 0: one message sums all of them
        field = landing_field(2, 2, np.zeros((2, 2)), np.zeros((2, 2)))
        energy = np.full((2, 2), value, dtype=np.int64)
        if abs(int(value)) * 4 >= 2**63:
            with pytest.raises(ValueError, match="2\\*\\*63"):
                build_tg(field, energy)
        else:
            assert int(contract(build_tg(field, energy), 1).mes[0]) == 4 * int(value)


def rounded_targets(field):
    """The landing targets by the plain formula: ``copysign(floor(|x| + 0.5),
    x)`` on each whole coordinate plane, then clamped into the grid."""
    h, w = field.shape[:2]
    rows, cols = np.divmod(np.arange(h * w, dtype=np.int64), w)

    def plane(pos, shift, n):
        x = pos + shift.ravel()
        return np.clip(np.copysign(np.floor(np.abs(x) + 0.5), x), 0, n - 1).astype(np.int64)

    return plane(rows, field[..., 0], h) * w + plane(cols, field[..., 1], w)


def landing_field(h, w, rows, cols):
    """The field that lands each pixel on the (float) position (rows, cols)."""
    r, c = np.mgrid[0:h, 0:w]
    return np.stack([rows - r, cols - c], axis=-1).astype(np.float64)


class TestBuildTgRounding:
    """Landing targets equal the plain rounding formula on every edge case."""

    def assert_plain(self, field):
        tg = build_tg(field, np.ones(field.shape[:2], dtype=np.int64))
        np.testing.assert_array_equal(tg.target, rounded_targets(field))
        assert tg.target.dtype == np.int64

    def test_landings_on_half_pixels(self):
        # every landing is k + 0.5 or -(k + 0.5), k from -4 to 12, on a 7x9 grid
        rng = np.random.default_rng(0)
        halves = rng.integers(-4, 13, (7, 9, 2)) + 0.5
        halves *= rng.choice([-1.0, 1.0], halves.shape)
        self.assert_plain(landing_field(7, 9, halves[..., 0], halves[..., 1]))

    def test_just_below_one_half(self):
        # 0.49999999999999994 + 0.5 rounds up to 1.0 in float64
        x = 0.49999999999999994
        field = np.zeros((5, 6, 2))
        field[::2, ::2] = x
        field[1::2, 1::2] = -x
        field[::2, 1::2, 0] = x
        field[1::2, ::2, 1] = -x
        self.assert_plain(field)
        self.assert_plain(landing_field(5, 6, np.full((5, 6), x), np.full((5, 6), -x)))

    def test_negative_zero(self):
        field = np.full((4, 5, 2), -0.0)
        field[1, 1] = (0.0, -0.0)
        self.assert_plain(field)
        self.assert_plain(landing_field(4, 5, np.full((4, 5), -0.0), np.full((4, 5), -0.0)))

    def test_landings_off_every_edge(self):
        field = np.zeros((6, 8, 2))
        field[0, :, 0] = -1.5   # above the top row
        field[-1, :, 0] = 1.5   # below the bottom row
        field[:, 0, 1] = -0.7   # left of the first column
        field[:, -1, 1] = 2.5   # right of the last column
        field[2, 3] = (-9.5, 9.5)
        field[3, 4] = (9.5, -9.5)
        self.assert_plain(field)

    def test_displacements_near_1e15(self):
        rng = np.random.default_rng(1)
        field = rng.choice([-1.0, 1.0], (5, 7, 2)) * (1e15 + rng.integers(0, 8, (5, 7, 2)) / 8)
        field[2, 3] = (0.5, -0.5)
        self.assert_plain(field)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (7, 13), (13, 5), (31, 17)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_fields_on_odd_grids(self, shape, seed):
        rng = np.random.default_rng(seed)
        field = rng.normal(0.0, 3.0, (*shape, 2))
        field[rng.random(shape) < 0.3] = rng.integers(-6, 7, (2,)) + 0.5
        self.assert_plain(field)


class TestContract:
    def test_line_example(self):
        tg = TransmitGraph(GridShape(1, 3), np.array([1, 1, 1]), np.array([1, 1, 1]))
        out = contract(tg, 1)
        np.testing.assert_array_equal(out.mes, [0, 3, 0])

    def test_self_loops_keep_messages(self):
        mes = np.array([4, 0, 7, 2])
        tg = TransmitGraph(GridShape(2, 2), np.arange(4), mes)
        for t0 in (0, 1, 5):
            np.testing.assert_array_equal(contract(tg, t0).mes, mes)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=40)
    def test_total_message_conserved(self, seed, t0):
        rng = np.random.default_rng(seed)
        n = 24
        tg = TransmitGraph(
            GridShape(4, 6),
            rng.integers(0, n, size=n),
            rng.integers(0, 10, size=n),
        )
        assert contract(tg, t0).mes.sum() == tg.mes.sum()

    def test_integer_messages_stay_integer(self):
        tg = TransmitGraph(GridShape(1, 3), np.array([1, 1, 1]), np.array([1, 1, 1]))
        assert np.issubdtype(contract(tg, 3).mes.dtype, np.integer)

    def test_rejects_negative_rounds(self):
        tg = TransmitGraph(GridShape(1, 2), np.array([0, 1]), np.array([1, 1]))
        with pytest.raises(ValueError):
            contract(tg, -1)


@pytest.fixture(scope="module")
def voronoi_field():
    return gt_displacement(synth("random-voronoi", (128, 128), 1))


class TestNarrowEnergy:
    """A bool or narrow integer energy gives int64 messages, so a node that
    gathers more than the energy's dtype holds keeps the exact count."""

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.int16])
    @pytest.mark.parametrize("t0", [1, 2, 8])
    def test_total_message_conserved(self, voronoi_field, dtype, t0):
        tg = build_tg(voronoi_field, np.ones((128, 128), dtype=dtype))
        assert contract(tg, t0).mes.sum() == 128 * 128

    def test_a_seed_of_256_messages_survives_uint8_energy(self):
        rr, cc = np.mgrid[0:16, 0:16]
        field = np.stack([8 - rr, 8 - cc], axis=-1).astype(np.float64)
        narrow = gcm(field, np.ones((16, 16), dtype=np.uint8), t0=1, t1=1)
        wide = gcm(field, np.ones((16, 16), dtype=np.int64), t0=1, t1=1)
        np.testing.assert_array_equal(wide, np.ones((16, 16)))
        np.testing.assert_array_equal(narrow, wide)


class TestConnectedComponents:
    def test_all_zero(self):
        out = connected_components(np.zeros(12), GridShape(3, 4))
        np.testing.assert_array_equal(out, 0)

    def test_two_blobs(self):
        mes = np.zeros((5, 5))
        mes[0:2, 0:2] = 3.5
        mes[3:5, 3:5] = 1.0
        out = connected_components(mes.ravel(), GridShape(5, 5))
        assert set(np.unique(out)) == {0, 1, 2}
        assert out[0, 0] == 1  # raster order of first encounter
        assert out[4, 4] == 2

    def test_diagonal_touch_is_one_component(self):
        mes = np.zeros((4, 4))
        mes[0, 0] = 1
        mes[1, 1] = 1
        out = connected_components(mes.ravel(), GridShape(4, 4))
        assert out[0, 0] == out[1, 1] == 1

    @given(
        st.integers(1, 40), st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=60)
    def test_matches_scipy_oracle(self, h, w, density, seed):
        binary = np.random.default_rng(seed).random((h, w)) < density
        out = connected_components(binary.ravel().astype(float), GridShape(h, w))
        np.testing.assert_array_equal(out, components8(binary))
        # ids are 1..k, numbered in raster order of each component's first pixel
        ids, first = np.unique(out.ravel(), return_index=True)
        k = int(out.max())
        np.testing.assert_array_equal(ids[ids > 0], np.arange(1, k + 1))
        assert np.all(np.diff(first[ids > 0]) > 0)

    @pytest.mark.parametrize("turn", range(4))
    @pytest.mark.parametrize("shape_fn", [spiral, comb])
    def test_one_pixel_wide_shapes_are_one_component(self, shape_fn, turn):
        # the most union-find rounds: every row cuts the shape into many runs
        # whose links reach the first run only through long chains
        binary = np.rot90(shape_fn(23), turn)
        out = labelled(binary)
        np.testing.assert_array_equal(out, components8(binary))
        assert out.max() == 1

    def test_checkerboard_is_connected_only_diagonally(self):
        binary = np.indices((9, 14)).sum(axis=0) % 2 == 0
        out = labelled(binary)
        np.testing.assert_array_equal(out, components8(binary))
        assert out.max() == 1

    @pytest.mark.parametrize("hw", [(1, 1), (1, 17), (17, 1)])
    @pytest.mark.parametrize("fill", ["off", "on", "alternating", "pairs"])
    def test_thin_and_constant_grids(self, hw, fill):
        n = hw[0] * hw[1]
        binary = {
            "off": np.zeros(n, dtype=bool),
            "on": np.ones(n, dtype=bool),
            "alternating": np.arange(n) % 2 == 0,
            "pairs": np.arange(n) % 3 != 2,
        }[fill].reshape(hw)
        np.testing.assert_array_equal(labelled(binary), components8(binary))

    @pytest.mark.parametrize("density", [0.35, 0.41, 0.5])
    def test_random_maps_around_the_percolation_threshold(self, density):
        # 8-connected site percolation sets in near density 0.41
        binary = np.random.default_rng(int(density * 100)).random((200, 300)) < density
        np.testing.assert_array_equal(labelled(binary), components8(binary))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_message(self, bad):
        # unchecked, NaN != 0 made the pixel a seed and the map looked finite
        with pytest.raises(ValueError, match="message must be finite"):
            connected_components(np.array([bad, 0, 1, 0]), GridShape(2, 2))

    def test_a_contraction_that_overflows_raises(self):
        field = np.zeros((1, 2, 2))
        field[0, 1] = (0, -1)  # both pixels send to pixel 0
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            gcm(field, np.full((1, 2), 1e308))

    def test_a_run_that_ends_a_row_stops_before_the_next_row(self):
        # each run that ends a row is followed by one that starts the next
        binary = np.array([[0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0]], dtype=bool)
        got = labelled(binary)
        np.testing.assert_array_equal(got, [[0, 0, 1, 1], [2, 0, 0, 0], [0, 0, 0, 3], [4, 4, 0, 0]])
        # contiguous, so recover reads it without a copy
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_rejects_a_message_of_the_wrong_length(self, n):
        with pytest.raises(ValueError, match="entries"):
            connected_components(np.ones(n), GridShape(2, 2))


class TestReverseRecover:
    def test_recover_chain(self):
        # tg edges 0 -> 1 -> 2 (2 self-loops); labels flow back in two rounds
        tg = TransmitGraph(GridShape(1, 3), np.array([1, 2, 2]), np.zeros(3))
        ins = np.array([[0, 0, 5]])
        np.testing.assert_array_equal(recover(tg, ins, 2), [[5, 5, 5]])
        np.testing.assert_array_equal(recover(tg, ins, 1), [[0, 5, 5]])

    def test_recover_zero_rounds_is_identity(self):
        tg = TransmitGraph(GridShape(1, 3), np.array([1, 2, 2]), np.zeros(3))
        ins = np.array([[3, 0, 5]])
        np.testing.assert_array_equal(recover(tg, ins, 0), ins)

    def test_recover_self_loops_keep_labels(self):
        tg = TransmitGraph(GridShape(2, 2), np.arange(4), np.zeros(4))
        ins = np.array([[1, 2], [0, 3]])
        np.testing.assert_array_equal(recover(tg, ins, 7), ins)

    def test_recover_label_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        tg = TransmitGraph(GridShape(4, 4), rng.integers(0, 16, 16), np.zeros(16))
        ins = rng.integers(0, 4, size=(4, 4))
        perm = np.array([0, 7, 5, 9])  # 0 stays 0
        np.testing.assert_array_equal(
            recover(tg, perm[ins], 5), perm[recover(tg, ins, 5)]
        )

    def test_recover_rejects_negative_rounds(self):
        tg = TransmitGraph(GridShape(1, 3), np.array([1, 2, 2]), np.zeros(3))
        with pytest.raises(ValueError, match="t1 must be >= 0"):
            recover(tg, np.zeros((1, 3), int), -1)

    def test_recover_rejects_a_map_of_another_shape(self):
        tg = TransmitGraph(GridShape(1, 3), np.array([1, 2, 2]), np.zeros(3))
        with pytest.raises(ValueError, match="instance map shape"):
            recover(tg, np.zeros((3, 1), int), 1)


def plain_rounds(target, ins, t1):
    mes = ins.ravel().copy()
    for _ in range(t1):
        mes = mes[target]
    return mes.reshape(ins.shape)


class TestRecoverBySquaring:
    """``recover`` reads ``ins`` through ``target`` composed by squaring; it
    must equal ``t1`` plain gather rounds for every count."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_plain_rounds(self, dtype, seed):
        rng = np.random.default_rng(seed)
        h, w = 9, 11
        # a random map: cycles of every length, trees hanging off them
        target = rng.integers(0, h * w, h * w)
        loops = rng.random(h * w) < 0.2
        target[loops] = np.flatnonzero(loops)
        tg = TransmitGraph(GridShape(h, w), target, np.zeros(h * w))
        # a non-contiguous view, which recover has to copy before its lookup
        ins = rng.integers(0, 200, (h, w + 1)).astype(dtype)[:, :-1]
        assert not ins.flags.c_contiguous
        for t1 in range(21):
            got = recover(tg, ins, t1)
            np.testing.assert_array_equal(got, plain_rounds(target, ins, t1), err_msg=str(t1))
            assert got.dtype == dtype and not np.shares_memory(got, ins)


class TestGcm:
    def test_zero_field_reduces_to_components(self):
        rng = np.random.default_rng(1)
        energy = (rng.random((10, 12)) < 0.35).astype(np.int64)
        out = gcm(np.zeros((10, 12, 2)), energy)
        np.testing.assert_array_equal(out, components8(energy))

    def test_zero_energy_gives_no_instances(self):
        out = gcm(np.zeros((6, 6, 2)), np.zeros((6, 6), dtype=np.int64))
        np.testing.assert_array_equal(out, 0)

    def test_round_trip_on_adherent_squares(self):
        labels = adherent_squares()
        ids = gcm(gt_displacement(labels), (labels > 0).astype(np.int64))
        assert set(np.unique(ids)) == {1, 2}
        for k in (1, 2):
            vals = np.unique(ids[labels == k])
            assert len(vals) == 1
            np.testing.assert_array_equal(ids == vals[0], labels == k)

    def test_adhesion_needs_the_field(self):
        labels = adherent_squares()
        energy = (labels > 0).astype(np.int64)
        merged = gcm(np.zeros(labels.shape + (2,)), energy)
        assert len(np.unique(merged[merged > 0])) == 1
        split = gcm(gt_displacement(labels), energy)
        assert len(np.unique(split[split > 0])) == 2


class TestClusterForMasking:
    def test_zero_field_is_one_cluster(self):
        out = cluster_for_masking(np.zeros((16, 16, 2)), patch=4)
        assert out.shape == (4, 4)
        assert set(np.unique(out)) == {1}

    def test_patch_one_matches_gcm_with_unit_energy(self):
        labels = adherent_squares()
        field = gt_displacement(labels)
        ones = np.ones(labels.shape, dtype=np.int64)
        np.testing.assert_array_equal(
            cluster_for_masking(field, patch=1), gcm(field, ones)
        )

    def test_two_instances_separate_on_feature_grid(self):
        labels = np.zeros((16, 32), dtype=np.int64)
        labels[:, :16] = 1
        labels[:, 16:] = 2
        field = gt_displacement(labels)
        cls = cluster_for_masking(field, patch=4)
        majority = labels[::4, ::4]  # blocks are label-pure here
        assert len(np.unique(cls)) == 2
        for k in (1, 2):
            assert len(np.unique(cls[majority == k])) == 1
        assert cls[0, 0] != cls[0, 7]

    def test_every_node_gets_a_cluster(self):
        rng = np.random.default_rng(2)
        field = rng.normal(scale=2.0, size=(12, 12, 2))
        out = cluster_for_masking(field, patch=2)
        assert (out > 0).all()

    def test_rejects_non_divisible_shapes(self):
        with pytest.raises(ValueError, match="divisible"):
            cluster_for_masking(np.zeros((10, 12, 2)), patch=4)

    def test_rejects_a_field_that_is_not_two_planes(self):
        with pytest.raises(ValueError, match=r"field must be \(h, w, 2\)"):
            cluster_for_masking(np.zeros((8, 8, 3)))

