import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flowseg.getconv
import flowseg.grid
from flowseg.getconv import (
    LayerParams,
    depthwise,
    diffusivity,
    diffusivity_jvp,
    getblock_forward,
    getblock_forward_jvp,
    getconv_forward,
    getconv_forward_jvp,
    pointwise,
    query_messages,
    random_layer_params,
)
from flowseg.grid import (
    GridShape,
    _on_two_threads,
    _row_blocks,
    disk,
    grid_adjacency,
    square,
    stencil_sum,
)
from oracles import (
    in_grid,
    oracle_depthwise,
    oracle_diffusivity,
    oracle_getblock,
    oracle_getconv,
    oracle_query_messages,
)


def zero_mlp_params(channels, n_slots, gamma=None, beta=None, dw=None, pw=None):
    return LayerParams(
        w1=np.zeros((channels, channels)),
        b1=np.zeros(channels),
        w2=np.zeros((channels, n_slots)),
        b2=np.zeros(n_slots),
        gamma=np.ones(channels) if gamma is None else gamma,
        beta=np.zeros(channels) if beta is None else beta,
        dw=dw,
        pw=pw,
    )


class TestQueryMessages:
    def test_zero_params_give_zero_queries(self):
        adj = grid_adjacency(GridShape(3, 3), square(3))
        z = np.random.default_rng(0).normal(size=(9, 4))
        np.testing.assert_array_equal(
            query_messages(z, zero_mlp_params(4, adj.n_slots)), 0.0
        )

    def test_identical_rows_map_identically(self):
        rng = np.random.default_rng(1)
        params = random_layer_params(rng, 4, 8)
        z = np.tile(rng.normal(size=(1, 4)), (6, 1))
        q = query_messages(z, params)
        np.testing.assert_array_equal(q, np.tile(q[:1], (6, 1)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        params = random_layer_params(rng, 5, 8)
        z = rng.normal(size=(12, 5))
        np.testing.assert_allclose(
            query_messages(z, params), oracle_query_messages(z, params), atol=1e-12
        )

    def test_rejects_bad_shapes(self):
        params = random_layer_params(np.random.default_rng(0), 4, 8)
        with pytest.raises(ValueError):
            query_messages(np.zeros((5, 3)), params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_features(self, bad):
        # an inf feature used to come out as inf or NaN queries
        params = random_layer_params(np.random.default_rng(0), 4, 8)
        z = np.zeros((5, 4))
        z[2, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            query_messages(z, params)


class TestDiffusivity:
    def test_zero_queries_give_unit_edges(self):
        adj = grid_adjacency(GridShape(3, 4), square(3))
        s = diffusivity(np.zeros((12, 8)), adj)
        ok = in_grid(3, 4, square(3))
        np.testing.assert_array_equal(s[ok], 1.0)
        np.testing.assert_array_equal(s[~ok], 0.0)

    def test_two_node_symmetry(self):
        adj = grid_adjacency(GridShape(1, 2), square(3))
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 8))
        s = diffusivity(q, adj)
        # node 0's right slot is 4, node 1's left slot is 3
        assert s[0, 4] == pytest.approx(np.exp(q[0, 4] + q[1, 3]), abs=0)
        assert s[0, 4] == s[1, 3]

    def test_matches_brute_force_oracle_exactly(self):
        rng = np.random.default_rng(4)
        adj = grid_adjacency(GridShape(3, 3), square(3))
        q = rng.normal(size=(9, 8))
        np.testing.assert_array_equal(
            diffusivity(q, adj), oracle_diffusivity(q, 3, 3, square(3))
        )

    def test_symmetric_on_every_edge(self):
        rng = np.random.default_rng(5)
        adj = grid_adjacency(GridShape(4, 5), square(3))
        s = diffusivity(rng.normal(size=(20, 8)), adj)
        ok = in_grid(4, 5, square(3))
        for i in range(20):
            for c in range(8):
                if ok[i, c]:
                    assert s[i, c] == s[adj.nbr_safe[i, c], adj.recip[c]]

    def test_unmasked_edges_are_positive(self):
        rng = np.random.default_rng(6)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        s = diffusivity(rng.normal(scale=20.0, size=(16, 8)), adj)
        assert (s[in_grid(4, 4, square(3))] > 0).all()

    def test_rejects_queries_of_another_shape(self):
        adj = grid_adjacency(GridShape(2, 2), square(3))
        with pytest.raises(ValueError, match=r"queries must be \(4, 8\), got \(4, 9\)"):
            diffusivity(np.zeros((4, 9)), adj)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_queries(self, bad):
        # a +inf query used to come out as the finite clamped weight exp(30)
        adj = grid_adjacency(GridShape(2, 2), square(3))
        q = np.zeros((4, 8))
        q[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            diffusivity(q, adj)
        with pytest.raises(ValueError, match="finite"):
            diffusivity_jvp(q, np.ones_like(q), adj)

    def test_exponent_clamp(self):
        adj = grid_adjacency(GridShape(1, 2), square(3))
        s = diffusivity(np.full((2, 8), 100.0), adj)
        np.testing.assert_array_equal(s[in_grid(1, 2, square(3))], np.exp(30.0))

    @pytest.mark.parametrize(
        "relaid",
        [
            np.asfortranarray,
            lambda x: np.ascontiguousarray(x.T).T,
            lambda x: np.repeat(x, 2, axis=1)[:, ::2],
        ],
        ids=["fortran", "transposed", "strided"],
    )
    def test_any_memory_layout_gives_the_c_ordered_weights(self, relaid):
        # the weights gather from a flat index into the queries, which must
        # mean the C-ordered table whatever the caller's layout
        rng = np.random.default_rng(34)
        adj = grid_adjacency(GridShape(7, 9), disk(2))  # N odd
        q, dq = (rng.normal(scale=10.0, size=adj.nbr_safe.shape) for _ in range(2))
        assert not relaid(q).flags.c_contiguous
        want = [diffusivity(q, adj), *diffusivity_jvp(q, dq, adj)]
        got = [diffusivity(relaid(q), adj), *diffusivity_jvp(relaid(q), relaid(dq), adj)]
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestGetconvForward:
    def test_fully_masked_is_identity(self):
        adj = grid_adjacency(GridShape(3, 3), square(3))
        rng = np.random.default_rng(7)
        z = rng.normal(size=(9, 4))
        params = random_layer_params(rng, 4, adj.n_slots)
        params.gamma = np.ones(4)
        params.beta = np.zeros(4)
        out = getconv_forward(z, adj, params, clusters=np.arange(9))
        np.testing.assert_array_equal(out, z)

    @pytest.mark.parametrize("tied", [False, True], ids=["plain", "tied"])
    def test_matches_dense_oracle(self, tied):
        # tied: every slot's query is the first column's, the isotropic
        # contrast of the isomorphism probe
        rng = np.random.default_rng(8)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        z = rng.normal(size=(16, 4))
        params = random_layer_params(rng, 4, adj.n_slots)
        if tied:
            n = adj.n_slots
            params = dataclasses.replace(
                params, w2=np.repeat(params.w2[:, :1], n, axis=1), b2=np.full(n, params.b2[0])
            )
        np.testing.assert_allclose(
            getconv_forward(z, adj, params),
            oracle_getconv(z, 4, 4, square(3), params),
            atol=1e-10,
        )

    def test_masked_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        z = rng.normal(size=(16, 3))
        params = random_layer_params(rng, 3, adj.n_slots)
        cls = rng.integers(0, 3, size=16)
        np.testing.assert_allclose(
            getconv_forward(z, adj, params, clusters=cls),
            oracle_getconv(z, 4, 4, square(3), params, cls=cls, norm_groups=cls),
            atol=1e-10,
        )

    def test_masked_output_ignores_other_clusters(self):
        rng = np.random.default_rng(10)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        z = rng.normal(size=(16, 4))
        params = random_layer_params(rng, 4, adj.n_slots)
        cls = np.repeat([1, 2], 8)
        base = getconv_forward(z, adj, params, clusters=cls)
        bumped = z.copy()
        bumped[cls == 2] += rng.uniform(-1e3, 1e3, size=(8, 4))
        out = getconv_forward(bumped, adj, params, clusters=cls)
        np.testing.assert_array_equal(out[cls == 1], base[cls == 1])

    def test_single_cluster_is_the_plain_forward(self):
        rng = np.random.default_rng(11)
        adj = grid_adjacency(GridShape(5, 6), disk(2))
        z = rng.normal(size=(30, 4))
        dz = rng.normal(size=z.shape)
        params = random_layer_params(rng, 4, adj.n_slots)
        one = np.ones(30, dtype=int)
        np.testing.assert_array_equal(
            getconv_forward(z, adj, params, clusters=one), getconv_forward(z, adj, params)
        )
        for got, want in zip(
            getconv_forward_jvp(z, dz, adj, params, clusters=one),
            getconv_forward_jvp(z, dz, adj, params),
        ):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("channels", [0, 1, 6])
    def test_each_cluster_standardizes_as_if_alone(self, monkeypatch, channels):
        # the clusters of one size share a chunk, yet each cluster's mean is
        # summed over its own rows in row order; at 8 and 9 rows a pairwise
        # or segment sum rounds differently
        rng = np.random.default_rng(12)
        sizes = [1, 1, 2, 3, 3, 4, 5, 6, 7, 8, 8, 9, 9]
        cls = rng.permutation(np.repeat(7 * np.arange(len(sizes)) - 20, sizes))
        scale = 10.0 ** rng.uniform(-3, 3, size=(len(cls), channels))
        x, dx = scale * rng.normal(size=scale.shape), scale * rng.normal(size=scale.shape)
        if channels > 1:
            x[:, 1] = 0.1  # a constant channel
        want, dwant = x.copy(), dx.copy()
        for k in np.unique(cls):
            rows = np.flatnonzero(cls == k)
            alone, dalone = x[rows], dx[rows]
            flowseg.getconv._standardize(alone, dalone, None)
            want[rows], dwant[rows] = alone, dalone
        # at 16 entries a chunk holds one or two clusters of one size, and a
        # cluster of more entries is a chunk of its own
        for budget in (flowseg.grid._BLOCK_ENTRIES, 16):
            monkeypatch.setattr(flowseg.grid, "_BLOCK_ENTRIES", budget)
            got, dgot, fwd = x.copy(), dx.copy(), x.copy()
            flowseg.getconv._standardize(got, dgot, cls)
            flowseg.getconv._standardize(fwd, None, cls)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(dgot, dwant)
            np.testing.assert_array_equal(fwd, want)

    def test_rejects_non_integer_clusters(self):
        # a NaN id used to fall in no group, leaving its output rows unwritten
        ids = np.r_[np.zeros(8), np.full(8, np.nan)]
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_layer_params(np.random.default_rng(0), 3, adj.n_slots)
        z = np.random.default_rng(1).normal(size=(16, 3))
        with pytest.raises(ValueError, match="cluster ids must be integer"):
            getconv_forward(z, adj, params, clusters=ids)
        with pytest.raises(ValueError, match="cluster ids must be integer"):
            getconv_forward_jvp(z, z, adj, params, clusters=ids)

    def test_rejects_clusters_not_covering_the_grid(self):
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_layer_params(np.random.default_rng(0), 3, adj.n_slots)
        with pytest.raises(ValueError, match="cover all nodes"):
            getconv_forward(np.zeros((16, 3)), adj, params, clusters=np.ones(15, int))

    def test_rejects_features_of_another_node_count(self):
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_layer_params(np.random.default_rng(0), 3, adj.n_slots)
        with pytest.raises(ValueError, match=r"features must be .*, got \(15, 3\)"):
            getconv_forward(np.zeros((15, 3)), adj, params)

    def test_rejects_single_node_grid(self):
        adj = grid_adjacency(GridShape(1, 1), square(3))
        params = random_layer_params(np.random.default_rng(0), 2, adj.n_slots)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            getconv_forward(np.zeros((1, 2)), adj, params)


class TestNonFiniteInput:
    """One NaN used to standardize its whole channel to finite zeros."""

    def _nan_grid(self, bad=np.nan):
        z = np.random.default_rng(21).normal(size=(4, 4, 3))
        z[1, 2, 0] = bad
        return z

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_forward_rejects_non_finite(self, bad):
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_layer_params(np.random.default_rng(0), 3, adj.n_slots)
        with pytest.raises(ValueError, match="finite"):
            getconv_forward(self._nan_grid(bad).reshape(16, 3), adj, params)

    def test_jvp_rejects_nan(self):
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_layer_params(np.random.default_rng(0), 3, adj.n_slots)
        z = self._nan_grid().reshape(16, 3)
        with pytest.raises(ValueError, match="finite"):
            getconv_forward_jvp(z, np.ones_like(z), adj, params)

    def test_getblock_rejects_nan(self):
        params = random_layer_params(np.random.default_rng(0), 3, 8, kernel=3)
        z = self._nan_grid()
        with pytest.raises(ValueError, match="finite"):
            getblock_forward(z, square(3), params)
        with pytest.raises(ValueError, match="finite"):
            getblock_forward_jvp(z, np.ones_like(z), square(3), params)


def _tangent_jvps():
    """Each JVP with finite inputs as a function of its tangent, and the shape
    that tangent must have."""
    rng = np.random.default_rng(22)
    adj = grid_adjacency(GridShape(4, 4), square(3))
    z = rng.normal(size=(16, 3))
    params = random_layer_params(rng, 3, adj.n_slots, kernel=3)
    q = query_messages(z, params)
    return {
        "diffusivity": (lambda t: diffusivity_jvp(q, t, adj), (16, 8)),
        "getconv": (lambda t: getconv_forward_jvp(z, t, adj, params), z.shape),
        "getblock": (
            lambda t: getblock_forward_jvp(z.reshape(4, 4, 3), t, square(3), params),
            (4, 4, 3),
        ),
    }


def _bad_tangent_jvps():
    """Each JVP with finite inputs and a tangent holding ``bad`` at one entry."""

    def with_bad(jvp, shape):
        def call(bad):
            t = np.ones(shape)
            t.flat[0] = bad  # node 0: the column every off-grid slot points at
            return jvp(t)

        return call

    return {name: with_bad(*entry) for name, entry in _tangent_jvps().items()}


class TestEmptyTables:
    """square(1) has no slots and C = 0 has no channels; the finiteness checks
    used to fail on them with numpy's zero-size reduction error."""

    def test_zero_slot_stencil_adds_only_the_shift(self):
        rng = np.random.default_rng(23)
        adj = grid_adjacency(GridShape(4, 4), square(1))
        assert adj.n_slots == 0
        params = random_layer_params(rng, 3, 0)
        z, dz = rng.normal(size=(16, 3)), rng.normal(size=(16, 3))
        out = getconv_forward(z, adj, params)
        np.testing.assert_array_equal(out, z + params.beta)
        primal, tangent = getconv_forward_jvp(z, dz, adj, params)
        np.testing.assert_array_equal(primal, out)
        np.testing.assert_array_equal(tangent, dz)

    def test_zero_channels(self):
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_layer_params(np.random.default_rng(24), 0, adj.n_slots)
        assert getconv_forward(np.zeros((16, 0)), adj, params).shape == (16, 0)

    def test_zero_channel_block(self):
        params = random_layer_params(np.random.default_rng(26), 0, 8, kernel=3)
        z = np.zeros((7, 9, 0))
        assert getblock_forward(z, square(3), params).shape == (7, 9, 0)

    def test_zero_channel_block_jvp(self):
        params = random_layer_params(np.random.default_rng(26), 0, 8, kernel=3)
        z = np.zeros((7, 9, 0))
        primal, tangent = getblock_forward_jvp(z, z, square(3), params)
        assert primal.shape == tangent.shape == (7, 9, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_still_rejects_non_finite(self, bad):
        rng = np.random.default_rng(25)
        adj = grid_adjacency(GridShape(4, 4), square(1))
        params = random_layer_params(rng, 3, 0)
        z = rng.normal(size=(16, 3))
        worse = z.copy()
        worse[5, 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            getconv_forward(worse, adj, params)
        with pytest.raises(ValueError, match="tangent must be finite"):
            getconv_forward_jvp(z, worse, adj, params)


@pytest.mark.parametrize("jvp", sorted(_bad_tangent_jvps()))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jvp_rejects_a_non_finite_tangent(jvp, bad):
    # an off-grid slot's 0.0 weight times an inf at node 0 would be NaN
    with pytest.raises(ValueError, match="tangent must be finite"):
        _bad_tangent_jvps()[jvp](bad)


def _refuse_threads(monkeypatch):
    def refuse(fn, blocks):
        raise AssertionError("work started before the tangent was checked")

    for module in (flowseg.grid, flowseg.getconv):
        monkeypatch.setattr(module, "_on_two_threads", refuse)


@pytest.mark.parametrize("jvp", sorted(_bad_tangent_jvps()))
@pytest.mark.parametrize("shape", ["(1, C)", "(C,)", "transposed", "None"])
def test_jvp_rejects_a_wrongly_shaped_tangent(monkeypatch, jvp, shape):
    # a short tangent read by row blocks could pass as empty slices, and with
    # no tangent the layer's shared core runs a plain forward; each JVP must
    # refuse either with its own message before any work starts
    call, want = _tangent_jvps()[jvp]
    bad = {
        "(1, C)": np.ones((1, want[-1])),
        "(C,)": np.ones(want[-1]),
        "transposed": np.ones(want[::-1]),
        "None": None,
    }[shape]
    _refuse_threads(monkeypatch)
    with pytest.raises(ValueError, match=r"tangent must be \(" + ", ".join(map(str, want))):
        call(bad)


class TestGetblockForward:
    def test_neutral_convs_reduce_to_getconv(self):
        rng = np.random.default_rng(11)
        h, w, cdim = 5, 6, 3
        adj = grid_adjacency(GridShape(h, w), square(3))
        dw = np.zeros((cdim, 3, 3))
        dw[:, 1, 1] = 1.0  # identity depthwise
        params = zero_mlp_params(cdim, adj.n_slots, dw=dw, pw=np.eye(cdim))
        z = rng.normal(size=(h, w, cdim))
        out = getblock_forward(z, square(3), params)
        ref = getconv_forward(z.reshape(-1, cdim), adj, params)
        np.testing.assert_allclose(out.reshape(-1, cdim), ref, atol=1e-12)

    def test_zero_kernels_give_identity(self):
        rng = np.random.default_rng(12)
        cdim = 4
        params = random_layer_params(rng, cdim, 8, kernel=3)
        params.dw = np.zeros_like(params.dw)
        params.pw = np.zeros_like(params.pw)
        params.beta = np.zeros(cdim)
        z = rng.normal(size=(6, 6, cdim))
        np.testing.assert_array_equal(getblock_forward(z, square(3), params), z)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        params = random_layer_params(rng, 3, 8, kernel=3)
        z = rng.normal(size=(8, 8, 3))
        np.testing.assert_allclose(
            getblock_forward(z, square(3), params),
            oracle_getblock(z, square(3), params),
            atol=1e-10,
        )

    def test_requires_kernels(self):
        params = random_layer_params(np.random.default_rng(0), 3, 8)
        with pytest.raises(ValueError, match="dw and pw"):
            getblock_forward(np.zeros((4, 4, 3)), square(3), params)

    def test_jvp_validates_like_the_forward(self):
        no_kernels = random_layer_params(np.random.default_rng(0), 3, 8)
        with_kernels = random_layer_params(np.random.default_rng(0), 3, 8, kernel=3)
        for z, params, message in [
            (np.zeros((4, 4, 3)), no_kernels, "dw and pw"),
            (np.zeros((16, 3)), with_kernels, r"\(h, w, C\)"),
        ]:
            with pytest.raises(ValueError, match=message):
                getblock_forward(z, square(3), params)
            with pytest.raises(ValueError, match=message):
                getblock_forward_jvp(z, z, square(3), params)


def test_block_scans_its_grid_and_tangent_twice(monkeypatch):
    # a NaN or inf scan of a 160x160x32 grid takes about 0.6 ms: the block
    # checks its input and depthwise checks it again, and nothing else should
    rng = np.random.default_rng(14)
    params = random_layer_params(rng, 3, 8, kernel=3)
    grid, dgrid = rng.normal(size=(6, 7, 3)), rng.normal(size=(6, 7, 3))
    scanned = []
    check = flowseg.grid.require_finite

    def spy(x, what):
        scanned.append(x)
        return check(x, what)

    for module in (flowseg.grid, flowseg.getconv):
        monkeypatch.setattr(module, "require_finite", spy)
    scans_of = lambda a: sum(np.shares_memory(x, a) for x in scanned)
    getblock_forward(grid, square(3), params)
    assert scans_of(grid) == 2
    scanned.clear()
    getblock_forward_jvp(grid, dgrid, square(3), params)
    assert scans_of(grid) == 2 and scans_of(dgrid) == 2


class TestDepthwise:
    @pytest.mark.parametrize("h, w, k", [(6, 7, 1), (6, 7, 3), (6, 7, 5), (3, 2, 5)])
    def test_matches_oracle(self, h, w, k):
        rng = np.random.default_rng(100 * h + k)
        img = rng.normal(size=(h, w, 3))
        kernels = rng.normal(size=(3, k, k))
        np.testing.assert_allclose(
            depthwise(img, kernels), oracle_depthwise(img, kernels), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "shape", [(3, 2, 2), (3, 4, 4), (3, 3, 5), (2, 3, 3), (4, 3, 3), (3, 3)]
    )
    def test_rejects_even_non_square_or_mismatched_kernels(self, shape):
        with pytest.raises(ValueError, match="k odd"):
            depthwise(np.zeros((4, 4, 3)), np.zeros(shape))

    def test_rejects_a_flat_grid(self):
        with pytest.raises(ValueError, match=r"grid features must be \(h, w, C\), got \(16, 3\)"):
            depthwise(np.zeros((16, 3)), np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_grid_features(self, bad):
        # an inf pixel used to come out as inf, or as NaN wherever a kernel tap is 0
        img = np.zeros((4, 4, 3))
        img[1, 2, 0] = bad
        with pytest.raises(ValueError, match="grid features must be finite"):
            depthwise(img, np.ones((3, 3, 3)))


def test_pointwise_takes_a_list_kernel():
    # a nested list used to raise AttributeError: 'list' object has no attribute 'T'
    kernel = [[0, 1, 0], [0, 0, 1], [2, 0, 0]]
    img = np.arange(12.0).reshape(2, 2, 3)
    out = pointwise(img, kernel)
    np.testing.assert_array_equal(out, img @ np.array(kernel, dtype=float).T)
    np.testing.assert_array_equal(out[0, 0], [1.0, 2.0, 0.0])


def test_jvps_do_not_call_the_forward_primitives(monkeypatch):
    # wrappers put around query_messages and diffusivity (timing, counting)
    # must see forward passes only
    def refuse(*args):
        raise AssertionError("called from a JVP")

    monkeypatch.setattr(flowseg.getconv, "query_messages", refuse)
    monkeypatch.setattr(flowseg.getconv, "diffusivity", refuse)
    rng = np.random.default_rng(20)
    adj = grid_adjacency(GridShape(4, 4), square(3))
    z = rng.normal(size=(16, 3))
    getconv_forward_jvp(z, z, adj, random_layer_params(rng, 3, 8))
    grid = z.reshape(4, 4, 3)
    getblock_forward_jvp(grid, grid, square(3), random_layer_params(rng, 3, 8, kernel=3))


def test_a_rolled_neighbour_table_changes_the_aggregate():
    # every neighbourhood sum must read the adjacency it is handed, not a
    # pattern cached by shape and stencil
    rng = np.random.default_rng(21)
    adj = grid_adjacency(GridShape(6, 7), square(3))
    wrong = dataclasses.replace(adj, nbr_safe=np.roll(adj.nbr_safe, 1, axis=1))
    z = rng.normal(size=(42, 3))
    ok = in_grid(6, 7, square(3))
    weights = np.where(ok, rng.random(ok.shape), 0.0)
    assert not np.array_equal(stencil_sum(weights, z, wrong), stencil_sum(weights, z, adj))
    params = random_layer_params(rng, 3, adj.n_slots)
    assert not np.array_equal(getconv_forward(z, wrong, params), getconv_forward(z, adj, params))


def test_a_wrong_reciprocal_table_changes_the_aggregate():
    # the weight of edge (i, j) must read j's query at the slot pointing back
    # at i, as the adjacency it is handed says
    rng = np.random.default_rng(23)
    adj = grid_adjacency(GridShape(6, 7), square(3))
    wrong = dataclasses.replace(adj, recip=np.arange(adj.n_slots))
    z = rng.normal(size=(42, 3))
    params = random_layer_params(rng, 3, adj.n_slots)
    assert not np.array_equal(getconv_forward(z, wrong, params), getconv_forward(z, adj, params))


def _weight_producers():
    """Every producer of (N, n_slots) weights, with exponents far past the clamp."""
    rng = np.random.default_rng(24)
    adj = grid_adjacency(GridShape(7, 6), disk(2))
    q = 40.0 * rng.normal(size=(42, adj.n_slots))
    s, ds = diffusivity_jvp(q, rng.normal(size=q.shape), adj)
    confined = s.copy(), ds.copy()
    flowseg.getconv._confine(*confined, np.arange(42) % 3, adj)
    weights = {
        "diffusivity": diffusivity(q, adj),
        "diffusivity_jvp primal": s,
        "diffusivity_jvp tangent": ds,
        "confined primal": confined[0],
        "confined tangent": confined[1],
    }
    return adj, weights


def test_every_weight_producer_leaves_plus_zero_off_the_grid():
    # stencil_sum reads off-grid slots as entries at their own column, so
    # their weights must be exactly +0.0, also where the exponent is clamped
    adj, weights = _weight_producers()
    for name, w in weights.items():
        off = w[~in_grid(7, 6, disk(2))]
        assert off.size and (off == 0.0).all() and not np.signbit(off).any(), name
        assert np.isfinite(w).all(), name


@pytest.mark.parametrize("jvp, bound", [(False, 2.5), (True, 4.5)])
def test_layer_peak_memory_in_edge_table_units(jvp, bound):
    # one (N, n_slots) f64 table is the unit: the forward holds the queries
    # and the edge weights at once, the JVP also their tangents
    rng = np.random.default_rng(25)
    adj = grid_adjacency(GridShape(64, 64), disk(5))
    z = rng.normal(size=(64 * 64, 32))
    dz = rng.normal(size=z.shape)
    params = random_layer_params(rng, 32, adj.n_slots)
    tracemalloc.start()
    try:
        if jvp:
            getconv_forward_jvp(z, dz, adj, params)
        else:
            getconv_forward(z, adj, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * z.shape[0] * adj.n_slots * 8


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_diffusivity_peak_on_a_non_contiguous_table_is_one_copy(layout):
    # a flat np.take of a table that is not C-ordered first copies the whole
    # table; diffusivity copies it once, so the peak is that copy and the
    # output, where a copy per block read 3.06 units here (one per thread)
    rng = np.random.default_rng(35)
    adj = grid_adjacency(GridShape(128, 128), disk(5))
    q = rng.normal(size=adj.nbr_safe.shape)
    q = np.asfortranarray(q) if layout == "fortran" else np.ascontiguousarray(q.T).T
    tracemalloc.start()
    try:
        diffusivity(q, adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * q.nbytes


def test_masked_layer_peak_stays_within_the_plain_one(monkeypatch):
    # 5x5 tiles are almost all of one size; gathered as one block, they used
    # to push the masked peak past the plain one (12.77 against 9.07 edge-table
    # units for the forward, 21.09 against 18.07 for the JVP)
    # on two threads, the peak also depends on which temporaries of the two
    # happen to be alive at once; serially, both sides read the same each run,
    # and test_layer_peak_memory_in_edge_table_units bounds the threaded peak
    for module in (flowseg.grid, flowseg.getconv):
        monkeypatch.setattr(module, "_on_two_threads", _serial)
    rng = np.random.default_rng(27)
    side = 160
    adj = grid_adjacency(GridShape(side, side), square(3))
    z, dz = rng.normal(size=(side * side, 32)), rng.normal(size=(side * side, 32))
    params = random_layer_params(rng, 32, adj.n_slots)
    row, col = np.divmod(np.arange(side * side), side)
    tiles = row // 5 * (side // 5) + col // 5

    def peak(call):
        call()  # the kernels' first load stays out of the peak
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the Python objects of two calls differ by a few hundred bytes
    slack = 0.01 * side * side * adj.n_slots * 8
    for masked, plain in [
        (lambda: getconv_forward(z, adj, params, tiles), lambda: getconv_forward(z, adj, params)),
        (
            lambda: getconv_forward_jvp(z, dz, adj, params, tiles),
            lambda: getconv_forward_jvp(z, dz, adj, params),
        ),
    ]:
        assert peak(masked) <= peak(plain) + slack


@pytest.mark.parametrize("jvp", [False, True], ids=["forward", "jvp"])
def test_plain_normalization_peak_is_its_squares_alone(jvp):
    # without clusters the one block is x[None], written back onto x; numpy
    # skips that self-assignment, so besides the (N, C) squares the call holds
    # only a mean's reduction buffer (np.getbufsize() entries) and small
    # per-channel arrays, and a copying write-back would add a whole (N, C)
    rng = np.random.default_rng(28)
    x = rng.normal(size=(160 * 160, 32))
    dx = rng.normal(size=x.shape) if jvp else None
    tracemalloc.start()
    try:
        flowseg.getconv._standardize(x, dx, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - x.nbytes - np.getbufsize() * x.itemsize < 0.01 * x.nbytes


class TestNormalizationOverflow:
    """A channel whose squared deviations overflow must raise, not standardize
    to c / inf = 0."""

    @pytest.mark.parametrize("jvp", [False, True], ids=["forward", "jvp"])
    @pytest.mark.parametrize("clustered", [False, True], ids=["plain", "clusters"])
    def test_an_infinite_std_raises(self, jvp, clustered):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(48, 3))
        x[:, 1] *= 1e155
        dx = rng.normal(size=x.shape) if jvp else None
        cls = np.arange(48) // 16 if clustered else None
        with pytest.raises(ValueError, match="standard deviation must be finite"):
            flowseg.getconv._standardize(x, dx, cls)

    @pytest.mark.parametrize("scale, tangent_scale", [(1e-10, 1e300)], ids=["dc / std"])
    @pytest.mark.parametrize("clustered", [False, True], ids=["plain", "clusters"])
    def test_an_overflowing_tangent_raises(self, scale, tangent_scale, clustered):
        # dc / std is about 1e310, past the float range: a true overflow
        rng = np.random.default_rng(36)
        x = rng.normal(size=(48, 3)) * scale
        dx = rng.normal(size=x.shape) * tangent_scale
        cls = np.arange(48) // 16 if clustered else None
        with pytest.raises(ValueError, match="standardized tangent must be finite"):
            flowseg.getconv._standardize(x, dx, cls)

    @pytest.mark.parametrize(
        "seed, scale, tangent_scale",
        [(37, 1e100, 1e100), (36, 1e110, 1e110), (36, 1e10, 1e296), (32, 1e10, 1e300)],
        ids=["1e100", "cubed std", "c * dvar", "variance derivative"],
    )
    @pytest.mark.parametrize("clustered", [False, True], ids=["plain", "clusters"])
    def test_a_large_finite_tangent_standardizes_as_the_unscaled_one(
        self, seed, scale, tangent_scale, clustered
    ):
        # the tangent scales by tangent_scale / scale and fits in a float; the
        # last three used to raise, as a std cubed past 1e308, as c * dvar or as
        # dvar itself overflowed
        rng = np.random.default_rng(seed)
        y, dy = rng.normal(size=(48, 3)), rng.normal(size=(48, 3))
        big, small = (y * scale, dy * tangent_scale), (y.copy(), dy.copy())
        cls = np.arange(48) // 16 if clustered else None
        for x, dx in (big, small):
            flowseg.getconv._standardize(x, dx, cls)
        np.testing.assert_allclose(big[1] * (scale / tangent_scale), small[1], rtol=0, atol=1e-13)

    def test_a_large_finite_std_standardizes_as_the_unscaled_one(self):
        rng = np.random.default_rng(33)
        y = rng.normal(size=(48, 3))
        big, small = y * 1e150, y.copy()
        for x in (big, small):
            flowseg.getconv._standardize(x, None, None)
        np.testing.assert_allclose(big, small, rtol=0, atol=1e-14)


class TestConstantChannel:
    """A constant channel standardizes to exactly 0, value and tangent, even
    where its mean rounds and leaves a uniform residue of std above 0."""

    def test_a_constant_cluster_channel_leaves_the_residual_and_bias(self):
        # tied queries give every edge of the 3-node cluster one weight, so each
        # channel aggregates to one value there; 0.1 + 0.1 + 0.1 rounds, and
        # channel 3 used to standardize to -1.0
        adj = grid_adjacency(GridShape(2, 2), square(3))
        n = adj.n_slots
        params = random_layer_params(np.random.default_rng(0), 4, n)
        tied = dataclasses.replace(
            params, w2=np.repeat(params.w2[:, :1], n, axis=1), b2=np.full(n, params.b2[0])
        )
        feats = np.tile([0.1, 0.7, -0.3, 1.3], (4, 1))
        out = getconv_forward(feats, adj, tied, clusters=np.array([0, 0, 0, 1]))
        np.testing.assert_array_equal(out, feats + tied.beta)

    @pytest.mark.parametrize("value", [0.1, 1 / 3, -7e300])
    @pytest.mark.parametrize(
        "tangent_scale", [None, 1.0, 1e25], ids=["forward", "jvp", "jvp x1e25"]
    )
    @pytest.mark.parametrize("clustered", [False, True], ids=["plain", "clusters"])
    def test_standardizes_to_zero_at_every_row_count(self, value, tangent_scale, clustered):
        # at 13 rows and more, -7e300's residue squares past the float range,
        # and times a tangent x1e25 it used to overflow the variance derivative
        rng = np.random.default_rng(38)
        for rows in (3, 4, 6, 10, 13, 100, 999, 12345, 10**5):
            x = np.column_stack([np.full(rows, value), rng.normal(size=rows)])
            dx = None if tangent_scale is None else rng.normal(size=x.shape) * tangent_scale
            flowseg.getconv._standardize(x, dx, np.zeros(rows, int) if clustered else None)
            assert not x[:, 0].any(), rows
            assert np.abs(x[:, 1]).max() > 0.5
            if dx is not None:
                assert not dx[:, 0].any(), rows


def _serial(fn, blocks):
    for block in blocks:
        fn(block)


def _layer_outputs(h, w, channels, spec, seed=30):
    """Every layer output and tangent on an h x w grid, as a flat list."""
    rng = np.random.default_rng(seed)
    adj = grid_adjacency(GridShape(h, w), spec)
    z, dz = rng.normal(size=(h * w, channels)), rng.normal(size=(h * w, channels))
    params = random_layer_params(rng, channels, adj.n_slots)
    block = random_layer_params(rng, channels, 8, kernel=3)
    clusters = rng.integers(0, 4, size=h * w)
    q, dq = query_messages(z, params), rng.normal(size=(h * w, adj.n_slots))
    out = [
        q,
        diffusivity(q, adj),
        *diffusivity_jvp(q, dq, adj),
        getconv_forward(z, adj, params),
        *getconv_forward_jvp(z, dz, adj, params),
        getconv_forward(z, adj, params, clusters=clusters),
        *getconv_forward_jvp(z, dz, adj, params, clusters=clusters),
    ]
    if channels:  # an (h, w, 0) grid does not reshape to (N, 0)
        grid, dgrid = z.reshape(h, w, channels), dz.reshape(h, w, channels)
        out += [getblock_forward(grid, square(3), block)]
        out += getblock_forward_jvp(grid, dgrid, square(3), block)
    return out


@pytest.mark.parametrize(
    "h, w, channels, spec",
    [
        (41, 53, 8, disk(5)),  # N odd, four blocks of edge-table rows
        (101, 103, 8, square(3)),  # narrow tables: two blocks of 5,120 rows
        (9, 11, 8, disk(2)),  # N smaller than one block
        (1, 2, 4, square(3)),  # N = 2
        (33, 40, 0, square(3)),  # no channels
        (33, 40, 1, square(3)),  # one channel
        (33, 40, 5, square(1)),  # zero-slot stencil
    ],
    ids=["N odd", "narrow", "one block", "N=2", "C=0", "C=1", "no slots"],
)
def test_two_threads_bit_identical_to_serial(monkeypatch, h, w, channels, spec):
    threaded = _layer_outputs(h, w, channels, spec)
    for module in (flowseg.grid, flowseg.getconv):
        monkeypatch.setattr(module, "_on_two_threads", _serial)
    serial = _layer_outputs(h, w, channels, spec)
    assert len(threaded) == len(serial)
    for got, want in zip(threaded, serial):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


_BLAS_DIGEST = """
import hashlib
import numpy as np
from flowseg import getconv as gc
from flowseg.grid import GridShape, grid_adjacency, square
rng = np.random.default_rng(33)
adj = grid_adjacency(GridShape(32, 32), square(3))
z, dz = rng.normal(size=(1024, 32)), rng.normal(size=(1024, 32))
params = gc.random_layer_params(rng, 32, adj.n_slots, kernel=3)
cls = rng.integers(0, 40, size=1024)
grid, dgrid = z.reshape(32, 32, 32), dz.reshape(32, 32, 32)
outs = [
    gc.getconv_forward(z, adj, params),
    *gc.getconv_forward_jvp(z, dz, adj, params),
    gc.getconv_forward(z, adj, params, clusters=cls),
    *gc.getconv_forward_jvp(z, dz, adj, params, clusters=cls),
    gc.getblock_forward(grid, square(3), params),
    *gc.getblock_forward_jvp(grid, dgrid, square(3), params),
]
print(hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest())
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # at 1,024 nodes and C=32 the query products are large enough for
    # OpenBLAS to split them over two threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", _BLAS_DIGEST], env=env, stdout=subprocess.PIPE, text=True
            )
        )
    digests = [run.communicate(timeout=60)[0].strip() for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("width, rows", [(80, 512), (8, 5120), (0, 40960), (10**6, 1)])
def test_row_blocks_cover_every_row_once(width, rows):
    for n in (1, 2, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1, 5 * rows + 3):
        blocks = _row_blocks(n, width)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert min(sizes) >= min(n, rows) and max(sizes) < max(2 * rows, 2)


def test_queries_are_whole_array_products():
    # BLAS picks its kernel by the matrix sizes: at this shape a block of 512
    # rows rounds some queries differently from the same rows of the whole
    rng = np.random.default_rng(31)
    adj = grid_adjacency(GridShape(41, 53), disk(5))
    z, dz = rng.normal(size=(41 * 53, 33)), rng.normal(size=(41 * 53, 33))
    params = random_layer_params(rng, 33, adj.n_slots)
    pre = z @ params.w1 + params.b1
    q, dq = flowseg.getconv._query(z, dz, params)
    np.testing.assert_array_equal(q, np.maximum(pre, 0.0) @ params.w2 + params.b2)
    np.testing.assert_array_equal(dq, np.where(pre > 0, dz @ params.w1, 0.0) @ params.w2)
    np.testing.assert_array_equal(query_messages(z, params), q)


class _RecordingW2(np.ndarray):
    """A w2 that keeps, with the output array, a copy of the left operand of
    every product it is the right operand of."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.lefts.append((kwargs["out"][0], inputs[0].copy()))
        return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)


def test_tangent_mask_writes_the_bits_copyto_writes(monkeypatch):
    # where pre > 0 the mask keeps every bit of dz @ w1, inf and -0.0 too;
    # elsewhere, a NaN pre included, it writes +0.0; dpre * (pre > 0) would
    # write inf * 0 = NaN instead
    monkeypatch.setattr(flowseg.getconv, "_on_two_threads", _serial)  # errstate is per thread
    rng = np.random.default_rng(38)
    n, c = 64, 4
    z = rng.normal(size=(n, c))
    z[0] = 0.0  # pre == 0
    z[1, :2] = np.inf, -np.inf  # pre NaN
    dz = rng.normal(size=(n, c))
    dz[0::4] = [np.inf, 0.0, 0.0, 0.0]
    dz[1::4] = [-np.inf, 0.0, 0.0, 0.0]
    # every w1 entry is positive and tiny, so each product here underflows to -0.0
    dz[2::4] = -1e-200 * (1.0 + rng.random(size=(n // 4, c)))
    w1 = 1e-200 * (1.0 + rng.random(size=(c, c)))
    w2 = rng.normal(size=(c, 8)).view(_RecordingW2)
    w2.lefts = []
    params = LayerParams(w1, np.zeros(c), w2, np.zeros(8), np.ones(c), np.zeros(c))
    with np.errstate(all="ignore"):
        pre, raw = z @ w1, dz @ w1
        pre += params.b1
        _, dq = flowseg.getconv._query(z, dz, params)
    [dpre] = [left for out, left in w2.lefts if out is dq]
    up = pre > 0
    neg_zero = (raw == 0.0) & np.signbit(raw)
    for held in (raw == np.inf, raw == -np.inf, neg_zero):
        assert (held & up).any() and (held & ~up).any()
    assert np.isnan(pre).any()
    want = raw.copy()
    np.copyto(want, 0.0, where=~up)
    np.testing.assert_array_equal(dpre.view(np.uint64), want.view(np.uint64))


def test_layer_reentrant_from_two_threads():
    # two outer calls make four threads on the blocks, more than the cores,
    # and a short switch interval interleaves them as often as it can
    want = _layer_outputs(41, 53, 8, disk(5))
    before = threading.active_count()
    got = [None, None]

    def call(k):
        got[k] = _layer_outputs(41, 53, 8, disk(5))

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
    for outputs in got:
        for a, b in zip(outputs, want):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker block", "caller block"])
def test_failing_block_raises_and_leaves_no_thread(on_caller):
    boom = RuntimeError("block failed")
    blocks = _row_blocks(2173, 80)
    failing = blocks[-1] if on_caller else blocks[0]
    done = []

    def fn(rows):
        if rows == failing:
            raise boom
        done.append(rows)

    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        _on_two_threads(fn, blocks)
    assert info.value is boom
    assert threading.active_count() == before
    # the other thread's blocks still ran to the end
    assert (blocks[0] in done) == on_caller and (blocks[-1] in done) != on_caller


@pytest.mark.parametrize("on_caller", [False, True], ids=["worker thread", "caller thread"])
def test_layer_failing_on_one_thread_raises_and_leaves_no_thread(monkeypatch, on_caller):
    # an exception in either thread must reach the caller, not come out as
    # edge weights with some rows never written
    boom = RuntimeError("edge weights failed")
    caller = threading.get_ident()
    weights = flowseg.getconv._edge_weights

    def failing(e, de, edge):
        if (threading.get_ident() == caller) == on_caller:
            raise boom
        weights(e, de, edge)

    monkeypatch.setattr(flowseg.getconv, "_edge_weights", failing)
    rng = np.random.default_rng(32)
    adj = grid_adjacency(GridShape(41, 53), disk(5))
    z = rng.normal(size=(41 * 53, 4))
    params = random_layer_params(rng, 4, adj.n_slots)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        getconv_forward(z, adj, params)
    assert info.value is boom
    assert threading.active_count() == before
