import dataclasses
import tracemalloc

import numpy as np
import pytest

import flowseg.getconv
from flowseg.getconv import (
    IsoParams,
    LayerParams,
    depthwise,
    diffusivity,
    diffusivity_jvp,
    getblock_forward,
    getblock_forward_jvp,
    getconv_forward,
    getconv_forward_jvp,
    isotropic_attention_forward,
    isotropic_attention_forward_jvp,
    mask_diffusivity,
    query_messages,
    random_iso_params,
    random_layer_params,
)
from flowseg.grid import GridShape, disk, grid_adjacency, square, stencil_sum
from oracles import (
    oracle_depthwise,
    oracle_diffusivity,
    oracle_getblock,
    oracle_getconv,
    oracle_isotropic,
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


class TestDiffusivity:
    def test_zero_queries_give_unit_edges(self):
        adj = grid_adjacency(GridShape(3, 4), square(3))
        s = diffusivity(np.zeros((12, 8)), adj)
        np.testing.assert_array_equal(s[adj.valid], 1.0)
        np.testing.assert_array_equal(s[~adj.valid], 0.0)

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
        for i in range(20):
            for c in range(8):
                if adj.valid[i, c]:
                    assert s[i, c] == s[adj.nbr_safe[i, c], adj.recip[c]]

    def test_unmasked_edges_are_positive(self):
        rng = np.random.default_rng(6)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        s = diffusivity(rng.normal(scale=20.0, size=(16, 8)), adj)
        assert (s[adj.valid] > 0).all()

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
        np.testing.assert_array_equal(s[adj.valid], np.exp(30.0))


class TestGetconvForward:
    def test_fully_masked_is_identity(self):
        adj = grid_adjacency(GridShape(3, 3), square(3))
        rng = np.random.default_rng(7)
        z = rng.normal(size=(9, 4))
        params = random_layer_params(rng, 4, adj.n_slots)
        params.gamma = np.ones(4)
        params.beta = np.zeros(4)
        out = getconv_forward(z, adj, params, cls_mask=np.arange(9))
        np.testing.assert_array_equal(out, z)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        z = rng.normal(size=(16, 4))
        params = random_layer_params(rng, 4, adj.n_slots)
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
            getconv_forward(z, adj, params, cls_mask=cls, norm_groups=cls),
            oracle_getconv(z, 4, 4, square(3), params, cls=cls, norm_groups=cls),
            atol=1e-10,
        )

    def test_masked_output_ignores_other_clusters(self):
        rng = np.random.default_rng(10)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        z = rng.normal(size=(16, 4))
        params = random_layer_params(rng, 4, adj.n_slots)
        cls = np.repeat([1, 2], 8)
        base = getconv_forward(z, adj, params, cls_mask=cls, norm_groups=cls)
        bumped = z.copy()
        bumped[cls == 2] += rng.uniform(-1e3, 1e3, size=(8, 4))
        out = getconv_forward(bumped, adj, params, cls_mask=cls, norm_groups=cls)
        np.testing.assert_array_equal(out[cls == 1], base[cls == 1])

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


def _bad_tangent_jvps():
    """Each JVP with finite inputs and a tangent holding ``bad`` at one entry."""
    rng = np.random.default_rng(22)
    adj = grid_adjacency(GridShape(4, 4), square(3))
    z = rng.normal(size=(16, 3))
    params = random_layer_params(rng, 3, adj.n_slots, kernel=3)
    iso = random_iso_params(rng, 3)

    def tangent(bad, shape):
        t = np.ones(shape)
        t.flat[0] = bad  # node 0: the column every off-grid slot points at
        return t

    return {
        "diffusivity": lambda bad: diffusivity_jvp(
            query_messages(z, params), tangent(bad, (16, 8)), adj
        ),
        "getconv": lambda bad: getconv_forward_jvp(z, tangent(bad, z.shape), adj, params),
        "getblock": lambda bad: getblock_forward_jvp(
            z.reshape(4, 4, 3), tangent(bad, (4, 4, 3)), square(3), params
        ),
        "isotropic": lambda bad: isotropic_attention_forward_jvp(
            z, tangent(bad, z.shape), adj, iso
        ),
    }


@pytest.mark.parametrize("jvp", sorted(_bad_tangent_jvps()))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_jvp_rejects_a_non_finite_tangent(jvp, bad):
    # an off-grid slot's 0.0 weight times an inf at node 0 would be NaN
    with pytest.raises(ValueError, match="tangent must be finite"):
        _bad_tangent_jvps()[jvp](bad)


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


class TestIsotropicForward:
    def test_uniform_features_give_uniform_interior(self):
        # corner/edge nodes aggregate fewer neighbors, so compare interior rows
        adj = grid_adjacency(GridShape(5, 5), square(3))
        params = random_iso_params(np.random.default_rng(14), 3)
        z = np.tile([[1.0, -2.0, 0.5]], (25, 1))
        out = np.asarray(isotropic_attention_forward(z, adj, params))
        interior = [r * 5 + c for r in range(1, 4) for c in range(1, 4)]
        sub = out[interior]
        np.testing.assert_allclose(sub, np.broadcast_to(sub[0], sub.shape), atol=1e-12)

    def test_zero_maps_reduce_to_plain_sum(self):
        rng = np.random.default_rng(15)
        adj = grid_adjacency(GridShape(3, 4), square(3))
        params = IsoParams(
            wq=np.zeros(3), bq=0.0, wk=np.zeros(3), bk=0.0,
            gamma=np.ones(3), beta=np.zeros(3),
        )
        z = rng.normal(size=(12, 3))
        zero_q = zero_mlp_params(3, adj.n_slots)
        np.testing.assert_allclose(
            isotropic_attention_forward(z, adj, params),
            getconv_forward(z, adj, zero_q),  # both have s = 1 on every edge
            atol=1e-12,
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(16)
        adj = grid_adjacency(GridShape(4, 4), square(3))
        params = random_iso_params(rng, 4)
        z = rng.normal(size=(16, 4))
        np.testing.assert_allclose(
            isotropic_attention_forward(z, adj, params),
            oracle_isotropic(z, 4, 4, square(3), params),
            atol=1e-10,
        )


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
    weights = np.where(adj.valid, rng.random(adj.valid.shape), 0.0)
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
    z = rng.normal(size=(42, 3))
    q = 40.0 * rng.normal(size=(42, adj.n_slots))
    iso = random_iso_params(rng, 3)
    iso.wq, iso.wk = 60.0 * iso.wq, 60.0 * iso.wk
    iso_jvp = flowseg.getconv._iso_weights(z, z, adj, iso)
    s, ds = diffusivity_jvp(q, rng.normal(size=q.shape), adj)
    weights = {
        "diffusivity": diffusivity(q, adj),
        "diffusivity_jvp primal": s,
        "diffusivity_jvp tangent": ds,
        "mask_diffusivity": mask_diffusivity(s, np.arange(42) % 3, adj),
        "isotropic primal": iso_jvp[0],
        "isotropic tangent": iso_jvp[1],
    }
    return adj, weights


def test_every_weight_producer_leaves_plus_zero_off_the_grid():
    # stencil_sum reads off-grid slots as entries at column 0, so their
    # weights must be exactly +0.0, also where the exponent is clamped
    adj, weights = _weight_producers()
    for name, w in weights.items():
        off = w[~adj.valid]
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
