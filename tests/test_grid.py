import dataclasses
import importlib.machinery
import importlib.util
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowseg
from flowseg.grid import (
    GridShape,
    NeighborhoodSpec,
    _csr_kernels,
    disk,
    grid_adjacency,
    nid,
    square,
    stencil_offsets,
    stencil_sum,
)
from oracles import offsets_disk, offsets_of, offsets_square, oracle_aggregate

small_shapes = st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda t: GridShape(*t))
specs = st.one_of(
    st.integers(0, 3).map(lambda i: square(2 * i + 1)),
    st.integers(1, 5).map(disk),
)


def brute_force_neighbors(node, spec, shape):
    """In-grid ``(slot, neighbor id)`` pairs of a node, from the oracle's offsets."""
    row, col = divmod(node, shape.w)
    return [
        (c, (row + dr) * shape.w + col + dc)
        for c, (dr, dc) in enumerate(offsets_of(spec))
        if 0 <= row + dr < shape.h and 0 <= col + dc < shape.w
    ]


def table_neighbors(adj, node):
    """``(slot, neighbor id)`` pairs of a node's valid slots in the adjacency table."""
    slots = np.flatnonzero(adj.valid[node])
    return list(zip(slots.tolist(), adj.nbr_safe[node, slots].tolist()))


def test_nid_examples():
    assert nid((0, 0), GridShape(5, 4)) == 0
    assert nid((1, 2), GridShape(5, 4)) == 6
    assert nid((4, 3), GridShape(5, 4)) == 19


def test_nid_rejects_out_of_grid():
    shape = GridShape(3, 3)
    for bad in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
        with pytest.raises(ValueError):
            nid(bad, shape)


def test_shape_validation():
    with pytest.raises(ValueError):
        GridShape(0, 4)
    with pytest.raises(ValueError):
        square(4)
    with pytest.raises(ValueError):
        disk(0)
    with pytest.raises(ValueError):
        square(-3)
    with pytest.raises(ValueError, match="unknown stencil kind"):
        NeighborhoodSpec("ring", 3)


def test_nid_bijection_exhaustive():
    shape = GridShape(5, 7)
    seen = set()
    for r in range(shape.h):
        for c in range(shape.w):
            i = nid((r, c), shape)
            assert divmod(i, shape.w) == (r, c)
            seen.add(i)
    assert seen == set(range(shape.n_nodes))


@given(small_shapes, st.data())
def test_nid_roundtrip(shape, data):
    r = data.draw(st.integers(0, shape.h - 1))
    c = data.draw(st.integers(0, shape.w - 1))
    assert divmod(nid((r, c), shape), shape.w) == (r, c)


def test_stencil_counts():
    assert len(stencil_offsets(square(3))) == 8
    # independent lattice enumeration
    assert len(stencil_offsets(disk(4))) == len(offsets_disk(4)) == 48
    assert len(stencil_offsets(disk(5))) == len(offsets_disk(5)) == 80


@given(specs)
def test_stencil_matches_predicate_in_raster_order(spec):
    offs = stencil_offsets(spec)
    expected = offsets_square(spec.size) if spec.kind == "square" else offsets_disk(spec.size)
    assert list(offs) == expected  # raster order, center excluded
    assert (0, 0) not in offs


@given(specs)
def test_reciprocal_slots_are_opposites(spec):
    offs = stencil_offsets(spec)
    recip = grid_adjacency(GridShape(1, 1), spec).recip
    assert not recip.flags.writeable
    for c, (dr, dc) in enumerate(offs):
        assert offs[recip[c]] == (-dr, -dc)
        assert recip[c] == len(offs) - 1 - c


def test_neighbors_interior_full_stencil():
    shape = GridShape(5, 5)
    adj = grid_adjacency(shape, square(3))
    i = nid((2, 2), shape)
    assert adj.valid[i].all()
    assert adj.nbr_safe[i].tolist() == [6, 7, 8, 11, 13, 16, 17, 18]


def test_neighbors_corner_keeps_slot_indices():
    # surviving offsets at (0, 0) are (0,1), (1,0), (1,1): slots 4, 6, 7
    adj = grid_adjacency(GridShape(4, 4), square(3))
    assert table_neighbors(adj, 0) == [(4, 1), (6, 4), (7, 5)]
    assert adj.nbr_safe[0].tolist() == [0, 0, 0, 0, 1, 0, 4, 5]


def test_disk_interior_neighbor_count():
    shape = GridShape(64, 96)
    assert grid_adjacency(shape, disk(4)).valid[nid((32, 48), shape)].sum() == 48


@given(small_shapes, specs)
@settings(max_examples=40)
def test_neighbor_symmetry(shape, spec):
    adj = grid_adjacency(shape, spec)
    for i in range(shape.n_nodes):
        for _, j in table_neighbors(adj, i):
            assert i in [t for _, t in table_neighbors(adj, j)]


@given(small_shapes, specs)
@settings(max_examples=40)
def test_index_stability(shape, spec):
    # the slot of a given offset never depends on the node
    offs = stencil_offsets(spec)
    adj = grid_adjacency(shape, spec)
    for i in range(shape.n_nodes):
        ri, ci = divmod(i, shape.w)
        for c, j in table_neighbors(adj, i):
            rj, cj = divmod(j, shape.w)
            assert offs[c] == (rj - ri, cj - ci)


@given(small_shapes, specs)
@settings(max_examples=40)
def test_adjacency_table_matches_neighbors(shape, spec):
    adj = grid_adjacency(shape, spec)
    assert adj.n_slots == len(stencil_offsets(spec))
    for i in range(shape.n_nodes):
        expected = dict(brute_force_neighbors(i, spec, shape))
        for c in range(adj.n_slots):
            assert adj.valid[i, c] == (c in expected)
            assert adj.nbr_safe[i, c] == expected.get(c, 0)


def test_adjacency_reciprocity():
    adj = grid_adjacency(GridShape(6, 7), disk(2))
    for i in range(adj.shape.n_nodes):
        for c in range(adj.n_slots):
            if adj.valid[i, c]:
                j = adj.nbr_safe[i, c]
                assert adj.nbr_safe[j, adj.recip[c]] == i


@given(small_shapes, specs, st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
@example(GridShape(1, 1), square(1), 3, 0)  # zero slots: every row pointer is 0
@example(GridShape(3, 4), square(1), 3, 0)  # zero slots on several nodes: all sums are 0
@settings(max_examples=30)
def test_stencil_sum_matches_brute_force_aggregate(shape, spec, channels, seed):
    rng = np.random.default_rng(seed)
    adj = grid_adjacency(shape, spec)
    weights = np.where(adj.valid, rng.normal(size=adj.valid.shape), 0.0)
    feats = rng.normal(size=(shape.n_nodes, channels))
    want = oracle_aggregate(weights, feats, shape.h, shape.w, spec)
    # grids past 2**31 row pointers take int64 index tables into the same kernel
    wide = dataclasses.replace(adj, nbr_safe=adj.nbr_safe.astype(np.int64))
    for table in (adj, wide):
        np.testing.assert_array_equal(stencil_sum(weights, feats, table), want)


def test_stencil_sum_needs_finite_features_at_node_0():
    # each off-grid slot is a 0.0 weight on node 0's features, so a non-finite
    # value there reaches every row with an off-grid slot, as 0.0 * inf = NaN
    shape = GridShape(4, 5)
    adj = grid_adjacency(shape, square(3))
    feats = np.ones((shape.n_nodes, 1))
    feats[0] = np.inf
    out = stencil_sum(adj.valid.astype(np.float64), feats, adj)[:, 0]
    border = ~adj.valid.all(axis=1)
    assert np.isnan(out[border]).all()
    # an interior row only adds node 0's features where node 0 is its neighbour
    assert not np.isnan(out[~border]).any()

def test_stencil_sum_peak_at_an_odd_node_count_is_bounded_by_the_even_one():
    # each half adds its products straight into its own rows of the output,
    # whatever the parity of n, so the output alone sets the peak
    def peak(shape):
        adj = grid_adjacency(shape, disk(5))
        rng = np.random.default_rng(0)
        weights = np.where(adj.valid, rng.normal(size=adj.valid.shape), 0.0)
        feats = rng.normal(size=(shape.n_nodes, 32))
        stencil_sum(weights, feats, adj)  # the first call loads scipy's kernels
        tracemalloc.start()
        try:
            stencil_sum(weights, feats, adj)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 4,095 nodes against 4,096
    even = peak(GridShape(64, 64))
    assert peak(GridShape(63, 65)) <= 1.1 * even
    assert even <= 1.1 * 64 * 64 * 32 * 8


def test_missing_kernel_file_names_the_folder_searched(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
    with pytest.raises(ImportError, match=re.escape(folder)):
        _csr_kernels.__wrapped__()  # past the cache, which holds the loaded kernels


def test_neighbour_table_is_in_the_csr_index_dtype():
    # stencil_sum hands nbr_safe to scipy's CSR kernel as its column table, uncopied
    adj = grid_adjacency(GridShape(9, 10), disk(3))
    assert adj.nbr_safe.dtype == np.int32 and adj.nbr_safe.flags.c_contiguous


@pytest.mark.parametrize(
    "shape, spec", [(GridShape(64, 64), disk(5)), (GridShape(9, 11), disk(40))]
)
def test_adjacency_build_peak_is_at_most_twice_what_it_keeps(shape, spec):
    # bypass the table cache so that the tables are built under the trace
    tracemalloc.start()
    try:
        adj = grid_adjacency.__wrapped__(shape, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = adj.nbr_safe.nbytes + adj.valid.nbytes + adj.recip.nbytes
    assert peak <= 2 * kept


def test_adjacency_cache_keeps_at_most_four_tables(monkeypatch):
    # one 1024x1024 disk(5) entry holds about 420 MB; a layer reuses two or
    # three tables
    for side in range(2, 7):
        grid_adjacency(GridShape(side, 3), square(3))
    assert grid_adjacency.cache_info().currsize <= 4
    # the benchmark empties the cache before each cold pass
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    assert importlib.import_module("tracing")._clear_tables(flowseg)
    assert grid_adjacency.cache_info().currsize == 0
