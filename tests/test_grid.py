import dataclasses
import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

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
    square,
    stencil_offsets,
    stencil_sum,
)
from oracles import in_grid, offsets_disk, offsets_of, offsets_square, oracle_aggregate

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


def table_neighbors(adj, ok, node):
    """``(slot, neighbor id)`` pairs of the adjacency table at a node's in-grid
    slots, as the oracle table ``ok`` names them."""
    slots = np.flatnonzero(ok[node])
    return list(zip(slots.tolist(), adj.nbr_safe[node, slots].tolist()))


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
    i = 2 * shape.w + 2
    assert i not in adj.nbr_safe[i]  # every slot is an edge
    assert adj.nbr_safe[i].tolist() == [6, 7, 8, 11, 13, 16, 17, 18]


def test_neighbors_corner_keeps_slot_indices():
    # surviving offsets at (0, 0) are (0,1), (1,0), (1,1): slots 4, 6, 7
    adj = grid_adjacency(GridShape(4, 4), square(3))
    assert table_neighbors(adj, in_grid(4, 4, square(3)), 0) == [(4, 1), (6, 4), (7, 5)]
    # the off-grid slots name node 0 itself
    assert adj.nbr_safe[0].tolist() == [0, 0, 0, 0, 1, 0, 4, 5]


def test_disk_interior_neighbor_count():
    shape = GridShape(64, 96)
    i = 32 * shape.w + 48
    assert len(set(grid_adjacency(shape, disk(4)).nbr_safe[i].tolist()) - {i}) == 48


@given(small_shapes, specs)
@settings(max_examples=40)
def test_neighbor_symmetry(shape, spec):
    adj, ok = grid_adjacency(shape, spec), in_grid(shape.h, shape.w, spec)
    for i in range(shape.n_nodes):
        for _, j in table_neighbors(adj, ok, i):
            assert i in [t for _, t in table_neighbors(adj, ok, j)]


@given(small_shapes, specs)
@settings(max_examples=40)
def test_index_stability(shape, spec):
    # the slot of a given offset never depends on the node
    offs = stencil_offsets(spec)
    adj, ok = grid_adjacency(shape, spec), in_grid(shape.h, shape.w, spec)
    for i in range(shape.n_nodes):
        ri, ci = divmod(i, shape.w)
        for c, j in table_neighbors(adj, ok, i):
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
            assert adj.nbr_safe[i, c] == expected.get(c, i)


@given(small_shapes, specs)
@example(GridShape(1, 1), disk(2))
@example(GridShape(1, 8), disk(2))
@example(GridShape(8, 1), square(3))
@example(GridShape(2, 3), disk(5))  # a stencil wider than the grid
@settings(max_examples=40)
def test_an_off_grid_slot_names_its_own_node(shape, spec):
    # no stencil holds (0, 0), so only an off-grid slot can name node i itself
    ok = in_grid(shape.h, shape.w, spec)
    own = np.broadcast_to(np.arange(shape.n_nodes)[:, None], ok.shape)
    # grids past 2**31 row pointers get an int64 table from the same code
    with mock.patch.object(flowseg.grid, "_csr_index_dtype", lambda n, k: np.int64):
        wide = grid_adjacency.__wrapped__(shape, spec)
    for adj, dtype in ((grid_adjacency(shape, spec), np.int32), (wide, np.int64)):
        assert adj.nbr_safe.dtype == dtype
        np.testing.assert_array_equal(adj.nbr_safe[~ok], own[~ok])
        for i in range(shape.n_nodes):
            for c, j in brute_force_neighbors(i, spec, shape):
                assert adj.nbr_safe[i, c] == j


def test_adjacency_reciprocity():
    adj = grid_adjacency(GridShape(6, 7), disk(2))
    ok = in_grid(6, 7, disk(2))
    for i in range(adj.shape.n_nodes):
        for c in range(adj.n_slots):
            if ok[i, c]:
                j = adj.nbr_safe[i, c]
                assert adj.nbr_safe[j, adj.recip[c]] == i


@given(small_shapes, specs, st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
@example(GridShape(1, 1), square(1), 3, 0)  # zero slots: every row pointer is 0
@example(GridShape(3, 4), square(1), 3, 0)  # zero slots on several nodes: all sums are 0
@settings(max_examples=30)
def test_stencil_sum_matches_brute_force_aggregate(shape, spec, channels, seed):
    rng = np.random.default_rng(seed)
    adj, ok = grid_adjacency(shape, spec), in_grid(shape.h, shape.w, spec)
    weights = np.where(ok, rng.normal(size=ok.shape), 0.0)
    feats = rng.normal(size=(shape.n_nodes, channels))
    want = oracle_aggregate(weights, feats, shape.h, shape.w, spec)
    # grids past 2**31 row pointers take int64 index tables into the same kernel
    wide = dataclasses.replace(adj, nbr_safe=adj.nbr_safe.astype(np.int64))
    for table in (adj, wide):
        np.testing.assert_array_equal(stencil_sum(weights, feats, table), want)


@pytest.mark.parametrize("border", [0, 3], ids=["corner", "edge"])
def test_a_non_finite_feature_reaches_only_the_rows_that_read_its_node(border):
    # a zero weight still reads its column, and 0.0 * inf = NaN: an inf
    # reaches its neighbours' rows, and its own row where the node has an
    # off-grid slot, since that slot names the node itself; no other row
    shape, spec = GridShape(6, 7), square(3)
    adj, ok = grid_adjacency(shape, spec), in_grid(shape.h, shape.w, spec)
    interior = 3 * shape.w + 3
    feats = np.ones((shape.n_nodes, 1))
    feats[[interior, border]] = np.inf
    out = stencil_sum(np.zeros(ok.shape), feats, adj)[:, 0]
    reads = {border}  # the border node's own row
    for i in range(shape.n_nodes):
        reads |= {i for c, j in brute_force_neighbors(i, spec, shape) if j in (interior, border)}
    assert not ok[border].all() and ok[interior].all()
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(out)), sorted(reads))
    assert (out[~np.isnan(out)] == 0.0).all()


@pytest.mark.parametrize(
    "weights, feats",
    [((1600, 7), (1600, 3)), ((1600, 8), (10, 3)), ((1600, 8), (1600,))],
    ids=["short weight rows", "short features", "flat features"],
)
def test_stencil_sum_rejects_mismatched_tables_before_the_kernel(monkeypatch, weights, feats):
    # unchecked, short weight rows were read past their buffer (0.0 in the last
    # rows), and short features made the kernel write past the output: a segfault
    def refuse(*args):
        raise AssertionError("kernel reached with mismatched tables")

    monkeypatch.setattr(flowseg.grid, "_csr_kernels", refuse)
    adj = grid_adjacency(GridShape(40, 40), square(3))
    with pytest.raises(ValueError, match=r"stencil_sum needs \(1600, 8\) weights"):
        stencil_sum(np.ones(weights), np.ones(feats), adj)


# unchecked, ids past N sent the kernel reading far outside the features: the
# process died by signal 11, so the call runs in a child process
OUT_OF_RANGE_TABLE = """
import dataclasses
import numpy as np
from flowseg.grid import GridShape, grid_adjacency, square, stencil_sum
adj = grid_adjacency(GridShape(64, 64), square(3))
bad = dataclasses.replace(adj, nbr_safe=adj.nbr_safe + np.int32(10**8))
stencil_sum(np.zeros(adj.nbr_safe.shape), np.ones((adj.shape.n_nodes, 1)), bad)
"""


def test_out_of_range_neighbour_table_raises_before_the_kernel():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", OUT_OF_RANGE_TABLE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    last = proc.stderr.strip().splitlines()[-1]
    assert last == "ValueError: nbr_safe ids must lie in [0, 4096)", proc.stderr


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("nbr_safe", lambda a: a.nbr_safe - np.int32(1), r"ids must lie in \[0, 20\)"),
        ("nbr_safe", lambda a: a.nbr_safe.astype(np.float64), "int32 or int64"),
        ("nbr_safe", lambda a: a.nbr_safe.astype(np.int16), "int32 or int64"),
        ("nbr_safe", lambda a: a.nbr_safe[:-1], "int32 or int64"),
        ("nbr_safe", lambda a: a.nbr_safe.ravel(), "int32 or int64"),
        ("recip", lambda a: a.recip + 1, r"8 ids in \[0, 8\)"),
        ("recip", lambda a: a.recip - 1, r"8 ids in \[0, 8\)"),
        ("recip", lambda a: a.recip[:-1], r"8 ids in \[0, 8\)"),
        ("recip", lambda a: a.recip.astype(np.float64), r"8 ids in \[0, 8\)"),
    ],
)
def test_adjacency_refuses_tables_out_of_range(field, value, match):
    adj = grid_adjacency(GridShape(4, 5), square(3))
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(adj, **{field: value(adj)})


def test_adjacency_refuses_row_pointers_past_int32():
    # 2**31 row pointers at 2**28 nodes of 8 slots, in broadcast views of one row
    shape = GridShape(2**14, 2**14)
    table = np.broadcast_to(np.zeros((1, 8), np.int32), (shape.n_nodes, 8))
    with pytest.raises(ValueError, match="row pointers overflow int32"):
        flowseg.grid.GridAdjacency(shape, table, np.arange(8))


def test_stencil_sum_peak_at_an_odd_node_count_is_bounded_by_the_even_one():
    # each half adds its products straight into its own rows of the output,
    # whatever the parity of n, so the output alone sets the peak
    def peak(shape):
        adj, ok = grid_adjacency(shape, disk(5)), in_grid(shape.h, shape.w, disk(5))
        rng = np.random.default_rng(0)
        weights = np.where(ok, rng.normal(size=ok.shape), 0.0)
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
    kept = adj.nbr_safe.nbytes + adj.recip.nbytes
    assert peak <= 2 * kept


def test_a_fresh_adjacency_keeps_only_its_neighbour_and_reciprocal_tables():
    # 4 B per slot per node in int32, plus the few Python objects that hold
    # the two tables: no (N, n_slots) validity table outlives the build
    grid_adjacency.__wrapped__(GridShape(2, 2), disk(5))  # a first build also grows free lists
    tracemalloc.start()
    try:
        adj = grid_adjacency.__wrapped__(GridShape(64, 64), disk(5))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tables = adj.nbr_safe.nbytes + adj.recip.nbytes
    assert adj.nbr_safe.nbytes == 4 * 64 * 64 * 80
    assert tables <= kept <= tables + 4096


def test_adjacency_cache_keeps_at_most_four_tables(monkeypatch):
    # one 1024x1024 disk(5) entry holds about 336 MB; a layer reuses two or
    # three tables
    for side in range(2, 7):
        grid_adjacency(GridShape(side, 3), square(3))
    assert grid_adjacency.cache_info().currsize <= 4
    # the benchmark empties the cache before each cold pass
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    assert importlib.import_module("tracing")._clear_tables(flowseg)
    assert grid_adjacency.cache_info().currsize == 0
