"""Pixel-grid graphs: node ids, stencil neighborhoods, adjacency tables.

Conventions shared by the whole package:

* node ids are row-major, ``id = row * w + col``
* stencil offsets are enumerated in raster order (ascending row offset,
  then ascending column offset) with the center excluded; the position of
  an offset in that enumeration is its slot index ``c``, which is the same
  for every node; a slot off the grid names the node itself, as none on it can
* square and disk stencils are point symmetric, so raster order puts the
  opposite offset ``-offsets[c]`` at slot ``n-1-c``; that is the reciprocal
  slot ``recip[c]`` of :class:`GridAdjacency`
* non-finite input is refused with :func:`require_finite` wherever it could
  pass for data: a NaN compares unequal to 0, and an inf clamps to a finite
  value
"""

from __future__ import annotations

import importlib.machinery as machinery
import importlib.util
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class GridShape:
    """Height and width of a pixel grid; the nodes are its h*w pixels."""

    h: int
    w: int

    def __post_init__(self) -> None:
        if self.h < 1 or self.w < 1:
            raise ValueError(f"grid sides must be >= 1, got {self.h}x{self.w}")

    @property
    def n_nodes(self) -> int:
        return self.h * self.w


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Stencil descriptor: square of odd side ``size`` or disk of radius ``size``.

    The center offset (0, 0) is never part of the stencil.
    """

    kind: str
    size: int

    def __post_init__(self) -> None:
        if self.kind not in ("square", "disk"):
            raise ValueError(f"unknown stencil kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("stencil size must be >= 1")
        if self.kind == "square" and self.size % 2 == 0:
            raise ValueError("square stencils need an odd side length")


def square(side: int) -> NeighborhoodSpec:
    return NeighborhoodSpec("square", side)


def disk(radius: int) -> NeighborhoodSpec:
    return NeighborhoodSpec("disk", radius)


def require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` itself, if every entry is finite; else a ValueError naming ``what``."""
    # min and max carry any NaN or inf without a temporary the size of x; an
    # empty x (no slots, or no channels) has neither and is finite
    if x.size and not np.isfinite([x.min(), x.max()]).all():
        raise ValueError(f"{what} must be finite")
    return x


def stencil_offsets(spec: NeighborhoodSpec) -> tuple[tuple[int, int], ...]:
    """All stencil offsets in raster order, center excluded.

    Square of side k keeps max(|dr|, |dc|) <= (k-1)/2; disk of radius r keeps
    dr^2 + dc^2 <= r^2. The length of the result is the slot count n.
    """
    if spec.kind == "square":
        half = (spec.size - 1) // 2
        reach, keep = half, lambda dr, dc: True
    else:
        reach = spec.size
        keep = lambda dr, dc: dr * dr + dc * dc <= spec.size * spec.size
    return tuple(
        (dr, dc)
        for dr in range(-reach, reach + 1)
        for dc in range(-reach, reach + 1)
        if (dr, dc) != (0, 0) and keep(dr, dc)
    )


@dataclass(frozen=True)
class GridAdjacency:
    """Vectorized stencil adjacency for one (shape, spec) pair.

    ``nbr_safe[i, c]`` is the id of node i's neighbor at slot c, and i itself
    where that offset leaves the grid: slot c is an edge where it is not i. In
    the CSR index dtype, it is the column table of :func:`stencil_sum`'s
    operator. For an edge j = nbr_safe[i, c], ``nbr_safe[j, recip[c]] == i``.
    Construction checks dtypes, shapes and id ranges (not the wiring), so that
    no table sends the kernel past a buffer or wraps a gather: ``ValueError``.
    """

    shape: GridShape
    nbr_safe: np.ndarray
    recip: np.ndarray

    def __post_init__(self) -> None:
        n, table, recip = self.shape.n_nodes, self.nbr_safe, self.recip
        if table.ndim != 2 or len(table) != n or table.dtype not in (np.int32, np.int64):
            raise ValueError(f"nbr_safe must be an int32 or int64 ({n}, n_slots) table")
        k = self.n_slots
        if n * k > np.iinfo(table.dtype).max:
            raise ValueError(f"{n} x {k} row pointers overflow {table.dtype}")
        if table.size and not 0 <= table.min() <= table.max() < n:
            raise ValueError(f"nbr_safe ids must lie in [0, {n})")
        wrong = recip.shape != (k,) or recip.dtype.kind not in "iu"
        if wrong or k and not 0 <= recip.min() <= recip.max() < k:
            raise ValueError(f"recip must hold {k} ids in [0, {k})")

    @property
    def n_slots(self) -> int:
        return self.nbr_safe.shape[1]


@lru_cache(maxsize=4)  # a layer reuses 2 or 3 tables; a 1024² disk(5) one is ~336 MB
def grid_adjacency(shape: GridShape, spec: NeighborhoodSpec) -> GridAdjacency:
    offs = np.array(stencil_offsets(spec), dtype=np.int64).reshape(-1, 2)
    n = shape.n_nodes
    # a slot leaves the grid where its row or its column does: two (side, n_slots) tables
    rr, cc = np.arange(shape.h)[:, None] + offs[:, 0], np.arange(shape.w)[:, None] + offs[:, 1]
    off = ((rr < 0) | (rr >= shape.h))[:, None] | ((cc < 0) | (cc >= shape.w))
    # node id plus the offset's id step, or in place the node's own id off the grid
    itype = _csr_index_dtype(n, len(offs))
    ids = np.arange(n, dtype=itype)[:, None]
    nbr_safe = ids + (offs @ [shape.w, 1]).astype(itype)
    np.copyto(nbr_safe, ids, where=off.reshape(n, len(offs)))
    # raster order of a point-symmetric stencil puts -offsets[c] at slot n-1-c
    recip = np.arange(len(offs) - 1, -1, -1)
    for arr in (nbr_safe, recip):
        arr.setflags(write=False)
    return GridAdjacency(shape, nbr_safe, recip)


def _csr_index_dtype(n_nodes: int, n_slots: int) -> type:
    """Index dtype for a CSR matrix with at most ``n_slots`` entries per row.

    int32 while every row pointer, at most ``n_nodes * n_slots``, stays below
    2**31; int64 beyond, so large grids never wrap around.
    """
    return np.int32 if n_nodes * n_slots < 2**31 else np.int64


_BLOCK_ENTRIES = 512 * 80  # per block of rows: its temporaries stay near 320 KB


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices covering ``range(n)`` for steps whose temporaries hold ``width``
    entries per row: blocks of ``_BLOCK_ENTRIES // width`` rows, the last one
    taking the remainder, so no block but a lone one is shorter."""
    rows = max(1, _BLOCK_ENTRIES // max(width, 1))
    starts = list(range(0, max(n - rows, 0) + 1, rows))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _on_two_threads(fn, blocks) -> None:
    """Call ``fn(block)`` for every block: the first half of the blocks, in
    order, on one started thread, the rest here. The first exception from
    either thread is raised once both are done, and no thread outlives the
    call. ``fn`` must write only its own block's share of the output."""
    blocks = list(blocks)
    half = len(blocks) // 2
    failed = []

    def run(part):
        try:
            for block in part:
                fn(block)
        except BaseException as exc:  # left in a thread, it would only be printed
            failed.append(exc)

    worker = threading.Thread(target=run, args=(blocks[:half],)) if half else None
    if worker is not None:
        worker.start()
    try:
        run(blocks[half:])
    finally:
        if worker is not None:
            worker.join()
    if failed:
        raise failed[0]


@lru_cache(maxsize=1)
def _csr_kernels():
    """scipy's compiled CSR kernels, ``scipy.sparse._sparsetools``, loaded from
    their extension file alone: ``import scipy.sparse`` would run the whole
    package (about 0.15 s) for a file that loads in about 1 ms. ``find_spec``
    finds scipy without running its ``__init__``, and a ``FileFinder`` the file
    by the extension suffixes. The module is registered under its own name, so
    a later ``import scipy.sparse`` uses this one."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed; flowseg needs its CSR kernels")
    folder = os.path.join(spec.submodule_search_locations[0], "sparse")
    extensions = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
    found = machinery.FileFinder(folder, extensions).find_spec("scipy.sparse._sparsetools")
    if found is None:
        raise ImportError(f"no _sparsetools extension file for scipy's CSR kernels in {folder}")
    module = importlib.util.module_from_spec(found)
    found.loader.exec_module(module)
    return module


def stencil_sum(weights: np.ndarray, feats: np.ndarray, adj: GridAdjacency) -> np.ndarray:
    """``out[i] = sum_c weights[i, c] * feats[nbr_safe[i, c]]`` for (N, n_slots)
    weights, 0 on every off-grid slot, and (N, C) finite features.

    The rows run in two halves, [0, n // 2) and [n // 2, n), one per thread.
    Each hands its rows of both tables to the CSR kernel that ``csr_array @``
    calls, loaded by :func:`_csr_kernels` without ``import scipy.sparse``,
    which adds their products straight into its rows of the zeroed output. An
    off-grid slot is an entry at its own column that adds +0.0 to its row.
    Each row sums from zero in slot order, so the result is the in-grid sum
    bit for bit, and no sum crosses the threads. Tables of other shapes raise
    ``ValueError``: the kernel would read or write past their buffers."""
    n, n_slots = adj.nbr_safe.shape
    if np.shape(weights) != (n, n_slots) or np.ndim(feats) != 2 or len(feats) != n:
        raise ValueError(
            f"stencil_sum needs ({n}, {n_slots}) weights and ({n}, C) features, "
            f"got {np.shape(weights)} and {np.shape(feats)}"
        )
    kernels = _csr_kernels()
    dtype = np.result_type(weights, feats)
    # the kernel reads raveled tables of one dtype: no copy for the layer's f64
    weights, feats = (np.ascontiguousarray(a, dtype) for a in (weights, feats))
    out = np.zeros(feats.shape, dtype)
    indptr = n_slots * np.arange(n - n // 2 + 1, dtype=adj.nbr_safe.dtype)

    def half(rows):
        m = rows.stop - rows.start
        kernels.csr_matvecs(
            m, n, feats.shape[1], indptr[: m + 1], adj.nbr_safe[rows].ravel(),
            weights[rows].ravel(), feats.ravel(), out[rows].ravel(),
        )

    _on_two_threads(half, [slice(0, n // 2), slice(n // 2, n)])
    return out
