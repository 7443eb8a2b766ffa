"""Pixel-grid graphs: node ids, stencil neighborhoods, adjacency tables.

Conventions shared by the whole package:

* node ids are row-major, ``id = row * w + col``
* stencil offsets are enumerated in raster order (ascending row offset,
  then ascending column offset) with the center excluded; the position of
  an offset in that enumeration is its slot index ``c``, which is the same
  for every node (boundary clipping skips offsets but never renumbers)
* square and disk stencils are point symmetric, so raster order puts the
  opposite offset ``-offsets[c]`` at slot ``n-1-c``; that is the reciprocal
  slot ``recip[c]`` of :class:`GridAdjacency`
"""

from __future__ import annotations

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


def nid(coord: tuple[int, int], shape: GridShape) -> int:
    """Row-major node id of a pixel coordinate; raises on out-of-grid input."""
    row, col = coord
    if not (0 <= row < shape.h and 0 <= col < shape.w):
        raise ValueError(f"coordinate {(row, col)} outside {shape.h}x{shape.w} grid")
    return row * shape.w + col


@lru_cache(maxsize=None)
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

    ``nbr_safe[i, c]`` is the id of node i's neighbor at slot c where
    ``valid[i, c]``, and 0 where that offset leaves the grid. In the CSR index
    dtype, it is the column table of :func:`stencil_sum`'s operator, unmasked.
    For a valid slot with j = nbr_safe[i, c], ``nbr_safe[j, recip[c]] == i``.
    """

    shape: GridShape
    spec: NeighborhoodSpec
    nbr_safe: np.ndarray
    valid: np.ndarray
    recip: np.ndarray

    @property
    def n_slots(self) -> int:
        return self.nbr_safe.shape[1]


@lru_cache(maxsize=32)
def grid_adjacency(shape: GridShape, spec: NeighborhoodSpec) -> GridAdjacency:
    offs = np.array(stencil_offsets(spec), dtype=np.int64).reshape(-1, 2)
    n = shape.n_nodes
    # a slot lands where its row and its column do: two (side, n_slots) tables
    rr, cc = np.arange(shape.h)[:, None] + offs[:, 0], np.arange(shape.w)[:, None] + offs[:, 1]
    valid = ((rr >= 0) & (rr < shape.h))[:, None] & ((cc >= 0) & (cc < shape.w))
    valid = valid.reshape(n, len(offs))
    # node id plus the offset's id step, zeroed in place off the grid
    itype = _csr_index_dtype(n, len(offs))
    nbr_safe = np.arange(n, dtype=itype)[:, None] + (offs @ [shape.w, 1]).astype(itype)
    np.multiply(nbr_safe, valid, out=nbr_safe)
    # raster order of a point-symmetric stencil puts -offsets[c] at slot n-1-c
    recip = np.arange(len(offs) - 1, -1, -1)
    for arr in (nbr_safe, valid, recip):
        arr.setflags(write=False)
    return GridAdjacency(shape, spec, nbr_safe, valid, recip)


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


def stencil_sum(weights: np.ndarray, feats: np.ndarray, adj: GridAdjacency) -> np.ndarray:
    """``out[i] = sum_c weights[i, c] * feats[nbr_safe[i, c]]`` for (N, n_slots)
    weights, 0 on every off-grid slot, and (N, C) finite features.

    The rows run in two halves, one per thread. Each half is a CSR view of
    its rows of both tables, with no copy (scipy would copy a view of less
    than half of its base): an off-grid slot is an entry at column 0 that adds
    +0.0 to its row. Each row sums from zero in slot order, so the result is
    the in-grid sum bit for bit, and each half fills only its own rows of the
    output, so no sum crosses the threads."""
    from scipy import sparse

    n, n_slots = adj.nbr_safe.shape
    # scipy ravels the features for every product: one copy here at most
    feats = np.ascontiguousarray(feats)
    out = np.empty((n,) + feats.shape[1:], np.result_type(weights, feats))

    def half(rows):
        m = rows.stop - rows.start
        indptr = n_slots * np.arange(m + 1, dtype=adj.nbr_safe.dtype)
        data, cols = weights[rows].ravel(), adj.nbr_safe[rows].ravel()
        out[rows] = sparse.csr_array((data, cols, indptr), shape=(m, n)) @ feats

    _on_two_threads(half, [slice(0, n // 2), slice(n // 2, n)])
    return out
