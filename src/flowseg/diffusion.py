"""Ground-truth displacement synthesis: same-label diffusion of pixel coordinates."""

from __future__ import annotations

import numpy as np

from .grid import GridShape, _csr_index_dtype, _on_two_threads, disk, stencil_offsets


def _same_label_operator(lab: np.ndarray, radius: int):
    """0/1 CSR matrix linking each labeled pixel to its same-label disk
    neighbors in slot order; background rows are empty."""
    from scipy import sparse

    h, w = lab.shape
    n = h * w
    offs = np.array(stencil_offsets(disk(radius))).reshape(-1, 2)
    side = 2 * radius + 1
    # window (i, j) is the side x side square centred on pixel (i, j); out-of-grid
    # offsets read label 0, which never matches a kept (positive) row
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(lab, radius), (side, side))
    same = np.equal(windows, lab[:, :, None, None], order="C").reshape(n, side * side)
    same = np.take(same, (offs + radius) @ [side, 1], axis=1)
    same[lab.ravel() == 0] = False

    itype = _csr_index_dtype(n, len(offs))
    indptr = np.r_[0, np.cumsum(same.sum(axis=1))].astype(itype)
    # the padded map and the full column table are freed before the data is made
    del windows
    indices = (np.arange(n, dtype=itype)[:, None] + (offs @ [w, 1]).astype(itype))[same]
    return sparse.csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))


def gt_displacement(labels: np.ndarray, radius: int = 5, iters: int = 96) -> np.ndarray:
    """Displacement field pulling every labeled pixel toward its instance interior.

    Starting from each pixel's own (row, col) coordinates, every pixel with a
    positive label repeatedly has its coordinate replaced by the mean of its
    same-label disk neighbors' coordinates (center excluded, simultaneous
    update, ``iters`` rounds over a disk of ``radius``). The returned field is
    final minus initial coordinates, shaped (h, w, 2) with the row component
    in plane 0. Background pixels and pixels with no same-label neighbor keep
    the zero vector.

    Each round multiplies each coordinate plane by one fixed 0/1 sparse
    matrix, then divides by the neighbor count. Accumulation is in float64
    with a fixed CSR row order, equal to slot order. The two planes run on
    two threads and no sum crosses them, so results are deterministic and
    independent of scheduling.
    """
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {lab.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ValueError(f"label map must be integer, got dtype {lab.dtype}")
    if lab.size and lab.min() < 0:
        raise ValueError("labels must be >= 0")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if iters < 0:
        raise ValueError("iters must be >= 0")

    shape = GridShape(*lab.shape)
    # offsets longer than the grid's diagonal never land in it
    radius = max(1, min(radius, int(np.ceil(np.hypot(shape.h - 1, shape.w - 1)))))
    op = _same_label_operator(lab, radius)
    count = op.sum(axis=1)
    movable = count > 0
    denom = np.maximum(count, 1.0)

    # the row and column coordinates never mix, so each plane iterates alone:
    # plane 0 on a second thread, plane 1 here (scipy's product releases the GIL)
    out = np.empty((shape.n_nodes, 2))
    starts = np.divmod(np.arange(shape.n_nodes, dtype=np.int64), shape.w)

    def iterate(plane):
        start = coords = starts[plane].astype(np.float64)
        for _ in range(iters):
            coords = np.where(movable, (op @ coords) / denom, coords)
        out[:, plane] = coords - start

    _on_two_threads(iterate, (0, 1))
    return out.reshape(shape.h, shape.w, 2)
