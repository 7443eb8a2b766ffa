"""Ground-truth displacement synthesis: same-label diffusion of pixel coordinates."""

from __future__ import annotations

import numpy as np

from .grid import GridShape, _csr_index_dtype, _csr_kernels, _on_two_threads, disk, stencil_offsets


def _same_label_operator(lab: np.ndarray, radius: int):
    """``(indptr, indices, data)`` of the 0/1 CSR matrix linking each labeled
    pixel to its same-label disk neighbors in slot order; a pixel with none,
    background included, links to itself alone, so no row is empty."""
    h, w = lab.shape
    n = h * w
    # the center offset comes last, as the self column
    offs = np.array(stencil_offsets(disk(radius)) + ((0, 0),))
    side = 2 * radius + 1
    # window (i, j) is the side x side square centred on pixel (i, j); out-of-grid
    # offsets read label 0, which never matches a kept (positive) row
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(lab, radius), (side, side))
    same = np.equal(windows, lab[:, :, None, None], order="C").reshape(n, side * side)
    same = np.take(same, (offs + radius) @ [side, 1], axis=1)
    same[lab.ravel() == 0, :-1] = False
    itype = _csr_index_dtype(n, len(offs) - 1)
    neighbors = same[:, :-1].sum(axis=1, dtype=itype)
    same[:, -1] = neighbors == 0
    indptr = np.r_[0, np.cumsum(np.maximum(neighbors, 1))].astype(itype)
    # the padded map and the full column table are freed before the data is made
    del windows
    indices = (np.arange(n, dtype=itype)[:, None] + (offs @ [w, 1]).astype(itype))[same]
    return indptr, indices, np.ones(indices.size)


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
    matrix, then divides by each row's entry count; a pixel that cannot move
    holds only its own column, so it keeps its coordinate (0.0 + x, over 1).
    The product is scipy's CSR kernel, the one ``csr_array @ vector`` calls,
    loaded without ``import scipy.sparse``; it sums each row from zero into
    a buffer allocated once per plane. Accumulation is in float64 with a
    fixed CSR row order, equal to slot order. The two planes run on two
    threads and no sum crosses them, so results are deterministic.
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
    n = shape.n_nodes
    indptr, indices, data = _same_label_operator(lab, radius)
    count = np.diff(indptr).astype(np.float64)
    kernels = _csr_kernels()

    # the row and column coordinates never mix, so each plane iterates alone:
    # plane 0 on a second thread, plane 1 here (the kernel releases the GIL)
    out = np.empty((n, 2))
    starts = np.divmod(np.arange(n, dtype=np.int64), shape.w)

    def iterate(plane):
        start = starts[plane].astype(np.float64)
        coords, total = start.copy(), np.empty(n)
        for _ in range(iters):
            total.fill(0.0)  # the kernel adds each row's sum to what is there
            kernels.csr_matvec(n, n, indptr, indices, data, coords, total)
            np.divide(total, count, out=coords)
        out[:, plane] = coords - start

    _on_two_threads(iterate, (0, 1))
    return out.reshape(shape.h, shape.w, 2)
