"""Ground-truth displacement synthesis: same-label diffusion of pixel coordinates."""

from __future__ import annotations

import numpy as np

from .grid import GridShape, _csr_index_dtype, _csr_kernels, _on_two_threads, disk, stencil_offsets


_BAND_ENTRIES = 2**18  # column-table entries per band of image rows: 1 MB of int32


def _same_label_operator(lab: np.ndarray, radius: int) -> list[tuple]:
    """The 0/1 CSR matrix linking each labeled pixel to its same-label disk
    neighbors in slot order, as bands of whole image rows; a pixel with none,
    background included, links to itself alone, so no row is empty.

    Each band ``(a, b, indptr, indices)`` holds matrix rows (pixel ids)
    ``a..b``: ``indptr`` starts at 0, and ``indices`` are global column ids.
    A band covers ``max(1, _BAND_ENTRIES // (slots * w))`` image rows, so its
    column table holds at most ``_BAND_ENTRIES`` entries unless it is a single
    row; no table for the whole map is ever built. The matrix has no data
    array: every entry is 1."""
    h, w = lab.shape
    # the center offset comes last, as the self column
    offs = np.array(stencil_offsets(disk(radius)) + ((0, 0),))
    side = 2 * radius + 1
    slots = (offs + radius) @ [side, 1]
    itype = _csr_index_dtype(h * w, len(offs) - 1)
    steps = (offs @ [w, 1]).astype(itype)
    # out-of-grid offsets read label 0, which never matches a kept (positive) row
    padded = np.pad(lab, radius)
    rows = max(1, _BAND_ENTRIES // (len(offs) * w))
    bands = []
    for top in range(0, h, rows):
        part = lab[top : top + rows]
        m = part.size
        # window (i, j) is the side x side square centred on pixel (top + i, j)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded[top : top + len(part) + 2 * radius], (side, side)
        )
        same = np.equal(windows, part[:, :, None, None], order="C").reshape(m, side * side)
        same = np.take(same, slots, axis=1)
        same[part.ravel() == 0, :-1] = False
        neighbors = same[:, :-1].sum(axis=1, dtype=itype)
        same[:, -1] = neighbors == 0
        indptr = np.r_[0, np.cumsum(np.maximum(neighbors, 1))].astype(itype)
        a = top * w
        indices = (np.arange(a, a + m, dtype=itype)[:, None] + steps)[same]
        bands.append((a, a + m, indptr, indices))
    return bands


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
    The matrix comes as :func:`_same_label_operator`'s bands of image rows,
    with no data array. The product is scipy's CSR kernel, the one
    ``csr_array @ vector`` calls, loaded without ``import scipy.sparse``: one
    call per band, into that band's rows of a buffer allocated and zeroed
    once per plane and round. For data, every call reads the front of one
    read-only array of ones, as long as the largest band, which both planes
    share. Each row is summed from zero in float64 in its CSR order, equal to
    slot order, whatever the bands. The two planes run on two threads and no
    sum crosses them, so results are deterministic.
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
    bands = _same_label_operator(lab, radius)
    count = np.concatenate([np.diff(indptr) for _, _, indptr, _ in bands]).astype(np.float64)
    ones = np.ones(max(indices.size for *_, indices in bands))
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
            for a, b, indptr, indices in bands:
                data = ones[: indices.size]
                kernels.csr_matvec(b - a, n, indptr, indices, data, coords, total[a:b])
            np.divide(total, count, out=coords)
        out[:, plane] = coords - start

    _on_two_threads(iterate, (0, 1))
    return out.reshape(shape.h, shape.w, 2)
