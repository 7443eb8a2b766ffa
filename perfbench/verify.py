"""Output checks made apart from the program.

Each check is either an independent numpy computation or a property the
method must have; none compares against a stored copy of earlier output.
Instance maps are compared as partitions (a bijection between ids, with id 0
kept for background) and fields within a tolerance, because instance ids
legitimately change when a field changes in its last bits.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

EXP_CLAMP = 30.0  # largest exponent of an edge weight
STD_TOL = 1e-9  # standardized channels: |mean| and |std - 1| at most this
FD_STEP = 1e-6  # step of the central finite difference


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the maps induce the same partition with the same background."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape or not np.array_equal(a == 0, b == 0):
        return False
    key = a.astype(np.int64) * (int(b.max(initial=0)) + 1) + b
    pairs = np.unique(key)
    return pairs.size == np.unique(a).size == np.unique(b).size


def one_step_mean(labels: np.ndarray, radius: int) -> np.ndarray:
    """Displacement after one same-label disk-mean step, from shifted slices.

    Every labelled pixel moves to the mean coordinate of its in-grid
    same-label neighbours within ``radius`` (centre excluded); a pixel with
    no such neighbour, and every background pixel, keeps the zero vector.
    """
    lab = np.asarray(labels)
    h, w = lab.shape
    pad = np.pad(lab, radius, constant_values=-1)
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    acc = np.zeros((h, w, 2))
    count = np.zeros((h, w))
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            if (dr, dc) == (0, 0) or dr * dr + dc * dc > radius * radius:
                continue
            nb = pad[radius + dr : radius + dr + h, radius + dc : radius + dc + w]
            same = (nb == lab) & (lab > 0)
            acc[..., 0] += same * (rows + dr)
            acc[..., 1] += same * (cols + dc)
            count += same
    moved = count > 0
    out = np.zeros((h, w, 2))
    start = np.stack([rows, cols], axis=-1)
    out[moved] = acc[moved] / count[moved, None] - start[moved]
    return out


def movable_pixels(labels: np.ndarray, radius: int) -> int:
    """Labelled pixels with at least one same-label neighbour within ``radius``."""
    lab = np.asarray(labels)
    h, w = lab.shape
    pad = np.pad(lab, radius, constant_values=-1)
    any_same = np.zeros((h, w), dtype=bool)
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            if (dr, dc) == (0, 0) or dr * dr + dc * dc > radius * radius:
                continue
            any_same |= pad[radius + dr : radius + dr + h, radius + dc : radius + dc + w] == lab
    return int((any_same & (lab > 0)).sum())


def overlap_table(gt: np.ndarray, pred: np.ndarray) -> dict[tuple[int, int], int]:
    """Pixel counts shared by each (gt id, pred id) pair of foreground objects."""
    g = np.asarray(gt).ravel()
    p = np.asarray(pred).ravel()
    both = (g > 0) & (p > 0)
    pairs, counts = np.unique(np.stack([g[both], p[both]]), axis=1, return_counts=True)
    return {(int(i), int(j)): int(n) for (i, j), n in zip(pairs.T, counts)}


def expected_f1(gt: np.ndarray, pred: np.ndarray) -> float:
    """Object F1 under the strict-majority rule, from the overlap table alone.

    Predictions are disjoint, so a ground-truth object has at most one
    prediction covering more than half of it, and a prediction is a true
    positive iff it covers more than half of some ground-truth object.
    """
    g_ids, g_areas = np.unique(gt[gt > 0], return_counts=True)
    n_pred = np.unique(pred[pred > 0]).size
    area = dict(zip(g_ids.tolist(), g_areas.tolist()))
    hits = {j for (i, j), n in overlap_table(gt, pred).items() if 2 * n > area[i]}
    if g_ids.size + n_pred == 0:
        return 1.0
    return 2.0 * len(hits) / (g_ids.size + n_pred)


def boundary_pixels(m: np.ndarray) -> int:
    """Foreground pixels with a 4-neighbour outside their object (grid edge counts)."""
    a = np.asarray(m)
    pad = np.pad(a, 1, constant_values=-1)
    h, w = a.shape
    inner = np.ones_like(a, dtype=bool)
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        inner &= pad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w] == a
    return int(((a > 0) & ~inner).sum())


def _shift(a: np.ndarray, dr: int, dc: int) -> np.ndarray:
    """``out[r, c] = a[r + dr, c + dc]``, zero where that leaves the grid."""
    h, w = a.shape[:2]
    out = np.zeros_like(a)
    out[max(0, -dr) : h - max(0, dr), max(0, -dc) : w - max(0, dc)] = a[
        max(0, dr) : h + min(0, dr), max(0, dc) : w + min(0, dc)
    ]
    return out


def stencil_offsets(kind: str, size: int) -> list[tuple[int, int]]:
    """Offsets of a square of side ``size`` or a disk of radius ``size``.

    Raster order, centre excluded; the position of an offset is its slot.
    """
    reach = (size - 1) // 2 if kind == "square" else size
    return [
        (dr, dc)
        for dr in range(-reach, reach + 1)
        for dc in range(-reach, reach + 1)
        if (dr, dc) != (0, 0) and (kind == "square" or dr * dr + dc * dc <= size * size)
    ]


def anisotropic_aggregate(x: np.ndarray, shape, offsets, params) -> np.ndarray:
    """Standardized ``sum_j exp(min(q_i[c] + q_j[c'], 30)) x_j`` over in-grid slots.

    ``x`` is (h*w, C) in row-major node order; j is node i moved by
    ``offsets[c]`` and c' the slot of the opposite offset. The queries come
    from the layer's perceptron, and every channel is standardized over
    nodes with the population variance.
    """
    h, w = shape
    q = (np.maximum(x @ params.w1 + params.b1, 0.0) @ params.w2 + params.b2).reshape(h, w, -1)
    grid = x.reshape(h, w, -1)
    inside = np.ones((h, w), dtype=bool)
    slot = {off: c for c, off in enumerate(offsets)}
    agg = np.zeros_like(grid)
    for c, (dr, dc) in enumerate(offsets):
        back = _shift(q[..., slot[(-dr, -dc)]], dr, dc)
        weight = np.where(_shift(inside, dr, dc), np.exp(np.minimum(q[..., c] + back, EXP_CLAMP)), 0.0)
        agg += weight[..., None] * _shift(grid, dr, dc)
    agg = agg.reshape(x.shape)
    centered = agg - agg.mean(axis=0)
    return centered / np.sqrt((centered**2).mean(axis=0))


def depthwise(grid: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel k × k cross-correlation with zero padding, from shifted slices."""
    half = kernels.shape[1] // 2
    out = np.zeros_like(grid)
    for dr in range(-half, half + 1):
        for dc in range(-half, half + 1):
            out += kernels[:, half + dr, half + dc] * _shift(grid, dr, dc)
    return out


def _raster_ids(m: np.ndarray) -> list[int]:
    """Object ids in raster order of their first pixel."""
    ids, first = np.unique(m.ravel(), return_index=True)
    return [int(i) for i in ids[np.argsort(first)] if i > 0]


def _boundary_trees(m: np.ndarray) -> dict[int, cKDTree]:
    """A k-d tree over each object's boundary pixels (4-neighbour rule)."""
    h, w = m.shape
    pad = np.pad(m, 1, constant_values=-1)
    edge = np.zeros((h, w), dtype=bool)
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        edge |= pad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w] != m
    rows, cols = np.nonzero(edge & (m > 0))
    ids = m[rows, cols]
    order = np.argsort(ids, kind="stable")
    ids, pts = ids[order], np.stack([rows[order], cols[order]], axis=1).astype(np.float64)
    uniq, start = np.unique(ids, return_index=True)
    return {int(k): cKDTree(p) for k, p in zip(uniq, np.split(pts, start[1:]))}


def hausdorff_score(pred: np.ndarray, gt: np.ndarray) -> float:
    """Area-weighted symmetric object Hausdorff distance over boundary pixels.

    Each object pairs with the counterpart it shares most pixels with (the
    earlier in raster order on a tie); each side weighs its objects by their
    share of that side's foreground, and the two sides are averaged. Every
    object must share pixels with some counterpart, as every object of a map
    inside a full tiling does.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    trees = {0: _boundary_trees(gt), 1: _boundary_trees(pred)}
    ids = {0: _raster_ids(gt), 1: _raster_ids(pred)}
    areas = {0: dict(zip(*np.unique(gt[gt > 0], return_counts=True))),
             1: dict(zip(*np.unique(pred[pred > 0], return_counts=True)))}
    table = overlap_table(gt, pred)

    def distance(i, j):  # gt object i, pred object j
        a, b = trees[0][i], trees[1][j]
        return max(b.query(a.data)[0].max(), a.query(b.data)[0].max())

    total = 0.0
    for side in (0, 1):
        rank = {k: n for n, k in enumerate(ids[1 - side])}
        best: dict[int, tuple] = {}
        for pair, shared in table.items():
            own, other = pair[side], pair[1 - side]
            best[own] = max(best.get(own, (0, 0)), (shared, -rank[other]))
        pair_distance = distance if side == 0 else (lambda j, i: distance(i, j))
        weight = sum(areas[side].values())
        for k in ids[side]:
            total += areas[side][k] / weight * pair_distance(k, ids[1 - side][-best[k][1]])
    return 0.5 * total


def standardized(out, z, beta, gamma) -> bool:
    """Each channel of (out - z - beta) / gamma has mean 0 and population std 1."""
    y = (np.asarray(out).reshape(-1, len(gamma)) - np.asarray(z).reshape(-1, len(gamma)) - beta) / gamma
    return bool(np.all(np.abs(y.mean(axis=0)) <= STD_TOL) and np.all(np.abs(y.std(axis=0) - 1.0) <= STD_TOL))


def jvp_error(forward, z, dz, jvp) -> float:
    """Norm-wise relative error of a JVP against a central finite difference."""
    fd = (forward(z + FD_STEP * dz) - forward(z - FD_STEP * dz)) / (2.0 * FD_STEP)
    return float(np.linalg.norm(jvp - fd) / np.linalg.norm(fd))


def scores(record: dict) -> tuple[float, float, float]:
    return (record["obj_f1"], record["obj_dice"], record["obj_hd"])
