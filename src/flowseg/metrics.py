"""Object-level segmentation metrics.

An "object" is the pixel set of one positive id in an instance map (id 0 is
background). Conventions, declared once and used by every metric:

* detection (obj_f1): a ground-truth object is detected by the prediction
  covering strictly more than 50% of its area; predictions are disjoint, so
  there is at most one such prediction. A prediction that majority-covers
  several ground-truth objects matches only the one it overlaps most (raster
  tie-break) and leaves the others undetected
* pairing (obj_dice / obj_hd): each object pairs with the counterpart of
  largest pixel overlap (raster tie-break); contributions are weighted by the
  object's share of its map's total foreground area and the two directional
  sums are averaged
* an object with no overlapping counterpart contributes Dice 0; for the
  Hausdorff sum it instead pairs with the counterpart minimizing the symmetric
  boundary Hausdorff distance, and if the other map has no objects at all the
  metric is the image diagonal ``hypot(h-1, w-1)``
* boundary pixels are foreground pixels with at least one 4-neighbor outside
  their object (out-of-grid counts as outside); distances are Euclidean

Every public metric extracts each map's objects and their overlap matrix
once. Boundaries come from one pass over each map, and the Hausdorff distance
is exact: squared distances of integer pixel coordinates need no rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class _ObjectSet:
    ids: np.ndarray        # original ids, raster order of first pixel
    index: np.ndarray      # (h, w) dense object index, -1 on background
    areas: np.ndarray      # pixel count per object

    @property
    def count(self) -> int:
        return len(self.ids)


def _extract(m: np.ndarray) -> _ObjectSet:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"instance map must be 2-D, got shape {a.shape}")
    uniq, first, inverse, counts = np.unique(
        a.ravel(), return_index=True, return_inverse=True, return_counts=True
    )
    fg = uniq > 0
    order = np.argsort(first[fg], kind="stable")
    rank = np.full(len(uniq), -1, dtype=np.int64)
    rank[np.flatnonzero(fg)[order]] = np.arange(order.size)
    index = rank[inverse].reshape(a.shape)
    return _ObjectSet(ids=uniq[fg][order], index=index, areas=counts[fg][order])


def _overlap_matrix(gt: _ObjectSet, pred: _ObjectSet) -> np.ndarray:
    both = (gt.index >= 0) & (pred.index >= 0)
    keys = gt.index[both] * pred.count + pred.index[both]
    counts = np.bincount(keys, minlength=gt.count * pred.count)
    return counts.reshape(gt.count, pred.count)


def _pair(pred: np.ndarray, gt: np.ndarray) -> tuple[_ObjectSet, _ObjectSet, np.ndarray]:
    """Object sets of both maps and their (n_gt, n_pred) overlap matrix."""
    g, p = _extract(gt), _extract(pred)
    if g.index.shape != p.index.shape:
        raise ValueError("prediction and ground truth shapes differ")
    return g, p, _overlap_matrix(g, p)


@dataclass
class MatchReport:
    """Detection bookkeeping under the strict-majority overlap rule."""

    tp: int
    fp: int
    fn: int
    gt_ids: list[int]
    pred_ids: list[int]
    matched_pred: list[int | None]          # per GT object, raster order
    overlaps: np.ndarray = field(repr=False)  # (n_gt, n_pred) pixel counts
    gt_areas: np.ndarray = field(repr=False)
    pred_areas: np.ndarray = field(repr=False)


def match_objects(pred: np.ndarray, gt: np.ndarray) -> MatchReport:
    """Detection match of every ground-truth object (module docstring rule)."""
    g, p, overlap = _pair(pred, gt)
    cand = np.where(2 * overlap > g.areas[:, None], overlap, 0)
    # a leading zero row takes the argmax of a prediction that covers no GT
    best = np.vstack([np.zeros((1, p.count), cand.dtype), cand]).argmax(axis=0) - 1
    hit = np.flatnonzero(best >= 0)
    matched = np.full(g.count, -1)
    matched[best[hit]] = hit
    return MatchReport(
        tp=hit.size,
        fp=p.count - hit.size,
        fn=g.count - hit.size,
        gt_ids=[int(i) for i in g.ids],
        pred_ids=[int(i) for i in p.ids],
        matched_pred=[int(p.ids[j]) if j >= 0 else None for j in matched],
        overlaps=overlap,
        gt_areas=g.areas,
        pred_areas=p.areas,
    )


def obj_f1(pred: np.ndarray, gt: np.ndarray) -> float:
    """Object detection F1 under the strict-majority overlap rule; two maps
    with no objects at all agree vacuously (1.0)."""
    rep = match_objects(pred, gt)
    if not rep.gt_ids and not rep.pred_ids:
        return 1.0
    return 2.0 * rep.tp / (2.0 * rep.tp + rep.fp + rep.fn)


def _best_counterparts(overlap: np.ndarray) -> np.ndarray:
    """Index of the max-overlap counterpart per row; -1 where there is no
    overlap. Ties go to the earlier object."""
    return np.where(overlap.max(axis=1) > 0, overlap.argmax(axis=1), -1)


def obj_dice(pred: np.ndarray, gt: np.ndarray) -> float:
    """Area-weighted symmetric object Dice; unmatched objects contribute 0."""
    g, p, overlap = _pair(pred, gt)
    if g.count == 0 and p.count == 0:
        return 1.0
    if g.count == 0 or p.count == 0:
        return 0.0
    gt_total = g.areas.sum()
    pred_total = p.areas.sum()

    def one_side(areas, other_areas, ov, total):
        best = _best_counterparts(ov)
        acc = 0.0
        for i in range(len(areas)):
            j = best[i]
            if j < 0:
                continue
            acc += (areas[i] / total) * 2.0 * ov[i, j] / (areas[i] + other_areas[j])
        return acc

    return float(
        0.5
        * (
            one_side(g.areas, p.areas, overlap, gt_total)
            + one_side(p.areas, g.areas, overlap.T, pred_total)
        )
    )


def _boundary_points(objs: _ObjectSet) -> list[np.ndarray]:
    """Per object, the (m, 2) coordinates of its boundary pixels (4-neighbor
    rule) in raster order, from one pass over the whole index map."""
    idx = np.pad(objs.index, 1, constant_values=-1)
    core = idx[1:-1, 1:-1]
    inner = (
        (core == idx[:-2, 1:-1])
        & (core == idx[2:, 1:-1])
        & (core == idx[1:-1, :-2])
        & (core == idx[1:-1, 2:])
    )
    rows, cols = np.nonzero((core >= 0) & ~inner)
    owner = core[rows, cols]
    order = np.argsort(owner, kind="stable")
    pts = np.stack([rows[order], cols[order]], axis=1).astype(np.float64)
    return np.split(pts, np.cumsum(np.bincount(owner, minlength=objs.count))[:-1])


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    # squared distances of integer coordinates are exact in float64, so the
    # square root of the extreme equals the Euclidean distance bit for bit
    d2 = a @ b.T
    d2 *= -2.0
    d2 += (a * a).sum(axis=1)[:, None]
    d2 += (b * b).sum(axis=1)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def obj_hd(pred: np.ndarray, gt: np.ndarray) -> float:
    """Area-weighted symmetric object Hausdorff distance over boundary pixels.

    Objects pair by largest overlap; an object with no overlapping counterpart
    pairs with the counterpart of minimal symmetric Hausdorff distance. Both
    maps empty of objects gives 0.0; exactly one empty gives the image
    diagonal.
    """
    g, p, overlap = _pair(pred, gt)
    if g.count == 0 and p.count == 0:
        return 0.0
    h, w = g.index.shape
    if g.count == 0 or p.count == 0:
        return float(np.hypot(h - 1, w - 1))
    gt_pts = _boundary_points(g)
    pred_pts = _boundary_points(p)
    cache: dict[tuple[int, int], float] = {}

    def hd(i, j):
        key = (i, j)
        if key not in cache:
            cache[key] = _hausdorff(gt_pts[i], pred_pts[j])
        return cache[key]

    def one_side(n_self, areas, total, ov, pair_hd, n_other):
        acc = 0.0
        best = _best_counterparts(ov)
        for i in range(n_self):
            j = best[i]
            if j < 0:
                j = min(range(n_other), key=lambda jj: pair_hd(i, jj))
            acc += (areas[i] / total) * pair_hd(i, j)
        return acc

    gt_side = one_side(g.count, g.areas, g.areas.sum(), overlap, hd, p.count)
    pred_side = one_side(
        p.count, p.areas, p.areas.sum(), overlap.T, lambda j, i: hd(i, j), g.count
    )
    return float(0.5 * (gt_side + pred_side))


def evaluate(pred: np.ndarray, gt: np.ndarray) -> dict:
    """All three metrics plus per-object detection records.

    Keys: ``obj_f1``, ``obj_dice``, ``obj_hd``, and ``per_object``: one record
    per ground-truth object in raster order with ``gt_id``, ``pred_id`` (the
    detection match, or null), ``gt_area``, and ``overlap`` (pixels shared
    with that match).
    """
    rep = match_objects(pred, gt)
    # a match covers a strict majority of its object, so no other prediction
    # overlaps that object as much: the shared pixels are the row's maximum
    per_object = [
        {
            "gt_id": gid,
            "pred_id": pid,
            "gt_area": int(area),
            "overlap": 0 if pid is None else int(row.max()),
        }
        for gid, pid, area, row in zip(rep.gt_ids, rep.matched_pred, rep.gt_areas, rep.overlaps)
    ]
    return {
        "obj_f1": obj_f1(pred, gt),
        "obj_dice": obj_dice(pred, gt),
        "obj_hd": obj_hd(pred, gt),
        "per_object": per_object,
    }
