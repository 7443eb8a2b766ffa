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

Maps must hold non-negative integer ids. A public metric extracts each map's
objects once, and the overlapping pairs as the objects of one joint map, so no
table spans every pair; ``evaluate`` extracts once for all four of its calls.
One rule picks each object's best counterpart and each detection match. Each
directional sum adds the per-object contributions one at a time in raster order
of the objects, starting from 0.0, so every score equals the brute-force
oracle's bit for bit. Boundaries come from one pass over each map, which lifts
every boundary point once for the squared-distance products, and the Hausdorff
distance is exact: squared distances of integer pixel coordinates need no
rounding. Two objects that are the same pixel set are at distance 0 and need no
boundary, so ``evaluate(m, m)`` builds none. For any other pair, each boundary
has a ball (centre ``c``, radius ``r`` plus 1 px of slack) holding all its
points. When the distances of the wider ball's boundary points to the narrower
ball's ``c`` spread over at least that ball's ``2 r``, the wider boundary's
directed distance is the symmetric one, and only its points within ``2 r`` of
the largest such distance can attain it (proof at ``_hausdorff``): only those
are measured. Otherwise the full product is taken.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass
class _ObjectSet:
    ids: np.ndarray            # original ids, raster order of first pixel
    index: np.ndarray | None   # (h, w) dense object index, -1 on background
    areas: np.ndarray          # pixel count per object

    @property
    def count(self) -> int:
        return len(self.ids)


def _extract(m: np.ndarray, with_index: bool = True) -> _ObjectSet:
    """The objects of map ``m``; without ``with_index``, ``index`` is None."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"instance map must be 2-D, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"instance map must be integer, got dtype {a.dtype}")
    # the raster runs of equal ids: only their values are sorted, not every pixel
    flat = a.ravel()
    new_run = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(starts, append=flat.size)
    uniq, first, inverse = np.unique(flat[starts], return_index=True, return_inverse=True)
    if uniq.size and uniq[0] < 0:
        raise ValueError("instance ids must be >= 0")
    # float sums of run lengths are exact integers below 2**53
    areas = np.bincount(inverse, weights=lengths, minlength=uniq.size).astype(np.intp)
    fg = uniq > 0
    order = np.argsort(first[fg], kind="stable")
    rank = np.full(len(uniq), -1, dtype=np.int64)
    rank[np.flatnonzero(fg)[order]] = np.arange(order.size)
    index = np.repeat(rank[inverse], lengths).reshape(a.shape) if with_index else None
    return _ObjectSet(ids=uniq[fg][order], index=index, areas=areas[fg][order])


def _best(rows: np.ndarray, cols: np.ndarray, n: np.ndarray, size: int) -> np.ndarray:
    """One (2, size) array: per row 0..size-1, the column of largest ``n`` (the
    lowest on a tie), then that ``n``; -1 and 0 for a row with no entry."""
    order = np.lexsort((cols, -n, rows))
    first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
    best = np.full((2, size), [[-1], [0]])
    best[:, rows[first]] = cols[first], n[first]
    return best


def _pair(pred: np.ndarray, gt: np.ndarray) -> tuple:
    """Object sets of both maps, then each side's ``_best`` (counterparts, shared pixels)."""
    g, p = _extract(gt), _extract(pred)
    if g.index.shape != p.index.shape:
        raise ValueError("prediction and ground truth shapes differ")
    # each pixel's joint id, 1 + g * p.count + p, or 0 where either map has
    # background, built in place: one (h, w) array beside the two indices,
    # whose objects are read for their ids and areas only
    joint = g.index * p.count
    joint += p.index
    joint += 1
    joint *= (g.index >= 0) & (p.index >= 0)
    pairs = _extract(joint, with_index=False)
    i, j = np.divmod(pairs.ids - 1, p.count)
    return g, p, _best(i, j, pairs.areas, g.count), _best(j, i, pairs.areas, p.count)


@dataclass
class MatchReport:
    """Detection bookkeeping under the strict-majority overlap rule."""

    tp: int
    fp: int
    fn: int
    gt_ids: list[int]
    pred_ids: list[int]
    matched_pred: list[int | None]  # per GT object, raster order


def match_objects(pred: np.ndarray, gt: np.ndarray, *, _paired=None) -> MatchReport:
    """Detection match of every ground-truth object (module docstring rule)."""
    g, p, (best, shared), _ = _paired or _pair(pred, gt)
    # predictions are disjoint, so a strict majority is its object's best overlap
    rows = np.flatnonzero(2 * shared > g.areas)
    claim, _ = _best(best[rows], rows, shared[rows], p.count)
    hit = np.flatnonzero(claim >= 0)
    matched = np.full(g.count, -1)
    matched[claim[hit]] = hit
    return MatchReport(
        tp=hit.size,
        fp=p.count - hit.size,
        fn=g.count - hit.size,
        gt_ids=g.ids.tolist(),
        pred_ids=p.ids.tolist(),
        matched_pred=[int(p.ids[j]) if j >= 0 else None for j in matched],
    )


def obj_f1(pred: np.ndarray, gt: np.ndarray, *, _paired=None) -> float:
    """Object detection F1 under the strict-majority overlap rule; two maps
    with no objects at all agree vacuously (1.0)."""
    rep = match_objects(pred, gt, _paired=_paired)
    if not rep.gt_ids and not rep.pred_ids:
        return 1.0
    return 2.0 * rep.tp / (2.0 * rep.tp + rep.fp + rep.fn)


def _ordered_sum(terms: np.ndarray) -> float:
    """0.0 plus each term in turn, as a loop adds them (``np.sum`` pairs them)."""
    return float(np.cumsum(np.append(0.0, terms))[-1])


def obj_dice(pred: np.ndarray, gt: np.ndarray, *, _paired=None) -> float:
    """Area-weighted symmetric object Dice; unmatched objects contribute 0."""
    g, p, gt_best, pred_best = _paired or _pair(pred, gt)
    if g.count == 0 and p.count == 0:
        return 1.0

    def one_side(areas, other_areas, best, shared):
        i = np.flatnonzero(best >= 0)
        return _ordered_sum(areas[i] / areas.sum() * 2.0 * shared[i] / (areas[i] + other_areas[best[i]]))

    return 0.5 * (one_side(g.areas, p.areas, *gt_best) + one_side(p.areas, g.areas, *pred_best))


def _lift(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The "from" rows [-2p, |p|², 1] and the "to" rows [q, 1, |q|²] of (m, 2)
    points: from(p) · to(q) = |p - q|²."""
    x, y = pts.T
    sq = x * x + y * y
    one = np.ones(len(pts))
    return np.stack([-2.0 * x, -2.0 * y, sq, one], axis=1), np.stack([x, y, one, sq], axis=1)


def _boundaries(objs: _ObjectSet) -> list[tuple]:
    """Per object, the entry (centre, radius, frm, to) of its boundary pixels
    (4-neighbor rule) in raster order, from one pass over the whole index map:
    the centre and radius of a ball holding them all (radius plus 1 px of
    slack), and the points' ``_lift`` rows, each point lifted once. A point's
    coordinates are the first two columns of its "to" row."""
    index = objs.index
    n, w = index.size, index.shape[1]
    # true where a pixel is no boundary point: background, or (off the grid
    # edge) a pixel whose four neighbours share its object
    skip = index < 0
    across = index[:, 1:] == index[:, :-1]
    down = index[1:] == index[:-1]
    skip[1:-1, 1:-1] |= across[1:-1, :-1] & across[1:-1, 1:] & down[:-1, 1:-1] & down[1:, 1:-1]
    k = np.flatnonzero(~skip)
    owner = index.ravel()[k]
    # the keys owner * n + k, below n**2, sort the points by owner, then raster
    rows, cols = np.divmod(np.sort(owner * n + k) % n, w)
    frm, to = _lift(np.stack([rows, cols], axis=1).astype(np.float64))
    pts = to[:, :2]
    # every object has a boundary pixel, so no run of points is empty
    counts = np.bincount(owner, minlength=objs.count)
    ends = np.cumsum(counts)
    starts = ends - counts
    centre = (np.minimum.reduceat(pts, starts) + np.maximum.reduceat(pts, starts)) / 2
    off = pts - centre.repeat(counts, axis=0)
    radius = np.maximum.reduceat(np.hypot(*off.T), starts) + 1.0
    spans = zip(starts.tolist(), ends.tolist())
    return [(c, r, frm[a:b], to[a:b]) for (a, b), c, r in zip(spans, centre, radius)]


def _sq_dists(frm: np.ndarray, to: np.ndarray) -> np.ndarray:
    """(m, n) squared distances of m points to n points, from their ``_lift``
    "from" and "to" rows; every term is an integer below 2**53, so the result
    is exact whatever the summation order."""
    return frm @ to.T


def _hausdorff(a: tuple, b: tuple) -> float:
    """Symmetric Hausdorff distance of two ``_boundaries`` entries.

    Name the entries so that A's ball is no wider than B's. Every point of A
    lies within r_A of c_A. With e_b = |b - c_A| for the points b of B, the
    point nearest c_A gives h(A->B) <= r_A + min e_b, and the point farthest
    from c_A lies at least max e_b - r_A from every point of A, so
    h(B->A) >= max e_b - r_A. If max e_b - min e_b >= 2 r_A, then
    h(B->A) >= h(A->B), so the symmetric distance is h(B->A). A point b with
    e_b < max e_b - 2 r_A has d(b, A) <= e_b + r_A < max e_b - r_A, so it
    attains no maximum: only the others are measured against all of A.
    Otherwise every e_b lies within 2 r_A of the smallest, so the ball rules
    out no point of B as a maximiser or a nearest neighbour, and the full
    product is taken.

    The mirror test, with A and B swapped, never holds: the distances of A's
    points to c_B spread over at most A's diameter, at most 2 (r_A - 1) <
    2 r_B.

    The proof holds for any radius rho of a ball about c_A that holds A, and
    r_A - 1/2 is one: r_A carries 1 px of slack over A's largest distance to
    c_A. All of B's e_b² come from one product of B's "to" rows with the
    lifted centre [-2 c_A, |c_A|², 1]. The metric's centres are half-integers,
    so that product is exact, and max e_b and min e_b are correctly rounded
    square roots. A point is kept when e_b² >= (max e_b - 2 r_A)², both sides
    non-negative in that branch. For any other centre, as a test may pass,
    the product rounds: an e_b² near 0 can come out below 0 and is read as 0,
    and each e_b is off by some eps far below 1/4 px. The slack absorbs it:
    the test passes only if the true spread is at least 2 r_A - 2 eps >=
    2 rho, and a dropped point has a true e_b below
    max e_b - 2 r_A + 2 eps <= max e_b - 2 rho.
    """
    (ca, ra, frm_a, _), (_, _, _, to_b) = sorted((a, b), key=lambda entry: entry[1])
    e2 = to_b @ np.array([-2.0 * ca[0], -2.0 * ca[1], ca @ ca, 1.0])
    near, far = np.sqrt(max(e2.min(), 0.0)), np.sqrt(max(e2.max(), 0.0))
    # squared distances are exact, so the square root of an extreme equals
    # the Euclidean distance bit for bit
    if far - near >= 2 * ra:
        kept = np.compress(e2 >= (far - 2 * ra) ** 2, to_b, axis=0)
        return float(np.sqrt(_sq_dists(frm_a, kept).min(axis=0).max()))
    d2 = _sq_dists(frm_a, to_b)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


def obj_hd(pred: np.ndarray, gt: np.ndarray, *, _paired=None) -> float:
    """Area-weighted symmetric object Hausdorff distance over boundary pixels.

    Objects pair by largest overlap; an object with no overlapping counterpart
    pairs with the counterpart of minimal symmetric Hausdorff distance. Both
    maps empty of objects gives 0.0; exactly one empty gives the image
    diagonal.
    """
    g, p, (gt_best, gt_shared), (pred_best, _) = _paired or _pair(pred, gt)
    if g.count == 0 and p.count == 0:
        return 0.0
    h, w = g.index.shape
    if g.count == 0 or p.count == 0:
        return float(np.hypot(h - 1, w - 1))

    @functools.cache
    def bounds():
        return _boundaries(g), _boundaries(p)

    @functools.cache
    def hd(i, j):
        if gt_best[i] == j and gt_shared[i] == g.areas[i] == p.areas[j]:
            return 0.0  # the same pixel set
        gt_bounds, pred_bounds = bounds()
        return _hausdorff(gt_bounds[i], pred_bounds[j])

    def one_side(areas, best, pair_hd, n_other):
        dist = [
            pair_hd(i, j) if j >= 0 else min(pair_hd(i, k) for k in range(n_other))
            for i, j in enumerate(best)
        ]
        return _ordered_sum(areas / areas.sum() * np.array(dist))

    gt_side = one_side(g.areas, gt_best, hd, p.count)
    pred_side = one_side(p.areas, pred_best, lambda j, i: hd(i, j), g.count)
    return 0.5 * (gt_side + pred_side)


def evaluate(pred: np.ndarray, gt: np.ndarray) -> dict:
    """All three metrics plus per-object detection records.

    Keys: ``obj_f1``, ``obj_dice``, ``obj_hd``, and ``per_object``: one record
    per ground-truth object in raster order with ``gt_id``, ``pred_id`` (the
    detection match, or null), ``gt_area``, and ``overlap`` (pixels shared
    with that match).
    """
    paired = _pair(pred, gt)
    g, _, (_, shared), _ = paired
    rep = match_objects(pred, gt, _paired=paired)
    # a match covers a strict majority, so it shares its object's best overlap
    per_object = [
        {
            "gt_id": gid,
            "pred_id": pid,
            "gt_area": int(area),
            "overlap": 0 if pid is None else int(n),
        }
        for gid, pid, area, n in zip(rep.gt_ids, rep.matched_pred, g.areas, shared)
    ]
    # the public names, not private helpers, so that a traced run times each metric
    return {
        "obj_f1": obj_f1(pred, gt, _paired=paired),
        "obj_dice": obj_dice(pred, gt, _paired=paired),
        "obj_hd": obj_hd(pred, gt, _paired=paired),
        "per_object": per_object,
    }
