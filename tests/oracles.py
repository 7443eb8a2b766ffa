"""Independent brute-force reference implementations used only by tests.

Everything here is written as direct loops over pixels/nodes/offsets, on
purpose: these are the oracles the vectorized library paths are checked
against, so they must not share code with the library beyond trivial
constructors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

EXP_CLAMP = 30.0


# ---------------------------------------------------------------- stencils


def offsets_square(k):
    half = (k - 1) // 2
    return [
        (dr, dc)
        for dr in range(-half, half + 1)
        for dc in range(-half, half + 1)
        if (dr, dc) != (0, 0)
    ]


def offsets_disk(r):
    return [
        (dr, dc)
        for dr in range(-r, r + 1)
        for dc in range(-r, r + 1)
        if (dr, dc) != (0, 0) and dr * dr + dc * dc <= r * r
    ]


def offsets_of(spec):
    return offsets_square(spec.size) if spec.kind == "square" else offsets_disk(spec.size)


def in_grid(h, w, spec):
    """(h*w, n_slots) bool table: True where node i's slot-c offset lands on
    the h x w grid, from the offsets and the grid bounds alone."""
    offs = offsets_of(spec)
    rows, cols = np.divmod(np.arange(h * w), w)
    table = np.zeros((h * w, len(offs)), dtype=bool)
    for c, (dr, dc) in enumerate(offs):
        table[:, c] = (0 <= rows + dr) & (rows + dr < h) & (0 <= cols + dc) & (cols + dc < w)
    return table


# ------------------------------------------------- displacement synthesis


def gt_displacement_naive(labels, radius, iters):
    """Direct transcription of the coordinate-averaging iteration.

    The binary same-label weights never change across iterations, so the
    per-pixel same-label neighbor lists are collected once up front; each
    iteration then averages over those lists from the previous iteration's
    coordinates (simultaneous update), in the same raster offset order the
    library uses.
    """
    h, w = labels.shape
    offs = offsets_disk(radius)
    flat = [int(x) for x in labels.ravel()]
    nbrs = []
    for r in range(h):
        for c in range(w):
            lst = []
            if flat[r * w + c] > 0:
                for dr, dc in offs:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and flat[rr * w + cc] == flat[r * w + c]:
                        lst.append(rr * w + cc)
            nbrs.append(lst)
    rows = [float(i // w) for i in range(h * w)]
    cols = [float(i % w) for i in range(h * w)]
    rows0, cols0 = list(rows), list(cols)
    for _ in range(iters):
        new_rows, new_cols = list(rows), list(cols)
        for i in range(h * w):
            lst = nbrs[i]
            if lst:
                new_rows[i] = sum(rows[j] for j in lst) / len(lst)
                new_cols[i] = sum(cols[j] for j in lst) / len(lst)
        rows, cols = new_rows, new_cols
    out = np.zeros((h, w, 2))
    for i in range(h * w):
        out[i // w, i % w, 0] = rows[i] - rows0[i]
        out[i // w, i % w, 1] = cols[i] - cols0[i]
    return out


# ------------------------------------------------------------- components


def components8(binary):
    """8-connected components via scipy, relabeled in raster order of first
    encounter (the library's declared id order)."""
    lab, _ = ndimage.label(np.asarray(binary) != 0, structure=np.ones((3, 3)))
    out = np.zeros_like(lab, dtype=np.int64)
    remap = {}
    h, w = lab.shape
    for r in range(h):
        for c in range(w):
            v = lab[r, c]
            if v == 0:
                continue
            if v not in remap:
                remap[v] = len(remap) + 1
            out[r, c] = remap[v]
    return out


# ----------------------------------------------------------------- metrics


def _objects(m):
    """[(id, set of (r, c))] in raster order of first pixel."""
    h, w = m.shape
    seen = {}
    order = []
    for r in range(h):
        for c in range(w):
            v = int(m[r, c])
            if v <= 0:
                continue
            if v not in seen:
                seen[v] = set()
                order.append(v)
            seen[v].add((r, c))
    return [(v, seen[v]) for v in order]


def metric_obj_f1(pred, gt):
    gt_objs = _objects(np.asarray(gt))
    pred_objs = _objects(np.asarray(pred))
    if not gt_objs and not pred_objs:
        return 1.0
    claimed = [False] * len(gt_objs)
    tp = 0
    for _, ppix in pred_objs:
        best, best_area = -1, 0
        for i, (_, gpix) in enumerate(gt_objs):
            if claimed[i]:
                continue
            inter = len(ppix & gpix)
            if 2 * inter > len(gpix) and inter > best_area:
                best, best_area = i, inter
        if best >= 0:
            claimed[best] = True
            tp += 1
    fp = len(pred_objs) - tp
    fn = sum(1 for c in claimed if not c)
    return 2.0 * tp / (2.0 * tp + fp + fn)


def _best_overlap(pix, others):
    best, best_inter = -1, 0
    for j, (_, opix) in enumerate(others):
        inter = len(pix & opix)
        if inter > best_inter:
            best, best_inter = j, inter
    return best, best_inter


def metric_obj_dice(pred, gt):
    gt_objs = _objects(np.asarray(gt))
    pred_objs = _objects(np.asarray(pred))
    if not gt_objs and not pred_objs:
        return 1.0
    if not gt_objs or not pred_objs:
        return 0.0

    def side(objs, others):
        total = sum(len(p) for _, p in objs)
        acc = 0.0
        for _, pix in objs:
            j, inter = _best_overlap(pix, others)
            if j >= 0:
                acc += (len(pix) / total) * 2.0 * inter / (len(pix) + len(others[j][1]))
        return acc

    return 0.5 * (side(gt_objs, pred_objs) + side(pred_objs, gt_objs))


def _boundary(pix, h, w):
    pts = []
    for r, c in pix:
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= rr < h and 0 <= cc < w) or (rr, cc) not in pix:
                pts.append((r, c))
                break
    return pts


def _hausdorff(pa, pb):
    def directed(xs, ys):
        worst = 0.0
        for x in xs:
            best = math.inf
            for y in ys:
                d = math.hypot(x[0] - y[0], x[1] - y[1])
                if d < best:
                    best = d
            worst = max(worst, best)
        return worst

    return max(directed(pa, pb), directed(pb, pa))


def metric_obj_hd(pred, gt):
    gt_arr, pred_arr = np.asarray(gt), np.asarray(pred)
    h, w = gt_arr.shape
    gt_objs = _objects(gt_arr)
    pred_objs = _objects(pred_arr)
    if not gt_objs and not pred_objs:
        return 0.0
    if not gt_objs or not pred_objs:
        return math.hypot(h - 1, w - 1)
    gt_bnd = [_boundary(p, h, w) for _, p in gt_objs]
    pred_bnd = [_boundary(p, h, w) for _, p in pred_objs]

    def side(objs, bnds, others, other_bnds):
        total = sum(len(p) for _, p in objs)
        acc = 0.0
        for i, (_, pix) in enumerate(objs):
            j, _ = _best_overlap(pix, others)
            if j < 0:
                j = min(
                    range(len(others)), key=lambda jj: _hausdorff(bnds[i], other_bnds[jj])
                )
            acc += (len(pix) / total) * _hausdorff(bnds[i], other_bnds[j])
        return acc

    return 0.5 * (
        side(gt_objs, gt_bnd, pred_objs, pred_bnd)
        + side(pred_objs, pred_bnd, gt_objs, gt_bnd)
    )


# ------------------------------------------------------------ layer oracles


def _slot_table(h, w, offs):
    """slot -> offset lookup plus reciprocal slot indices."""
    recip = [offs.index((-dr, -dc)) for dr, dc in offs]
    return recip


def oracle_query_messages(feats, params):
    n, cdim = feats.shape
    n_slots = params.w2.shape[1]
    out = np.zeros((n, n_slots))
    for i in range(n):
        hidden = []
        for j in range(cdim):
            acc = params.b1[j]
            for k in range(cdim):
                acc += feats[i, k] * params.w1[k, j]
            hidden.append(max(acc, 0.0))
        for s in range(n_slots):
            acc = params.b2[s]
            for j in range(cdim):
                acc += hidden[j] * params.w2[j, s]
            out[i, s] = acc
    return out


def oracle_diffusivity(queries, h, w, spec):
    offs = offsets_of(spec)
    recip = _slot_table(h, w, offs)
    n = h * w
    out = np.zeros((n, len(offs)))
    for r in range(h):
        for c in range(w):
            i = r * w + c
            for s, (dr, dc) in enumerate(offs):
                rr, cc = r + dr, c + dc
                if not (0 <= rr < h and 0 <= cc < w):
                    continue
                j = rr * w + cc
                out[i, s] = math.exp(min(queries[i, s] + queries[j, recip[s]], EXP_CLAMP))
    return out


def _oracle_standardize(x, groups=None):
    n, cdim = x.shape
    out = np.zeros_like(x)
    if groups is None:
        group_of = [0] * n
    else:
        group_of = [int(g) for g in np.asarray(groups).ravel()]
    for gid in sorted(set(group_of)):
        rows = [i for i in range(n) if group_of[i] == gid]
        for ch in range(cdim):
            vals = [x[i, ch] for i in rows]
            mu = sum(vals) / len(vals)
            var = sum((v - mu) ** 2 for v in vals) / len(vals)
            if var > 0:
                std = math.sqrt(var)
                for i in rows:
                    out[i, ch] = (x[i, ch] - mu) / std
    return out


def oracle_aggregate(s, feats, h, w, spec):
    offs = offsets_of(spec)
    n, cdim = feats.shape
    agg = np.zeros_like(feats)
    for r in range(h):
        for c in range(w):
            i = r * w + c
            for slot, (dr, dc) in enumerate(offs):
                rr, cc = r + dr, c + dc
                if not (0 <= rr < h and 0 <= cc < w):
                    continue
                j = rr * w + cc
                for ch in range(cdim):
                    agg[i, ch] += s[i, slot] * feats[j, ch]
    return agg


def oracle_getconv(feats, h, w, spec, params, cls=None, norm_groups=None):
    s = oracle_diffusivity(oracle_query_messages(feats, params), h, w, spec)
    if cls is not None:
        offs = offsets_of(spec)
        flat = np.asarray(cls).ravel()
        for r in range(h):
            for c in range(w):
                i = r * w + c
                for slot, (dr, dc) in enumerate(offs):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and flat[rr * w + cc] != flat[i]:
                        s[i, slot] = 0.0
    agg = oracle_aggregate(s, feats, h, w, spec)
    return feats + _oracle_standardize(agg, norm_groups) * params.gamma + params.beta


def oracle_depthwise(img, kernels):
    h, w, cdim = img.shape
    k = kernels.shape[1]
    half = k // 2
    out = np.zeros_like(img)
    for ch in range(cdim):
        for r in range(h):
            for c in range(w):
                acc = 0.0
                for dr in range(-half, half + 1):
                    for dc in range(-half, half + 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < h and 0 <= cc < w:
                            acc += img[rr, cc, ch] * kernels[ch, dr + half, dc + half]
                out[r, c, ch] = acc
    return out


def oracle_getblock(grid_feats, spec, params):
    h, w, cdim = grid_feats.shape
    mixed = np.zeros_like(grid_feats)
    dw_out = oracle_depthwise(grid_feats, params.dw)
    for r in range(h):
        for c in range(w):
            for o in range(cdim):
                acc = 0.0
                for i in range(cdim):
                    acc += params.pw[o, i] * dw_out[r, c, i]
                mixed[r, c, o] = acc
    mixed_flat = mixed.reshape(-1, cdim)
    s = oracle_diffusivity(oracle_query_messages(mixed_flat, params), h, w, spec)
    agg = oracle_aggregate(s, mixed_flat, h, w, spec)
    out = grid_feats.reshape(-1, cdim) + _oracle_standardize(agg) * params.gamma + params.beta
    return out.reshape(h, w, cdim)


# ----------------------------------------------------------- random inputs


def random_label_map(rng, h, w, max_instances=5):
    """Overlapping random rectangles (later ones win) over background."""
    labels = np.zeros((h, w), dtype=np.int64)
    for k in range(1, int(rng.integers(2, max_instances + 1))):
        rh = int(rng.integers(3, max(4, h // 2 + 1)))
        rw = int(rng.integers(3, max(4, w // 2 + 1)))
        r = int(rng.integers(0, h - rh + 1))
        c = int(rng.integers(0, w - rw + 1))
        labels[r : r + rh, c : c + rw] = k
    return labels


def eroded_with_specks(labels, rng, n_specks):
    """A ground truth and a prediction as a segmentation network might give.

    The ground truth is ``labels`` with every cell eroded by 2 px (Chebyshev):
    a pixel keeps its id only if its whole 5x5 window lies in the grid and in
    its own cell. The prediction adds ``n_specks`` 3x3 specks with new ids,
    each wholly in the eroded background and overlapping no other speck, at
    corners drawn from ``rng`` until that many fit.
    """
    h, w = labels.shape
    padded = np.pad(labels, 2)
    keep = labels > 0
    for dr in range(5):
        for dc in range(5):
            keep &= padded[dr : dr + h, dc : dc + w] == labels
    gt = np.where(keep, labels, 0)
    pred = gt.copy()
    next_id = int(labels.max()) + 1
    for _ in range(1000 * n_specks):
        if next_id > labels.max() + n_specks:
            return gt, pred
        r, c = int(rng.integers(0, h - 2)), int(rng.integers(0, w - 2))
        if not pred[r : r + 3, c : c + 3].any():
            pred[r : r + 3, c : c + 3] = next_id
            next_id += 1
    raise ValueError(f"{n_specks} specks do not fit in the eroded background")


def random_instance_pair(rng, h, w):
    """A ground-truth map and a perturbed prediction with partial overlaps."""
    gt = random_label_map(rng, h, w)
    pred = gt.copy()
    dr, dc = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
    pred = np.roll(pred, (dr, dc), axis=(0, 1))
    if dr > 0:
        pred[:dr, :] = 0
    elif dr < 0:
        pred[dr:, :] = 0
    if dc > 0:
        pred[:, :dc] = 0
    elif dc < 0:
        pred[:, dc:] = 0
    if rng.random() < 0.5:  # drop one predicted object
        ids = np.unique(pred[pred > 0])
        if len(ids):
            pred[pred == rng.choice(ids)] = 0
    if rng.random() < 0.3:  # spurious extra object
        r, c = int(rng.integers(0, h - 3)), int(rng.integers(0, w - 3))
        pred[r : r + 3, c : c + 3] = pred.max() + 1
    # random non-contiguous relabeling so ids differ from gt's
    ids = np.unique(pred[pred > 0])
    perm = rng.permutation(len(ids))
    out = np.zeros_like(pred)
    for i, v in enumerate(ids):
        out[pred == v] = 3 * int(perm[i]) + 2
    return out, gt
