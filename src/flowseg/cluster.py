"""Displacement-driven clustering on pixel grids.

The pipeline: build a transmit graph whose single out-edge per node follows
the displacement vector (landing targets built in place and rounded exactly
by ``trunc``), contract messages along it so instance boundaries drain to
zero, label 8-connected components of the surviving messages (run-based
union-find, ids in raster order of first pixel), then propagate those seed
labels back out against the direction of the edges: each node adopts the
label of the node its out-edge points to, and all rounds at once read the
seeds through the out-edge map composed by repeated squaring. Every stage is
whole-array numpy code; nothing here imports scipy.

:func:`cluster_for_masking` runs the same pipeline on a patch-averaged field
with unit energy; its ids are the ``clusters`` that
:func:`flowseg.getconv.getconv_forward` confines messages to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridShape, require_finite


@dataclass
class TransmitGraph:
    """One out-edge per node (``target``) plus a per-node message (``mes``)."""

    shape: GridShape
    target: np.ndarray
    mes: np.ndarray


def build_tg(field: np.ndarray, energy: np.ndarray) -> TransmitGraph:
    """Transmit graph of a displacement field, messages initialized to the energy.

    Each node gets one out-edge to the pixel at its own position plus its
    displacement vector, with both coordinates rounded half away from zero and
    clamped into the grid. A zero vector yields a self-loop. The messages are
    int64 for a bool or integer energy and float64 for a floating one; any
    other dtype, or an integer energy with max|e| * N >= 2**63, whose messages
    could wrap when summed, raises ``ValueError``.

    Each coordinate plane is built in place, and clamped before it is
    rounded: rounding to an integer never crosses the integer bounds 0 and
    n - 1, so the two steps commute. On the clamped, non-negative plane,
    rounding half away from zero is ``trunc(x + 0.5)``, with the same float
    sum as ``copysign(floor(|x| + 0.5), x)``, so every target is exact.
    """
    f = np.asarray(field, dtype=np.float64)
    e = np.asarray(energy)
    if f.ndim != 3 or f.shape[2] != 2:
        raise ValueError(f"field must be (h, w, 2), got {f.shape}")
    if e.shape != f.shape[:2]:
        raise ValueError(f"energy shape {e.shape} does not match field {f.shape[:2]}")
    require_finite(f, "displacement field")
    if e.dtype.kind not in "biuf":
        raise ValueError(f"energy must be bool, integer or float, got dtype {e.dtype}")
    if e.dtype.kind == "f":
        # a NaN energy would compare unequal to 0 and pass for foreground
        require_finite(e, "energy")
    elif e.dtype.kind != "b" and e.size and max(-int(e.min()), int(e.max())) * e.size >= 2**63:
        # below that, no sum of int64 messages can wrap; Python ints hold
        # uint64 values and the negated int64 minimum exactly
        raise ValueError("integer energy too large: max|energy| * pixels must be below 2**63")
    h, w = e.shape
    tr = np.arange(h).reshape(h, 1) + f[..., 0]
    tc = np.arange(w) + f[..., 1]
    for x, n in ((tr, h), (tc, w)):
        np.clip(x, 0, n - 1, out=x)
        x += 0.5
        np.trunc(x, out=x)
    # row * w + col is an integer below 2**53, so the float sum is exact
    tr *= w
    tr += tc
    target = tr.ravel().astype(np.int64)
    mes = e.ravel().astype(np.float64 if e.dtype.kind == "f" else np.int64)
    return TransmitGraph(GridShape(h, w), target, mes)


def contract(tg: TransmitGraph, t0: int = 2) -> TransmitGraph:
    """``t0`` rounds of simultaneous message accumulation along the out-edges.

    Each round, a node's message becomes the sum of the messages of the nodes
    pointing to it (zero for in-degree 0), in the messages' own dtype. Every
    node forwards to exactly one target, so the total message is conserved:
    exactly for :func:`build_tg`'s int64 messages, which do not wrap as a
    narrower integer would, nor saturate as a bool would.
    """
    if t0 < 0:
        raise ValueError("t0 must be >= 0")
    mes = tg.mes.copy()
    for _ in range(t0):
        new = np.zeros_like(mes)
        np.add.at(new, tg.target, mes)
        mes = new
    return TransmitGraph(tg.shape, tg.target.copy(), mes)


def connected_components(mes: np.ndarray, shape: GridShape) -> np.ndarray:
    """8-connected components of the nonzero support of a per-node scalar.

    Returns an (h, w) map with id 0 where the message is zero and component
    ids 1..k assigned in raster order of each component's first pixel.

    Run-based two-pass labelling: each row's horizontal runs are linked to the
    runs of the row above whose spans, widened by one column, overlap theirs,
    and linked runs are merged by hook-and-compress union-find. A component's
    root is its lowest run index, which starts at its first pixel in raster
    order, so numbering the roots in run order gives the ids above.
    """
    m = np.asarray(mes)
    if m.size != shape.n_nodes:
        raise ValueError(f"message has {m.size} entries, grid {shape} has {shape.n_nodes}")
    # a NaN or inf message would compare unequal to 0 and pass for a seed
    require_finite(m, "message")
    fg = m.reshape(shape.h, shape.w) != 0
    padded = np.zeros((shape.h, shape.w + 2), dtype=np.int8)
    padded[:, 1:-1] = fg
    # +1 where a run starts, -1 one past where it ends, keyed row * (w + 1) + col;
    # both key lists come out sorted, so runs are numbered in raster order
    step = np.diff(padded, axis=1).ravel()
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    # the runs of the row above that touch columns start - 1 .. end form the
    # slice [lo, hi) of the run list; link run a to each run b in it
    w1 = shape.w + 1
    above = starts // w1 * w1 - w1
    lo = np.searchsorted(ends, above + starts % w1)
    hi = np.searchsorted(starts, above + ends % w1, side="right")
    n_links = hi - lo
    a = np.repeat(np.arange(len(starts)), n_links)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(n_links) - n_links), n_links)
    parent = np.arange(len(starts))
    # each round merges at least two roots, so the loop ends
    while len(a):
        # hook every larger root onto the smallest root linked to it
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        # compress to roots; each root is its component's lowest run
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        keep = parent[a] != parent[b]
        a, b = a[keep], b[keep]
    ids = np.cumsum(parent == np.arange(len(starts)))[parent]
    # +id at each run's start and -id one past its end, at raster index
    # row * w + col: the running sum paints every run with its id. A run that
    # ends its row ends where the next row starts, so ends subtract
    paint = np.zeros(shape.n_nodes + 1, dtype=np.int64)
    paint[starts - starts // w1] = ids
    paint[ends - ends // w1] -= ids
    return np.cumsum(paint, out=paint)[:-1].reshape(shape.h, shape.w)


def recover(tg: TransmitGraph, ins: np.ndarray, t1: int = 8) -> np.ndarray:
    """Propagate seed labels outward against the transmit graph's edges.

    Starts from the messages ``ins`` and runs ``t1`` rounds of the same
    accumulation as :func:`contract` on the edge-reversed graph; since every
    node has exactly one in-edge there, each round reduces to adopting the
    label of the node its out-edge ``target`` points to. So ``t1`` rounds read
    ``ins`` at ``target`` composed with itself ``t1`` times, and that map is
    built by repeated squaring: for ``t1 = 8``, three squarings and one lookup
    instead of eight gathers. Returns the final (h, w) label map, in the dtype
    of ``ins``.
    """
    if t1 < 0:
        raise ValueError("t1 must be >= 0")
    ins = np.asarray(ins)
    if ins.shape != (tg.shape.h, tg.shape.w):
        raise ValueError(f"instance map shape {ins.shape} != grid {tg.shape}")
    if t1 == 0:
        return ins.copy()
    # hop is target applied to itself once for each set bit of t1 seen so far
    power, hop = tg.target, None
    while True:
        if t1 & 1:
            hop = power if hop is None else hop[power]
        t1 >>= 1
        if not t1:
            return ins.ravel()[hop].reshape(ins.shape)
        power = power[power]


def gcm(field: np.ndarray, energy: np.ndarray, t0: int = 2, t1: int = 8) -> np.ndarray:
    """Recover an instance map from a displacement field and an energy map.

    Composition of :func:`build_tg`, :func:`contract` (``t0`` rounds),
    :func:`connected_components`, and :func:`recover` (``t1`` rounds);
    pixels with zero energy are forced to id 0 at the end, so the energy map
    always bounds the recovered foreground.
    """
    tg = build_tg(field, energy)
    seeds = connected_components(contract(tg, t0).mes, tg.shape)
    ids = recover(tg, seeds, t1)
    # recover returns a new array, so the mask is applied in place
    np.copyto(ids, 0, where=np.asarray(energy) == 0)
    return ids


def cluster_for_masking(field: np.ndarray, patch: int = 4) -> np.ndarray:
    """Cluster ids on the patch-downsampled grid, with unit initial messages.

    The field is averaged over non-overlapping ``patch x patch`` blocks and
    divided by ``patch`` so the vectors are expressed in feature-grid pixel
    units, then clustered by :func:`gcm` with energy identically 1 and its
    default rounds; since ``t1 >= t0`` there, every node ends up with a
    nonzero cluster id. Requires both grid sides to be divisible by ``patch``.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != 2:
        raise ValueError(f"field must be (h, w, 2), got {f.shape}")
    h, w = f.shape[:2]
    if patch < 1 or h % patch or w % patch:
        raise ValueError(f"grid {h}x{w} not divisible into {patch}x{patch} patches")
    ds = f.reshape(h // patch, patch, w // patch, patch, 2).mean(axis=(1, 3)) / patch
    ones = np.ones((h // patch, w // patch), dtype=np.int64)
    return gcm(ds, ones)
