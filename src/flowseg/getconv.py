"""Anisotropic grid message passing and its verification hooks.

The core layer computes one scalar weight per directed edge from slot-indexed
query messages: a node emits one query per stencil slot, and the weight of
edge (i, j) is ``exp(q[i, slot of j] + q[j, slot of i])``. Because the weight
reads the *slot*, not just the endpoint identities, spatially permuting two
neighbors with identical feature multisets changes the aggregate. The same
layer with every slot's query tied to one column is isotropic: its weight
depends on the two endpoints only, and it cannot tell them apart (the
contrast of :func:`~flowseg.checks.isomorphism_probe`).

:func:`diffusivity`, :func:`getconv_forward` and :func:`getblock_forward`
each have a ``*_jvp`` returning the primal output and its directional
derivative, used by the finite-difference checks. Each layer entry
point checks its input, then calls the private ``_layer`` once for the edge
weights, aggregation, normalization and residual, which in a JVP carries the
tangent beside each step: a JVP's primal is the forward's own arithmetic. Each
entry point but :func:`pointwise` first rejects a wrong shape or a NaN or inf.

The costly steps run on two threads, and every output is the one-thread
output bit for bit. The edge weights, the depthwise convolution and the
aggregation (:func:`~flowseg.grid.stencil_sum`) are row-wise: they split by
rows, and each block of rows writes only its own rows of an output allocated
before the threads start, so no sum crosses a block or a thread. A block
gathers its reciprocal queries by one flat ``np.take`` of the C-ordered table
(another layout would be copied whole per block), in ``"wrap"`` mode, which
never wraps but, unlike the default, writes into the block's rows unbuffered.
The tangent's ReLU mask and the edge weights' masks multiply each entry's bits
by 0 or 1, as a masked copy writes them, inf included, where a float product
makes inf * 0 NaN. The query perceptron's BLAS products are never split, since
BLAS picks its kernel by the matrix sizes; in a JVP, the tangent's products run
beside the primal's.
Normalization and the residual stay on the calling thread: they are bound by
memory traffic, and a mean split by rows would sum in another order. Under
clusters, each cluster's mean is summed over its own rows in row order, as if
it were alone, though clusters of one size are normalized in shared chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridAdjacency,
    GridShape,
    NeighborhoodSpec,
    _on_two_threads,
    _row_blocks,
    grid_adjacency,
    require_finite,
    stencil_sum,
)

EXP_CLAMP = 30.0
PARAM_SCALE = 0.5  # standard deviation of random query, key and kernel weights


@dataclass
class LayerParams:
    """Weights of one anisotropic layer.

    The query perceptron is C -> C -> n_slots with ReLU between (``w1`` (C, C),
    ``b1`` (C,), ``w2`` (C, n), ``b2`` (n,)). ``gamma``/``beta`` scale and
    shift the per-channel normalization. ``dw`` (C, k, k) and ``pw`` (C, C)
    are the optional depthwise / pointwise kernels used by
    :func:`getblock_forward`: ``dw[ch, dr + k//2, dc + k//2]`` weights the
    input at offset (dr, dc), and ``pw[out_ch, in_ch]`` mixes channels.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    dw: np.ndarray | None = None
    pw: np.ndarray | None = None


def random_layer_params(
    rng: np.random.Generator, channels: int, n_slots: int, kernel: int | None = None
) -> LayerParams:
    return LayerParams(
        w1=PARAM_SCALE * rng.normal(size=(channels, channels)),
        b1=PARAM_SCALE * rng.normal(size=channels),
        w2=PARAM_SCALE * rng.normal(size=(channels, n_slots)),
        b2=PARAM_SCALE * rng.normal(size=n_slots),
        gamma=1.0 + 0.1 * rng.normal(size=channels),
        beta=0.1 * rng.normal(size=channels),
        dw=None if kernel is None else PARAM_SCALE * rng.normal(size=(channels, kernel, kernel)),
        pw=None if kernel is None else PARAM_SCALE * rng.normal(size=(channels, channels)),
    )


def _query(z, dz, params):
    """Query perceptron and, when ``dz`` is given, its derivative along ``dz``.

    Each product is one BLAS call on the whole array: BLAS picks its kernel by
    the matrix sizes, so a block of rows can round differently from the same
    rows of the whole (at 2,173 nodes, C=33 and disk(5), it does). The
    tangent's products run on a second thread, into arrays allocated here."""
    pre = z @ params.w1
    pre += params.b1
    q = np.empty((len(z), params.w2.shape[1]))
    dq, dpre = (None, None) if dz is None else (np.empty_like(q), np.empty_like(pre))

    def primal():
        np.matmul(np.maximum(pre, 0.0), params.w2, out=q)
        np.add(q, params.b2, out=q)

    def tangent():
        np.matmul(dz, params.w1, out=dpre)
        # +0.0 where not pre > 0 (NaN too), all bits kept elsewhere: what
        # copyto(dpre, 0.0, where=~(pre > 0)) writes, about 5x faster
        bits = dpre.view(np.uint64)
        np.multiply(bits, pre > 0, out=bits)
        np.matmul(dpre, params.w2, out=dq)

    _on_two_threads(lambda task: task(), [primal] if dz is None else [tangent, primal])
    return q, dq


def _finite(x, shape, what):
    """``x`` as float64, if it has ``shape`` (a name such as ``"C"`` matches any
    length) and no NaN or inf, which would pass for data: an inf query gives the
    clamped weight exp(EXP_CLAMP), and one NaN feature zeroes its channel."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != len(shape) or any(s != d for s, d in zip(shape, a.shape) if isinstance(s, int)):
        raise ValueError(f"{what} must be ({', '.join(map(str, shape))}), got {a.shape}")
    return require_finite(a, what)


def query_messages(feats: np.ndarray, params: LayerParams) -> np.ndarray:
    """Row-wise perceptron producing one query per stencil slot, (N, n)."""
    return _query(_finite(feats, ("N", params.w1.shape[0]), "features"), None, params)[0]


def _edge_weights(e, de, valid):
    """In place on a block of rows: ``e`` to ``exp(min(e, EXP_CLAMP))``, and
    ``de``, when given, to the derivative along it, 0 on the clamp; both
    exactly +0.0 off the grid (``~valid``), as :func:`stencil_sum` needs."""
    np.minimum(e, EXP_CLAMP, out=e)
    if de is not None:
        # zeroed before the product, so that no clamped slot can overflow; after
        # the minimum, e < EXP_CLAMP is e != EXP_CLAMP: finite queries sum to no NaN
        bits = de.view(np.uint64)
        np.multiply(bits, (e < EXP_CLAMP) & valid, out=bits)
    np.exp(e, out=e)
    bits = e.view(np.uint64)
    np.multiply(bits, valid, out=bits)
    if de is not None:
        de *= e


def _pair_weights(q, dq, adj):
    """Edge weights from slot queries ``q``, and their derivative along ``dq``
    when given."""
    s = np.empty(adj.nbr_safe.shape)
    ds = None if dq is None else np.empty_like(s)

    def block(rows):
        # x[j, recip[c]] + x[i, c] for j = nbr_safe[i, c], i in rows, into out,
        # by a take about 2x faster than x[nbr_safe[rows], recip] at one intp
        # index for q and dq, built with no other temporary ("wrap" never
        # wraps: every index is in range)
        flat = np.multiply(adj.nbr_safe[rows], adj.n_slots, dtype=np.intp)
        flat += adj.recip
        pair_sum = lambda x, out: np.add(np.take(x, flat, out=out, mode="wrap"), x[rows], out=out)
        de = None if dq is None else pair_sum(dq, ds[rows])
        _edge_weights(pair_sum(q, s[rows]), de, adj.valid[rows])

    _on_two_threads(block, _row_blocks(*s.shape))
    return s, ds


def diffusivity(queries: np.ndarray, adj: GridAdjacency) -> np.ndarray:
    """Per-edge weights from slot-indexed queries, (N, n_slots).

    ``s[i, c] = exp(q[i, c] + q[j, recip[c]])`` for j = nbr_safe[i, c], with
    the exponent clamped at EXP_CLAMP; out-of-grid slots get 0 (no edge). The
    result is symmetric: ``s[i, c] == s[j, recip[c]]`` exactly. Non-finite
    queries are rejected.
    """
    q = np.ascontiguousarray(_finite(queries, adj.nbr_safe.shape, "queries"))
    return _pair_weights(q, None, adj)[0]


def diffusivity_jvp(queries, tangent, adj):
    """Primal edge weights and their directional derivative.

    The derivative is ``s * (dq_ij + dq_ji)`` off the clamp and exactly 0
    where the clamp is active.
    """
    q = _finite(queries, adj.nbr_safe.shape, "queries")
    dq = _finite(tangent, q.shape, "tangent")
    return _pair_weights(*map(np.ascontiguousarray, (q, dq)), adj)


def _confine(s, ds, clusters, adj):
    """Check the cluster ids, zero in place the weights in ``s`` and ``ds``
    (when given) of every edge between two clusters, and return the ids as one
    flat array; None without clusters."""
    if clusters is None:
        return None
    cls = np.asarray(clusters).ravel()
    if cls.shape[0] != adj.shape.n_nodes:
        raise ValueError("cluster ids must cover all nodes")
    # a NaN id would fall in no group and leave its rows unwritten
    if not np.issubdtype(cls.dtype, np.integer):
        raise ValueError("cluster ids must be integer")
    # off-grid weights are +0.0 already, whatever cluster nbr_safe points at
    cut = cls[adj.nbr_safe] != cls[:, None]
    for x in (s, ds):
        if x is not None:
            x[cut] = 0.0
    return cls


def _standardize(x, dx, cls):
    """In place, per-channel zero-mean unit-variance over nodes (population
    variance, no epsilon), and its derivative along ``dx`` when given, taken
    through the output y: ``(dc - y * mean(y * dc)) / std`` for the centred
    tangent dc. A constant channel standardizes to exactly 0, value and tangent
    (for any finite tangent), even where its mean rounds. Statistics are taken
    within each cluster of ``cls``, over all rows when it is None. A standard
    deviation, or in the JVP a tangent, that overflows raises ``ValueError``
    instead of dividing its channel down to zeros or coming out as NaN.

    Whole clusters of one size are gathered, in (clusters, size, C) chunks of
    about ``grid._BLOCK_ENTRIES`` entries, and written back; without clusters
    the one block is ``x[None]``, all rows. Each cluster's rows stay ascending
    and every step is element-wise or a mean over a cluster's rows, so each
    cluster's mean is summed in row order, as if it were standardized alone.
    The steps are bound by memory traffic, so they run on the calling thread."""
    if cls is None:
        # x[None] = c writes a view onto itself, which numpy skips without a copy
        blocks = [None]
    else:
        _, inverse, counts = np.unique(cls, return_inverse=True, return_counts=True)
        size = counts[inverse]
        # by (cluster size, cluster); a stable sort keeps each cluster's rows ascending
        order = np.lexsort((inverse, size))
        cuts = np.flatnonzero(np.diff(size[order])) + 1
        sized = [rows.reshape(-1, size[rows[0]]) for rows in np.split(order, cuts)]
        blocks = [b[part] for b in sized for part in _row_blocks(len(b), b.shape[1] * x.shape[1])]
    for rows in blocks:
        c = x[rows]
        # an overflow (inf, or inf - inf = NaN) is refused, not divided into
        # zeros as c / inf would be
        with np.errstate(over="ignore", invalid="ignore"):
            mean = c.mean(axis=1, keepdims=True)
            c -= mean
            t = np.square(c)
            std = np.sqrt(t.mean(axis=1, keepdims=True))
        # a constant channel centres to its rounded mean's residue, of std up to
        # about n eps |mean| (inf once squared past 1e154), but max == min there
        if ((std <= 4 * c.shape[1] * np.finfo(float).eps * np.abs(mean)) | (std == np.inf)).any():
            std[c.max(axis=1, keepdims=True) == c.min(axis=1, keepdims=True)] = 0.0
        require_finite(std, "per-channel standard deviation")
        pos = std > 0
        safe = np.where(pos, std, 1.0)
        c /= safe
        np.copyto(c, 0.0, where=~pos)
        if dx is not None:
            dc = dx[rows]
            # (dc - y * mean(y * dc)) / std for the centred dc and the output y,
            # which is O(1): a NaN or inf here is an overflow of the tangent itself
            with np.errstate(over="ignore", invalid="ignore"):
                dc -= dc.mean(axis=1, keepdims=True)
                dc -= np.multiply(c, np.multiply(c, dc, out=t).mean(axis=1, keepdims=True), out=t)
                dc /= safe
            np.copyto(dc, 0.0, where=~pos)
            dx[rows] = require_finite(dc, "standardized tangent")
        x[rows] = c


def _layer(z, dz, adj, params, clusters=None, mix=None):
    """``z + BN(sum_j s_ij x_j) * gamma + beta`` for ``x = mix(z)``, or z without
    ``mix``, and its derivative along ``dz`` when given. The weights s of x, cut
    between ``clusters``, come from the public forward primitives, or from their
    JVPs under a tangent (x's is ``mix(dz)``)."""
    if adj.shape.n_nodes < 2:
        raise ValueError("normalization needs at least 2 nodes")
    x, dx = (z, dz) if mix is None else (mix(z), None if dz is None else mix(dz))
    if dz is None:
        s, ds = diffusivity(query_messages(x, params), adj), None
    else:
        s, ds = diffusivity_jvp(*_query(x, dx, params), adj)
    cls = _confine(s, ds, clusters, adj)
    y = stencil_sum(s, x, adj)
    dy = None
    if ds is not None:
        dy = stencil_sum(ds, x, adj)
        dy += stencil_sum(s, dx, adj)
    del s, ds
    _standardize(y, dy, cls)
    # in place: y * gamma + z is z + y * gamma, bit for bit
    y *= params.gamma
    y += z
    y += params.beta
    if dy is not None:
        dy *= params.gamma
        dy += dz
    return y, dy


def getconv_forward(
    feats: np.ndarray,
    adj: GridAdjacency,
    params: LayerParams,
    clusters: np.ndarray | None = None,
) -> np.ndarray:
    """Residual anisotropic update ``z + BN(sum_j s_ij z_j)``.

    clusters: optional per-node integer cluster ids. Edges between two
        clusters are zeroed before aggregation and each cluster takes its own
        normalization statistics, so a node's output depends only on its own
        cluster's features (a one-node cluster falls under the constant-channel
        rule and standardizes to 0).
    """
    z = _finite(feats, (adj.shape.n_nodes, "C"), "features")
    return _layer(z, None, adj, params, clusters)[0]


def getconv_forward_jvp(feats, tangent, adj, params, clusters=None):
    z = _finite(feats, (adj.shape.n_nodes, "C"), "features")
    return _layer(z, _finite(tangent, z.shape, "tangent"), adj, params, clusters)


def depthwise(grid_feats: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel k x k cross-correlation, zero padding, stride 1.

    ``kernels`` is (C, k, k) with k odd, and ``kernels[ch, dr + k//2,
    dc + k//2]`` weights the input at offset (dr, dc). The sum runs over the
    k*k shifted slices of the zero-padded (h, w, C) input in raster order, by
    blocks of output rows on two threads, each block small enough to stay in
    cache across the k*k slices.
    """
    img = _finite(grid_feats, ("h", "w", "C"), "grid features")
    ker = np.asarray(kernels, dtype=np.float64)
    h, w, cdim = img.shape
    k = ker.shape[2] if ker.ndim == 3 else 0
    if ker.shape != (cdim, k, k) or k % 2 == 0:
        raise ValueError(f"kernels must be ({cdim}, k, k) with k odd, got {ker.shape}")
    half = k // 2
    padded = np.pad(img, ((half, half), (half, half), (0, 0)))
    out = np.zeros_like(img)

    def block(rows):
        o = out[rows]
        for a, b in np.ndindex(ker.shape[1:]):
            o += ker[:, a, b] * padded[rows.start + a : rows.stop + a, b : b + w]

    _on_two_threads(block, _row_blocks(h, w * cdim))
    return out


def pointwise(grid_feats: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """1x1 channel mix: ``out[..., i] = sum_j kernel[i, j] * in[..., j]``."""
    return np.asarray(grid_feats, dtype=np.float64) @ np.asarray(kernel, dtype=np.float64).T


def _block(grid_feats, tangent, spec, params, jvp):
    """:func:`getblock_forward`, and its JVP along ``tangent`` if ``jvp``."""
    grid = _finite(grid_feats, ("h", "w", "C"), "grid features")
    if params.dw is None or params.pw is None:
        raise ValueError("block forward needs dw and pw kernels")
    h, w, cdim = grid.shape
    flat = lambda x: x.reshape(h * w, cdim)
    dz = flat(_finite(tangent, grid.shape, "tangent")) if jvp else None
    mix = lambda x: flat(pointwise(depthwise(x.reshape(grid.shape), params.dw), params.pw))
    out = _layer(flat(grid), dz, grid_adjacency(GridShape(h, w), spec), params, mix=mix)
    return tuple(y if y is None else y.reshape(grid.shape) for y in out)


def getblock_forward(
    grid_feats: np.ndarray, spec: NeighborhoodSpec, params: LayerParams
) -> np.ndarray:
    """Depthwise conv -> pointwise conv -> anisotropic aggregation.

    ``grid_feats`` is (h, w, C) laid out on the grid. The convolved features
    feed both the query perceptron and the aggregation; the residual is the
    raw block input, so zero kernels reduce the block to the identity.
    """
    return _block(grid_feats, None, spec, params, jvp=False)[0]


def getblock_forward_jvp(grid_feats, tangent, spec, params):
    return _block(grid_feats, tangent, spec, params, jvp=True)

