"""Anisotropic grid message passing and its verification hooks.

The core layer computes one scalar weight per directed edge from slot-indexed
query messages: a node emits one query per stencil slot, and the weight of
edge (i, j) is ``exp(q[i, slot of j] + q[j, slot of i])``. Because the weight
reads the *slot*, not just the endpoint identities, spatially permuting two
neighbors with identical feature multisets changes the aggregate; the
isotropic baseline in this module cannot tell them apart.

Every forward here has a ``*_jvp`` returning the primal output and its
directional derivative, used by the finite-difference checks. Both are built
from the same private primitives (query perceptron, edge weights,
standardization, residual update), each of which takes an optional tangent,
so the primal half of every JVP is the forward's own arithmetic.

The costly steps run on two threads, and every output is the one-thread
output bit for bit. The edge weights, the depthwise convolution and the
aggregation (:func:`~flowseg.grid.stencil_sum`) are row-wise: they split by
rows, and each block of rows writes only its own rows of an output allocated
before the threads start, so no sum crosses a block or a thread. The query
perceptron's BLAS products are never split, since BLAS picks its kernel by
the matrix sizes; in a JVP, the tangent's products run beside the primal's.
Normalization and the residual stay on the calling thread: they are bound by
memory traffic, and a mean split by rows would sum in another order.
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


@dataclass
class IsoParams:
    """Weights of the isotropic baseline: per-node query/key scalars."""

    wq: np.ndarray
    bq: float
    wk: np.ndarray
    bk: float
    gamma: np.ndarray
    beta: np.ndarray


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


def random_iso_params(rng: np.random.Generator, channels: int) -> IsoParams:
    return IsoParams(
        wq=PARAM_SCALE * rng.normal(size=channels),
        bq=float(PARAM_SCALE * rng.normal()),
        wk=PARAM_SCALE * rng.normal(size=channels),
        bk=float(PARAM_SCALE * rng.normal()),
        gamma=1.0 + 0.1 * rng.normal(size=channels),
        beta=0.1 * rng.normal(size=channels),
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
        np.copyto(dpre, 0.0, where=~(pre > 0))
        np.matmul(dpre, params.w2, out=dq)

    _on_two_threads(lambda task: task(), [primal] if dz is None else [tangent, primal])
    return q, dq


def query_messages(feats: np.ndarray, params: LayerParams) -> np.ndarray:
    """Row-wise perceptron producing one query per stencil slot, (N, n)."""
    z = np.asarray(feats, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.w1.shape[0]:
        raise ValueError(f"features must be (N, {params.w1.shape[0]}), got {z.shape}")
    return _query(z, None, params)[0]


def _require_finite(x, what):
    """``x`` as float64, if finite: an inf tangent times a 0.0 weight is NaN."""
    x = np.asarray(x, dtype=np.float64)
    # min and max carry any NaN or inf without a temporary the size of x; an
    # empty x (no slots, or no channels) has neither and is finite
    if x.size and not np.isfinite([x.min(), x.max()]).all():
        raise ValueError(f"{what} must be finite")
    return x


def _check_tangent(tangent, primal):
    """``tangent`` as float64, if finite and shaped like ``primal``."""
    dx = np.asarray(tangent)
    if dx.shape != primal.shape:
        raise ValueError(f"tangent must be {primal.shape}, got {dx.shape}")
    return _require_finite(dx, "tangent")


def _pair_sum(x, adj, rows, out):
    # x[i, c] + x[j, recip[c]] for j = nbr_safe[i, c], i in rows, into out
    return np.add(x[adj.nbr_safe[rows], adj.recip], x[rows], out=out)


def _edge_weights(e, de, valid):
    """In place on a block of rows: ``e`` to ``exp(min(e, EXP_CLAMP))``, and
    ``de``, when given, to the derivative along it, 0 on the clamp; both
    exactly +0.0 off the grid (``~valid``), as :func:`stencil_sum` needs."""
    off = ~valid
    np.minimum(e, EXP_CLAMP, out=e)
    if de is not None:
        # zeroed before the product, so that no clamped slot can overflow
        de[e == EXP_CLAMP] = 0.0
        de[off] = 0.0
    np.exp(e, out=e)
    e[off] = 0.0
    if de is not None:
        de *= e


def _pair_weights(q, dq, adj):
    """Edge weights from slot queries ``q``, and their derivative along ``dq``
    when given."""
    s = np.empty(adj.nbr_safe.shape)
    ds = None if dq is None else np.empty_like(s)

    def block(rows):
        _edge_weights(
            _pair_sum(q, adj, rows, s[rows]),
            None if dq is None else _pair_sum(dq, adj, rows, ds[rows]),
            adj.valid[rows],
        )

    _on_two_threads(block, _row_blocks(*s.shape))
    return s, ds


def _check_queries(queries, adj):
    q = np.asarray(queries)
    if q.shape != (adj.shape.n_nodes, adj.n_slots):
        raise ValueError(f"queries must be {(adj.shape.n_nodes, adj.n_slots)}, got {q.shape}")
    # an inf query would come out as the finite clamped weight exp(EXP_CLAMP)
    return _require_finite(q, "queries")


def diffusivity(queries: np.ndarray, adj: GridAdjacency) -> np.ndarray:
    """Per-edge weights from slot-indexed queries, (N, n_slots).

    ``s[i, c] = exp(q[i, c] + q[j, recip[c]])`` for j = nbr_safe[i, c], with
    the exponent clamped at EXP_CLAMP; out-of-grid slots get 0 (no edge). The
    result is symmetric: ``s[i, c] == s[j, recip[c]]`` exactly. Non-finite
    queries are rejected.
    """
    return _pair_weights(_check_queries(queries, adj), None, adj)[0]


def diffusivity_jvp(queries, tangent, adj):
    """Primal edge weights and their directional derivative.

    The derivative is ``s * (dq_ij + dq_ji)`` off the clamp and exactly 0
    where the clamp is active.
    """
    q = _check_queries(queries, adj)
    return _pair_weights(q, _check_tangent(tangent, q), adj)


def _confine(s, ds, clusters, adj):
    """In place, zero the weights in ``s`` and ``ds`` (when given) of every edge
    between two clusters; return both, the rows ordered by cluster id (each
    cluster's rows ascending) and the bounds of each cluster in that order.
    Without clusters, the order is None and the one group is every row."""
    if clusters is None:
        return s, ds, None, [0, adj.shape.n_nodes]
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
    order = np.argsort(cls, kind="stable")
    ids = cls[order]
    return s, ds, order, np.r_[0, np.flatnonzero(ids[1:] != ids[:-1]) + 1, len(cls)]


def _standardize(x, dx, order, bounds):
    """Per-channel zero-mean unit-variance over nodes (population variance,
    no epsilon), and its derivative along ``dx`` when given; a constant channel
    standardizes to exactly 0. Statistics are taken within each group of rows
    ``order[bounds[k]:bounds[k + 1]]`` (all rows in their order when ``order``
    is None). Overwrites ``x`` and ``dx`` unless they are reordered first.

    Every step is element-wise or a mean over all of a group's rows, which
    reduces each column in row order. The steps are bound by memory traffic,
    not arithmetic, so they run on the calling thread, in place, with one
    scratch array for the squares and one for the products."""
    if order is not None:
        x = x[order]
        dx = None if dx is None else dx[order]
    sq = np.empty_like(x)
    prod = None if dx is None else np.empty_like(x)
    for a, b in zip(bounds[:-1], bounds[1:]):
        c, t = x[a:b], sq[a:b]
        c -= c.mean(axis=0)
        std = np.sqrt(np.square(c, out=t).mean(axis=0))
        pos = std > 0
        safe = np.where(pos, std, 1.0)
        if dx is not None:
            dc, u = dx[a:b], prod[a:b]
            dc -= dc.mean(axis=0)
            dvar = 2.0 * np.multiply(c, dc, out=u).mean(axis=0)
            # dc / safe - c * dvar / (2 safe^3), in the order of that expression
            np.multiply(c, dvar, out=u)
            u /= 2.0 * safe**3
            dc /= safe
            dc -= u
            dc[:, ~pos] = 0.0
        c /= safe
        c[:, ~pos] = 0.0
    if order is None:
        return x, dx
    out = np.empty_like(x)
    out[order] = x
    if dx is not None:
        sq[order] = dx
        dx = sq
    return out, dx


def _update(res, feats, weights, adj, params, clusters=None, dres=None, dfeats=None):
    """``res + BN(sum_j s_ij feats_j) * gamma + beta`` for ``weights = [s, ds]``
    confined to ``clusters``, and its derivative along ``dres``, ``dfeats``,
    ``ds`` unless ``ds`` is None. The list is emptied, so s and ds are freed
    early."""
    s, ds = weights
    weights.clear()
    s, ds, order, bounds = _confine(s, ds, clusters, adj)
    agg = stencil_sum(s, feats, adj)
    dagg = None
    if ds is not None:
        dagg = stencil_sum(ds, feats, adj)
        dagg += stencil_sum(s, dfeats, adj)
    del s, ds
    y, dy = _standardize(agg, dagg, order, bounds)
    # in place: y * gamma + res is res + y * gamma, bit for bit
    y *= params.gamma
    y += res
    y += params.beta
    if dy is not None:
        dy *= params.gamma
        dy += dres
    return y, dy


def _check_forward_input(feats, adj):
    z = np.asarray(feats)
    n = adj.shape.n_nodes
    if z.ndim != 2 or z.shape[0] != n:
        raise ValueError(f"features must be (N, C) with N={n}, got {z.shape}")
    if n < 2:
        raise ValueError("normalization needs at least 2 nodes")
    # one NaN would poison a channel's statistics and standardize it to 0
    return _require_finite(z, "features")


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
    z = _check_forward_input(feats, adj)
    weights = [diffusivity(query_messages(z, params), adj), None]
    return _update(z, z, weights, adj, params, clusters)[0]


def getconv_forward_jvp(feats, tangent, adj, params, clusters=None):
    z = _check_forward_input(feats, adj)
    dz = _check_tangent(tangent, z)
    weights = list(diffusivity_jvp(*_query(z, dz, params), adj))
    return _update(z, z, weights, adj, params, clusters, dres=dz, dfeats=dz)


def depthwise(grid_feats: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel k x k cross-correlation, zero padding, stride 1.

    ``kernels`` is (C, k, k) with k odd, and ``kernels[ch, dr + k//2,
    dc + k//2]`` weights the input at offset (dr, dc). The sum runs over the
    k*k shifted slices of the zero-padded (h, w, C) input in raster order, by
    blocks of output rows on two threads, each block small enough to stay in
    cache across the k*k slices.
    """
    img = np.asarray(grid_feats, dtype=np.float64)
    ker = np.asarray(kernels, dtype=np.float64)
    if img.ndim != 3:
        raise ValueError(f"grid features must be (h, w, C), got {img.shape}")
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
    return np.asarray(grid_feats, dtype=np.float64) @ kernel.T


def _check_block_input(grid_feats, spec, params):
    grid = np.asarray(grid_feats, dtype=np.float64)
    if grid.ndim != 3:
        raise ValueError(f"grid features must be (h, w, C), got {grid.shape}")
    if params.dw is None or params.pw is None:
        raise ValueError("block forward needs dw and pw kernels")
    h, w, cdim = grid.shape
    adj = grid_adjacency(GridShape(h, w), spec)
    return grid, _check_forward_input(grid.reshape(-1, cdim), adj), adj


def getblock_forward(
    grid_feats: np.ndarray, spec: NeighborhoodSpec, params: LayerParams
) -> np.ndarray:
    """Depthwise conv -> pointwise conv -> anisotropic aggregation.

    ``grid_feats`` is (h, w, C) laid out on the grid. The convolved features
    feed both the query perceptron and the aggregation; the residual is the
    raw block input, so zero kernels reduce the block to the identity.
    """
    grid, z, adj = _check_block_input(grid_feats, spec, params)
    mixed = pointwise(depthwise(grid, params.dw), params.pw).reshape(z.shape)
    out = _update(z, mixed, [diffusivity(query_messages(mixed, params), adj), None], adj, params)
    return out[0].reshape(grid.shape)


def getblock_forward_jvp(grid_feats, tangent, spec, params):
    grid, z, adj = _check_block_input(grid_feats, spec, params)
    dgrid = _check_tangent(tangent, grid)
    mixed, dmixed = (
        pointwise(depthwise(x, params.dw), params.pw).reshape(z.shape) for x in (grid, dgrid)
    )
    out, dout = _update(
        z, mixed, list(diffusivity_jvp(*_query(mixed, dmixed, params), adj)), adj, params,
        dres=dgrid.reshape(z.shape), dfeats=dmixed,
    )
    return out.reshape(grid.shape), dout.reshape(grid.shape)


def _iso_weights(z, dz, adj, params):
    """Slot-blind weights ``exp(q_i + k_j)`` from row-wise linear maps, and
    their derivative along ``dz`` when given."""
    e = (z @ params.wq + params.bq)[:, None] + (z @ params.wk + params.bk)[adj.nbr_safe]
    de = None if dz is None else (dz @ params.wq)[:, None] + (dz @ params.wk)[adj.nbr_safe]
    _edge_weights(e, de, adj.valid)
    return e, de


def isotropic_attention_forward(
    feats: np.ndarray, adj: GridAdjacency, params: IsoParams
) -> np.ndarray:
    """Baseline layer whose edge weight ``exp(q_i + k_j)`` ignores slots.

    The per-node query/key scalars come from row-wise linear maps, so the
    aggregate is a pure multiset function of the neighborhood: permuting
    neighbors' spatial positions cannot change it. Aggregation, normalization,
    and residual are shared with :func:`getconv_forward`.
    """
    z = _check_forward_input(feats, adj)
    return _update(z, z, list(_iso_weights(z, None, adj, params)), adj, params)[0]


def isotropic_attention_forward_jvp(feats, tangent, adj, params):
    z = _check_forward_input(feats, adj)
    dz = _check_tangent(tangent, z)
    return _update(z, z, list(_iso_weights(z, dz, adj, params)), adj, params, dres=dz, dfeats=dz)
