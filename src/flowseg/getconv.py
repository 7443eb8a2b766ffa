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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridAdjacency, GridShape, NeighborhoodSpec, grid_adjacency, stencil_sum

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
    """Query perceptron and, when ``dz`` is given, its derivative along ``dz``."""
    pre = z @ params.w1
    pre += params.b1
    q = np.maximum(pre, 0.0) @ params.w2
    q += params.b2
    if dz is None:
        return q, None
    return q, np.where(pre > 0, dz @ params.w1, 0.0) @ params.w2


def query_messages(feats: np.ndarray, params: LayerParams) -> np.ndarray:
    """Row-wise perceptron producing one query per stencil slot, (N, n)."""
    z = np.asarray(feats, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.w1.shape[0]:
        raise ValueError(f"features must be (N, {params.w1.shape[0]}), got {z.shape}")
    return _query(z, None, params)[0]


def _require_finite(x, what):
    """``x`` as float64, if finite: an inf tangent times a 0.0 weight is NaN."""
    x = np.asarray(x, dtype=np.float64)
    # min and max carry any NaN or inf without a temporary the size of x
    if not np.isfinite([x.min(), x.max()]).all():
        raise ValueError(f"{what} must be finite")
    return x


def _pair_sum(x, adj):
    # x[i, c] + x[j, recip[c]] for j = nbr_safe[i, c], with no second temporary
    out = x[adj.nbr_safe, adj.recip]
    out += x
    return out


def _edge_weights(e, de, adj):
    """In place: ``e`` to ``exp(min(e, EXP_CLAMP))``, and ``de``, when given, to
    the derivative along it, 0 on the clamp; both exactly +0.0 off the grid, as
    :func:`stencil_sum` needs."""
    np.minimum(e, EXP_CLAMP, out=e)
    if de is not None:
        # zeroed before the product, so that no clamped slot can overflow
        de[e == EXP_CLAMP] = 0.0
        de[~adj.valid] = 0.0
    np.exp(e, out=e)
    e[~adj.valid] = 0.0
    if de is not None:
        de *= e
    return e, de


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
    q = _check_queries(queries, adj)
    return _edge_weights(_pair_sum(q, adj), None, adj)[0]


def diffusivity_jvp(queries, tangent, adj):
    """Primal edge weights and their directional derivative.

    The derivative is ``s * (dq_ij + dq_ji)`` off the clamp and exactly 0
    where the clamp is active.
    """
    q = _check_queries(queries, adj)
    dq = _require_finite(tangent, "tangent")
    return _edge_weights(_pair_sum(q, adj), _pair_sum(dq, adj), adj)


def mask_diffusivity(
    diffusivity: np.ndarray, cluster_ids: np.ndarray, adj: GridAdjacency
) -> np.ndarray:
    """Zero edge weights between nodes of different clusters; idempotent. Every
    off-grid weight comes out exactly +0.0, as :func:`stencil_sum` needs."""
    s = np.asarray(diffusivity, dtype=np.float64)
    if s.shape != (adj.shape.n_nodes, adj.n_slots):
        raise ValueError(f"diffusivity must be {(adj.shape.n_nodes, adj.n_slots)}, got {s.shape}")
    cls = np.asarray(cluster_ids).ravel()
    if cls.shape[0] != adj.shape.n_nodes:
        raise ValueError("cluster ids must cover all nodes")
    keep = adj.valid & (cls[adj.nbr_safe] == cls[:, None])
    return np.where(keep, s, 0.0)


def _group_rows(n_nodes, groups):
    if groups is None:
        return [slice(None)]
    g = np.asarray(groups).ravel()
    if g.shape[0] != n_nodes:
        raise ValueError("norm groups must cover all nodes")
    return [np.flatnonzero(g == v) for v in np.unique(g)]


def _standardize(x, dx, groups=None):
    """Per-channel zero-mean unit-variance over nodes (population variance,
    no epsilon), and its derivative along ``dx`` when given; a constant channel
    standardizes to exactly 0. With groups, statistics are taken within each
    group of nodes independently."""
    out = np.empty_like(x)
    dout = None if dx is None else np.empty_like(x)
    for rows in _group_rows(x.shape[0], groups):
        sub = x[rows]
        centered = sub - sub.mean(axis=0)
        std = np.sqrt((centered**2).mean(axis=0))
        pos = std > 0
        safe = np.where(pos, std, 1.0)
        if dx is not None:
            dsub = dx[rows]
            dcentered = dsub - dsub.mean(axis=0)
            dvar = 2.0 * (centered * dcentered).mean(axis=0)
            dout[rows] = np.where(
                pos, dcentered / safe - centered * dvar / (2.0 * safe**3), 0.0
            )
        centered /= safe
        centered[:, ~pos] = 0.0
        out[rows] = centered
    return out, dout


def _update(res, feats, weights, adj, params, groups=None, cls_mask=None, dres=None, dfeats=None):
    """``res + BN(sum_j s_ij feats_j) * gamma + beta`` for ``weights = [s, ds]``
    masked by ``cls_mask``, and its derivative along ``dres``, ``dfeats``, ``ds``
    unless ``ds`` is None. The list is emptied, so s and ds are freed early."""
    s, ds = weights
    weights.clear()
    if cls_mask is not None:
        s, ds = (None if x is None else mask_diffusivity(x, cls_mask, adj) for x in (s, ds))
    agg = stencil_sum(s, feats, adj)
    dagg = None if ds is None else stencil_sum(ds, feats, adj) + stencil_sum(s, dfeats, adj)
    del s, ds
    y, dy = _standardize(agg, dagg, groups)
    out = res + y * params.gamma + params.beta
    return out, None if dy is None else dres + dy * params.gamma


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
    cls_mask: np.ndarray | None = None,
    norm_groups: np.ndarray | None = None,
) -> np.ndarray:
    """Residual anisotropic update ``z + BN(sum_j s_ij z_j)``.

    cls_mask: optional per-node cluster ids; edges between different clusters
        are zeroed before aggregation, so messages stay intra-cluster.
    norm_groups: optional per-node group ids; normalization statistics are
        computed within each group instead of over all nodes. Passing the
        cluster ids here as well makes a node's output depend only on its own
        cluster's features (singleton groups fall under the constant-channel
        rule and standardize to 0).
    """
    z = _check_forward_input(feats, adj)
    return _update(
        z, z, [diffusivity(query_messages(z, params), adj), None], adj, params, norm_groups,
        cls_mask,
    )[0]


def getconv_forward_jvp(
    feats, tangent, adj, params, cls_mask=None, norm_groups=None
):
    z = _check_forward_input(feats, adj)
    dz = _require_finite(tangent, "tangent")
    return _update(
        z, z, list(diffusivity_jvp(*_query(z, dz, params), adj)), adj, params, norm_groups,
        cls_mask, dres=dz, dfeats=dz,
    )


def depthwise(grid_feats: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel k x k cross-correlation, zero padding, stride 1.

    ``kernels`` is (C, k, k) with k odd, and ``kernels[ch, dr + k//2,
    dc + k//2]`` weights the input at offset (dr, dc). The sum runs over the
    k*k shifted slices of the zero-padded (h, w, C) input in raster order.
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
    for a, b in np.ndindex(ker.shape[1:]):
        out += ker[:, a, b] * padded[a : a + h, b : b + w]
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
    dgrid = _require_finite(tangent, "tangent")
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
    return _edge_weights(e, de, adj)


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
    dz = _require_finite(tangent, "tangent")
    return _update(z, z, list(_iso_weights(z, dz, adj, params)), adj, params, dres=dz, dfeats=dz)
