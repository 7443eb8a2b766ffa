"""Anisotropic grid message passing and its verification hooks.

The core layer computes one scalar weight per directed edge from slot-indexed
query messages: a node emits one query per stencil slot, and the weight of
edge (i, j) is ``exp(q[i, slot of j] + q[j, slot of i])``. Because the weight
reads the *slot*, not just the endpoint identities, spatially permuting two
neighbors with identical feature multisets changes the aggregate; the
isotropic baseline in this module cannot tell them apart.

Every forward here has a companion ``*_jvp`` returning the primal output and
its directional derivative, used by the finite-difference checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import correlate2d

from .cluster import mask_diffusivity
from .fileio import read_tensors, write_tensors
from .grid import GridAdjacency, GridShape, NeighborhoodSpec, grid_adjacency

EXP_CLAMP = 30.0


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
    rng: np.random.Generator,
    channels: int,
    n_slots: int,
    kernel: int | None = None,
    scale: float = 0.5,
) -> LayerParams:
    return LayerParams(
        w1=scale * rng.normal(size=(channels, channels)),
        b1=scale * rng.normal(size=channels),
        w2=scale * rng.normal(size=(channels, n_slots)),
        b2=scale * rng.normal(size=n_slots),
        gamma=1.0 + 0.1 * rng.normal(size=channels),
        beta=0.1 * rng.normal(size=channels),
        dw=None if kernel is None else scale * rng.normal(size=(channels, kernel, kernel)),
        pw=None if kernel is None else scale * rng.normal(size=(channels, channels)),
    )


def random_iso_params(rng: np.random.Generator, channels: int, scale: float = 0.5) -> IsoParams:
    return IsoParams(
        wq=scale * rng.normal(size=channels),
        bq=float(scale * rng.normal()),
        wk=scale * rng.normal(size=channels),
        bk=float(scale * rng.normal()),
        gamma=1.0 + 0.1 * rng.normal(size=channels),
        beta=0.1 * rng.normal(size=channels),
    )


def query_messages(feats: np.ndarray, params: LayerParams) -> np.ndarray:
    """Row-wise perceptron producing one query per stencil slot, (N, n)."""
    z = np.asarray(feats, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != params.w1.shape[0]:
        raise ValueError(f"features must be (N, {params.w1.shape[0]}), got {z.shape}")
    hidden = np.maximum(z @ params.w1 + params.b1, 0.0)
    return hidden @ params.w2 + params.b2


def _query_messages_jvp(feats, tangent, params):
    z = np.asarray(feats, dtype=np.float64)
    dz = np.asarray(tangent, dtype=np.float64)
    pre = z @ params.w1 + params.b1
    dpre = dz @ params.w1
    hidden = np.maximum(pre, 0.0)
    dhidden = np.where(pre > 0, dpre, 0.0)
    return hidden @ params.w2 + params.b2, dhidden @ params.w2


def diffusivity(queries: np.ndarray, adj: GridAdjacency) -> np.ndarray:
    """Per-edge weights from slot-indexed queries, (N, n_slots).

    ``s[i, c] = exp(q[i, c] + q[j, recip[c]])`` for j = nbr[i, c], with the
    exponent clamped at EXP_CLAMP; out-of-grid slots get 0 (no edge). The
    result is symmetric: ``s[i, c] == s[j, recip[c]]`` exactly.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.shape != (adj.shape.n_nodes, adj.n_slots):
        raise ValueError(f"queries must be {(adj.shape.n_nodes, adj.n_slots)}, got {q.shape}")
    back = q[adj.nbr_safe, adj.recip[None, :]]
    s = np.exp(np.minimum(q + back, EXP_CLAMP))
    return np.where(adj.valid, s, 0.0)


def diffusivity_jvp(queries, tangent, adj):
    """Primal edge weights and their directional derivative.

    The derivative is ``s * (dq_ij + dq_ji)`` off the clamp and exactly 0
    where the clamp is active.
    """
    q = np.asarray(queries, dtype=np.float64)
    dq = np.asarray(tangent, dtype=np.float64)
    back = q[adj.nbr_safe, adj.recip[None, :]]
    dback = dq[adj.nbr_safe, adj.recip[None, :]]
    e = q + back
    s = np.where(adj.valid, np.exp(np.minimum(e, EXP_CLAMP)), 0.0)
    ds = np.where(adj.valid & (e < EXP_CLAMP), s * (dq + dback), 0.0)
    return s, ds


def _aggregate(s, feats, adj):
    acc = np.zeros_like(feats)
    for c in range(adj.n_slots):
        acc += s[:, c, None] * feats[adj.nbr_safe[:, c]]
    return acc


def _aggregate_jvp(s, ds, feats, dfeats, adj):
    acc = np.zeros_like(feats)
    dacc = np.zeros_like(feats)
    for c in range(adj.n_slots):
        zn = feats[adj.nbr_safe[:, c]]
        dzn = dfeats[adj.nbr_safe[:, c]]
        acc += s[:, c, None] * zn
        dacc += ds[:, c, None] * zn + s[:, c, None] * dzn
    return acc, dacc


def _group_rows(n_nodes, groups):
    if groups is None:
        return [np.arange(n_nodes)]
    g = np.asarray(groups).ravel()
    if g.shape[0] != n_nodes:
        raise ValueError("norm groups must cover all nodes")
    return [np.flatnonzero(g == v) for v in np.unique(g)]


def _standardize(x, groups=None):
    """Per-channel zero-mean unit-variance over nodes (population variance,
    no epsilon); a constant channel standardizes to exactly 0. With groups,
    statistics are taken within each group of nodes independently."""
    out = np.zeros_like(x)
    for rows in _group_rows(x.shape[0], groups):
        sub = x[rows]
        mu = sub.mean(axis=0)
        centered = sub - mu
        std = np.sqrt((centered**2).mean(axis=0))
        safe = np.where(std > 0, std, 1.0)
        out[rows] = np.where(std > 0, centered / safe, 0.0)
    return out


def _standardize_jvp(x, dx, groups=None):
    out = np.zeros_like(x)
    dout = np.zeros_like(x)
    for rows in _group_rows(x.shape[0], groups):
        sub, dsub = x[rows], dx[rows]
        mu = sub.mean(axis=0)
        dmu = dsub.mean(axis=0)
        centered = sub - mu
        dcentered = dsub - dmu
        var = (centered**2).mean(axis=0)
        dvar = 2.0 * (centered * dcentered).mean(axis=0)
        std = np.sqrt(var)
        safe = np.where(std > 0, std, 1.0)
        pos = std > 0
        out[rows] = np.where(pos, centered / safe, 0.0)
        dout[rows] = np.where(
            pos, dcentered / safe - centered * dvar / (2.0 * safe**3), 0.0
        )
    return out, dout


def _check_forward_input(feats, adj):
    z = np.asarray(feats, dtype=np.float64)
    n = adj.shape.n_nodes
    if z.ndim != 2 or z.shape[0] != n:
        raise ValueError(f"features must be (N, C) with N={n}, got {z.shape}")
    if n < 2:
        raise ValueError("normalization needs at least 2 nodes")
    # one NaN would poison a channel's statistics and standardize it to 0;
    # min and max carry any NaN or inf without an N x C temporary
    if not np.isfinite([z.min(), z.max()]).all():
        raise ValueError("features must be finite")
    return z


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
    s = diffusivity(query_messages(z, params), adj)
    if cls_mask is not None:
        s = mask_diffusivity(s, cls_mask, adj)
    agg = _aggregate(s, z, adj)
    return z + _standardize(agg, norm_groups) * params.gamma + params.beta


def getconv_forward_jvp(
    feats, tangent, adj, params, cls_mask=None, norm_groups=None
):
    z = _check_forward_input(feats, adj)
    dz = np.asarray(tangent, dtype=np.float64)
    q, dq = _query_messages_jvp(z, dz, params)
    s, ds = diffusivity_jvp(q, dq, adj)
    if cls_mask is not None:
        s = mask_diffusivity(s, cls_mask, adj)
        ds = mask_diffusivity(ds, cls_mask, adj)
    agg, dagg = _aggregate_jvp(s, ds, z, dz, adj)
    y, dy = _standardize_jvp(agg, dagg, norm_groups)
    return z + y * params.gamma + params.beta, dz + dy * params.gamma


def depthwise(grid_feats: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel k x k cross-correlation, zero padding, stride 1."""
    img = np.asarray(grid_feats, dtype=np.float64)
    out = np.empty_like(img)
    for ch in range(img.shape[2]):
        out[:, :, ch] = correlate2d(
            img[:, :, ch], kernels[ch], mode="same", boundary="fill", fillvalue=0.0
        )
    return out


def pointwise(grid_feats: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """1x1 channel mix: ``out[..., i] = sum_j kernel[i, j] * in[..., j]``."""
    return np.asarray(grid_feats, dtype=np.float64) @ kernel.T


def getblock_forward(
    grid_feats: np.ndarray, spec: NeighborhoodSpec, params: LayerParams
) -> np.ndarray:
    """Depthwise conv -> pointwise conv -> anisotropic aggregation.

    ``grid_feats`` is (h, w, C) laid out on the grid. The convolved features
    feed both the query perceptron and the aggregation; the residual is the
    raw block input, so zero kernels reduce the block to the identity.
    """
    z = np.asarray(grid_feats, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"grid features must be (h, w, C), got {z.shape}")
    if params.dw is None or params.pw is None:
        raise ValueError("block forward needs dw and pw kernels")
    h, w, cdim = z.shape
    adj = grid_adjacency(GridShape(h, w), spec)
    _check_forward_input(z.reshape(-1, cdim), adj)
    mixed = pointwise(depthwise(z, params.dw), params.pw).reshape(-1, cdim)
    s = diffusivity(query_messages(mixed, params), adj)
    agg = _aggregate(s, mixed, adj)
    out = z.reshape(-1, cdim) + _standardize(agg) * params.gamma + params.beta
    return out.reshape(h, w, cdim)


def getblock_forward_jvp(grid_feats, tangent, spec, params):
    z = np.asarray(grid_feats, dtype=np.float64)
    dz = np.asarray(tangent, dtype=np.float64)
    h, w, cdim = z.shape
    adj = grid_adjacency(GridShape(h, w), spec)
    _check_forward_input(z.reshape(-1, cdim), adj)
    mixed = pointwise(depthwise(z, params.dw), params.pw).reshape(-1, cdim)
    dmixed = pointwise(depthwise(dz, params.dw), params.pw).reshape(-1, cdim)
    q, dq = _query_messages_jvp(mixed, dmixed, params)
    s, ds = diffusivity_jvp(q, dq, adj)
    agg, dagg = _aggregate_jvp(s, ds, mixed, dmixed, adj)
    y, dy = _standardize_jvp(agg, dagg)
    out = z.reshape(-1, cdim) + y * params.gamma + params.beta
    dout = dz.reshape(-1, cdim) + dy * params.gamma
    return out.reshape(h, w, cdim), dout.reshape(h, w, cdim)


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
    q = z @ params.wq + params.bq
    k = z @ params.wk + params.bk
    e = q[:, None] + k[adj.nbr_safe]
    s = np.where(adj.valid, np.exp(np.minimum(e, EXP_CLAMP)), 0.0)
    agg = _aggregate(s, z, adj)
    return z + _standardize(agg) * params.gamma + params.beta


def isotropic_attention_forward_jvp(feats, tangent, adj, params):
    z = _check_forward_input(feats, adj)
    dz = np.asarray(tangent, dtype=np.float64)
    q = z @ params.wq + params.bq
    dq = dz @ params.wq
    k = z @ params.wk + params.bk
    dk = dz @ params.wk
    e = q[:, None] + k[adj.nbr_safe]
    de = dq[:, None] + dk[adj.nbr_safe]
    s = np.where(adj.valid, np.exp(np.minimum(e, EXP_CLAMP)), 0.0)
    ds = np.where(adj.valid & (e < EXP_CLAMP), s * de, 0.0)
    agg, dagg = _aggregate_jvp(s, ds, z, dz, adj)
    y, dy = _standardize_jvp(agg, dagg)
    return z + y * params.gamma + params.beta, dz + dy * params.gamma


_LAYER_TENSORS = ("w1", "b1", "w2", "b2", "gamma", "beta", "dw", "pw")


def save_layer_params(path, params: LayerParams) -> None:
    """Write layer weights as a manifest-addressed float32 tensor file."""
    tensors = {
        name: getattr(params, name)
        for name in _LAYER_TENSORS
        if getattr(params, name) is not None
    }
    write_tensors(path, tensors)


def load_layer_params(path) -> LayerParams:
    tensors = read_tensors(path)
    missing = [n for n in _LAYER_TENSORS[:6] if n not in tensors]
    if missing:
        raise ValueError(f"parameter file lacks tensors: {missing}")
    return LayerParams(
        **{name: tensors[name] for name in _LAYER_TENSORS if name in tensors}
    )
