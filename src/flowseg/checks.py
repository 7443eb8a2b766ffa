"""Verification harnesses for the message-passing layers.

Two kinds of evidence:

* a spatial-permutation probe showing the anisotropic layer separates two
  nodes whose neighbor feature multisets are identical but arranged
  differently, while the same layer with its slot queries tied to one
  column, which makes it isotropic, provably cannot
* finite-difference Jacobian checks of each hand-derived JVP (diffusivity,
  getconv, getblock) against central differences at a :class:`CheckPoint`,
  whose ``args`` are what the op takes after its input: grid, then parameters
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .getconv import (
    diffusivity,
    diffusivity_jvp,
    getblock_forward,
    getblock_forward_jvp,
    getconv_forward,
    getconv_forward_jvp,
    random_layer_params,
)
from .grid import GridShape, grid_adjacency, square

# op -> (forward, jvp), called as forward(x, *args) and jvp(x, tangent, *args)
_OPS = {
    "diffusivity": (diffusivity, diffusivity_jvp),
    "getconv": (getconv_forward, getconv_forward_jvp),
    "getblock": (getblock_forward, getblock_forward_jvp),
}
JACOBIAN_OPS = tuple(_OPS)
CHANNELS = 4  # feature width of every probe and check point
FD_STEP = 1e-5  # central-difference step of jacobian_check
JACOBIAN_TOL = 1e-4  # largest relative error jacobian_check passes by default


@dataclass
class ProbeReport:
    anisotropic_gap: float
    isotropic_gap: float


def isomorphism_probe(
    seed: int, u: np.ndarray | None = None, v: np.ndarray | None = None
) -> ProbeReport:
    """Compare the layer with and without slot-indexed queries on two nodes
    with permuted but equal neighborhoods.

    On a 3x7 grid of (3, 7, C) features with the 3x3 stencil, node A at (1, 1)
    sees feature u on its left and v on its right; node B at (1, 5) sees v on
    its left and u on its right. Every other feature (including A's and B's
    own) is zero, so the neighbor feature multisets of A and B are identical
    and differ only in spatial arrangement. The anisotropic layer runs with
    parameters drawn from ``seed``; the isotropic contrast is that layer with
    every slot's query tied to the first column (``w2`` and ``b2`` repeated),
    so it draws nothing more. The report carries the max-abs output
    difference between A and B for each.

    Tied, node i emits one query g(z_i) in every slot, and the weight of edge
    (i, j) is ``exp(g(z_i) + g(z_j))``, a function of the endpoints alone. A
    and B then each sum the same two nonzero terms between exact zeros, in
    swapped slot order, and ``a + b == b + a`` in floating point: the
    isotropic gap is exactly 0.0. The anisotropic gap is generically positive
    whenever u != v.
    """
    rng = np.random.default_rng(seed)
    adj = grid_adjacency(GridShape(3, 7), square(3))
    u = rng.normal(size=CHANNELS) if u is None else u
    v = rng.normal(size=CHANNELS) if v is None else v
    feats = np.zeros((3, 7, CHANNELS))
    feats[1, [0, 6]], feats[1, [2, 4]] = u, v

    n = adj.n_slots
    params = random_layer_params(rng, CHANNELS, n)
    tied = replace(
        params, w2=np.repeat(params.w2[:, :1], n, axis=1), b2=np.full(n, params.b2[0])
    )
    flat = feats.reshape(-1, CHANNELS)
    aniso, iso = (getconv_forward(flat, adj, p).reshape(feats.shape) for p in (params, tied))
    return ProbeReport(
        anisotropic_gap=float(np.abs(aniso[1, 1] - aniso[1, 5]).max()),
        isotropic_gap=float(np.abs(iso[1, 1] - iso[1, 5]).max()),
    )


@dataclass
class CheckPoint:
    """A differentiation point: one forward, its input, a direction, and
    ``args``, what the forward takes after the input and its JVP after the
    tangent (the adjacency, or getblock's stencil, then any parameters; a
    masked getconv point appends the per-node ``clusters``)."""

    op: str
    x: np.ndarray
    tangent: np.ndarray
    args: tuple


@dataclass
class JacobianReport:
    op: str
    max_rel_err: float
    tol: float
    passed: bool


def random_check_point(op: str, seed: int) -> CheckPoint:
    """Seeded random input, parameters and direction, drawn in that order, for
    one of the differentiable forwards on a square(3) grid (8x8 for getblock,
    4x4 otherwise)."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}; choose from {JACOBIAN_OPS}")
    rng = np.random.default_rng(seed)
    spec = square(3)
    side = 8 if op == "getblock" else 4
    adj = grid_adjacency(GridShape(side, side), spec)
    width = adj.n_slots if op == "diffusivity" else CHANNELS
    x = 0.5 * rng.normal(size=(side, side, width) if op == "getblock" else (side * side, width))
    if op == "diffusivity":
        args = (adj,)
    elif op == "getconv":
        args = (adj, random_layer_params(rng, CHANNELS, adj.n_slots))
    else:
        args = (spec, random_layer_params(rng, CHANNELS, adj.n_slots, kernel=3))
    return CheckPoint(op, x, rng.normal(size=x.shape), args)


def jacobian_check(point: CheckPoint, tol: float = JACOBIAN_TOL) -> JacobianReport:
    """Analytic JVP versus central finite differences (step FD_STEP) along ``point.tangent``.

    The relative error is the max-abs discrepancy normalized by the larger of
    the two JVPs' max-abs values (floored at 1e-12 so an exactly-zero pair,
    e.g. inside the exponent clamp, passes with error 0).
    """
    if point.op not in _OPS:
        raise ValueError(f"unknown op {point.op!r}; choose from {JACOBIAN_OPS}")
    forward, jvp = _OPS[point.op]
    analytic = jvp(point.x, point.tangent, *point.args)[1]
    plus = forward(point.x + FD_STEP * point.tangent, *point.args)
    minus = forward(point.x - FD_STEP * point.tangent, *point.args)
    fd = (plus - minus) / (2.0 * FD_STEP)
    if not (np.all(np.isfinite(fd)) and np.all(np.isfinite(analytic))):
        return JacobianReport(point.op, float("inf"), tol, False)
    num = float(np.abs(analytic - fd).max())
    den = max(float(np.abs(analytic).max()), float(np.abs(fd).max()), 1e-12)
    err = num / den
    return JacobianReport(point.op, err, tol, err < tol)
