"""Seeded inputs for the benchmark workloads.

Nothing here calls flowseg: the program receives only what these functions
generate, and the checks compare its outputs against the structure built
here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

BLOCKS_PER_SIDE = 3  # the site lattice is cut into BLOCKS_PER_SIDE² blocks
LEAKY_BLOCKS = 5  # blocks whose inner cell borders leak
REF_ROUNDS = 40  # rounds of the host reference loop


@dataclass
class LatticeVoronoi:
    """Voronoi cells of jittered lattice sites, with everything the checks need.

    labels: (size, size) int64 map; the cell of site k has id k + 1, sites
        row-major over the lattice.
    field: (size, size, 2) float64, every pixel's vector points at its site.
    energy: (size, size) int64, 0 on every pixel with an 8-neighbour of
        another cell, except one 4-adjacent pixel pair per leaking cell pair.
    leak_pairs / adjacent_pairs: cell pairs that leak / that touch at all.
    """

    labels: np.ndarray
    field: np.ndarray
    energy: np.ndarray
    leak_pairs: int
    adjacent_pairs: int


def lattice_voronoi(size: int, per_side: int, seed: int) -> LatticeVoronoi:
    """Voronoi map of ``per_side``² jittered lattice sites on a ``size``² grid.

    Sites are jittered by at most a third of the lattice spacing, so any two
    sites are at least a third of the spacing apart (never 8-adjacent). The
    lattice is cut into ``BLOCKS_PER_SIDE``² square blocks; ``LEAKY_BLOCKS`` of
    them, chosen from the seed, leak: every pair of touching cells whose sites lie
    in the same leaky block gets one border opening in the energy map, so the
    cells of a leaky block merge under a zero field.
    """
    rng = np.random.default_rng(seed)
    spacing = size / per_side
    jitter = int(spacing // 3)
    centers = np.floor((np.arange(per_side) + 0.5) * spacing).astype(np.int64)
    rows = centers[:, None] + rng.integers(-jitter, jitter + 1, (per_side, per_side))
    cols = centers[None, :] + rng.integers(-jitter, jitter + 1, (per_side, per_side))
    sites = np.stack([rows.ravel(), cols.ravel()], axis=1).clip(0, size - 1)
    lattice = np.arange(per_side) * BLOCKS_PER_SIDE // per_side
    block = (lattice[:, None] * BLOCKS_PER_SIDE + lattice[None, :]).ravel()
    leaky_blocks = np.sort(rng.choice(BLOCKS_PER_SIDE**2, size=LEAKY_BLOCKS, replace=False))

    rr, cc = np.mgrid[0:size, 0:size]
    pixels = np.stack([rr.ravel(), cc.ravel()], axis=1)
    _, nearest = cKDTree(sites).query(pixels)
    labels = (nearest + 1).reshape(size, size).astype(np.int64)
    field = (sites[nearest] - pixels).astype(np.float64).reshape(size, size, 2)

    energy, leak_pairs, adjacent_pairs = _leaky_energy(labels, block, leaky_blocks)
    return LatticeVoronoi(labels, field, energy, leak_pairs, adjacent_pairs)


def _leaky_energy(labels, block, leaky_blocks):
    h, w = labels.shape
    pad = np.pad(labels, 1, mode="edge")
    border = np.zeros((h, w), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            border |= pad[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w] != labels
    energy = (~border).astype(np.int64)

    # every 4-adjacent pixel pair across a cell border, in raster order of a
    flat = labels.ravel()
    idx = np.arange(h * w).reshape(h, w)
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    cross = flat[a] != flat[b]
    a, b = a[cross], b[cross]
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    lo = np.minimum(flat[a], flat[b])
    hi = np.maximum(flat[a], flat[b])
    key = lo * (flat.max() + 1) + hi
    order = np.argsort(key, kind="stable")
    key, a, b, lo, hi = key[order], a[order], b[order], lo[order], hi[order]
    uniq, first, count = np.unique(key, return_index=True, return_counts=True)
    mid = first + count // 2  # the middle opening of each shared border
    blk_lo, blk_hi = block[lo[mid] - 1], block[hi[mid] - 1]
    leaks = (blk_lo == blk_hi) & np.isin(blk_lo, leaky_blocks)
    energy.ravel()[a[mid][leaks]] = 1
    energy.ravel()[b[mid][leaks]] = 1
    return energy, int(leaks.sum()), int(uniq.size)


def getconv_inputs(size: int, channels: int, seed: int):
    """Node features, a unit tangent and grid features for the layer workload."""
    rng = np.random.default_rng(seed)
    n = size * size
    feats = rng.normal(size=(n, channels))
    tangent = rng.normal(size=(n, channels))
    tangent /= np.linalg.norm(tangent)
    grid_feats = rng.normal(size=(size, size, channels))
    return feats, tangent, grid_feats


def host_reference() -> float:
    """Seconds for a fixed pure-numpy gather-and-accumulate loop.

    It does no flowseg work; it only tells host speed drift apart from a
    change in the program.
    """
    rng = np.random.default_rng(12345)
    x = rng.normal(size=(128 * 128, 2))
    idx = rng.integers(0, x.shape[0], size=(x.shape[0], 24))
    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        acc = np.zeros_like(x)
        for c in range(idx.shape[1]):
            acc += x[idx[:, c]]
        x = acc / idx.shape[1]
    return time.perf_counter() - start
