"""Deterministic synthetic label maps for tests, demos, and the CLI."""

from __future__ import annotations

import math
import re

import numpy as np

_GRID_RE = re.compile(r"^grid-of-(\d+)-instances$")


def _two_squares_separated(h, w, _seed):
    labels = np.zeros((h, w), dtype=np.int64)
    side = max(3, min(h, w) // 3)
    labels[1 : 1 + side, 1 : 1 + side] = 1
    labels[h - 1 - side : h - 1, w - 1 - side : w - 1] = 2
    return labels


def _two_blobs_adherent(h, w, _seed):
    # one disk split down the middle: two instances sharing a vertical edge
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    radius = min(h, w) // 2 - 1
    rr, cc = np.mgrid[0:h, 0:w]
    inside = (rr - cy) ** 2 + (cc - cx) ** 2 <= radius**2
    labels = np.zeros((h, w), dtype=np.int64)
    labels[inside & (cc <= cx)] = 1
    labels[inside & (cc > cx)] = 2
    return labels


def _concave_horseshoe(h, w, _seed):
    # upward-open U: two vertical arms joined by a bottom bar
    margin = max(2, min(h, w) // 8)
    thick = max(4, min(h, w) // 5)
    r0, r1 = margin, h - margin
    c0, c1 = margin, w - margin
    labels = np.zeros((h, w), dtype=np.int64)
    labels[r0:r1, c0 : c0 + thick] = 1
    labels[r0:r1, c1 - thick : c1] = 1
    labels[r1 - thick : r1, c0:c1] = 1
    return labels


def _grid_of_instances(shape, k):
    if k < 1:
        raise ValueError("instance count must be >= 1")
    h, w = shape
    # ceil(sqrt(k)), exact for any Python int, where np.sqrt takes none past int64
    side = math.isqrt(k - 1) + 1
    if h < 3 * side or w < 3 * side:
        raise ValueError(f"{h}x{w} too small for {k} tiled instances")
    row_edges = np.linspace(0, h, side + 1).astype(int)
    col_edges = np.linspace(0, w, side + 1).astype(int)
    # pixel (r, c) lies in tile (bi[r], bj[c]), numbered in raster order from 1;
    # the tiles numbered above k stay background
    bi = np.searchsorted(row_edges, np.arange(h), side="right") - 1
    bj = np.searchsorted(col_edges, np.arange(w), side="right") - 1
    labels = (bi[:, None] * side + bj + 1).astype(np.int64)
    labels[labels > k] = 0
    return labels


def _voronoi_sites(shape, seed) -> list[tuple[int, int]]:
    h, w = shape
    rng = np.random.default_rng(seed)
    k = max(2, (h * w) // 600)
    min_dist = 0.4 * min(h, w)
    sites: list[tuple[int, int]] = []
    while len(sites) < k:
        cand = (int(rng.integers(0, h)), int(rng.integers(0, w)))
        if all((cand[0] - r) ** 2 + (cand[1] - c) ** 2 >= min_dist**2 for r, c in sites):
            sites.append(cand)
        else:
            min_dist *= 0.97  # relax until k well-separated sites fit
    return sites


def _random_voronoi(h, w, seed):
    sites = _voronoi_sites((h, w), seed)
    # running minimum over sites; strict < keeps ties on the first site, as argmin does
    rr, cc = np.ogrid[0:h, 0:w]
    best = np.full((h, w), np.iinfo(np.int64).max)
    labels = np.zeros((h, w), dtype=np.int64)
    for k, (r, c) in enumerate(sites, start=1):
        d2 = (rr - r) ** 2 + (cc - c) ** 2
        closer = d2 < best
        best[closer] = d2[closer]
        labels[closer] = k
    return labels


# name -> (smallest side, builder of the (h, w) labels from h, w and the seed)
_FIXTURES = {
    "two-squares-separated": (12, _two_squares_separated),
    "two-blobs-adherent": (12, _two_blobs_adherent),
    "concave-horseshoe": (16, _concave_horseshoe),
    "random-voronoi": (16, _random_voronoi),
}


def synth(name: str, shape: tuple[int, int], seed: int = 0) -> np.ndarray:
    """Deterministic (h, w) label map for a named fixture.

    Known names: two-squares-separated, two-blobs-adherent, concave-horseshoe,
    grid-of-<k>-instances, random-voronoi. Only the voronoi fixture uses the
    seed; the geometric ones depend on the shape alone.
    """
    m = _GRID_RE.match(name)
    if m:
        return _grid_of_instances(shape, int(m.group(1)))
    if name not in _FIXTURES:
        known = ", ".join([*_FIXTURES, "grid-of-<k>-instances"])
        raise ValueError(f"unknown fixture {name!r}; known: {known}")
    minimum, build = _FIXTURES[name]
    h, w = shape
    if h < minimum or w < minimum:
        raise ValueError(f"fixture needs at least {minimum}x{minimum}, got {h}x{w}")
    return build(h, w, seed)
