"""Coarse-match selection on the confidence, and the pixel coordinates of matches."""

from __future__ import annotations

import numpy as np

COARSE_STRIDE = 8  # pixels per cell of the coarse grid, the 1/8 features


def select_matches(cfg, conf: np.ndarray):
    """Mutual nearest neighbours above ``theta_c``, best ``topk`` first.

    Returns ``(i0, j1, finite)``; ``finite`` is False when the confidence
    holds a non-finite value (row and column maxima propagate NaN).
    """
    c = conf[0]
    j = c.argmax(axis=1)
    row_max = c[np.arange(c.shape[0]), j]
    col_max = c.max(axis=0)
    finite = bool(np.isfinite(row_max).all() and np.isfinite(col_max).all())
    keep = (row_max == col_max[j]) & (row_max > cfg.theta_c)
    i0 = np.nonzero(keep)[0]
    order = np.argsort(-row_max[i0], kind="stable")[: cfg.topk]
    i0 = i0[order]
    return i0, j[i0], finite


def match_coordinates(size: int, j1: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Refined image-1 pixel coordinates of matches ending in cells ``j1``."""
    n = size // COARSE_STRIDE
    centre = np.stack([j1 % n, j1 // n], axis=-1) * COARSE_STRIDE + (COARSE_STRIDE - 1) / 2.0
    return centre + offsets * COARSE_STRIDE
