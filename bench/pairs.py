"""Seeded synthetic homography pairs with exact correspondences.

Image 0 samples a smooth random texture on the pixel grid; image 1 samples
the same texture through the inverse of a random homography, so a point
``p`` of image 0 lands exactly on ``warp_points(H, p)`` in image 1.  Both
images then get independent brightness, contrast and noise jitter.  The
warp and jitter ranges come from the config's ``warp_*`` and ``jitter_*``
fields.  Pixel centres sit at integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COARSE_STRIDE = 8
# value-noise octaves: lattice cell size in pixels and amplitude
_OCTAVES = ((32.0, 1.0), (16.0, 0.7), (8.0, 0.5), (4.0, 0.35))


@dataclass
class Pair:
    image0: np.ndarray  # (1, H, W) float32
    image1: np.ndarray  # (1, H, W) float32
    homography: np.ndarray  # (3, 3) float64, image-0 pixels -> image-1 pixels


class Texture:
    """Sum of smoothstep-interpolated value-noise octaves, valued in [0, 1].

    The lattice covers ``[-size, 2 * size]`` on both axes; coordinates
    outside are clamped to its border.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self.origin = -float(size)
        self.octaves = []
        for cell, amp in _OCTAVES:
            n = int(np.ceil(3 * size / cell)) + 2
            self.octaves.append((rng.random((n, n)), cell, amp))
        self.norm = sum(amp for _, amp in _OCTAVES)

    def sample(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast(x, y).shape)
        for lattice, cell, amp in self.octaves:
            hi = lattice.shape[0] - 1.000001
            u = np.clip((x - self.origin) / cell, 0.0, hi)
            v = np.clip((y - self.origin) / cell, 0.0, hi)
            iu, iv = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
            fu, fv = u - iu, v - iv
            fu, fv = fu * fu * (3 - 2 * fu), fv * fv * (3 - 2 * fv)
            top = lattice[iv, iu] * (1 - fu) + lattice[iv, iu + 1] * fu
            bot = lattice[iv + 1, iu] * (1 - fu) + lattice[iv + 1, iu + 1] * fu
            out += amp * (top * (1 - fv) + bot * fv)
        return out / self.norm


def warp_points(h: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 3x3 homography to (..., 2) pixel coordinates."""
    ph = pts @ h[:, :2].T + h[:, 2]
    return ph[..., :2] / ph[..., 2:]


def random_homography(rng: np.random.Generator, cfg, size: int) -> np.ndarray:
    """Rotation, scale and perspective about the image centre, then a shift."""
    ang = np.deg2rad(rng.uniform(-cfg.warp_rot_deg, cfg.warp_rot_deg))
    s = 1.0 + rng.uniform(-cfg.warp_scale, cfg.warp_scale)
    tx, ty = rng.uniform(-cfg.warp_trans_px, cfg.warp_trans_px, 2)
    px, py = rng.uniform(-cfg.warp_persp, cfg.warp_persp, 2)
    c = (size - 1) / 2.0
    centre = np.array([[1, 0, -c], [0, 1, -c], [0, 0, 1]], dtype=np.float64)
    uncentre = np.array([[1, 0, c + tx], [0, 1, c + ty], [0, 0, 1]], dtype=np.float64)
    sim = np.array([[s * np.cos(ang), -s * np.sin(ang), 0], [s * np.sin(ang), s * np.cos(ang), 0], [0, 0, 1]])
    persp = np.array([[1, 0, 0], [0, 1, 0], [px, py, 1]], dtype=np.float64)
    return uncentre @ persp @ sim @ centre


def _jitter(rng: np.random.Generator, cfg, img: np.ndarray) -> np.ndarray:
    b = rng.uniform(-cfg.jitter_brightness, cfg.jitter_brightness)
    c = 1.0 + rng.uniform(-cfg.jitter_contrast, cfg.jitter_contrast)
    out = (img - 0.5) * c + 0.5 + b + cfg.jitter_noise * rng.standard_normal(img.shape)
    return out.astype(np.float32)[None]


def make_pair(cfg, seed: int, index: int) -> Pair:
    """Pair ``index`` of the stream drawn from ``seed`` at ``cfg.image_size``."""
    rng = np.random.default_rng([seed, index])
    size = cfg.image_size
    texture = Texture(rng, size)
    h = random_homography(rng, cfg, size)
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img0 = texture.sample(xs, ys)
    src = warp_points(np.linalg.inv(h), np.stack([xs, ys], axis=-1))
    img1 = texture.sample(src[..., 0], src[..., 1])
    return Pair(_jitter(rng, cfg, img0), _jitter(rng, cfg, img1), h)


def make_pairs(cfg, seed: int, count: int) -> list[Pair]:
    return [make_pair(cfg, seed, k) for k in range(count)]


def cell_centres(size: int) -> np.ndarray:
    """(L, 2) pixel coordinates of the coarse-grid cell centres, row-major."""
    n = size // COARSE_STRIDE
    c = np.arange(n) * COARSE_STRIDE + (COARSE_STRIDE - 1) / 2.0
    gx, gy = np.meshgrid(c, c)
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def coarse_targets(h: np.ndarray, size: int):
    """Ground-truth coarse matches of one pair.

    Returns ``(i0, j1, offset)``: cell ``i0`` of image 0 warps into cell
    ``j1`` of image 1, at ``offset`` (in cell units, each axis in
    [-0.5, 0.5)) from that cell's centre.  Cells that warp outside image 1
    are dropped.
    """
    n = size // COARSE_STRIDE
    centres = cell_centres(size)
    p1 = warp_points(h, centres)
    inside = ((p1 > -0.5) & (p1 < size - 0.5)).all(axis=1)
    i0 = np.nonzero(inside)[0]
    cell = np.floor((p1[inside] + 0.5) / COARSE_STRIDE).astype(np.int64)
    j1 = cell[:, 1] * n + cell[:, 0]
    offset = (p1[inside] - centres[j1]) / COARSE_STRIDE
    return i0, j1, offset
