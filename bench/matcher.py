"""The matcher graph that ``Config`` fixes, built from the engine's public API.

Extractor stages s1-s5 (stride-2 conv-BN-ReLU, then conv-BN-ReLU) run at
1/2 ... 1/32 with ``cfg.channels``.  ``num_layers`` rounds of self- and
cross-attention with ``heads`` heads mix the 1/32 tokens of both images;
Q and K are L2-normalized and their dot product scaled by ``attn_scale``.
Gated injection upsamples the attended 1/32 features twice, projects them
to the 1/8 width and adds them through a sigmoid gate.  Dual-softmax at
temperature ``tau`` gives the coarse confidence over the 1/8 grid; a
per-axis ``scc_bins`` soft classification regresses the subpixel offset of
each match.  Every layer call goes through ``Tracer.layer`` so that a traced
run can time it and replay it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from semidense import tensor as T
from semidense.module import BatchNorm2d, Conv2d, Linear, Module
from semidense.tensor import Tensor

from pairs import COARSE_STRIDE
from spans import Tracer


class Stage(Module):
    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv2d(cin, cout, 3, rng, stride=2, padding=1)
        self.bn1 = BatchNorm2d(cout)
        self.conv2 = Conv2d(cout, cout, 3, rng, padding=1)
        self.bn2 = BatchNorm2d(cout)


class Attention(Module):
    """One multi-head attention layer over (B, L, C) tokens with a residual."""

    def __init__(self, dim: int, heads: int, scale: float, rng: np.random.Generator):
        super().__init__()
        self.heads = heads
        self.scale = scale
        self.q = Linear(dim, dim, rng, gain=1.0)
        self.k = Linear(dim, dim, rng, gain=1.0)
        self.v = Linear(dim, dim, rng, gain=1.0)
        self.merge = Linear(dim, dim, rng, gain=1.0)

    def _split(self, t: Tensor) -> Tensor:
        b, n, c = t.shape
        return t.reshape(b, n, self.heads, c // self.heads).transpose(0, 2, 1, 3)

    def __call__(self, x: Tensor, cross: bool) -> Tensor:
        if cross:  # each image attends to the other one
            half = x.shape[0] // 2
            src = T.concat([x[half:], x[:half]], axis=0)
        else:
            src = x
        q = T.l2_normalize(self._split(self.q(x)))
        k = T.l2_normalize(self._split(self.k(src)))
        v = self._split(self.v(src))
        attn = T.softmax((q @ k.transpose(0, 1, 3, 2)) * self.scale, axis=-1)
        b, n, c = x.shape
        msg = (attn @ v).transpose(0, 2, 1, 3).reshape(b, n, c)
        return x + self.merge(msg)


class Matcher(Module):
    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__()
        if cfg.injection != "gated":
            raise ValueError(f"the benchmark graph implements gated injection only, not '{cfg.injection}'")
        chans = list(cfg.channels)
        for k, (cin, cout) in enumerate(zip([1] + chans[:-1], chans), 1):
            setattr(self, f"s{k}", Stage(cin, cout, rng))
        self.rounds = []
        for r in range(cfg.num_layers):
            for kind in ("self", "cross"):
                name = f"attn{r}_{kind}"
                setattr(self, name, Attention(chans[4], cfg.heads, cfg.attn_scale, rng))
                self.rounds.append((getattr(self, name), kind == "cross"))
        self.proj = Linear(chans[4], chans[2], rng, gain=1.0)
        self.gate = Linear(2 * chans[2], chans[2], rng, gain=1.0)
        self.head = Linear(2 * chans[2], 2 * cfg.scc_bins, rng, gain=1.0)
        self.bins = cfg.scc_bins
        self.centres = Tensor((np.arange(cfg.scc_bins) + 0.5) / cfg.scc_bins - 0.5)
        self.softmax_scale = 1.0 / (chans[2] * cfg.tau)

    def calibrate_batchnorm(self, images: np.ndarray) -> None:
        """Set every BN's running statistics from one no_grad batch.

        An untrained model in eval mode would otherwise normalize with the
        initial (0, 1) statistics, which no trained model has.
        """
        stages = [getattr(self, f"s{k}") for k in range(1, 6)]
        bns = [bn for s in stages for bn in (s.bn1, s.bn2)]
        saved = [bn.momentum for bn in bns]
        mode = self.training
        for bn in bns:
            bn.momentum = 1.0
        self.train(True)
        with T.no_grad():
            self.features(images, Tracer())
        for bn, momentum in zip(bns, saved):
            bn.momentum = momentum
        self.train(mode)

    # -- layers ---------------------------------------------------------------

    def extract(self, x: Tensor, tr) -> list[Tensor]:
        """Features after each stage s1-s5, NCHW."""
        feats = []
        for k in range(1, 6):
            stage = getattr(self, f"s{k}")
            with tr.span(f"stage.s{k}"):
                for conv, bn in ((stage.conv1, stage.bn1), (stage.conv2, stage.bn2)):
                    x = tr.layer(f"conv.s{k}", conv, x)
                    x = T.relu(tr.layer("bn", bn, x))
            feats.append(x)
        return feats

    def inject(self, deep: Tensor, f8: Tensor) -> Tensor:
        """Gated injection of attended 1/32 tokens into the 1/8 features."""
        b, c, h, w = f8.shape
        up = T.bilinear_upsample2x(T.bilinear_upsample2x(deep))
        up = up.reshape(b, up.shape[1], h * w).transpose(0, 2, 1)
        fine = f8.reshape(b, c, h * w).transpose(0, 2, 1)
        p = self.proj(up)
        g = T.sigmoid(self.gate(T.concat([fine, p], axis=-1)))
        return fine + g * p

    def dual_softmax(self, feats: Tensor) -> Tensor:
        """Confidence (N, L, L) between the 1/8 cells of image 0 and image 1."""
        half = feats.shape[0] // 2
        sim = (feats[:half] @ feats[half:].transpose(0, 2, 1)) * self.softmax_scale
        return T.softmax(sim, axis=2) * T.softmax(sim, axis=1)

    def head_offsets(self, i0: np.ndarray, j1: np.ndarray, feats: Tensor) -> Tensor:
        """Per-axis soft-classified subpixel offsets (M, 2) for batch item 0."""
        half = feats.shape[0] // 2
        f0 = T.gather_rows(feats[0], i0)
        f1 = T.gather_rows(feats[half], j1)
        logits = self.head(T.concat([f0, f1], axis=-1)).reshape(len(i0), 2, self.bins)
        return (T.softmax(logits, axis=-1) * self.centres).sum(axis=-1)

    # -- graph ----------------------------------------------------------------

    def features(self, images: np.ndarray, tr) -> tuple[Tensor, Tensor]:
        """Fused 1/8 tokens (2N, L, C3) and the confidence (N, L, L).

        ``images`` is (2N, 1, H, W): the N image-0 crops, then their N
        image-1 partners.
        """
        feats = self.extract(Tensor(images), tr)
        deep = feats[4]
        b, c, h, w = deep.shape
        tokens = deep.reshape(b, c, h * w).transpose(0, 2, 1)
        for layer, cross in self.rounds:
            tokens = tr.layer("attention", partial(layer, cross=cross), tokens)
        deep = tokens.transpose(0, 2, 1).reshape(b, c, h, w)
        fused = tr.layer("inject", self.inject, deep, feats[2])
        conf = tr.layer("dual_softmax", self.dual_softmax, fused)
        return fused, conf

    def loss(self, cfg, conf: Tensor, offsets: Tensor, i0, j1, target) -> Tensor:
        """Focal coarse loss on ground-truth cells plus L2 offset loss."""
        n_cells = conf.shape[1]
        p = T.clamp_min(T.gather_rows(conf.reshape(-1), i0 * n_cells + j1), 1e-12)
        coarse = (((1.0 - p) ** cfg.focal_gamma) * T.log(p)).mean() * (-cfg.focal_alpha)
        err = offsets - Tensor(target[: len(offsets)].astype(offsets.dtype))
        fine = (err * err).mean()
        return coarse * cfg.lambda_c + fine * cfg.lambda_f


def images_of(pair) -> np.ndarray:
    return np.stack([pair.image0, pair.image1])


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
