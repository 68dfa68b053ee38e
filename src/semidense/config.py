"""Run configuration: model widths, matching thresholds, training schedule.

``Config(...)``, ``dataclasses.replace`` and ``load_config`` share one check
path.  ``__post_init__`` checks each field's type: an int field rejects a
float or a bool, a float field stores an int as a float and rejects nan, inf
and an int too large for a float, and a list field holds ints.  ``validate``
then checks each field's range.  Every error names the field.  The dict
round trip is ``Config(**dataclasses.asdict(cfg))``.
"""

import dataclasses
import math
from dataclasses import dataclass, field


@dataclass
class Config:
    # model
    channels: list = field(default_factory=lambda: [32, 64, 128, 256, 256])
    num_layers: int = 2          # interleaved self/cross rounds on deep features
    attn_scale: float = 20.0     # logit scale after query/key normalization
    heads: int = 8
    rope_base: float = 100.0
    scc_bins: int = 16           # per-axis soft-classification bins
    injection: str = "gated"     # "gated" | "sum"; "sum" is ROADMAP item 5's ablation, not built yet

    # matching
    topk: int = 1024
    tau: float = 0.1
    theta_c: float = 5e-2
    theta_f: float = 1e-6

    # loss
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0
    lambda_c: float = 1.0
    lambda_f: float = 0.2
    pad_matches: int = 32

    # training
    lr: float = 2e-3
    weight_decay: float = 0.01
    batch_size: int = 1
    epochs: int = 30
    warmup_epochs: int = 3
    decay_start_epoch: int = 8
    decay_every_epochs: int = 4
    decay_factor: float = 0.5
    grad_clip: float = 1.0
    eval_every: int = 100
    early_stop_precision: float = 0.85
    early_stop_epe: float = 1.0

    # data
    seed: int = 0
    image_size: int = 256
    train_pairs: int = 64
    val_pairs: int = 16
    warp_rot_deg: float = 12.0
    warp_scale: float = 0.12
    warp_trans_px: float = 16.0
    warp_persp: float = 3e-5
    jitter_brightness: float = 0.06
    jitter_contrast: float = 0.1
    jitter_noise: float = 0.01

    def __post_init__(self):
        # f.type is the annotation's class, as this module does not postpone annotations
        for f in dataclasses.fields(self):
            setattr(self, f.name, _checked(f.name, f.type, getattr(self, f.name)))
        self.validate()

    def validate(self):
        """Raise ValueError naming the first field that breaks its rule."""

        def need(ok: bool, name: str, rule: str):
            if not ok:
                raise ValueError(f"config {name} = {getattr(self, name)!r}: {rule}")

        need(len(self.channels) == 5, "channels", "the channel plan needs 5 entries")
        need(min(self.channels) >= 1, "channels", "each entry must be >= 1")
        need(self.image_size > 0 and self.image_size % 32 == 0, "image_size", "must be a positive multiple of 32")
        need(self.heads > 0 and self.channels[4] % self.heads == 0, "heads", "must divide the model width channels[4]")
        need(self.num_layers >= 0, "num_layers", "must be >= 0")
        need(self.attn_scale > 0, "attn_scale", "must be > 0")
        need(self.scc_bins >= 2, "scc_bins", "must be >= 2")
        need(self.injection in ("gated", "sum"), "injection", "must be 'gated' or 'sum'")
        need(self.topk >= 1, "topk", "must be >= 1")
        need(self.tau > 0, "tau", "must be > 0")
        need(0 <= self.theta_c <= 1, "theta_c", "must be in [0, 1]")
        need(self.theta_f >= 0, "theta_f", "must be >= 0")
        need(self.lr > 0, "lr", "must be > 0")
        need(self.batch_size >= 1, "batch_size", "must be >= 1")
        need(self.epochs >= 1, "epochs", "must be >= 1")
        need(self.grad_clip > 0, "grad_clip", "must be > 0")
        need(self.pad_matches >= 1, "pad_matches", "must be >= 1")
        need(0 < self.focal_alpha <= 1, "focal_alpha", "must be in (0, 1]")
        need(self.seed >= 0, "seed", "must be >= 0")
        for name in ("weight_decay", "focal_gamma", "lambda_c", "lambda_f", "warp_rot_deg", "warp_scale",
                     "warp_trans_px", "warp_persp", "jitter_brightness", "jitter_contrast", "jitter_noise"):
            need(getattr(self, name) >= 0, name, "must be >= 0")


def _checked(name: str, kind: type, value):
    """Return `value` for field `name` of type `kind`, an int in a float field
    as a float; raise ValueError naming the field when the type does not fit."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # an int too large for a float
            pass
    if type(value) is kind and (kind is not list or all(type(v) is int for v in value)):
        if kind is not float or math.isfinite(value):
            return value
    expected = {int: "an int", float: "a finite float", list: "a list of ints", str: "a str"}[kind]
    raise ValueError(f"config {name} = {value!r}: must be {expected}")


def load_config(overrides: dict | None = None) -> Config:
    """Build a Config from the defaults and `overrides`; an unknown key is a ValueError."""
    overrides = overrides or {}
    for key in sorted(overrides.keys() - {f.name for f in dataclasses.fields(Config)}):
        raise ValueError(f"unknown config key '{key}'")
    return Config(**overrides)
