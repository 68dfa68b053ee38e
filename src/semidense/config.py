"""Run configuration: model widths, matching thresholds, training schedule.

A config file holds ``key = value`` lines under ``[section]`` headers.  A
field's section is that of the nearest field at or above it that opens one
(``_SECTION_STARTS``); an unknown header, or a key under another section's
header, is an error.  ``load_config`` layers defaults < file <
``SEMIDENSE_SEED`` < overrides, and ``Config()`` reads no environment.  Every
value goes through ``_parse``, whose errors name the key and its source.  The
dict round trip is ``load_config(overrides=dataclasses.asdict(cfg))``.
"""

from __future__ import annotations

import dataclasses
import math
import os
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
    injection: str = "gated"     # "gated" | "sum" (plain fusion fallback)

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
        self.validate()

    def validate(self):
        """Raise ValueError naming the first field that breaks its rule."""

        def need(ok: bool, name: str, rule: str):
            if not ok:
                raise ValueError(f"config {name} = {getattr(self, name)!r}: {rule}")

        need(len(self.channels) == 5, "channels", "the channel plan needs 5 entries")
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
        for name in ("weight_decay", "focal_gamma", "lambda_c", "lambda_f", "warp_rot_deg", "warp_scale",
                     "warp_trans_px", "warp_persp", "jitter_brightness", "jitter_contrast", "jitter_noise"):
            need(getattr(self, name) >= 0, name, "must be >= 0")


# the field that opens each section, in file order
_SECTION_STARTS = {"channels": "model", "topk": "matching", "focal_alpha": "loss", "lr": "training", "seed": "data"}
_DEFAULTS = dataclasses.asdict(Config())
_SECTION_OF, _section = {}, None
for _name in _DEFAULTS:
    _section = _SECTION_OF[_name] = _SECTION_STARTS.get(_name, _section)


def _parse(key: str, value, where: str):
    """Return `value` checked for field `key`; a string is parsed by the default's type.

    list fields take comma-separated ints; an int field rejects a float, and
    a float field stores an int as a float and rejects nan and inf.  `where`
    names the source.
    """
    if key not in _DEFAULTS:
        raise ValueError(f"{where}: unknown config key '{key}'")
    kind = type(_DEFAULTS[key])
    try:
        if isinstance(value, str) and kind is not str:
            value = [int(v) for v in value.split(",")] if kind is list else kind(value)
        if kind is float and type(value) is int:
            value = float(value)
        if type(value) is kind and (kind is not list or all(type(v) is int for v in value)):
            if kind is not float or math.isfinite(value):
                return value
    except (ValueError, OverflowError):  # OverflowError: an int too large for a float
        pass
    expected = "finite float" if kind is float else kind.__name__
    raise ValueError(f"{where}: config key '{key}' expects {expected}, got {value!r}")


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build a Config from defaults < file < SEMIDENSE_SEED < overrides."""
    values = {}
    if path is not None:
        section = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                where = f"{path}:{lineno}"
                line = line.split("#", 1)[0].strip()
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip()
                    if section not in _SECTION_STARTS.values():
                        raise ValueError(f"{where}: unknown config section '[{section}]'")
                    continue
                if not line:
                    continue
                key, eq, raw = (part.strip() for part in line.partition("="))
                if not eq:
                    raise ValueError(f"{where}: expected 'key = value', got '{line}'")
                value = _parse(key, raw, where)
                if section not in (None, _SECTION_OF[key]):
                    raise ValueError(f"{where}: config key '{key}' belongs in [{_SECTION_OF[key]}], not [{section}]")
                values[key] = value
    env_seed = os.environ.get("SEMIDENSE_SEED")
    if env_seed is not None:
        values["seed"] = _parse("seed", env_seed, "SEMIDENSE_SEED")
    for key, value in (overrides or {}).items():
        values[key] = _parse(key, value, "override")
    return Config(**values)


def save_config(cfg: Config, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in dataclasses.asdict(cfg).items():
            if key in _SECTION_STARTS:
                fh.write(f"\n[{_SECTION_STARTS[key]}]\n")
            if isinstance(value, list):
                value = ",".join(str(c) for c in value)
            fh.write(f"{key} = {value}\n")
