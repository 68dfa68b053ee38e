"""Tests of Config: the dict round trip and the one check path that the
constructor, ``dataclasses.replace`` and ``load_config`` share, whose type and
range errors name the field."""

import dataclasses

import pytest

from semidense.config import Config, load_config

NON_DEFAULT = {"channels": [8, 16, 24, 32, 40], "heads": 4, "image_size": 64, "theta_c": 0.2, "injection": "sum"}


@pytest.mark.parametrize("overrides", [{}, NON_DEFAULT], ids=["default", "non-default"])
def test_asdict_round_trip(overrides):
    cfg = load_config(overrides=overrides)
    assert load_config(overrides=dataclasses.asdict(cfg)) == cfg


def test_float_field_stores_int_as_float():
    cfg = load_config(overrides={"lr": 1})
    assert cfg.lr == 1.0 and type(cfg.lr) is float


def test_unknown_key_in_override_names_source():
    with pytest.raises(ValueError, match="unknown config key 'sed'"):
        load_config(overrides={"sed": 3})


@pytest.mark.parametrize("value", [64.0, "64.0", "abc", True, None], ids=["float", "float-str", "abc", "bool", "none"])
def test_int_field_type_errors(value):
    with pytest.raises(ValueError, match="config image_size = .*: must be an int"):
        load_config(overrides={"image_size": value})


@pytest.mark.parametrize("value", [[8, 16, 24, 32, 40.0], (8, 16, 24, 32, 40), "8,16,x"], ids=["float-item", "tuple", "str"])
def test_list_field_type_errors(value):
    with pytest.raises(ValueError, match="config channels = .*: must be a list of ints"):
        load_config(overrides={"channels": value})


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), "nan", "-inf"], ids=["nan", "inf", "-inf", "nan-str", "-inf-str"]
)
def test_float_field_rejects_non_finite_override(value):
    with pytest.raises(ValueError, match="config focal_gamma = .*: must be a finite float"):
        load_config(overrides={"focal_gamma": value})


@pytest.mark.parametrize("key", ["lr", "warp_scale"])
def test_float_field_rejects_int_too_large_for_a_float(key):
    with pytest.raises(ValueError, match=f"config {key} = .*: must be a finite float"):
        load_config(overrides={key: 10**400})


def test_config_constructor_ignores_env(monkeypatch):
    monkeypatch.setenv("SEMIDENSE_SEED", "5")
    assert Config().seed == 0
    assert load_config().seed == 0


@pytest.mark.parametrize(
    "key,value",
    [
        ("image_size", 256.0),
        ("heads", 8.0),
        ("topk", True),
        ("scc_bins", 16.5),
        ("lr", float("inf")),
        ("warp_scale", float("inf")),
        ("lr", "x"),
        ("channels", (32, 64, 128, 256, 256)),
        ("channels", [32, 64, "a", 256, 256]),
    ],
    ids=["int-as-float", "heads-float", "bool", "bins-float", "lr-inf", "warp-inf", "lr-str", "tuple", "str-item"],
)
def test_constructor_checks_types_and_names_field(key, value):
    with pytest.raises(ValueError, match=rf"config {key} = .*: must be "):
        Config(**{key: value})


def test_replace_checks_types_and_names_field():
    with pytest.raises(ValueError, match="config heads = 8.0: must be an int"):
        dataclasses.replace(Config(), heads=8.0)


@pytest.mark.parametrize(
    "key,value",
    [
        ("channels", [8, 16, 32, 64]),
        ("channels", [0, 64, 128, 256, 256]),
        ("channels", [32, -64, 128, 256, 256]),
        ("image_size", 0),
        ("image_size", -32),
        ("image_size", 48),
        ("heads", 0),
        ("heads", 3),
        ("num_layers", -1),
        ("attn_scale", 0.0),
        ("scc_bins", 1),
        ("injection", "concat"),
        ("topk", 0),
        ("tau", 0.0),
        ("theta_c", -0.1),
        ("theta_c", 1.5),
        ("theta_f", -1e-6),
        ("lr", 0.0),
        ("batch_size", 0),
        ("epochs", 0),
        ("grad_clip", -1.0),
        ("grad_clip", 0.0),
        ("pad_matches", 0),
        ("weight_decay", -0.01),
        ("focal_alpha", 0.0),
        ("focal_alpha", 1.5),
        ("focal_gamma", -2.0),
        ("lambda_c", -1.0),
        ("lambda_f", -0.2),
        ("warp_rot_deg", -12.0),
        ("warp_scale", -0.12),
        ("warp_trans_px", -16.0),
        ("warp_persp", -3e-5),
        ("jitter_brightness", -0.06),
        ("jitter_contrast", -0.1),
        ("jitter_noise", -0.01),
        ("seed", -1),
    ],
)
def test_validate_rejects_and_names_field(key, value):
    with pytest.raises(ValueError, match=rf"config {key} = "):
        load_config(overrides={key: value})
