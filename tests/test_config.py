"""Tests of Config: the file and dict round trips, the single parse path with
its source-naming errors, section checks, seed precedence and validation."""

import dataclasses
import re

import pytest

from semidense.config import Config, load_config, save_config

NON_DEFAULT = {"channels": [8, 16, 24, 32, 40], "heads": 4, "image_size": 64, "theta_c": 0.2, "injection": "sum"}


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("SEMIDENSE_SEED", raising=False)


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("overrides", [{}, NON_DEFAULT], ids=["default", "non-default"])
def test_save_load_round_trip(tmp_path, overrides):
    cfg = load_config(overrides=overrides)
    path = str(tmp_path / "saved.cfg")
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("overrides", [{}, NON_DEFAULT], ids=["default", "non-default"])
def test_asdict_round_trip(overrides):
    cfg = load_config(overrides=overrides)
    assert load_config(overrides=dataclasses.asdict(cfg)) == cfg


def test_file_values_parse_by_type(tmp_path):
    path = write(tmp_path, "[model]\nchannels = 8, 16,24,32,40  # comment\nheads = 4\n[data]\nimage_size = 64\nwarp_scale = 1\n")
    cfg = load_config(path)
    assert cfg.channels == [8, 16, 24, 32, 40] and cfg.heads == 4 and cfg.image_size == 64
    assert cfg.warp_scale == 1.0 and type(cfg.warp_scale) is float


def test_float_field_stores_int_as_float():
    cfg = load_config(overrides={"lr": 1})
    assert cfg.lr == 1.0 and type(cfg.lr) is float


def test_unknown_key_in_file_names_path_and_line(tmp_path):
    path = write(tmp_path, "[data]\nseed = 1\nsed = 3\n")
    with pytest.raises(ValueError, match=rf"{re.escape(path)}:3: unknown config key 'sed'"):
        load_config(path)


def test_unknown_key_in_override_names_source():
    with pytest.raises(ValueError, match="override: unknown config key 'sed'"):
        load_config(overrides={"sed": 3})


def test_bad_env_seed_names_source(monkeypatch):
    monkeypatch.setenv("SEMIDENSE_SEED", "seven")
    with pytest.raises(ValueError, match="SEMIDENSE_SEED: config key 'seed' expects int"):
        load_config()


def test_unknown_section(tmp_path):
    path = write(tmp_path, "[modle]\nheads = 4\n")
    with pytest.raises(ValueError, match=rf"{re.escape(path)}:1: unknown config section '\[modle\]'"):
        load_config(path)


def test_key_under_wrong_section(tmp_path):
    path = write(tmp_path, "[model]\nheads = 4\n[training]\nseed = 1\n")
    with pytest.raises(ValueError, match=rf"{re.escape(path)}:4: config key 'seed' belongs in \[data\], not \[training\]"):
        load_config(path)


def test_missing_equals_sign(tmp_path):
    path = write(tmp_path, "heads 4\n")
    with pytest.raises(ValueError, match=rf"{re.escape(path)}:1: expected 'key = value'"):
        load_config(path)


@pytest.mark.parametrize("value", [64.0, "64.0", "abc", True, None], ids=["float", "float-str", "abc", "bool", "none"])
def test_int_field_type_errors(value):
    with pytest.raises(ValueError, match="override: config key 'image_size' expects int"):
        load_config(overrides={"image_size": value})


@pytest.mark.parametrize("value", [[8, 16, 24, 32, 40.0], (8, 16, 24, 32, 40), "8,16,x"], ids=["float-item", "tuple", "str"])
def test_list_field_type_errors(value):
    with pytest.raises(ValueError, match="override: config key 'channels' expects list"):
        load_config(overrides={"channels": value})


def test_int_field_type_error_in_file(tmp_path):
    path = write(tmp_path, "[data]\nimage_size = 64.0\n")
    with pytest.raises(ValueError, match=rf"{re.escape(path)}:2: config key 'image_size' expects int"):
        load_config(path)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), "nan", "-inf"], ids=["nan", "inf", "-inf", "nan-str", "-inf-str"]
)
def test_float_field_rejects_non_finite_override(value):
    with pytest.raises(ValueError, match="override: config key 'focal_gamma' expects finite float"):
        load_config(overrides={"focal_gamma": value})


@pytest.mark.parametrize("key", ["lr", "warp_scale"])
def test_float_field_rejects_int_too_large_for_a_float(key):
    with pytest.raises(ValueError, match=f"override: config key '{key}' expects finite float"):
        load_config(overrides={key: 10**400})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_float_field_rejects_non_finite_in_file(tmp_path, value):
    path = write(tmp_path, f"[loss]\nlambda_c = 2.0\nlambda_f = {value}\n")
    with pytest.raises(ValueError, match=rf"{re.escape(path)}:3: config key 'lambda_f' expects finite float"):
        load_config(path)


def test_seed_precedence_file_env_override(tmp_path, monkeypatch):
    path = write(tmp_path, "[data]\nseed = 1\n")
    assert load_config(path).seed == 1
    monkeypatch.setenv("SEMIDENSE_SEED", "2")
    assert load_config().seed == 2
    assert load_config(path).seed == 2
    assert load_config(path, overrides={"seed": 3}).seed == 3


def test_config_constructor_ignores_env(monkeypatch):
    monkeypatch.setenv("SEMIDENSE_SEED", "5")
    assert Config().seed == 0


@pytest.mark.parametrize(
    "key,value",
    [
        ("channels", [8, 16, 32, 64]),
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
    ],
)
def test_validate_rejects_and_names_field(key, value):
    with pytest.raises(ValueError, match=rf"config {key} = "):
        load_config(overrides={key: value})
