"""The package matcher against the benchmark's stand-in, and its own checks.

`bench/matcher.py` is the graph the benchmark runs until it imports the
package's.  Built from the same seed, `semidense.model.Matcher` must give
the stand-in's parameters in the same order, and the same loss, gradients,
calibrated statistics, confidence and matches, bit for bit and dtype for
dtype.  `bench/matcher.py` imports `pairs` and `spans` by bare name, so
these tests put `bench/` on `sys.path`.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from semidense import matching
from semidense import model as M
from semidense import tensor as T
from semidense.config import load_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """The stand-in's module, the benchmark's pairs and its `Tracer`."""
    monkeypatch.syspath_prepend(str(BENCH))
    import matcher
    import pairs
    from spans import Tracer

    return SimpleNamespace(matcher=matcher, pairs=pairs, Tracer=Tracer)


def _models(bench, size, seed, dtype=np.float32):
    """Config, stand-in and package model from one seed, parameters in `dtype`,
    as the harness's float64 gate copy casts them."""
    cfg = load_config(overrides={"image_size": size, "seed": seed})
    models = bench.matcher.Matcher(cfg, np.random.default_rng([seed, 1])), M.Matcher(cfg, np.random.default_rng([seed, 1]))
    for model in models:
        for p in model.parameters():
            p.data = p.data.astype(dtype)
    return cfg, models


def _pair(bench, cfg, seed):
    """Images and targets of the harness's first pair at this seed."""
    pair = bench.pairs.make_pair(cfg, seed, 0)
    i0, j1, offset = bench.pairs.coarse_targets(pair.homography, cfg.image_size)
    pick = np.sort(np.random.default_rng([seed, 2, 0]).permutation(len(i0))[: cfg.pad_matches])
    return np.stack([pair.image0, pair.image1]), (i0, j1, offset, pick)


def _assert_same(expected, got):
    assert len(expected) == len(got)
    for k, (a, b) in enumerate(zip(expected, got)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and np.array_equal(a, b), f"output {k} differs"


def _train_outputs(model, loss, tr, cfg, images, targets):
    """The loss and every parameter gradient of one training forward and backward."""
    i0, j1, offset, pick = targets
    fused, conf = model.features(images.astype(model.head.weight.dtype), *tr)
    offsets = model.head_offsets(i0[pick], j1[pick], fused)
    out = loss(cfg, conf, offsets, i0, j1, offset[pick])
    T.backward(out)
    return [out.data] + [p.grad for p in model.parameters()]


def _check_training(bench, size, seed, dtype):
    cfg, (stand_in, model) = _models(bench, size, seed, dtype)
    images, targets = _pair(bench, cfg, seed)
    expected = _train_outputs(stand_in, stand_in.loss, (bench.Tracer(),), cfg, images, targets)
    got = _train_outputs(model, M.loss, (), cfg, images, targets)
    assert got[0].dtype == np.float64  # the float64 centres (ROADMAP item 16)
    _assert_same(expected, got)


def test_parameters_and_state_match_the_stand_in_by_position(bench):
    _, (stand_in, model) = _models(bench, 64, 1)
    assert len(model.parameters()) == 68 and len(model.state_dict()) == 88
    _assert_same([p.data for p in stand_in.parameters()], [p.data for p in model.parameters()])
    _assert_same(list(stand_in.state_dict().values()), list(model.state_dict().values()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [1, 2])
def test_train_64_loss_and_gradients_match_the_stand_in(bench, seed, dtype):
    _check_training(bench, 64, seed, dtype)


def test_train_256_loss_and_gradients_match_the_stand_in(bench):
    _check_training(bench, 256, 1, np.float32)


def test_infer_512_calibration_confidence_and_matches_match_the_stand_in(bench):
    cfg, models = _models(bench, 512, 1)
    images, _ = _pair(bench, cfg, 1)
    outputs = []
    for model, tr, lib in zip(models, ((bench.Tracer(),), ()), (bench.matcher, matching)):
        model.train(False).calibrate_batchnorm(images)
        with T.no_grad():
            fused, conf = model.features(images, *tr)
            i0, j1, finite = lib.select_matches(cfg, conf.data)
            offsets = model.head_offsets(i0, j1, fused)
        xy1 = lib.match_coordinates(cfg.image_size, j1, offsets.data)
        outputs.append(list(model.state_dict().values()) + [conf.data, i0, j1, finite, xy1])
    _assert_same(*outputs)


@pytest.mark.parametrize(
    "shape",
    [
        (3, 1, 64, 64),  # an odd batch would pair image 1 with image 2
        (2, 1, 48, 48),  # 48 px does not halve five times
        (2, 1, 64, 80),
        (0, 1, 64, 64),
        (2, 2, 64, 64),
        (2, 64, 64),
    ],
)
def test_features_rejects_a_shape_it_cannot_pair_or_stride(shape):
    model = M.Matcher(load_config(overrides={"image_size": 64}), np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        model.features(np.zeros(shape, dtype=np.float32))


def test_calibration_restores_momentum_and_mode_when_it_raises():
    model = M.Matcher(load_config(overrides={"image_size": 64}), np.random.default_rng(0)).train(False)
    with pytest.raises(ValueError, match=r"got shape \(2, 3, 64, 64\)"):
        model.calibrate_batchnorm(np.zeros((2, 3, 64, 64), dtype=np.float32))
    bns = [bn for stage in model.stages for bn in (stage.bn1, stage.bn2)]
    assert [bn.momentum for bn in bns] == [0.1] * 10
    assert not model.training and not any(bn.training for bn in bns)


@pytest.mark.parametrize("rows", [1, 5])
def test_loss_rejects_a_target_of_another_shape(rows):
    cfg = load_config()
    conf = T.Tensor(np.full((1, 4, 4), 0.25, dtype=np.float32))
    offsets = T.Tensor(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError, match=re.escape(f"target shape ({rows}, 2) differs from offsets shape (3, 2)")):
        M.loss(cfg, conf, offsets, np.arange(3), np.arange(3), np.zeros((rows, 2)))


@pytest.mark.parametrize("training", [True, False])
def test_swapping_the_images_swaps_the_tokens_and_transposes_the_confidence(training):
    """Cross-attention pairs each image with its partner, so the graph is
    symmetric in the two images up to the dual-softmax's summation order."""
    model = M.Matcher(load_config(overrides={"image_size": 64}), np.random.default_rng([1, 1]))
    images = np.random.default_rng(2).random((2, 1, 64, 64), dtype=np.float32)
    if not training:
        model.train(False).calibrate_batchnorm(images)
    with T.no_grad():
        fused, conf = model.features(images)
        fused_swapped, conf_swapped = model.features(images[[1, 0]])
    assert np.array_equal(fused_swapped.data, fused.data[[1, 0]])
    c, c_swapped = conf.data[0], conf_swapped.data[0]
    assert np.abs(c_swapped - c.T).max() <= 1e-5 * np.abs(c).max()


def test_calibration_runs_the_extractor_only(monkeypatch):
    """Every BN is in the extractor, so calibration runs no attention,
    injection or dual-softmax, and still sets every BN's statistics."""
    model = M.Matcher(load_config(overrides={"image_size": 64}), np.random.default_rng(0)).train(False)

    def refuse(*args):
        raise AssertionError("calibration ran a layer after the extractor")

    for cls, name in ((M.Attention, "__call__"), (M.Matcher, "inject"), (M.Matcher, "dual_softmax")):
        monkeypatch.setattr(cls, name, refuse)
    model.calibrate_batchnorm(np.random.default_rng(1).random((2, 1, 64, 64), dtype=np.float32))
    bns = [bn for stage in model.stages for bn in (stage.bn1, stage.bn2)]
    assert all(bn.running_var.min() != 1.0 for bn in bns)


def test_select_matches_rejects_more_than_one_pair():
    with pytest.raises(ValueError, match=re.escape("got shape (2, 4, 4)")):
        matching.select_matches(load_config(), np.full((2, 4, 4), 0.25, dtype=np.float32))


def test_head_offsets_rejects_more_than_one_pair():
    cfg = load_config(overrides={"image_size": 64})
    model = M.Matcher(cfg, np.random.default_rng(0))
    feats = T.Tensor(np.zeros((4, 64, cfg.channels[2]), dtype=np.float32))
    with pytest.raises(ValueError, match=re.escape(f"got shape (4, 64, {cfg.channels[2]})")):
        model.head_offsets(np.arange(3), np.arange(3), feats)


def test_loss_rejects_more_than_one_pair():
    conf = T.Tensor(np.full((2, 4, 4), 0.25, dtype=np.float32))
    offsets = T.Tensor(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError, match=re.escape("got shape (2, 4, 4)")):
        M.loss(load_config(), conf, offsets, np.arange(3), np.arange(3), np.zeros((3, 2)))


def test_match_coordinates_of_a_non_square_pair():
    """A 64 x 96 pair has an 8 x 12 grid of cells in rows of 12: cell 12 is
    row 1, column 0, and the cell centres cover the image's width and height."""
    model = M.Matcher(load_config(overrides={"image_size": 64}), np.random.default_rng(0))
    images = np.random.default_rng(1).random((2, 1, 64, 96), dtype=np.float32)
    with T.no_grad():
        _, conf = model.features(images)
    assert conf.shape == (1, 96, 96)
    cells = np.arange(conf.shape[2])
    xy = matching.match_coordinates(width=images.shape[3], j1=cells, offsets=np.zeros((len(cells), 2)))
    assert np.array_equal(xy[12], [3.5, 11.5])
    assert np.array_equal(np.unique(xy[:, 0]), 3.5 + 8 * np.arange(12))
    assert np.array_equal(np.unique(xy[:, 1]), 3.5 + 8 * np.arange(8))


@pytest.mark.parametrize(
    "i0,j1,message",
    [
        (np.arange(3), np.arange(2), "got shapes (3,) and (2,)"),
        (np.arange(3.0), np.arange(3), "i0 must hold integer cell indices; got dtype float64"),
        (np.arange(3), np.array([0, 1, 4]), "j1[2] = 4 is not a cell of [0, 4)"),  # once read as cell (i0 + 1, 0)
        (np.array([0, -1, 2]), np.arange(3), "i0[1] = -1 is not a cell of [0, 4)"),
    ],
    ids=["lengths", "float", "j1-past-the-row", "i0-negative"],
)
def test_loss_rejects_ground_truth_cells_that_do_not_exist(i0, j1, message):
    conf = T.Tensor(np.full((1, 4, 4), 0.25, dtype=np.float32))
    offsets = T.Tensor(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError, match=re.escape(message)):
        M.loss(load_config(), conf, offsets, i0, j1, np.zeros((3, 2)))


@pytest.mark.parametrize(
    "width,offsets,message",
    [
        (64, np.zeros((1, 2)), "offsets must be (3, 2) for 3 matches; got shape (1, 2)"),
        (64, np.zeros((3, 3)), "got shape (3, 3)"),
        (60, np.zeros((3, 2)), "positive int multiple of 8; got 60"),
        (0, np.zeros((3, 2)), "got 0"),
        (64.0, np.zeros((3, 2)), "got 64.0"),
    ],
    ids=["one-offset", "three-columns", "width-60", "width-0", "width-float"],
)
def test_match_coordinates_rejects_offsets_or_a_width_that_do_not_fit(width, offsets, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        matching.match_coordinates(width, np.arange(3), offsets)


def test_a_matcher_without_attention_layers_trains():
    cfg = load_config(overrides={"image_size": 64, "num_layers": 0})
    model = M.Matcher(cfg, np.random.default_rng(0))
    assert not [name for name, _ in model.named_parameters() if name.startswith("attn")]
    fused, conf = model.features(np.random.default_rng(1).random((2, 1, 64, 64), dtype=np.float32))
    cells = np.arange(3)
    offsets = model.head_offsets(cells, cells, fused)
    T.backward(M.loss(cfg, conf, offsets, cells, cells, np.zeros((3, 2))))
    assert all(p.grad is not None and np.isfinite(p.grad).all() for p in model.parameters())


def test_an_inference_with_no_match_above_theta_c_gives_empty_matches():
    cfg = load_config(overrides={"image_size": 64, "theta_c": 1.0})
    model = M.Matcher(cfg, np.random.default_rng(0)).train(False)
    images = np.random.default_rng(1).random((2, 1, 64, 64), dtype=np.float32)
    model.calibrate_batchnorm(images)
    with T.no_grad():
        fused, conf = model.features(images)
        i0, j1, finite = matching.select_matches(cfg, conf.data)
        offsets = model.head_offsets(i0, j1, fused)
    xy1 = matching.match_coordinates(cfg.image_size, j1, offsets.data)
    assert i0.shape == j1.shape == (0,) and offsets.shape == xy1.shape == (0, 2) and finite
