"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
from matcher import Matcher, select_matches  # noqa: E402
from pairs import cell_centres, coarse_targets, make_pair, warp_points  # noqa: E402
from semidense.config import load_config  # noqa: E402
from semidense.tensor import Tensor  # noqa: E402
from spans import Tracer  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_stage_shapes_follow_config_channels():
    cfg = load_config(overrides={"channels": [8, 16, 24, 32, 40], "heads": 4, "image_size": 64})
    model = Matcher(cfg, np.random.default_rng(0))
    images = np.random.default_rng(1).random((2, 1, 64, 64), dtype=np.float32)
    feats = model.extract(Tensor(images), Tracer())
    assert [f.shape for f in feats] == [(2, c, 64 >> k, 64 >> k) for k, c in enumerate(cfg.channels, 1)]
    fused, conf = model.features(images, Tracer())
    assert fused.shape == (2, 64, 24) and conf.shape == (1, 64, 64)


def test_names_match_the_pattern_and_benchmark_json(declared):
    names = list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(u) for u in [*END_TO_END.values(), *PER_LAYER.values()])
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    setup_bound = next(m["bound"] for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in declared["end_to_end"])


def test_unknown_workload_is_rejected():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "train_128", "--seed", "0", "--seconds", "1"])
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nope", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_pairs_are_seeded_and_correspondences_exact():
    cfg = load_config(overrides={"image_size": 64})
    a, b = make_pair(cfg, 3, 0), make_pair(cfg, 3, 0)
    assert np.array_equal(a.image0, b.image0) and np.array_equal(a.homography, b.homography)
    assert not np.array_equal(a.image1, make_pair(cfg, 4, 0).image1)
    i0, j1, offset = coarse_targets(a.homography, 64)
    assert len(i0) > 0 and np.all(np.abs(offset) <= 0.5)
    centres = cell_centres(64)
    np.testing.assert_allclose(warp_points(a.homography, centres[i0]), centres[j1] + 8 * offset, atol=1e-9)


def test_select_matches_keeps_mutual_confident_topk():
    cfg = load_config(overrides={"topk": 1})
    conf = np.full((1, 3, 3), 0.01, dtype=np.float32)
    conf[0, 0, 1] = 0.5  # mutual and confident
    conf[0, 1, 2] = 0.3  # mutual and confident, ranked second
    conf[0, 2, 2] = 0.2  # not mutual: column 2 peaks at row 1
    i0, j1, finite = select_matches(cfg, conf)
    assert finite and list(i0) == [0] and list(j1) == [1]
    conf[0, 2, 0] = np.nan
    assert not select_matches(cfg, conf)[2]


def test_span_self_time_subtracts_children():
    tr = Tracer(enabled=True)
    tr.spans = [["step", 0.0, 0.010, -1, 0], ["conv", 0.002, 0.006, 0, 0], ["conv", 0.007, 0.008, 0, 0]]
    self_ms = tr.self_times_ms()
    assert self_ms["step"] == pytest.approx([5.0]) and self_ms["conv"] == pytest.approx([5.0])


def test_gate_passes_on_train_64():
    work = harness.Workload("train_64", 0)
    state = {k: v.copy() for k, v in work.model.state_dict().items()}
    checks, failed = harness.gate(work, state)
    assert failed == 0
    assert checks["check.grad_rel_err"] <= harness.GRAD_CHECK_TOL
    assert checks["match.count"] == harness.gate(work, state)[0]["match.count"]
