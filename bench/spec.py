"""Workloads and metric names of the benchmark; standard library only.

README.md says why each workload exists and which layer metric should move
which end-to-end metric.  BENCHMARK.json at the repository root lists the
same names; a test keeps the two in step.
"""

from __future__ import annotations

from typing import NamedTuple


class Spec(NamedTuple):
    image_size: int
    train: bool  # a call is a training step, else a no_grad inference pair
    # per set-up, before anything is timed; inference also warms up through
    # the no_grad pass that calibrates its BN statistics
    warmup_calls: int


WORKLOADS = {
    "train_256": Spec(256, True, 1),
    "infer_512": Spec(512, False, 0),
    "train_64": Spec(64, True, 5),
}

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

STAGES = tuple(f"s{k}" for k in range(1, 6))
# layers whose backward a traced run replays at the recorded shapes
REPLAYED = tuple(f"conv.{s}" for s in STAGES) + ("bn", "attention", "inject", "dual_softmax", "head")

PER_LAYER = {
    **{f"conv.{s}.gflop_s": "GFLOP/s" for s in STAGES},
    **{f"{layer}.{m}": "ms" for layer in REPLAYED for m in ("fwd_ms", "bwd_ms")},
    "match.select_ms": "ms",
    "match.count": "count",
    "loss.fwd_ms": "ms",
    "step.forward_ms": "ms",
    "step.backward_ms": "ms",
    "step.optim_ms": "ms",
    "step.fwd_peak_mb": "MB",
    "step.bwd_peak_mb": "MB",
    "tensor.op_us": "us",
    "blas.matmul_gflop_s": "GFLOP/s",
    "setup.model_init_ms": "ms",
    "setup.data_ms": "ms",
    "setup.warmup_ms": "ms",
    "check.grad_rel_err": "ratio",
    "check.conf_rel_err": "ratio",
    "trace.overhead_ms": "ms",
}

