"""Set-up, closed loop, traced profile and correctness gate of one run.

``run.py`` imports this module only after it has pinned the OpenBLAS
thread count and put this checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import time
import tracemalloc
import traceback
from functools import partial
from pathlib import Path

import numpy as np
from semidense import tensor as T
from semidense.config import load_config
from semidense.tensor import Tensor, no_grad, set_parallel

from matcher import Matcher, images_of, match_coordinates, select_matches
from pairs import coarse_targets, make_pairs
from spans import Tracer
from spec import PER_LAYER, REPLAYED, STAGES, WORKLOADS

SETUP_REPEATS = 3
PAIR_POOL = 4  # distinct pairs per run, used round-robin
REPLAY_REPEATS = 3
REFERENCE_BATCHES = 7  # timed batches of each machine reference
# directional-derivative step and the agreement the float64 gate demands
GRAD_CHECK_EPS = 1e-6
GRAD_CHECK_TOL = 1e-4
# float32 vs float64 confidence: max abs difference over max abs value
CONF_CHECK_TOL = 1e-3
GATE_CHECKS = 3  # gradient, confidence, finite confidence


class Workload:
    """One set-up: config, model, pairs and warm-up, each timed."""

    def __init__(self, name: str, seed: int):
        self.size, self.train, warmup_calls = WORKLOADS[name]
        self.seed = seed
        self.cfg = load_config(overrides={"image_size": self.size, "seed": seed})
        t0 = time.perf_counter()
        self.model = Matcher(self.cfg, np.random.default_rng([seed, 1])).train(self.train)
        self.model.zero_grad()
        t1 = time.perf_counter()
        self.pairs = make_pairs(self.cfg, seed, PAIR_POOL)
        self.targets = []
        for k, pair in enumerate(self.pairs):
            i0, j1, offset = coarse_targets(pair.homography, self.size)
            pick = np.sort(np.random.default_rng([seed, 2, k]).permutation(len(i0))[: self.cfg.pad_matches])
            self.targets.append((i0, j1, offset, pick))
        t2 = time.perf_counter()
        if not self.train:
            self.model.calibrate_batchnorm(images_of(self.pairs[0]))
        for k in range(warmup_calls):
            if not self.call(k):
                raise RuntimeError(f"{name}: warm-up call {k} failed its output check")
        t3 = time.perf_counter()
        self.warmup_calls = warmup_calls
        self.setup_ms = {"setup.model_init_ms": 1e3 * (t1 - t0), "setup.data_ms": 1e3 * (t2 - t1),
                         "setup.warmup_ms": 1e3 * (t3 - t2)}
        self.setup_s = t3 - t0

    def call(self, k: int, tr: Tracer | None = None) -> bool:
        """Call ``k`` of the loop; True when its outputs pass the check."""
        tr = tr or Tracer()
        tr.step = k
        if self.train:
            return self.train_step(k % PAIR_POOL, tr)
        return self.infer_pair(k % PAIR_POOL, tr)

    def forward_loss(self, k: int, tr: Tracer, model: Matcher | None = None) -> Tensor:
        model = model or self.model
        i0, j1, offset, pick = self.targets[k]
        fused, conf = model.features(images_of(self.pairs[k]).astype(model.head.weight.dtype, copy=False), tr)
        offsets = tr.layer("head", partial(model.head_offsets, i0[pick], j1[pick]), fused)
        return tr.layer("loss", partial(model.loss, self.cfg, i0=i0, j1=j1, target=offset[pick]), conf, offsets)

    def optimize(self) -> bool:
        """Clipped SGD with weight decay; False when the gradient is not finite."""
        params = self.model.parameters()
        norm = float(np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params)))
        if not np.isfinite(norm):
            return False
        lr = self.cfg.lr
        step = lr * min(1.0, self.cfg.grad_clip / max(norm, 1e-12))
        for p in params:
            p.data *= 1.0 - lr * self.cfg.weight_decay
            p.data -= step * p.grad
        self.model.zero_grad()
        return True

    def train_step(self, k: int, tr: Tracer) -> bool:
        with tr.span("forward"):
            loss = self.forward_loss(k, tr)
        with tr.span("backward"):
            T.backward(loss)
        with tr.span("optim"):
            ok = self.optimize()
        return ok and bool(np.isfinite(loss.data).all())

    def infer_pair(self, k: int, tr: Tracer) -> bool:
        with no_grad(), tr.span("forward"):
            fused, conf = self.model.features(images_of(self.pairs[k]), tr)
            i0, j1, finite = select_matches(self.cfg, conf.data)
            offsets = tr.layer("head", partial(self.model.head_offsets, i0, j1), fused)
            xy1 = match_coordinates(self.size, j1, offsets.data)
        n_cells = conf.shape[1]
        in_range = ((i0 >= 0) & (i0 < n_cells) & (j1 >= 0) & (j1 < n_cells)).all()
        return finite and len(i0) <= self.cfg.topk and bool(in_range) and bool(np.isfinite(xy1).all())


def timed_loop(work: Workload, seconds: float, first: int, tr: Tracer | None = None):
    """Closed loop for ``seconds``; returns per-call ms, failures, elapsed s."""
    times, failed = [], 0
    start = time.perf_counter()
    k = first
    while True:
        t0 = time.perf_counter()
        try:
            ok = work.call(k, tr)
        except Exception:  # a failing call is counted, and the loop goes on
            traceback.print_exc()
            ok = False
        t1 = time.perf_counter()
        times.append(1e3 * (t1 - t0))
        failed += not ok
        k += 1
        if t1 - start >= seconds:
            return times, failed, t1 - start


# ---------------------------------------------------------------------------
# traced run: span self times, memory peaks, backward replays
# ---------------------------------------------------------------------------


def conv_flops(calls) -> dict[str, float]:
    """Forward flops per extractor stage, computed from the recorded shapes."""
    flops = dict.fromkeys(STAGES, 0.0)
    for name, conv, shapes, _ in calls:
        if name.startswith("conv."):
            n, c, h, w = shapes[0]
            o, cg, kh, kw = conv.weight.shape
            oh = (h + 2 * conv.padding - kh) // conv.stride + 1
            ow = (w + 2 * conv.padding - kw) // conv.stride + 1
            flops[name[5:]] += 2.0 * n * o * oh * ow * cg * kh * kw
    return flops


def replay_backward_ms(calls, repeats: int, seed: int) -> dict[str, list[float]]:
    """Time ``tensor.backward`` of each layer alone, at its recorded shapes.

    Each call runs again on seeded random inputs that require grad where the
    recorded ones did; its output is reduced against a random cotangent.
    """
    rng = np.random.default_rng([seed, 4])
    out: dict[str, list[float]] = {name: [] for name in REPLAYED}
    for _ in range(repeats):
        total = dict.fromkeys(REPLAYED, 0.0)
        for name, fn, shapes, needs in calls:
            if name not in total:
                continue
            args = [Tensor(rng.standard_normal(s, dtype=np.float32), requires_grad=g) for s, g in zip(shapes, needs)]
            y = fn(*args)
            loss = (y * Tensor(rng.standard_normal(y.shape, dtype=np.float32))).sum()
            t0 = time.perf_counter()
            T.backward(loss)
            total[name] += 1e3 * (time.perf_counter() - t0)
        for name, t in total.items():
            out[name].append(t)
    return out


def profile_step(work: Workload) -> tuple[dict, Tracer]:
    """One traced training step under tracemalloc that records its layer calls.

    A peak counts memory allocated since its phase began: for the forward,
    the tape it keeps alive plus transients.
    """
    tr = Tracer(enabled=True)
    tr.calls = []
    tracemalloc.start()
    try:
        with tr.span("forward"):
            loss = work.forward_loss(0, tr)
        fwd = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with tr.span("backward"):
            T.backward(loss)
        bwd = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with tr.span("optim"):
        work.optimize()
    return {"step.fwd_peak_mb": fwd / 2**20, "step.bwd_peak_mb": bwd / 2**20}, tr


def traced_metrics(work: Workload, seconds: float) -> tuple[dict, dict, Tracer, int, int]:
    """Per-layer metrics of a traced run.

    Half of ``seconds`` runs untraced and half traced; the difference of the
    median call times is the tracing overhead.  Forward layer times are span
    self times.  The backward side is measured on a training step at this
    workload's shapes: memory peaks, and each layer's backward replayed
    alone by ``replay_backward_ms``.  Inference has no backward of its own,
    so there the profiled step also gives the backward, optimizer and loss
    times.
    """
    first = work.warmup_calls
    plain, failed_plain, _ = timed_loop(work, seconds / 2, first)
    tr = Tracer(enabled=True)
    traced, failed_traced, _ = timed_loop(work, seconds / 2, first + len(plain), tr)
    values, samples = {}, {}

    def put(name, v):
        values[name] = statistics.median(v)
        samples[name] = len(v)

    def put_spans(tracer):
        self_ms = tracer.self_times_ms()
        for layer in REPLAYED + ("loss",):
            if layer in self_ms and f"{layer}.fwd_ms" not in values:
                put(f"{layer}.fwd_ms", self_ms[layer])
        for part in ("forward", "backward", "optim"):
            if tracer.durations_ms(part) and f"step.{part}_ms" not in values:
                put(f"step.{part}_ms", tracer.durations_ms(part))

    put_spans(tr)
    values["trace.overhead_ms"] = statistics.median(traced) - statistics.median(plain)
    samples["trace.overhead_ms"] = min(len(traced), len(plain))

    mode = work.model.training
    work.model.train(True)
    peaks, step_tr = profile_step(work)
    for name, v in peaks.items():
        put(name, [v])
    put_spans(step_tr)
    for layer, v in replay_backward_ms(step_tr.calls, REPLAY_REPEATS, work.seed).items():
        put(f"{layer}.bwd_ms", v)
    work.model.train(mode)
    for stage, flops in conv_flops(step_tr.calls).items():
        values[f"conv.{stage}.gflop_s"] = flops / values[f"conv.{stage}.fwd_ms"] / 1e6
        samples[f"conv.{stage}.gflop_s"] = samples[f"conv.{stage}.fwd_ms"]
    return values, samples, tr, len(plain) + len(traced), failed_plain + failed_traced


# ---------------------------------------------------------------------------
# machine references, measured in every run
# ---------------------------------------------------------------------------


def tensor_op_us(batches: int = REFERENCE_BATCHES, per_batch: int = 2000) -> float:
    """Forward plus backward of one op (a sum) on a 4-element tensor."""
    x = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            x.grad = None
            T.backward(x.sum())
        samples.append(1e6 * (time.perf_counter() - t0) / per_batch)
    return statistics.median(samples)


def matmul_gflop_s(n: int = 512, batches: int = REFERENCE_BATCHES, per_batch: int = 10) -> float:
    """float32 n x n matmul rate of this machine's BLAS."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    np.matmul(a, b)
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            np.matmul(a, b)
        samples.append(2.0 * n**3 * per_batch / (time.perf_counter() - t0) / 1e9)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# correctness gate, run on the state right after set-up
# ---------------------------------------------------------------------------


def model_copy(work: Workload, state: dict, dtype) -> Matcher:
    model = Matcher(work.cfg, np.random.default_rng(0))
    model.load_state_dict(state)
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    return model.train(work.train)


def confidence(work: Workload, model: Matcher, dtype) -> np.ndarray:
    with no_grad():
        return model.features(images_of(work.pairs[0]).astype(dtype), Tracer())[1].data


def grad_rel_err(work: Workload, state: dict) -> float:
    """Finite differences of the float64 loss along a seeded unit direction,
    against ``<grad, direction>``.

    The loss is only piecewise smooth (ReLU, clamp), so a kink may fall
    within the step on one side.  The smallest relative error of the
    central, forward and backward differences is returned: a wrong
    gradient disagrees with all three.
    """
    model = model_copy(work, state, np.float64)
    params = model.parameters()
    rng = np.random.default_rng([work.seed, 3])
    dirs = [rng.standard_normal(p.shape) for p in params]
    scale = 1.0 / np.sqrt(sum(float(np.vdot(d, d)) for d in dirs))
    dirs = [d * scale for d in dirs]
    loss = work.forward_loss(0, Tracer(), model)
    model.zero_grad()
    T.backward(loss)
    analytic = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, dirs))
    base = [p.data.copy() for p in params]
    side = []
    for sign in (1.0, -1.0):
        for p, b, d in zip(params, base, dirs):
            p.data = b + sign * GRAD_CHECK_EPS * d
        side.append(work.forward_loss(0, Tracer(), model).item())
    mid, h = loss.item(), GRAD_CHECK_EPS
    numeric = ((side[0] - side[1]) / (2 * h), (side[0] - mid) / h, (mid - side[1]) / h)
    return min(abs(n - analytic) / max(abs(n), abs(analytic), 1e-30) for n in numeric)


def gate(work: Workload, state: dict) -> tuple[dict, int]:
    """Float64 checks of the set-up state and the repeatable match count.

    Returns the values and the number of checks that failed.
    """
    out = {}
    # inference runs no backward: check the same weights' gradient on 64 px pairs
    grad_work = work if work.train else Workload("train_64", work.seed)
    out["check.grad_rel_err"] = grad_rel_err(grad_work, state)
    c32 = confidence(work, model_copy(work, state, np.float32), np.float32)
    c64 = confidence(work, model_copy(work, state, np.float64), np.float64)
    out["check.conf_rel_err"] = float(np.abs(c32 - c64).max() / np.abs(c64).max())
    i0, _, finite = select_matches(work.cfg, c32)
    out["match.count"] = len(i0)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        select_matches(work.cfg, c32)
        times.append(1e3 * (time.perf_counter() - t0))
    out["match.select_ms"] = statistics.median(times)
    failed = (not out["check.grad_rel_err"] <= GRAD_CHECK_TOL) + (not out["check.conf_rel_err"] <= CONF_CHECK_TOL)
    return out, failed + (not finite)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas() -> dict:
    info = {"version": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for key, names, restype in (
            ("threads", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
            ("config", ("scipy_openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
        ):
            for sym in names:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, []
                    value = fn()
                    info[key] = value.decode() if isinstance(value, bytes) else value
                    break
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(root: Path, args) -> dict:
    return {
        "commit": _git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(args, import_s: float):
    """One run: returns (metric values, detail record, tracer or None)."""
    set_parallel(0)
    setups = []
    for _ in range(SETUP_REPEATS):
        work = Workload(args.workload, args.seed)  # the last one is measured
        setups.append((work.setup_s, work.setup_ms))
    state = {name: value.copy() for name, value in work.model.state_dict().items()}
    tracer, calls_ms = None, []
    if args.trace:
        values, samples, tracer, attempted, failed = traced_metrics(work, args.seconds)
        for key in work.setup_ms:
            values[key] = statistics.median(ms[key] for _, ms in setups)
            samples[key] = len(setups)
    else:
        times, failed, elapsed = timed_loop(work, args.seconds, work.warmup_calls)
        attempted = len(times)
        values = {
            "setup_s": import_s + statistics.median(s for s, _ in setups),
            "pairs_per_s": len(times) / elapsed,
            "step_ms_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": len(setups), "pairs_per_s": len(times), "step_ms_p50": len(times), "peak_rss_mb": 1}
        calls_ms = times
    # after the loop, so that the float64 copies stay out of peak_rss_mb
    reference = {"tensor.op_us": tensor_op_us(), "blas.matmul_gflop_s": matmul_gflop_s()}
    checks, failed_checks = gate(work, state)
    attempted += GATE_CHECKS
    failed += failed_checks
    if args.trace:
        values.update(reference)
        values.update(checks)
        samples.update({"tensor.op_us": REFERENCE_BATCHES, "blas.matmul_gflop_s": REFERENCE_BATCHES, "match.select_ms": 5})
    detail = {
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "call_ms": calls_ms,
        "reference": reference,
        "checks": checks,
        "tolerances": {"check.grad_rel_err": GRAD_CHECK_TOL, "check.conf_rel_err": CONF_CHECK_TOL},
        "run_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "flops": "conv.*.gflop_s divide flop counts computed from the layer shapes by measured time",
    }
    return values, detail, tracer
