"""Results of the benchmark graph do not depend on the OpenBLAS thread count.

OpenBLAS reads its count once, when it loads, and the engine sizes its
splits from it at import, so each count runs in its own subprocess.  Each
prints a digest of the loss and every parameter gradient of one seed-1
train_64 step (`bench/harness.py`), and of a no_grad confidence at 64 px,
for the benchmark's matcher and for the package's `semidense.model.Matcher`
built from the same seed.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import hashlib, sys
import numpy as np
sys.path[:0] = sys.argv[1:]
import harness
from matcher import images_of
from semidense import model as M
from semidense import tensor as T
from spans import Tracer


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


work = harness.Workload("train_64", 1)
loss = work.forward_loss(0, Tracer())
T.backward(loss)
print("split-parts", T._PARTS)
print("loss", digest(loss.data))
for name, p in work.model.named_parameters():
    print(name, digest(p.grad))
print("confidence", digest(harness.confidence(work, work.model, np.float32)))

model = M.Matcher(work.cfg, np.random.default_rng([1, 1]))
i0, j1, offset, pick = work.targets[0]
fused, conf = model.features(images_of(work.pairs[0]))
loss = M.loss(work.cfg, conf, model.head_offsets(i0[pick], j1[pick], fused), i0, j1, offset[pick])
T.backward(loss)
print("model.loss", digest(loss.data))
for name, p in model.named_parameters():
    print("model." + name, digest(p.grad))
print("model.confidence", digest(harness.confidence(work, model, np.float32)))
"""


def digests(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return dict(line.split(" ", 1) for line in out.stdout.splitlines())


def test_train_step_and_confidence_do_not_depend_on_the_thread_count():
    one, two = digests(1), digests(2)
    assert one.pop("split-parts") == "1"
    print("split parts at OPENBLAS_NUM_THREADS=2:", two.pop("split-parts"))
    assert len(one) > 2 and "model.loss" in one and one.keys() == two.keys()
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"differ between one and two OpenBLAS threads: {', '.join(differ)}"
