#!/usr/bin/env python3
"""Benchmark of the semidense engine on the matcher graph that ``Config`` fixes.

    python3 bench/run.py --workload train_256 --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports the engine from this
checkout's ``src/``, builds the graph in ``matcher.py`` and feeds it
synthetic homography pairs from ``pairs.py``.  One client runs calls in a
closed loop for ``--seconds``.  The script prints each metric by name and
unit, then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``spec.END_TO_END``; ``--trace 1`` is a separate
traced run that reports ``spec.PER_LAYER``.  Every run also writes
``bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json`` with provenance,
sample counts and the correctness gate; a traced run writes its spans next
to it as JSON lines.  It exits with 2 when the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

# OpenBLAS threads are the only threads a run starts.  Capped at 2 so that a
# larger machine runs the same configuration as the 2-core reference box.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_engine():
    """Import the engine from ``ROOT/src`` with OpenBLAS pinned; None if absent."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import semidense
    except ImportError as exc:
        print(f"cannot import the engine from {src}: {exc}", file=sys.stderr)
        return None
    if Path(semidense.__file__).resolve().parent != src / "semidense":
        print(f"semidense was imported from {semidense.__file__}, not from {src}", file=sys.stderr)
        return None
    import harness

    return harness


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    harness = import_engine()
    if harness is None:
        return 2
    import_s = time.perf_counter() - t0
    values, detail, tracer = harness.run(args, import_s)
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        tracer.write(out / f"spans_{stem}.jsonl")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    record = {"provenance": harness.provenance(ROOT, args), **detail, "result": result}
    (out / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        n = detail["samples"].get(name, 1)
        print(f"{args.workload:10s} {name:24s} {values[name]:14.6g} {unit:8s} n={n}")
    print(f"{args.workload:10s} {'error_rate':24s} {detail['failed'] / detail['attempted']:14.6g} "
          f"{'ratio':8s} ({detail['failed']} of {detail['attempted']} calls and checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
