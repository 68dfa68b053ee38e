"""Every public engine function has a caller outside the tests.

One training call and one no_grad inference pass of the benchmark graph
(`bench/matcher.py`, driven by `bench/harness.py`) must reach each public
function of `semidense.tensor`.  Operators and the layers reach these
functions by module-global lookup (`T.add`, `mul(...)`), so a counter set
on the module sees those calls too.
"""

import functools
import inspect
from collections import Counter
from pathlib import Path

from semidense import tensor as T

BENCH = Path(__file__).resolve().parents[1] / "bench"
# only `harness.run` calls it, which this test does not; it goes once the
# benchmark imports the matcher from the package
EXEMPT = {"set_parallel"}


def _counted(name, fn, calls):
    @functools.wraps(fn)
    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counting


def test_every_public_engine_function_has_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    from matcher import images_of
    from spans import Tracer

    work = harness.Workload("train_64", 1)
    public = {
        name: fn
        for name, fn in vars(T).items()
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == T.__name__
    }
    calls = Counter()
    for name, fn in public.items():
        for module in (T, harness):  # the harness binds some names at import
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, _counted(name, fn, calls))
    assert work.call(0), "the training call failed its output check"
    work.model.train(False)
    work.model.calibrate_batchnorm(images_of(work.pairs[0]))
    assert work.infer_pair(0, Tracer()), "the inference pass failed its output check"
    uncalled = sorted(set(public) - set(calls) - EXEMPT)
    assert not uncalled, f"public engine functions that no workload calls: {', '.join(uncalled)}"
