"""Every public engine function and module method has a caller outside the tests.

One training call and one no_grad inference pass of the benchmark graph
(`bench/matcher.py`, driven by `bench/harness.py`), plus one float64 copy of
the model made as the correctness gate makes it (`harness.model_copy`, a
state-dict round trip), must reach each public function of
`semidense.tensor` and of `semidense.module`, each public class of
`semidense.module`, and each public `Module` method.  Operators and the
layers reach the functions by module-global lookup (`T.add`, `mul(...)`),
and methods are looked up on their class, so a counter set on the module or
the class sees those calls too.
"""

import functools
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from semidense import module as M
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


def _public(module, test):
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_") and test(value) and value.__module__ == module.__name__
    }


def test_every_public_engine_function_has_a_caller(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    from matcher import images_of
    from spans import Tracer

    work = harness.Workload("train_64", 1)
    state = {name: value.copy() for name, value in work.model.state_dict().items()}
    calls = Counter()
    functions = {**_public(T, inspect.isfunction), **_public(M, inspect.isfunction)}
    for name, fn in functions.items():
        for module in (T, M, harness):  # the harness binds some names at import
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, _counted(name, fn, calls))
    classes = _public(M, inspect.isclass)
    for cname, cls in classes.items():
        for name, fn in vars(cls).items():
            if inspect.isfunction(fn):
                monkeypatch.setattr(cls, name, _counted(f"{cname}.{name}", fn, calls))
    assert work.call(0), "the training call failed its output check"
    work.model.train(False)
    work.model.calibrate_batchnorm(images_of(work.pairs[0]))
    assert work.infer_pair(0, Tracer()), "the inference pass failed its output check"
    harness.model_copy(work, state, np.float64)
    uncalled = sorted(set(functions) - set(calls) - EXEMPT)
    assert not uncalled, f"public engine functions that no workload calls: {', '.join(uncalled)}"
    reached = {name.split(".")[0] for name in calls if "." in name}
    unreached = sorted(set(classes) - reached)
    assert not unreached, f"public module classes that no workload reaches: {', '.join(unreached)}"
    methods = {f"Module.{name}" for name, fn in vars(M.Module).items() if not name.startswith("_") and inspect.isfunction(fn)}
    uncalled = sorted(methods - set(calls))
    assert not uncalled, f"public Module methods that no workload calls: {', '.join(uncalled)}"
