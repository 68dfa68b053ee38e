"""Every public engine function, `Tensor` member and parameter default is in use.

The benchmark's engine paths (`bench/harness.py` driving `bench/matcher.py`)
run once: a train_64 training call, a no_grad inference pass, the float64
gradient check of the correctness gate (`harness.grad_rel_err`, which makes
its model copy with `harness.model_copy`), a traced `profile_step` with its
single-layer backward replays (`harness.replay_backward_ms`), and the
`tensor_op_us` reference.  Together they must

- call each public function of `semidense.tensor` and `semidense.module`,
  reach each public class of `semidense.module`, and call each public
  `Module` method;
- reach each public method, property (getter and setter apart) and
  operator of `Tensor`, `__repr__` excepted;
- pass each parameter default of those functions, and of the public
  classes' public methods and `__init__`, both as its default value and as
  another value.  A default that no caller changes is a constant, and one
  that no caller takes is a required argument.

Operators and the layers reach the functions by module-global lookup
(`T.add`, `mul(...)`), and methods are looked up on their class, so a
counter set on the module or the class sees those calls too.
"""

import functools
import inspect
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from semidense import module as M
from semidense import tensor as T

BENCH = Path(__file__).resolve().parents[1] / "bench"
# only `harness.run` calls it, which this test does not; it goes once the
# benchmark imports the matcher from the package
EXEMPT = {"set_parallel"}


def _counted(name, fn, calls, defaults):
    """`fn` that counts its calls under `name` and records, per defaulted
    parameter, whether each call passed the default value."""
    sig = inspect.signature(fn)
    defaulted = [p for p in sig.parameters.values() if p.default is not p.empty]

    @functools.wraps(fn)
    def counting(*args, **kwargs):
        calls[name] += 1
        if defaulted:
            given = sig.bind(*args, **kwargs).arguments
            for p in defaulted:
                value = given.get(p.name, p.default)
                defaults[f"{name}({p.name})"].add(value is p.default or (not isinstance(value, np.ndarray) and value == p.default))
        return fn(*args, **kwargs)

    return counting


def _public(module, test):
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_") and test(value) and value.__module__ == module.__name__
    }


def _checked(name):
    """A member under the rules: public, or a special method."""
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


@pytest.fixture(scope="module")
def reached():
    """(functions, classes, calls, defaults) of one pass over the benchmark's engine paths."""
    calls, defaults = Counter(), defaultdict(set)
    functions = {**_public(T, inspect.isfunction), **_public(M, inspect.isfunction)}
    classes = {**_public(T, inspect.isclass), **_public(M, inspect.isclass)}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import harness
        from matcher import images_of
        from spans import Tracer

        work = harness.Workload("train_64", 1)
        state = {name: value.copy() for name, value in work.model.state_dict().items()}
        for name, fn in functions.items():
            for module in (T, M, harness):  # the harness binds some names at import
                if getattr(module, name, None) is fn:
                    mp.setattr(module, name, _counted(name, fn, calls, defaults))
        for cname, cls in classes.items():
            for name, member in vars(cls).items():
                qual = f"{cname}.{name}"
                if inspect.isfunction(member):
                    mp.setattr(cls, name, _counted(qual, member, calls, defaults))
                elif isinstance(member, property):
                    setter = member.fset and _counted(f"{qual} (set)", member.fset, calls, defaults)
                    mp.setattr(cls, name, property(_counted(qual, member.fget, calls, defaults), setter))
        assert work.call(0), "the training call failed its output check"
        harness.grad_rel_err(work, state)
        _, tracer = harness.profile_step(work)
        harness.replay_backward_ms(tracer.calls, 1, work.seed)
        harness.tensor_op_us(batches=1, per_batch=1)
        work.model.train(False)
        work.model.calibrate_batchnorm(images_of(work.pairs[0]))
        assert work.infer_pair(0, Tracer()), "the inference pass failed its output check"
    return functions, classes, calls, defaults


def test_every_public_engine_function_has_a_caller(reached):
    functions, classes, calls, _ = reached
    uncalled = sorted(set(functions) - set(calls) - EXEMPT)
    assert not uncalled, f"public engine functions that no workload calls: {', '.join(uncalled)}"
    module_classes = _public(M, inspect.isclass)
    unreached = sorted(set(module_classes) - {name.split(".")[0] for name in calls if "." in name})
    assert not unreached, f"public module classes that no workload reaches: {', '.join(unreached)}"
    methods = {f"Module.{name}" for name, fn in vars(M.Module).items() if not name.startswith("_") and inspect.isfunction(fn)}
    uncalled = sorted(methods - set(calls))
    assert not uncalled, f"public Module methods that no workload calls: {', '.join(uncalled)}"


def test_every_tensor_member_is_reached(reached):
    calls = reached[2]
    members = set()
    for name, member in vars(T.Tensor).items():
        if not _checked(name) or name == "__repr__":
            continue
        if inspect.isfunction(member):
            members.add(f"Tensor.{name}")
        elif isinstance(member, property):
            members |= {f"Tensor.{name}"} | ({f"Tensor.{name} (set)"} if member.fset else set())
    unreached = sorted(members - set(calls))
    assert not unreached, f"Tensor members that no workload reaches: {', '.join(unreached)}"


def test_every_parameter_default_is_a_knob_in_use(reached):
    """Each default is passed both as itself and as another value."""
    functions, classes, _, defaults = reached
    targets = {name: fn for name, fn in functions.items() if name not in EXEMPT}
    for cname, cls in classes.items():
        targets.update((f"{cname}.{name}", fn) for name, fn in vars(cls).items() if _checked(name) and inspect.isfunction(fn))
    knobs = [f"{name}({p.name})" for name, fn in targets.items() for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
    how = {(True,): "default only", (False,): "never the default", (): "never called"}
    bad = sorted(f"{k}: {how[tuple(sorted(defaults[k], reverse=True))]}" for k in knobs if defaults[k] != {True, False})
    assert not bad, f"parameter defaults not passed both as the default and as another value: {'; '.join(bad)}"
