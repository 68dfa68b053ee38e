"""One training step of the benchmark graph hands every parameter the array
its op made for it, and its in-place gradient writes change no bit.

`bench/matcher.py`'s graph at 64 px (the train_64 workload, driven by
`bench/harness.py`) gets every parameter gradient from conv2d, linear or
batchnorm2d, each of which makes a new array for that one input.  So each
parameter must take its gradient as it is, without the copy `_accum` makes
of any other array, and still own it: a C-contiguous, writeable array of
its own dtype and shape that no other gradient, parameter or buffer shares.
"""

from pathlib import Path

import numpy as np

from semidense import tensor as T

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_parameter_takes_its_gradient_as_its_op_made_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    from spans import Tracer

    work = harness.Workload("train_64", 1)
    copies, copy = [], T._leaf_copy
    monkeypatch.setattr(T, "_leaf_copy", lambda g, dtype: (copies.append(g.shape), copy(g, dtype))[1])
    T.backward(work.forward_loss(0, Tracer()))
    assert not copies, f"leaf gradients copied, by shape: {copies}"
    params = dict(work.model.named_parameters())
    grads = {name: p.grad for name, p in params.items()}
    for name, p in params.items():
        g = grads[name]
        assert g is not None, f"{name} received no gradient"
        assert g.flags.c_contiguous and g.flags.writeable, name
        assert g.dtype == p.dtype and g.shape == p.shape, name
    names = list(grads)
    state = work.model.state_dict()  # every parameter's data and every BN running statistic
    for i, name in enumerate(names):
        g = grads[name]
        shared = [other for other in names[i + 1 :] if np.shares_memory(g, grads[other])]
        shared += [key for key, value in state.items() if np.shares_memory(g, value)]
        assert not shared, f"the gradient of {name} shares memory with {shared}"
    assert work.optimize()


def test_a_step_that_writes_no_gradient_in_place_gives_the_same_bits(monkeypatch):
    """With `_owns` answering False no node keeps or writes a gradient in
    place: every leaf copies its first gradient and every sum is a new
    array.  Set-up and warm-up steps included, the loss and every parameter
    gradient equal those of the in-place path bit for bit."""
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    from spans import Tracer

    def step():
        work = harness.Workload("train_64", 1)
        loss = work.forward_loss(0, Tracer())
        T.backward(loss)
        return loss.data, {name: p.grad for name, p in work.model.named_parameters()}

    loss, grads = step()
    monkeypatch.setattr(T, "_owns", lambda g: False)
    loss_out_of_place, grads_out_of_place = step()
    assert np.array_equal(loss, loss_out_of_place)
    assert grads.keys() == grads_out_of_place.keys()
    for name, g in grads.items():
        assert g.dtype == grads_out_of_place[name].dtype and np.array_equal(g, grads_out_of_place[name]), name
