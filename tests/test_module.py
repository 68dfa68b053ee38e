"""Tests of the module tree's state dict: strict keys and shapes, in-place
copies that never alias the caller's arrays, and batchnorm buffers; and of
train/eval mode reaching every nested module."""

import numpy as np
import pytest

from semidense import tensor as T
from semidense.module import BatchNorm2d, Conv2d, Linear, Module, Parameter
from semidense.tensor import Tensor


class Net(Module):
    def __init__(self, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = Conv2d(2, 3, 3, rng, padding=1)
        self.bn = BatchNorm2d(3)
        self.a = Linear(3, 4, rng)

    def __call__(self, x):
        y = T.relu(self.bn(self.conv(x)))
        return self.a(y.mean(axis=(2, 3)))


def copied_state(net):
    return {k: v.copy() for k, v in net.state_dict().items()}


def test_round_trip():
    src, dst = Net(0), Net(1)
    dst.load_state_dict(copied_state(src))
    for (name, a), b in zip(src.state_dict().items(), dst.state_dict().values()):
        np.testing.assert_array_equal(a, b, err_msg=name)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 2, 5, 5)))
    np.testing.assert_array_equal(src.eval()(x).data, dst.eval()(x).data)


def test_missing_key_named():
    net = Net(0)
    state = copied_state(net)
    del state["conv.weight"], state["bn.running_var"]
    with pytest.raises(KeyError, match=r"missing \['bn.running_var', 'conv.weight'\]"):
        net.load_state_dict(state)


def test_unexpected_key_named():
    net = Net(0)
    state = copied_state(net)
    state["b.weight"] = np.zeros((4, 3), dtype=np.float32)
    with pytest.raises(KeyError, match=r"unexpected \['b.weight'\]"):
        net.load_state_dict(state)


def test_shape_mismatch_named_and_nothing_written():
    net = Net(0)
    before = copied_state(net)
    state = {k: v + 1 for k, v in before.items()}
    state["a.bias"] = np.zeros(5, dtype=np.float32)
    with pytest.raises(ValueError, match="'a.bias'"):
        net.load_state_dict(state)
    for name, value in net.state_dict().items():
        np.testing.assert_array_equal(value, before[name], err_msg=name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_value_named_and_nothing_written(bad):
    net = Net(0)
    before = copied_state(net)
    state = {k: v + 1 for k, v in before.items()}
    state["bn.running_var"][1] = bad
    with pytest.raises(ValueError, match=r"non-finite values under keys \['bn.running_var'\]"):
        net.load_state_dict(state)
    for name, value in net.state_dict().items():
        np.testing.assert_array_equal(value, before[name], err_msg=name)


def test_load_does_not_alias_caller_arrays():
    net = Net(0)
    state = copied_state(Net(1))
    snapshot = copied_state(Net(1))
    net.load_state_dict(state)
    for name, value in net.state_dict().items():
        assert not np.shares_memory(value, state[name]), name
    for p in net.parameters():
        p.data -= 1.0  # an in-place optimizer step
    for name in state:
        np.testing.assert_array_equal(state[name], snapshot[name], err_msg=name)


def test_batchnorm_buffers_restored():
    src, dst = Net(0), Net(0)
    src(Tensor(np.random.default_rng(3).normal(loc=2.0, size=(2, 2, 5, 5))))  # training step moves the stats
    assert not np.allclose(src.bn.running_mean, dst.bn.running_mean)
    running_mean = dst.bn.running_mean
    dst.load_state_dict(copied_state(src))
    assert dst.bn.running_mean is running_mean
    np.testing.assert_array_equal(dst.bn.running_mean, src.bn.running_mean)
    np.testing.assert_array_equal(dst.bn.running_var, src.bn.running_var)


def test_train_and_eval_reach_a_nested_batchnorm():
    outer = Module()
    outer.net = Net(0)
    bn = outer.net.bn
    h = outer.net.conv(Tensor(np.random.default_rng(5).normal(loc=2.0, size=(2, 2, 5, 5))))
    bn(h)  # a training step moves the running statistics off their initial values
    mean, var = bn.running_mean.copy(), bn.running_var.copy()
    assert outer.eval() is outer and not outer.net.training and not bn.training
    y = bn(h).data  # normalized by the running statistics, which stay as they were
    np.testing.assert_allclose(y, (h.data - mean[:, None, None]) / np.sqrt(var[:, None, None] + bn.eps), rtol=1e-5)
    np.testing.assert_array_equal(bn.running_mean, mean)
    np.testing.assert_array_equal(bn.running_var, var)
    assert outer.train() is outer and bn.training
    y = bn(h).data  # normalized by the batch statistics again
    np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, rtol=1e-4)
    assert not np.array_equal(bn.running_mean, mean)


def test_parameter_copies_its_input():
    a = np.zeros(3, dtype=np.float32)
    p = Parameter(a)
    assert not np.shares_memory(p.data, a)
    p.data -= 1.0  # an in-place step leaves the caller's array alone
    np.testing.assert_array_equal(a, 0.0)
    assert np.shares_memory(Tensor(a).data, a)  # plain tensors still wrap without a copy


def test_zero_grad_releases_every_parameter_gradient():
    net = Net(0)
    x = Tensor(np.random.default_rng(3).normal(size=(2, 2, 5, 5)).astype(np.float32))
    net(x).sum().backward()
    assert all(p.grad is not None for p in net.parameters())
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())


def test_float64_copy_gets_float64_gradients():
    """Reassigning the parameters' data after construction, as a float64
    copy of a model does, gives gradients of the new dtype."""
    net = Net(0)
    for p in net.parameters():
        p.data = p.data.astype(np.float64)
    net(Tensor(np.random.default_rng(4).normal(size=(2, 2, 5, 5)))).sum().backward()
    for name, p in net.named_parameters():
        assert p.grad.dtype == np.float64 and p.grad.shape == p.shape, name
