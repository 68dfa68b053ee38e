"""Tests of the module tree's state dict: strict keys, shapes and values,
in-place copies that never alias the caller's arrays, and batchnorm buffers;
of train/eval mode reaching every nested module; and of the tree being what
the attributes hold now, lists of modules included."""

from pathlib import Path

import numpy as np
import pytest

from semidense import tensor as T
from semidense.config import load_config
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
    np.testing.assert_array_equal(src.train(False)(x).data, dst.train(False)(x).data)


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


@pytest.mark.parametrize(
    "key,value",
    [("a.weight", np.full((4, 3), 1e39)), ("bn.running_mean", np.zeros(3, dtype=np.complex128))],
    ids=["float64-overflows-float32", "complex"],
)
def test_value_named_by_its_cast_and_nothing_written(key, value):
    """A value is judged after the cast to its destination's dtype: 1e39 is
    finite in float64 but inf in float32."""
    net = Net(0)
    before = copied_state(net)
    state = {k: v + 1 for k, v in before.items()}
    state[key] = value
    with pytest.raises(ValueError, match=rf"non-real or non-finite values under keys \['{key}'\]"):
        net.load_state_dict(state)
    for name, own in net.state_dict().items():
        np.testing.assert_array_equal(own, before[name], err_msg=name)


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
    assert outer.train(False) is outer and not outer.net.training and not bn.training
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
    for data in (np.arange(3.0), [1, 2, 3]):
        p = Parameter(data)
        assert p.dtype == np.float32 and p._node.dtype == np.float32
        np.testing.assert_array_equal(p.data, np.asarray(data, np.float32))


def test_parameter_rejects_complex_data_naming_the_dtype():
    with pytest.raises(ValueError, match="dtype complex128 is non-real"):
        Parameter(np.array([1 + 2j, 3.0]))


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


@pytest.mark.parametrize(
    "make,name",
    [
        (lambda rng: Conv2d(4, 4, 0, rng), "kernel_size"),
        (lambda rng: Conv2d(4, 4, -1, rng), "kernel_size"),
        (lambda rng: Conv2d(0, 4, 3, rng), "in_channels"),
        (lambda rng: Linear(0, 3, rng), "in_features"),
        (lambda rng: Linear(3, 0, rng), "out_features"),
        (lambda rng: BatchNorm2d(0), "channels"),
        (lambda rng: BatchNorm2d(-1), "channels"),
        (lambda rng: BatchNorm2d(2.5), "channels"),
    ],
    ids=[
        "conv-kernel-0", "conv-kernel-negative", "conv-in-0", "linear-in-0", "linear-out-0",
        "bn-channels-0", "bn-channels-negative", "bn-channels-float",
    ],
)
def test_constructor_names_a_bad_size(make, name):
    with pytest.raises(ValueError, match=name):
        make(np.random.default_rng(0))


def test_a_rebound_buffer_is_what_the_state_dict_sees():
    bn = BatchNorm2d(2)
    bn.running_mean = np.full(2, 7.0)
    assert bn.state_dict()["running_mean"] is bn.running_mean
    state = copied_state(bn)
    state["running_mean"] = np.array([1.0, 2.0])
    bn.load_state_dict(state)
    np.testing.assert_array_equal(bn.running_mean, [1.0, 2.0])


def test_a_parameter_set_to_none_leaves_the_tree():
    lin = Linear(3, 2, np.random.default_rng(0))
    lin.bias = None
    assert [name for name, _ in lin.named_parameters()] == ["weight"]
    assert list(lin.state_dict()) == ["weight"]
    lin.load_state_dict({"weight": np.ones((2, 3))})
    np.testing.assert_array_equal(lin.weight.data, 1.0)


class Blocks(Module):
    def __init__(self, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.blocks = [Linear(3, 3, rng), BatchNorm2d(3)]
        self.head = Linear(3, 2, rng)

    def __call__(self, x):
        lin, bn = self.blocks
        y = bn(T.relu(lin(x)).reshape(2, 3, 1, 1))
        return self.head(y.reshape(2, 3))


def test_a_list_of_modules_is_a_submodule():
    net = Blocks(0)
    names = [name for name, _ in net.named_parameters()]
    assert names == ["blocks.0.weight", "blocks.0.bias", "blocks.1.gamma", "blocks.1.beta", "head.weight", "head.bias"]
    assert list(net.state_dict()) == names + ["blocks.1.running_mean", "blocks.1.running_var"]
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3)))
    net(x).sum().backward()
    assert all(p.grad is not None for p in net.parameters())
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())
    assert net.train(False) is net and not any(m.training for m in net.blocks)
    other = Blocks(1).train(False)
    other.load_state_dict(copied_state(net))
    np.testing.assert_array_equal(other(x).data, net(x).data)


@pytest.mark.parametrize(
    "extra",
    [lambda net: [(net.blocks[0], False), (net.blocks[1], True)], lambda net: [net.head, 3], lambda net: [np.zeros(2)], lambda net: []],
    ids=["tuples-of-modules", "mixed", "arrays", "empty"],
)
def test_a_list_of_non_modules_adds_nothing(extra):
    net, plain = Blocks(0), Blocks(0)
    net.rounds = extra(net)
    assert [name for name, _ in net.named_parameters()] == [name for name, _ in plain.named_parameters()]
    assert list(net.state_dict()) == list(plain.state_dict())
    assert len(net.parameters()) == 6


def test_benchmark_graph_order(monkeypatch):
    """The clipped step sums the gradient norm over `parameters()` in this
    order, so another order changes the bits of every step."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from matcher import Matcher

    model = Matcher(load_config(overrides={"image_size": 64}), np.random.default_rng(0))
    stage = ["conv1.weight", "bn1.gamma", "bn1.beta", "conv2.weight", "bn2.gamma", "bn2.beta"]
    names = [f"s{k}.{name}" for k in range(1, 6) for name in stage]
    names += [
        f"attn{r}_{kind}.{lin}.{p}"
        for r in (0, 1) for kind in ("self", "cross") for lin in ("q", "k", "v", "merge") for p in ("weight", "bias")
    ]
    names += ["proj.weight", "proj.bias", "gate.weight", "gate.bias", "head.weight", "head.bias"]
    assert len(names) == 68
    assert [name for name, _ in model.named_parameters()] == names
    stats = [f"s{k}.bn{i}.running_{s}" for k in range(1, 6) for i in (1, 2) for s in ("mean", "var")]
    assert list(model.state_dict()) == names + stats
