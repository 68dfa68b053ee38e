"""Parameter containers and the small layer zoo the matcher is built from."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; a module lists these under dotted names.

    It holds a float32 copy of `data`, so an in-place step never rewrites
    the caller's array.  Data that are not real numbers are a ValueError,
    as for a `Tensor`, and so is an entry that float32 would turn into inf
    or zero.
    """

    def __init__(self, data):
        super().__init__(T._fit(data, np.float32, "Parameter data"), requires_grad=True)


def kaiming_normal(rng: np.random.Generator, shape, fan_in: int, gain: float = np.sqrt(2.0)):
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


class Module:
    """A tree of parameters, buffers and submodules, read from its attributes.

    What a module holds is what its attributes hold now, in first-assignment
    order: a `Parameter` is a parameter, an `np.ndarray` a buffer, and a
    `Module` or a non-empty list of Modules a submodule, the list's items
    named `name.0`, `name.1`, ...  Any other value, a list of tuples
    included, is neither.  A module lists its own members before its
    submodules', so rebinding an attribute or setting it to None changes
    what `named_parameters`, `state_dict` and `load_state_dict` see.
    """

    training = True

    def _modules(self, prefix: str = ""):
        """(dotted prefix, module) of this module and every submodule, parents first."""
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._modules(f"{prefix}{name}.")
            elif isinstance(value, list) and value and all(isinstance(m, Module) for m in value):
                for i, m in enumerate(value):
                    yield from m._modules(f"{prefix}{name}.{i}.")

    def _walk(self, kind):
        """(dotted name, value) of every attribute of type `kind` in the tree."""
        return ((pre + name, v) for pre, m in self._modules() for name, v in vars(m).items() if isinstance(v, kind))

    def named_parameters(self):
        return self._walk(Parameter)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def state_dict(self) -> dict:
        state = {name: p.data for name, p in self.named_parameters()}
        state.update(self._walk(np.ndarray))
        return state

    def load_state_dict(self, state: dict) -> None:
        """Copy `state` into the own parameter and buffer arrays in place.

        The keys must be exactly those of `state_dict()` with equal shapes,
        and each value must be real and stay finite when cast to its
        destination's dtype; nothing is written unless all hold, and no
        array aliases `state`.
        """
        own = self.state_dict()
        missing, unexpected = sorted(own.keys() - state.keys()), sorted(state.keys() - own.keys())
        if missing or unexpected:
            raise KeyError(f"state dict keys differ: missing {missing}, unexpected {unexpected}")
        wrong = {k: (np.shape(state[k]), own[k].shape) for k in own if np.shape(state[k]) != own[k].shape}
        if wrong:
            raise ValueError(f"state dict shape mismatch, (given, own) by key: {wrong}")
        cast, bad = {}, []
        for k, dst in own.items():
            value = np.asarray(state[k])
            with np.errstate(over="ignore"):  # a cast that overflows is named as non-finite below
                cast[k] = value.astype(dst.dtype) if value.dtype.kind in "biuf" else None
            if cast[k] is None or not np.isfinite(cast[k]).all():
                bad.append(k)
        if bad:
            raise ValueError(f"state dict holds non-real or non-finite values under keys {sorted(bad)}")
        for k, dst in own.items():
            dst[...] = cast[k]

    def train(self, mode: bool = True):
        for _, m in self._modules():
            m.training = mode
        return self

    def zero_grad(self):
        """Release every parameter's gradient; each is None until backward reaches it."""
        for p in self.parameters():
            p.grad = None


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, gain: float):
        T._check_ints("Linear", 1, in_features=in_features, out_features=out_features)
        self.weight = Parameter(kaiming_normal(rng, (out_features, in_features), in_features, gain))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """Kaiming-initialized `T.conv2d`, without bias: the batch norm after each conv cancels one."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        *,
        padding: int,
    ):
        T._check_ints("Conv2d", 1, in_channels=in_channels, out_channels=out_channels, kernel_size=kernel_size, stride=stride)
        T._check_ints("Conv2d", 0, padding=padding)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(kaiming_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    def __init__(self, channels: int):
        T._check_ints("BatchNorm2d", 1, channels=channels)
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.momentum = 0.1  # an attribute, so that a calibration pass can set it to 1

    def __call__(self, x: Tensor) -> Tensor:
        return T.batchnorm2d(
            x, self.running_mean, self.running_var, self.gamma, self.beta,
            training=self.training, momentum=self.momentum,
        )

