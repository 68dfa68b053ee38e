"""Parameter containers and the small layer zoo the matcher is built from."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; modules register these under dotted names.

    It holds a float32 copy of `data`, so an in-place step never rewrites
    the caller's array.
    """

    def __init__(self, data):
        super().__init__(np.array(data, dtype=np.float32), requires_grad=True)


def kaiming_normal(rng: np.random.Generator, shape, fan_in: int, gain: float = np.sqrt(2.0)):
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


def _check_sizes(layer: str, **sizes) -> None:
    """Raise ValueError naming the first of `sizes` that is not an int >= 1."""
    for name, v in sizes.items():
        if not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError(f"{layer}: {name} must be an int >= 1, got {v!r}")


class Module:
    """Minimal module tree: tracks parameters, buffers, and train/eval mode."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray):
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def state_dict(self, prefix: str = "") -> dict:
        state = {name: p.data for name, p in self.named_parameters(prefix)}
        state.update({name: b for name, b in self.named_buffers(prefix)})
        return state

    def load_state_dict(self, state: dict, prefix: str = "") -> None:
        """Copy `state` into the own parameter and buffer arrays in place.

        The keys must be exactly those of `state_dict()` with equal shapes
        and finite values; nothing is written unless all hold, and no array
        aliases `state`.
        """
        own = self.state_dict(prefix)
        missing, unexpected = sorted(own.keys() - state.keys()), sorted(state.keys() - own.keys())
        if missing or unexpected:
            raise KeyError(f"state dict keys differ: missing {missing}, unexpected {unexpected}")
        wrong = {k: (np.shape(state[k]), own[k].shape) for k in own if np.shape(state[k]) != own[k].shape}
        if wrong:
            raise ValueError(f"state dict shape mismatch, (given, own) by key: {wrong}")
        bad = sorted(k for k in own if not np.isfinite(state[k]).all())
        if bad:
            raise ValueError(f"state dict holds non-finite values under keys {bad}")
        for name, dst in own.items():
            dst[...] = state[name]

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        """Release every parameter's gradient; each is None until backward reaches it."""
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True, gain: float = np.sqrt(2.0)):
        super().__init__()
        _check_sizes("Linear", in_features=in_features, out_features=out_features)
        self.weight = Parameter(kaiming_normal(rng, (out_features, in_features), in_features, gain))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

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
        padding: int = 0,
    ):
        super().__init__()
        T._conv_args_check(stride, padding)
        _check_sizes("Conv2d", in_channels=in_channels, out_channels=out_channels, kernel_size=kernel_size)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(kaiming_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        _check_sizes("BatchNorm2d", channels=channels)
        if not 0 <= momentum <= 1:
            raise ValueError(f"BatchNorm2d: momentum must be in [0, 1], got {momentum!r}")
        if not eps > 0:
            raise ValueError(f"BatchNorm2d: eps must be > 0, got {eps!r}")
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.batchnorm2d(
            x, self.running_mean, self.running_var, self.gamma, self.beta,
            training=self.training, momentum=self.momentum, eps=self.eps,
        )

