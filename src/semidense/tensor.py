"""Dense float tensors with reverse-mode autodiff on a dynamic tape.

numpy arrays hold the data; every differentiable op records a closure that
scatters upstream gradients back to its inputs.  float32 is the working
precision for training and inference, float64 exists for gradient checking.
Ops are pure functions over immutable inputs; every reduction runs in a
fixed order, so equal seeds give bitwise equal results.  Convolution has one
code path, an im2col-GEMM whose single patch layout serves forward and
backward (see `conv2d`).  The layout folds the batch into the GEMM columns,
so backward runs one weight-gradient GEMM per block, not a weight-sized
product per image.  Patches are filled one block of output rows at a time
into a buffer of a few MB, so they stay in cache for the GEMMs that read
them; backward re-extracts them from the input instead of keeping the kh*kw
times larger patch matrix on the tape.  `softmax` is blocked the same way:
it runs its max, subtract, exp, sum and divide passes on one cache-sized
block (`_SOFTMAX_BLOCK_BYTES`) at a time, whole rows when the last axis is
reduced and a run of slices along any other axis, because six whole-array
passes over the 64 MB dual-softmax scores each stream the array from
memory, while a block stays in cache across them.  The only threads are
those of the BLAS library behind `np.matmul`.

Gradient ownership: a leaf (a tensor with no backward closure, such as a
parameter) owns its `.grad`, a C-contiguous array of its own dtype and shape
that callers may update in place.  An inner node's `.grad` is borrowed: it
may be a view, a broadcast view or another node's gradient, so it is never
written in place, and backward sets it to None once the node's closure has
used it.  Ops keep on the tape only what their backward reads.

Allocator policy (process-wide, set once at import): where the C library
is glibc, every allocation is served from the heap, never from a private
mmap, and the heap is never trimmed.  By default glibc mmaps each array
above its 32 MB ceiling afresh and returns it on free, and trims the heap
top, so every step faults the same pages in again (filling a fresh 64 MB
array takes 544 page faults and about twice the time of refilling one).
With the policy, a freed buffer is reused by the next step of the same
shape.  Freed memory stays with the process, so its resident size does not
shrink after a peak; the peak itself does not grow.  Where libc has no
`mallopt`, the policy is a no-op.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True

# glibc <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _keep_freed_memory() -> None:
    """Apply the allocator policy of the module docstring, where glibc has it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)  # no private mmaps: large arrays live on the heap
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)  # never hand the heap top back


_keep_freed_memory()


def grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def set_parallel(num_workers: int = 0) -> None:
    """Accept 0, the only mode there is; any other worker count is an error.

    The name stays for existing importers.  conv2d no longer splits batches
    over a thread pool: the BLAS library already uses every core.
    """
    if num_workers != 0:
        raise ValueError(
            f"set_parallel({num_workers!r}): conv2d no longer splits batches over threads "
            "and OpenBLAS already uses every core; only 0 is accepted"
        )


class Tensor:
    """A dense nd-array with an optional gradient buffer.

    `data` is row-major contiguous float32 or float64.  A leaf's `grad` has
    the shape and dtype of `data` once backward() has reached it; an inner
    node's `grad` is None again when backward() returns.  Tensors created
    by ops inherit requires_grad from their inputs unless recording is off.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = np.asarray(arr, order="C")  # ascontiguousarray would turn 0-d into (1,)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def check_finite(self, name: str = "tensor") -> "Tensor":
        if not np.isfinite(self.data).all():
            raise FloatingPointError(f"non-finite values in {name}")
        return self

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def __len__(self):
        return len(self.data)

    # -- autodiff ---------------------------------------------------------

    def backward(self) -> None:
        backward(self)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, e):
        return pow_scalar(self, e)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    # -- method sugar -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes if axes else None)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def abs(self):
        return tabs(self)


def _wrap(other, like: Tensor):
    if isinstance(other, Tensor):
        return other
    return Tensor(np.asarray(other, dtype=like.dtype))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Each node's closure runs once, on the sum of the gradients its consumers
    sent.  Leaves accumulate into the `.grad` they own (trainers zero it
    first, so untouched parameters stay zero).  Inner gradients are borrowed
    and freed: after backward every inner node, the loss included, has
    `.grad` None, and the tape is released node by node as it unwinds.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("backward called on a non-finite loss")
    if not loss.requires_grad:
        return

    # iterative topological order (graphs can be thousands of ops deep)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    _accum(loss, np.ones_like(loss.data))
    while topo:
        node = topo.pop()  # popped, so a node nobody else holds is freed once used
        fn, g = node._backward, node.grad
        if fn is None:
            continue  # a leaf keeps its gradient
        node._backward, node._parents, node.grad = None, (), None
        if g is not None:
            fn(g)


def _accum(t: Tensor, g):
    """Add gradient `g` into `t.grad` under the ownership rule of this module."""
    if not t.requires_grad:
        return
    if t._backward is None:  # a leaf: its own C-contiguous copy, then in place
        if t.grad is None:
            t.grad = np.array(g, dtype=t.data.dtype, order="C")
        else:
            t.grad += g
        return
    if g.__class__ is not np.ndarray or g.dtype != t.data.dtype:
        g = np.asarray(g, dtype=t.data.dtype)  # 0-d * float gives a numpy scalar
    # borrowed: taken as is, and never added into in place
    t.grad = g if t.grad is None else np.asarray(t.grad + g)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _wrap(a, b)
    b = _wrap(b, a)
    out_data = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw)


def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _wrap(a, b)
    b = _wrap(b, a)
    out_data = a.data - b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw)


def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _wrap(a, b)
    if np.isscalar(b):
        s = float(b)
        out_data = a.data * s

        def bw_s(g):
            _accum(a, g * s)

        return _make(out_data, (a,), bw_s)
    b = _wrap(b, a)
    out_data = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def div(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _wrap(a, b)
    if np.isscalar(b):
        return mul(a, 1.0 / float(b))
    b = _wrap(b, a)
    out_data = a.data / b.data

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * out_data / b.data, b.data.shape))

    return _make(out_data, (a, b), bw)


def pow_scalar(a: Tensor, e: float) -> Tensor:
    if e % 1 and (a.data < 0).any():  # integer exponents skip the scan
        raise FloatingPointError(f"pow_scalar of negative value to the fractional power {e}")
    if e < 0 and (a.data == 0).any():  # non-negative exponents skip the scan
        raise FloatingPointError(f"pow_scalar of zero to the negative power {e}")
    out_data = a.data**e

    def bw(g):
        _accum(a, g * e * a.data ** (e - 1))

    return _make(out_data, (a,), bw)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), bw)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise FloatingPointError("log of non-positive value")
    out_data = np.log(a.data)

    def bw(g):
        _accum(a, g / a.data)

    return _make(out_data, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    if (a.data < 0).any():
        raise FloatingPointError("sqrt of negative value")
    out_data = np.sqrt(a.data)

    def bw(g):
        _accum(a, g * 0.5 / np.maximum(out_data, np.finfo(out_data.dtype).tiny))

    return _make(out_data, (a,), bw)


def tabs(a: Tensor) -> Tensor:
    out_data = np.abs(a.data)

    def bw(g):
        _accum(a, g * np.sign(a.data))

    return _make(out_data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) for x >= 0
    and e / (1 + e) below.
    """
    x = a.data
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out_data = np.where(x >= 0, 1.0, e)
    e += 1.0
    out_data /= e

    def bw(g):
        _accum(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def bw(g):
        _accum(a, g * (out_data > 0))

    return _make(out_data, (a,), bw)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through the closed interval."""
    out_data = np.clip(a.data, lo, hi)

    def bw(g):
        _accum(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _make(out_data, (a,), bw)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    out_data = np.maximum(a.data, lo)

    def bw(g):
        _accum(a, g * (a.data >= lo))

    return _make(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    out_data = np.asarray(out_data, dtype=a.dtype)

    def bw(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            gg = np.expand_dims(gg, axes)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return _make(out_data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for ax in axes:
            n *= a.data.shape[ax]
    return mul(tsum(a, axis, keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), bw)


def transpose(a: Tensor, axes=None) -> Tensor:
    out_data = a.data.transpose(axes)

    def bw(g):
        if axes is None:
            _accum(a, g.transpose())
        else:
            inv = np.argsort(axes)
            _accum(a, g.transpose(inv))

    return _make(out_data, (a,), bw)


def getitem(a: Tensor, key) -> Tensor:
    out_data = a.data[key]
    if np.isscalar(out_data) or out_data.ndim == 0:
        out_data = np.asarray(out_data, dtype=a.dtype)
    # only list/array keys can repeat an element; np.add.at is ~10x slower than +=
    fancy = any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,)))

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)  # own buffer: a.grad may be borrowed
            if fancy:
                np.add.at(ga, key, g)
            else:
                ga[key] = g
            _accum(a, ga)

    return _make(out_data, (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _make(out_data, tuple(tensors), bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D (or 1-D) tensor by an integer index vector."""
    idx = np.asarray(indices, dtype=np.int64)
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise IndexError(f"gather_rows index {bad} out of range for {n} rows")
    return getitem(a, idx)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy broadcasting on leading dims."""
    out_data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accum(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accum(b, _unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last dimension: y = x @ weight.T + bias."""
    if x.data.shape[-1] != weight.data.shape[1]:
        raise ValueError(
            f"linear: input last dim {x.data.shape[-1]} != weight in dim {weight.data.shape[1]}"
        )
    out_data = np.matmul(x.data, weight.data.T)
    if bias is not None:
        out_data = out_data + bias.data

    def bw(g):
        if x.requires_grad:
            _accum(x, np.matmul(g, weight.data))
        if weight.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.data.reshape(-1, x.data.shape[-1])
            _accum(weight, g2.T @ x2)
        if bias is not None and bias.requires_grad:
            _accum(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, bw)


# Size cap of one softmax block; a block holds at least one row or slice
# whatever the cap.  Measured on 4096x4096 float32 (2-core box, 4 MB L2 per
# core, median of 9): 256 KB to 1 MB blocks take 43-53 ms along either axis,
# 128 KB and 2 MB up to 58 ms, one 64 MB block 61-64 ms.
_SOFTMAX_BLOCK_BYTES = 512 << 10


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along one axis; slices along it sum to one.

    The input is viewed as (pre, n, post) with n along `axis` and worked
    through in blocks of at most `_SOFTMAX_BLOCK_BYTES`, so that the passes
    over a block find it in cache instead of each streaming the whole array
    from memory.  With post == 1 (the last axis reduced) a block is whole
    rows, and max, finite check, subtract, exp, sum and divide all run on
    it in one sweep; each row sees the same operations as in whole-array
    passes, so the output is bitwise the same.  Otherwise a block is a run
    of slices along `axis`: one sweep builds the running max and checks
    finiteness, a second writes the exponentials and adds up their running
    sums, and one divide follows.  Those sums add block by block, so they
    may differ from one whole-axis sum in the last bits.  An array that
    fits in one block takes the whole-array passes in either case.
    Backward fills one full-size buffer in place.
    """
    data = x.data
    ax = range(data.ndim)[axis]  # a negative axis counts from the end; out of range raises
    pre, n, post = math.prod(data.shape[:ax]), data.shape[ax], math.prod(data.shape[ax + 1 :])
    x3 = data.reshape(pre, n, post)
    out_data = np.empty(data.shape, data.dtype)
    o3 = out_data.reshape(pre, n, post)

    def check(top, block):
        # a NaN or +inf shows in the max, a NaN or -inf in the min
        # (`initial` keeps an empty input valid)
        if not (np.isfinite(top).all() and np.isfinite(block.min(initial=0.0))):
            raise FloatingPointError("softmax input contains non-finite values")

    if post == 1:
        rows, out_rows = x3[:, :, 0], o3[:, :, 0]
        step = max(1, _SOFTMAX_BLOCK_BYTES // max(1, n * data.itemsize))
        for r in range(0, pre, step):
            xb, ob = rows[r : r + step], out_rows[r : r + step]
            top = xb.max(axis=1, keepdims=True)
            check(top, xb)
            np.subtract(xb, top, out=ob)
            np.exp(ob, out=ob)
            ob /= ob.sum(axis=1, keepdims=True)
    else:
        step = max(1, _SOFTMAX_BLOCK_BYTES // max(1, pre * post * data.itemsize))
        # an empty axis still gets one block, so that its max raises as numpy's does
        blocks = [slice(a, a + step) for a in range(0, n or 1, step)]
        top = total = None
        for b in blocks:
            bt = x3[:, b].max(axis=1, keepdims=True)
            check(bt, x3[:, b])
            top = bt if top is None else np.maximum(top, bt, out=top)
        for b in blocks:
            ob = o3[:, b]
            np.subtract(x3[:, b], top, out=ob)
            np.exp(ob, out=ob)
            bs = ob.sum(axis=1, keepdims=True)
            total = bs if total is None else np.add(total, bs, out=total)
        o3 /= total

    def bw(g):
        gx = np.multiply(g, out_data)
        dot = gx.sum(axis=axis, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= out_data
        _accum(x, gx)

    return _make(out_data, (x,), bw)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Scale slices along `axis` to unit L2 norm (1/eps scaling below eps)."""
    if eps <= 0:
        raise ValueError("l2_normalize eps must be positive")
    n = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    d = np.maximum(n, eps)
    out_data = x.data / d

    def bw(g):
        clamped = n < eps
        gx = g / d
        # unit-norm branch also removes the radial component
        proj = (g * out_data).sum(axis=axis, keepdims=True)
        gx_full = (g - out_data * proj) / d
        _accum(x, np.where(clamped, gx, gx_full))

    return _make(out_data, (x,), bw)


# ---------------------------------------------------------------------------
# convolution / normalization / resampling
# ---------------------------------------------------------------------------


def _conv_shape_check(x, w, stride, padding, groups):
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input and OIHW weight, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    o, ig, kh, kw = w.shape
    if c % groups or o % groups:
        raise ValueError(f"conv2d: channels in={c} out={o} not divisible by groups={groups}")
    if ig != c // groups:
        raise ValueError(f"conv2d: weight expects {ig} input channels per group, input has {c // groups}")
    if h + 2 * padding < kh or wd + 2 * padding < kw:
        raise ValueError(
            f"conv2d: padded spatial dims ({h + 2 * padding}, {wd + 2 * padding}) smaller than kernel ({kh}, {kw})"
        )


# Size cap of the conv patch block; a block holds at least one output row
# whatever the cap.  Measured on the benchmark (2-core box, OpenBLAS): 4 and
# 8 MB tie at 512 px, 8 MB leads at 256 px, 16 MB is slower at both.
_CONV_BLOCK_BYTES = 8 << 20


def _im2col(xp, cols, stride, r0):
    """Fill `cols`, (C, kh, kw, N, rows, OW), with the patches of padded NCHW
    `xp` for output rows r0...  In row-major order that is already the grouped
    GEMM layout (G, Cg*kh*kw, N*rows*OW), with the batch in the columns."""
    kh, kw, _, rows, ow = cols.shape[1:]
    for i in range(kh):
        for j in range(kw):
            taps = slice(i + stride * r0, i + stride * (r0 + rows), stride)
            cols[:, i, j] = xp[:, :, taps, j : j + stride * ow : stride].transpose(1, 0, 2, 3)


def _col2im(gxp, gcols, stride, r0):
    """Add patch gradients laid out as in `_im2col` into padded NCHW `gxp`."""
    kh, kw, _, rows, ow = gcols.shape[1:]
    for i in range(kh):
        for j in range(kw):
            taps = slice(i + stride * r0, i + stride * (r0 + rows), stride)
            gxp[:, :, taps, j : j + stride * ow : stride] += gcols[:, i, j].transpose(1, 0, 2, 3)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation over NCHW input with OIHW weights.

    One im2col-GEMM path serves dense, strided, grouped and depthwise
    (groups == in-channels) convolution: groups are a batch dim of `matmul`
    over the patch layout of `_im2col`, whose GEMM columns hold every image.

    Patches are extracted one block of output rows at a time, across all
    images, into one buffer of at most `_CONV_BLOCK_BYTES` (at least one
    row).  The whole patch matrix is kh*kw times the input: at 512 px it
    would be up to 151 MB, streamed through memory twice per call; a block
    stays in cache between its fill and its GEMMs.  Forward runs one GEMM per
    image on its columns of the block, into the NCHW output.  Backward copies
    each block's output gradient once into (G, Og, N*rows*OW), re-extracts
    the patches for one weight-gradient GEMM that sums the images itself (a
    product per image would be weight-sized, larger than a deep stage's
    activations), then writes one patch-gradient GEMM over the patches and
    scatters it into the input gradient (col2im).  The buffer lives for one
    call; the tape keeps only the input, neither its padded copy nor patches.
    """
    _conv_shape_check(x.data, weight.data, stride, padding, groups)
    n, c, h, wd = x.data.shape
    o, _, kh, kw = weight.data.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    w2 = weight.data.reshape(groups, o // groups, -1)
    rows = min(oh, max(1, _CONV_BLOCK_BYTES // (n * c * kh * kw * ow * x.data.itemsize)))
    blocks = [(r0, min(r0 + rows, oh)) for r0 in range(0, oh, rows)]
    pshape = (n, c, h + 2 * padding, wd + 2 * padding)
    inner = np.s_[..., padding : padding + h, padding : padding + wd]  # the input inside its zero border

    def padded():
        """The input inside a zero border of `padding`, filled by slice assignment."""
        if not padding:
            return x.data
        xp = np.zeros(pshape, dtype=x.data.dtype)
        xp[inner] = x.data
        return xp

    def block(buf, r0, r1):
        """Rows [r0, r1) in front of `buf`: the `_im2col` view and the GEMM view."""
        cols = buf[: c * kh * kw * n * (r1 - r0) * ow].reshape(c, kh, kw, n, r1 - r0, ow)
        return cols, cols.reshape(groups, -1, n * (r1 - r0) * ow)

    out_data = np.empty((n, o, oh, ow), dtype=np.result_type(x.data, weight.data))
    out4 = out_data.reshape(n, groups, o // groups, oh * ow)  # a block's columns are a view
    xp, buf = padded(), np.empty(c * kh * kw * n * rows * ow, dtype=x.data.dtype)
    for r0, r1 in blocks:
        cols, mat = block(buf, r0, r1)
        _im2col(xp, cols, stride, r0)
        for k, image_cols in enumerate(np.split(mat, n, axis=2)):
            np.matmul(w2, image_cols, out=out4[k, ..., r0 * ow : r1 * ow])
    if bias is not None:
        out_data += bias.data[None, :, None, None]

    def bw(g):
        gy = g.reshape(n, groups, o // groups, oh * ow)
        xp = padded() if weight.requires_grad else None
        gxp = np.zeros(pshape, dtype=x.data.dtype) if x.requires_grad else None
        buf, gw = np.empty(c * kh * kw * n * rows * ow, dtype=x.data.dtype), None
        for r0, r1 in blocks:
            gyb = gy[..., r0 * ow : r1 * ow].transpose(1, 2, 0, 3).reshape(groups, o // groups, -1)
            cols, mat = block(buf, r0, r1)
            if xp is not None:
                _im2col(xp, cols, stride, r0)
                part = np.matmul(gyb, mat.transpose(0, 2, 1))
                gw = part if gw is None else np.add(gw, part, out=gw)
            if gxp is not None:
                np.matmul(w2.transpose(0, 2, 1), gyb, out=mat)  # the patch gradient overwrites the patches
                _col2im(gxp, cols, stride, r0)
        if gw is not None:
            _accum(weight, gw.reshape(weight.data.shape))
        if gxp is not None:
            _accum(x, gxp[inner])
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out_data, parents, bw)


def batchnorm2d(
    x: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    gamma: Tensor,
    beta: Tensor,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over NCHW.

    Training normalizes by biased batch statistics and updates the running
    buffers in place with the unbiased variance; eval uses the buffers and
    folds gamma and beta into one scale and shift.  The tape keeps only the
    per-channel mean and inverse std; backward recomputes x_hat from x.
    """
    n, c, h, w = x.data.shape
    if running_mean.shape != (c,) or gamma.data.shape != (c,):
        raise ValueError(f"batchnorm2d: statistic vectors must have {c} channels")
    axes, cnt = (0, 2, 3), n * h * w
    dtype = np.result_type(x.data, gamma.data, beta.data)

    def per_channel(v):
        return v[None, :, None, None]

    if training:
        mean = x.data.mean(axis=axes)
        out_data = np.subtract(x.data, per_channel(mean), dtype=dtype)  # the centred copy becomes the output
        var = np.square(out_data).mean(axis=axes)  # biased
        inv_std = 1.0 / np.sqrt(var + eps)
        # gamma is not folded into inv_std, so the output rounds as x_hat * gamma + beta
        out_data *= per_channel(inv_std)
        out_data *= per_channel(gamma.data)
        out_data += per_channel(beta.data)
        unbiased = var * cnt / max(cnt - 1, 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.astype(running_var.dtype)
    else:
        mean = running_mean.astype(x.dtype)
        inv_std = 1.0 / np.sqrt(running_var.astype(x.dtype) + eps)
        scale = inv_std * gamma.data
        out_data = np.multiply(x.data, per_channel(scale), dtype=dtype)
        out_data += per_channel(beta.data - mean * scale)

    def bw(g):
        # recompute x_hat from x into the buffer that becomes the input gradient
        buf = x.data - per_channel(mean)
        buf *= per_channel(inv_std)
        g_sum = g.sum(axis=axes)
        g_xhat = (g * buf).sum(axis=axes)
        _accum(gamma, g_xhat)
        _accum(beta, g_sum)
        if x.requires_grad:
            if training:
                buf *= per_channel(-g_xhat / cnt)
                buf += g
                buf -= per_channel(g_sum / cnt)
                buf *= per_channel(gamma.data * inv_std)
            else:
                np.multiply(g, per_channel(gamma.data * inv_std), out=buf)
            _accum(x, buf)

    return _make(out_data, (x, gamma, beta), bw)


_UP2_CACHE: dict = {}


def _up2_matrix(n: int, dtype) -> np.ndarray:
    key = (n, np.dtype(dtype).name)
    m = _UP2_CACHE.get(key)
    if m is None:
        m = np.zeros((2 * n, n), dtype=dtype)
        for o in range(2 * n):
            src = (o + 0.5) / 2.0 - 0.5
            i0 = int(np.floor(src))
            w1 = src - i0
            m[o, min(max(i0, 0), n - 1)] += 1.0 - w1
            m[o, min(max(i0 + 1, 0), n - 1)] += w1
        _UP2_CACHE[key] = m
    return m


def bilinear_upsample2x(x: Tensor) -> Tensor:
    """Double NCHW spatial dims with half-pixel-center bilinear interpolation."""
    if x.data.ndim != 4:
        raise ValueError(f"bilinear_upsample2x expects NCHW, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    uh = _up2_matrix(h, x.dtype)
    uw = _up2_matrix(w, x.dtype)
    out_data = uh @ x.data @ uw.T

    def bw(g):
        _accum(x, uh.T @ g @ uw)

    return _make(out_data, (x,), bw)
