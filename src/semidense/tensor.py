"""Dense float tensors with reverse-mode autodiff on a dynamic tape.

numpy arrays hold the data; every differentiable op records a closure that
scatters upstream gradients back to its inputs.  float32 is the working
precision for training and inference, float64 exists for gradient checking.
Ops are pure functions over immutable inputs, with one exception: under
`no_grad`, `a * b` may write its product into the array of a temporary
left operand that nothing else can read (see `Tensor.__mul__`); the
public `mul` never does.  Every reduction runs in a fixed order, so
equal seeds give bitwise equal results for a given OpenBLAS thread count
(another count may cut a matrix product differently and change the last
bit of some of its sums).  Convolution has one code path, an im2col-GEMM
(see `conv2d`).  Forward gives each image its own patch region; backward
folds the batch into the GEMM columns, so it runs one weight-gradient GEMM
per block, not a weight-sized product per image.
Patches are filled one block of output rows at a time into a buffer of a
few MB, so they stay in cache for the GEMMs that read them; backward
re-extracts them from the input instead of keeping the kh*kw times larger
patch matrix on the tape.  Padding makes no copy: a tap reads only the part
of the input it covers, and zeros stand for the border.  `softmax` along
any axis but the last is blocked the same way: it runs its max, subtract,
exp and sum passes on one cache-sized run of slices (`_SOFTMAX_BLOCK_BYTES`)
at a time, because whole-array passes over the 64 MB dual-softmax scores
each stream the array from memory, while a block stays in cache across them.

Graph state: a tensor is its `data` plus, when it requires grad, a `Node`.
An op's output node holds the op's backward closure, the nodes of those
inputs that require grad, its gradient, and its shape and dtype.  Nodes and
closures never refer to a `Tensor`, and each closure captures the arrays
its backward reads and nothing else, so an intermediate's `data` lives only
while the caller holds the tensor or some backward reads the array: ReLU
reads its output and not the batch norm output before it, softmax its
output and not the scores.  A leaf's node (a parameter's, say) has no
closure, and its shape and dtype follow the tensor's `data` when that is
reassigned.  Under `no_grad` no node is made.

Gradient ownership: only backward gives a tensor a gradient, and
`t.grad = None`, the one value `.grad` may be set to, releases it.  A leaf owns its
`.grad`, a C-contiguous array of its own dtype and shape that callers may
update in place, from when backward first reaches the leaf until it is
released.  One rule says who owns a gradient: a writeable gradient
belongs to the node that receives it, leaf or inner node.  An op that hands
one array to more than one input makes it read-only first: add when both
inputs need a gradient, and concat for its slices; tsum's broadcast view is
read-only already.  Any other array an op hands on goes to one input
only: a new one it computes (conv2d, linear, batchnorm2d, matmul, mul and
the unary ops), or the gradient it received (sub's first input, add's one
input that needs a gradient) or a reshaped or transposed view of it, which
the input owns where the op's node owned that gradient.  A sum, a cast or
a sum over broadcast axes that `_accum` makes is new, and so owned.  A leaf
takes its first gradient as it is where it owns it, it is C-contiguous
(`_owns`) and an ndarray of the leaf's dtype, and a copy otherwise; later
gradients add into the leaf's array in place.  So a gradient's `writeable`
flag tells the closure that receives it whether it owns it, and a write
into a borrowed one raises instead of changing another node's gradient.
An owned gradient that is C-contiguous is written in place in three
places only: `_accum` adds a later gradient into it, `mul` writes one
side's product into it (`_into`), and `softmax` computes its input
gradient in it.  A strided owned view is not written: a product written into one hands the
next op a strided gradient where a new product is C-contiguous, and the
sums of a later batch norm then add in another order.  So every value is
the one a new array would hold, bit for bit.  Backward sets an inner
node's `.grad` to None once the node's closure has used it.

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

Thread policy (process-wide, set once at import): an op too large for
one core splits into parts of at least `_PART_BYTES`, at most as many as
the thread count OpenBLAS was given (`OPENBLAS_NUM_THREADS`, or OpenBLAS's
default of one per core).  The calling thread hands every part but the
first to a `concurrent.futures` pool of count - 1 threads, made on the
first split, and runs the first part itself; then it runs every part that
no pool thread has started yet, so a split never waits for a thread that
is slow to wake, and waits for the parts that are running (`_split`).
BLAS threads only matrix products; a split also reaches the copies,
elementwise passes, reductions and softmax that make up most of a step.
While a split runs, OpenBLAS is at one thread and its worker threads are
stopped: after each threaded GEMM they spin for about 0.1 s on the other
cores, where the pool's threads would wait for them, and OpenBLAS starts
them again on its next threaded GEMM.  Outside splits OpenBLAS keeps its
count, so every op too small to split, and every op that never splits, runs
exactly as without the policy.  An op splits on an axis whose slices are
independent, and every output element then sees the same numpy calls on
the same values in the same order as with one part, so the results depend
neither on the count nor on which thread runs a part; the tests check this
bit for bit.  The ops that split: conv2d per image, its forward in one
split over every patch block, since each image fills its own region of the
patch buffer (see `conv2d`), softmax's forward over rows or blocks (see
`softmax`), batchnorm2d over channels, and mul of two arrays of one shape
or by a scalar over the leading axis (`_product`).  relu, matmul, linear,
bilinear_upsample2x and softmax's backward never split: relu is one numpy
call, each matrix product one `np.matmul` on OpenBLAS's own threads, and
softmax's backward one pass over the whole array, since splitting them
made no workload faster.  With a count of one or without OpenBLAS no op
splits and no thread starts.  OpenBLAS's thread count and workers are
process-wide, and a split changes them under any other thread: engine ops
must not run beside other BLAS work, engine ops in another thread
included.  (Two threads may call ops that use no BLAS at once: the one
that finds the pool busy runs its op inline.)
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import sys
import threading
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


def _openblas_threads():
    """The thread-count getter and setter and the worker shutdown of numpy's
    bundled OpenBLAS, found as `bench/harness.py` finds it; None where numpy
    bundles no OpenBLAS or it lacks one of them."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None and shutdown is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            shutdown.argtypes, shutdown.restype = (), ctypes.c_int
            return get, put, shutdown
    return None


_BLAS = _openblas_threads()
# The most parts an op splits into: the thread count OpenBLAS was given.
_PARTS = max(1, _BLAS[0]()) if _BLAS else 1


# Bytes each part of a split must read and write, so an op splits only from
# twice this.  Measured on the 2-core box: a split costs 70-200 us of
# wake-ups and interpreter-lock handoffs, and the GEMM after it starts
# OpenBLAS's workers again.  Ops of 4 MB and more, in parts of 2 MB and
# more, ran 1.3-2x faster in two parts (batch norm, softmax rows, products,
# conv blocks); in parts of 0.25-1 MB most ran slower, and with 0.5 MB
# parts the 64 px training step, whose largest op stays under 4 MB, lost
# 15%.  More than two parts were never measured at this size.  As with
# relu, a lone large softmax backward may run faster split, but no
# workload does, so it runs in one pass.
_PART_BYTES = 2 << 20


_pool: list = []  # the helper threads' executor, made on the first split
_helpers_busy = threading.Lock()  # held by the thread whose split runs on the pool
os.register_at_fork(after_in_child=_pool.clear)  # a forked child has none of the pool's threads


def _split(n: int, nbytes: int, fn, grain: int = 1) -> None:
    """Run `fn(part)` over slices `part` that cover range(n) in order.

    The slices index an axis whose slices are independent, and each holds
    at least `grain` items.  The parts are at most `_PARTS`, and each
    covers at least `_PART_BYTES` of the `nbytes` the op reads and writes.
    With one part, while another thread's split holds the pool, or once
    the interpreter has begun to exit, `fn(slice(0, n))` runs once,
    inline.  Otherwise the range is cut into that many contiguous parts of
    equal length.  The calling thread hands all but the first to the
    pool's threads and runs the first; it then runs itself every part that
    no helper has started yet, waits for the others, and raises the
    exception of a part that failed, if any.  `fn`
    writes into arrays its caller allocated: a large temporary made in a
    helper comes from that thread's malloc arena, which hands it back to
    the system once free, so each call would fault its pages in again.
    """
    parts = min(_PARTS, n // grain, nbytes // _PART_BYTES)
    if parts < 2 or not _helpers_busy.acquire(blocking=False):
        fn(slice(0, n))
        return
    threads = None
    try:
        if _BLAS is not None:  # OpenBLAS off the helpers' cores: one thread, its idle workers stopped
            threads = _BLAS[0]()
            _BLAS[1](1)
            _BLAS[2]()
        if not _pool:
            from concurrent.futures import ThreadPoolExecutor

            _pool.append(ThreadPoolExecutor(_PARTS - 1, "semidense-helper"))
        cuts = [n * k // parts for k in range(parts + 1)]
        rest = [slice(lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        task = [fn]  # emptied below: a work item outlives its part and must not keep the op's arrays
        try:
            futures = [_pool[0].submit(lambda part: task[0](part), part) for part in rest]
        except RuntimeError:  # the pool takes no parts once the interpreter starts to exit
            fn(slice(0, n))
            return
        try:
            fn(slice(0, cuts[1]))
            for future, part in zip(futures, rest):
                if future.cancel():  # no helper has started this part: run it here
                    fn(part)
        finally:  # the parts write into shared arrays: stop or wait for each
            started = [future for future in futures if not future.cancel()]
            for future in started:
                future.exception()
            task.clear()
        for future in started:
            future.result()
    finally:
        if threads is not None:
            _BLAS[1](threads)
        _helpers_busy.release()


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

    The name stays for existing importers.  The thread count is not a
    setting: see the thread policy in the module docstring.
    """
    if num_workers != 0:
        raise ValueError(
            f"set_parallel({num_workers!r}): ops split over as many threads as "
            "OPENBLAS_NUM_THREADS gives; only 0 is accepted"
        )


class Node:
    """The graph state of a tensor that requires grad.

    An op's output node holds the op's backward closure and the nodes of
    its inputs that require grad; a leaf's node has no closure and no
    parents.  Backward releases an op's node once its closure has run: it
    drops the closure and sets `parents` to None, so an op or a backward
    that later reaches the node raises instead of taking it for a leaf.
    `grad`, `shape` and `dtype` follow the rules of the module docstring:
    a node owns its `grad` exactly when the array is writeable.
    """

    __slots__ = ("backward", "parents", "grad", "shape", "dtype")

    def __init__(self, backward, parents, shape, dtype):
        self.backward = backward
        self.parents = parents
        self.grad = None
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense nd-array and, when it requires grad, its graph `Node`.

    `data` is a float32 or float64 numpy array: the constructor casts other
    real data to float32, and other data (complex, None) are a ValueError,
    as is setting `data` to anything but such an array, or to one of
    another shape or dtype while a leaf holds a gradient.  The constructor
    stores a C-contiguous array, but an op's output may be a strided view
    of its input (`transpose`, basic-slice indexing); every op accepts
    either.  `requires_grad` is True exactly when the tensor has a node,
    which ops make for their output when recording is on and an input has
    one.  `grad` is the node's gradient: a leaf's has the shape and dtype of
    `data` once `backward(loss)` has reached it; an inner tensor's is None
    again when `backward` returns.  Only backward sets it, and setting it to
    None, the one value it takes, releases it.  So `t.grad += g`, which
    sets it, raises; `t.grad[...] += g` writes a leaf's array in place.
    """

    __slots__ = ("_data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = _fit(arr, np.float32, "Tensor data")
        self._data = np.asarray(arr, order="C")  # ascontiguousarray would turn 0-d into (1,)
        self._node = Node(None, (), arr.shape, arr.dtype) if requires_grad else None

    # -- bookkeeping ------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        if not isinstance(value, np.ndarray) or value.dtype not in (np.float32, np.float64):
            got = f"an array of dtype {value.dtype}" if isinstance(value, np.ndarray) else f"a {type(value).__name__}"
            raise ValueError(f"Tensor.data must be a float32 or float64 ndarray, got {got}")
        node = self._node
        if node is not None and node.backward is None:  # a leaf's gradient follows its data
            if node.grad is not None and (value.shape, value.dtype) != (node.shape, node.dtype):
                held, new = f"{node.grad.dtype} of shape {node.grad.shape}", f"{value.dtype} of shape {value.shape}"
                raise ValueError(f"Tensor.data: the leaf holds a gradient of {held}, the new data is {new}; set grad to None first")
            node.shape, node.dtype = value.shape, value.dtype
        self._data = value

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        if value is not None:
            got = type(value).__name__
            raise ValueError(f"Tensor.grad can only be set to None, which releases it; got a value of type {got}")
        if self._node is not None:
            self._node.grad = None

    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def __len__(self):
        return len(self.data)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        """`mul(self, other)`, into this tensor's own array where nothing
        else can read it.

        That holds under `no_grad` when this tensor is a temporary, has no
        node, and its array is held by it alone, owns its memory, is
        C-contiguous and writeable, and has the product's shape and dtype,
        the other operand being of its shape or a scalar.  A temporary is a left operand
        that no name, attribute or container holds: one whose reference
        count, read as the first statement here, is the count `_Probe` reads
        for one at import (`_TEMPORARY_REFS`).  Where a temporary and a named
        operand read the same count, or `sys.getrefcount` does not exist,
        the count is 0 and no array is reused.  The product's values are
        those of a new array, bit for bit.

        The count cannot tell a temporary from a Tensor that C code holds
        by a borrowed reference and multiplies, as a numpy object array's
        element loop does: that would overwrite the element's data, so
        such use is unsupported under `no_grad`.
        """
        refs = _refcount(self)
        return _mul_temporary(self, other) if refs == _TEMPORARY_REFS else mul(self, other)

    def __pow__(self, e):
        return pow_scalar(self, e)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    # -- method sugar -------------------------------------------------------

    def sum(self, axis=None):
        return tsum(self, axis)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def _fit(value, dtype, name: str) -> np.ndarray:
    """A C-contiguous copy of `value` cast to `dtype`.

    Data that are not real numbers (complex, objects such as None, strings)
    are a ValueError naming their dtype, and a finite nonzero scalar or
    array entry that the cast would turn into inf or zero one naming the
    entry; `name` says whose data they are.
    """
    src = np.asarray(value)
    if src.dtype.kind == "c":
        raise ValueError(f"{name} of dtype {src.dtype} is non-real; it would lose its imaginary part in {np.dtype(dtype)}")
    if src.dtype.kind not in "biuf":
        raise ValueError(f"{name} of dtype {src.dtype} is not numeric; a tensor holds float32 or float64")
    with np.errstate(over="ignore"):  # reported below, not warned about
        arr = src.astype(dtype, order="C")
    if not np.can_cast(src.dtype, arr.dtype):  # only a narrowing cast can break a value
        broken = np.isfinite(src) & (src != 0) & ~(np.isfinite(arr) & (arr != 0))
        if broken.any():
            at = tuple(np.argwhere(broken)[0].tolist())
            what = f"entry {at} of the array, {src[at].item()!r}," if src.ndim else f"scalar {src.item()!r}"
            raise ValueError(f"{name}: {what} does not fit {arr.dtype}: it would become {arr[at].item()!r}")
    return arr


def _wrap(other, like: Tensor):
    """`other` as a Tensor of `like`'s dtype, checked by `_fit`."""
    return other if isinstance(other, Tensor) else Tensor(_fit(other, like.dtype, "an operand"))


_RELEASED = "comes from a graph that backward() has released; run the forward pass again"


def _make(data, parents, backward_fn) -> Tensor:
    """Wrap an op's output; give it a node when recording is on and a parent has one.

    `parents` are the input nodes, None for an input that needs no gradient.
    """
    out = Tensor.__new__(Tensor)
    out._data = data
    if _grad_enabled and any(parents):
        parents = tuple(filter(None, parents))
        for p in parents:
            if p.parents is None:
                raise RuntimeError(f"an input of this op {_RELEASED}")
        out._node = Node(backward_fn, parents, data.shape, data.dtype)
    else:
        out._node = None
    return out


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Each node's closure runs once, on the sum of the gradients its consumers
    sent.  A writeable gradient belongs to the node that receives it (see
    "Gradient ownership" in the module docstring): a leaf takes its first
    gradient as it is where it owns it, and a copy otherwise, and adds later
    ones into it; one that backward does not reach keeps the `.grad` it had,
    None after `.grad = None`, since nothing but backward sets a gradient.
    A closure may write into the gradient it receives only where that is
    writeable.  After backward every inner node, the loss included, has
    `.grad` None, and the tape is released node by node as it unwinds: a
    second backward through any of it raises RuntimeError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("backward called on a non-finite loss")
    root = loss._node
    if root is None:
        return

    # iterative topological order (graphs can be thousands of ops deep)
    topo: list[Node] = []
    visited: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        if node.parents is None:
            raise RuntimeError(f"backward: this loss {_RELEASED}")
        stack.append((node, True))
        for p in node.parents:
            if p not in visited:
                stack.append((p, False))

    _accum(root, np.ones(root.shape, root.dtype))
    while topo:
        node = topo.pop()  # popped, so a node nobody else holds is freed once used
        fn, g = node.backward, node.grad
        if fn is None:
            continue  # a leaf keeps its gradient
        node.backward, node.parents, node.grad = None, None, None
        if g is not None:
            fn(g)


def _accum(node: Node | None, g):
    """Add gradient `g`, summed down to the node's shape where it was broadcast,
    into `node.grad` under the ownership rule of this module; None is a no-op.

    The node owns `g` exactly where it is writeable.  A leaf takes its first
    gradient as it is where it owns a C-contiguous ndarray of its dtype, and
    a copy otherwise.  An inner node takes its first gradient as it is, cast
    to its dtype.  Either adds a later one in place where it owns a
    C-contiguous gradient; otherwise the sum is a new array, which it owns."""
    if node is None:
        return
    g = _unbroadcast(g, node.shape)
    if node.backward is None:  # a leaf: owns its first gradient, then adds in place
        if node.grad is not None:
            node.grad += g
        elif g.__class__ is np.ndarray and g.dtype == node.dtype and _owns(g):
            node.grad = g
        else:
            node.grad = _leaf_copy(g, node.dtype)
        return
    if g.__class__ is not np.ndarray or g.dtype != node.dtype:
        g = np.asarray(g, dtype=node.dtype)  # 0-d * float gives a numpy scalar
    if node.grad is None:
        node.grad = g
    elif _owns(node.grad):
        node.grad += g
    else:
        node.grad = np.asarray(node.grad + g)


def _owns(g: np.ndarray) -> bool:
    """Whether a node's gradient may be kept or written in place: the node
    owns it (it is writeable) and it is C-contiguous."""
    return g.flags.writeable and g.flags.c_contiguous


def _leaf_copy(g, dtype) -> np.ndarray:
    """A leaf's own C-contiguous copy of `g` in its dtype."""
    return np.array(g, dtype=dtype, order="C")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """`g` summed over the axes broadcasting added to `shape`; any other mismatch is a fault."""
    if g.shape == shape:
        return g
    given, extra = g.shape, g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (s, k) in enumerate(zip(shape, g.shape)) if s == 1 and k != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if g.shape != shape:
        raise RuntimeError(f"backward: a gradient of shape {given} does not sum to its node's shape {shape}")
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    na, nb = a._node, b._node

    def bw(g):
        if na is not None and nb is not None:  # one array for both inputs: neither owns it
            g.flags.writeable = False
        _accum(na, g)
        _accum(nb, g)

    return _make(a.data + b.data, (na, nb), bw)


def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _wrap(a, b)
    b = _wrap(b, a)
    na, nb = a._node, b._node

    def bw(g):
        _accum(na, g)
        if nb is not None:
            _accum(nb, -g)

    return _make(a.data - b.data, (na, nb), bw)


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`x * y`, into `out` if given, else into a new array.  A product of two
    arrays of one shape, or of an array and a 0-d array, goes into a
    C-contiguous array, split on its leading axis after any leading axes of
    length one; its bytes count three times the larger operand.  Any other
    product is one numpy call."""
    if x.shape != y.shape and x.ndim and y.ndim:
        return np.multiply(x, y, out=out)
    nbytes = 3 * max(x.nbytes, y.nbytes)
    shape = x.shape or y.shape
    if out is None:
        out = np.empty(shape, np.result_type(x, y))
    lead = next((i for i, d in enumerate(shape) if d != 1), len(shape))
    rows = out.reshape(shape[lead:] or (1,))
    x, y = (a.reshape(rows.shape) if a.ndim else a for a in (x, y))
    _split(len(rows), nbytes, lambda s: np.multiply(x[s] if x.ndim else x, y[s] if y.ndim else y, out=rows[s]))
    return out


def _into(g: np.ndarray, other: np.ndarray) -> np.ndarray | None:
    """`g` where it may be written in place (`_owns`) and a product of it and
    `other` keeps its dtype, so that the product may overwrite it; else None."""
    if _owns(g) and np.result_type(g, other) == g.dtype:
        return g
    return None


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    na, nb = a._node, b._node
    # each side's gradient reads the other side's data
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def bw(g):
        if nb is not None:  # made first, so that a's product may then overwrite g
            gb = _product(g, ad, out=_into(g, ad) if na is None else None)
        if na is not None:
            _accum(na, _product(g, bd, out=_into(g, bd)))
        if nb is not None:
            _accum(nb, gb)

    return _make(_product(a.data, b.data), (na, nb), bw)


def _mul_temporary(a: Tensor, b) -> Tensor:
    """`a * b` for a temporary `a` (see `Tensor.__mul__`): into `a`'s array
    where the rule allows it, else `mul(a, b)`."""
    if _grad_enabled or a._node is not None or _refcount(a._data) != 2:
        return mul(a, b)
    b = _wrap(b, a)
    x, y = a._data, b._data
    flags = x.flags
    fits = y.shape in (x.shape, ()) and np.result_type(x, y) == x.dtype
    if flags.owndata and flags.c_contiguous and flags.writeable and fits:
        return _make(_product(x, y, out=x), (), None)
    return mul(a, b)


_refcount = getattr(sys, "getrefcount", lambda obj: -1)


class _Probe:
    """A left operand whose `__mul__` reads its reference count as `Tensor.__mul__` does."""

    __slots__ = ()

    def __mul__(self, other):
        refs = _refcount(self)
        return refs


def _temporary_refs(probe: type) -> int:
    """The count a temporary `probe()` reads in its `__mul__`, or 0 where a
    named one reads the same."""
    named = probe()
    temporary = probe() * None
    return temporary if temporary != named * None else 0


_TEMPORARY_REFS = _temporary_refs(_Probe)


def pow_scalar(a: Tensor, e: float) -> Tensor:
    if e % 1 and (a.data < 0).any():  # integer exponents skip the scan
        raise FloatingPointError(f"pow_scalar of negative value to the fractional power {e}")
    if e < 0 and (a.data == 0).any():  # non-negative exponents skip the scan
        raise FloatingPointError(f"pow_scalar of zero to the negative power {e}")
    na, ad = a._node, a.data

    def bw(g):
        base = ad
        if e < 1:  # base ** (e - 1) is infinite at a zero base: clamp it to the smallest normal
            base = np.where(ad == 0, np.finfo(ad.dtype).tiny, ad)
        _accum(na, g * e * base ** (e - 1))

    return _make(ad**e, (na,), bw)


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise FloatingPointError("log of non-positive value")
    na, ad = a._node, a.data

    def bw(g):
        _accum(na, g / ad)

    return _make(np.log(ad), (na,), bw)


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, it is 1 / (1 + e) for x >= 0
    and e / (1 + e) below.
    """
    x = a.data
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out_data = np.maximum(e, x >= 0)  # 0 <= e <= 1: 1 for x >= 0, e below
    e += 1.0
    out_data /= e
    na = a._node

    def bw(g):
        _accum(na, g * out_data * (1.0 - out_data))

    return _make(out_data, (na,), bw)


def relu(a: Tensor) -> Tensor:
    out_data, na = np.maximum(a.data, 0), a._node

    def bw(g):
        _accum(na, g * (out_data > 0))

    return _make(out_data, (na,), bw)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    na, ad = a._node, a.data

    def bw(g):
        _accum(na, g * (ad >= lo))

    return _make(np.maximum(ad, lo), (na,), bw)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    """Sum over `axis` (an int or a tuple of ints), or over all values."""
    out_data = a.data.sum(axis=axis)
    out_data = np.asarray(out_data, dtype=a.dtype)
    na = a._node

    def bw(g):
        gg = np.asarray(g) if axis is None else np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(gg, na.shape))

    return _make(out_data, (na,), bw)


def tmean(a: Tensor) -> Tensor:
    """Mean of all values."""
    n = a.data.size
    if not n:
        raise ValueError(f"mean over no values: input shape {a.data.shape}")
    return mul(tsum(a), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    na = a._node

    def bw(g):
        _accum(na, g.reshape(na.shape))

    return _make(a.data.reshape(shape), (na,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    na = a._node

    def bw(g):  # axes of mixed sign sort into the inverse only once counted from the front
        _accum(na, g.transpose(np.argsort([ax % g.ndim for ax in axes])))

    return _make(a.data.transpose(axes), (na,), bw)


def getitem(a: Tensor, key) -> Tensor:
    out_data = a.data[key]
    if np.isscalar(out_data) or out_data.ndim == 0:
        out_data = np.asarray(out_data, dtype=a.dtype)
    # only list/array keys can repeat an element; np.add.at is ~10x slower than +=
    fancy = any(isinstance(k, (list, np.ndarray)) for k in (key if isinstance(key, tuple) else (key,)))
    na = a._node

    def bw(g):
        ga = np.zeros(na.shape, na.dtype)  # own buffer: the input's gradient may be borrowed
        if fancy:
            np.add.at(ga, key, g)
        else:
            ga[key] = g
        _accum(na, ga)

    return _make(out_data, (na,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    nodes = [t._node for t in tensors]

    def bw(g):
        g.flags.writeable = False  # its slices are views of one array
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(n, g[tuple(sl)])

    return _make(out_data, nodes, bw)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D (or 1-D) tensor by an integer index vector."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise IndexError(f"gather_rows needs integer indices, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
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
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs operands of at least 2 dims, got shapes {a.shape} and {b.shape}")
    na, nb = a._node, b._node
    # each side's gradient reads the other side's data
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def bw(g):
        if na is not None:
            _accum(na, np.matmul(g, np.swapaxes(bd, -1, -2)))
        if nb is not None:
            _accum(nb, np.matmul(np.swapaxes(ad, -1, -2), g))

    return _make(np.matmul(a.data, b.data), (na, nb), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last dimension: y = x @ weight.T + bias."""
    if x.data.ndim < 1 or weight.data.ndim != 2:
        raise ValueError(f"linear needs an input of at least 1 dim and a 2-D weight, got shapes {x.shape} and {weight.shape}")
    if x.data.shape[-1] != weight.data.shape[1]:
        raise ValueError(
            f"linear: input last dim {x.data.shape[-1]} != weight in dim {weight.data.shape[1]}"
        )
    if bias.data.shape != weight.data.shape[:1]:
        raise ValueError(
            f"linear: bias has shape {bias.data.shape}, but the weight has {weight.data.shape[0]} output features"
        )
    wd = weight.data
    out_data = np.matmul(x.data, wd.T)
    if out_data.dtype == np.result_type(out_data, bias.data):
        out_data += bias.data  # no second output-sized array
    else:
        out_data = out_data + bias.data
    nx, nw, nb = x._node, weight._node, bias._node
    xd = x.data if nw is not None else None  # read by the weight gradient only

    def bw(g):
        if nx is not None:
            _accum(nx, np.matmul(g, wd))
        if nw is not None:
            g2 = g.reshape(-1, g.shape[-1])
            _accum(nw, g2.T @ xd.reshape(-1, xd.shape[-1]))
        if nb is not None:
            _accum(nb, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(out_data, (nx, nw, nb), bw)


# Size cap of one block of slices when softmax reduces any axis but the
# last; a block holds at least one slice whatever the cap.  Measured on
# 4096x4096 float32 along axis 0 (2-core box, 4 MB L2 per core, median of
# 9): 256 KB to 1 MB blocks take 43-53 ms, 128 KB and 2 MB up to 58 ms, one
# 64 MB block 61-64 ms.
_SOFTMAX_BLOCK_BYTES = 512 << 10


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax along one axis; slices along it sum to one.

    The input is viewed as (pre, n, post) with n along `axis`.  With
    post == 1 (the last axis reduced) each row is contiguous: max, finite
    check, subtract, exp, sum and divide run once over all the rows of a
    part, and the rows split (`_split`).  Otherwise the slices along `axis`
    are strided, and the work goes through in blocks of slices of at most
    `_SOFTMAX_BLOCK_BYTES`, so that the passes over a block find it in
    cache instead of each streaming the whole array from memory: one sweep
    builds the running max and checks finiteness, a second writes the
    exponentials and adds up their running sums, and one divide follows.
    Those sums add block by block, so they may differ from one whole-axis
    sum in the last bits; an array that fits in one block takes the
    whole-array passes.  Each sweep splits on blocks, which keep their own
    maxima and sums until the sums add up in block order.  The block step
    comes from the whole array, so the blocks and that order are the same
    in any part.  (Splitting the trailing columns instead measured no
    faster: 4096x4096 float32 on the 2-core box, 65 ms in one part and 68
    in two.)  Backward is one pass over the whole (pre, n, post) view, with
    no split: it writes the input gradient, (g - dots) * out, into the
    gradient it receives where it owns it (`_into`), else into one new
    array.  It takes the dots, the sums of g * out along the axis, in one
    `np.einsum`, which keeps no array of the products.  einsum adds the
    rows of a slice in order when post > 1, as numpy's sum over that axis
    does, so those dots are bit for bit the sums of the products; a row of
    the last axis it adds in an order of its own, not numpy's pairwise one.
    """
    data = x.data
    if not -data.ndim <= axis < data.ndim:
        raise IndexError(f"softmax: axis {axis} is out of range for an input of ndim {data.ndim}")
    ax = axis % data.ndim  # a negative axis counts from the end
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

        def part(s):
            xs, ys = rows[s], out_rows[s]
            top = xs.max(axis=1, keepdims=True)
            check(top, xs)
            np.subtract(xs, top, out=ys)
            np.exp(ys, out=ys)
            ys /= ys.sum(axis=1, keepdims=True)

        if pre:  # no rows, nothing to reduce, even along an empty axis
            _split(pre, 2 * data.nbytes, part, grain=2)
    else:
        step = max(1, _SOFTMAX_BLOCK_BYTES // max(1, pre * post * data.itemsize))
        # an empty axis still gets one block, so that its max raises as numpy's does
        blocks = [slice(a, a + step) for a in range(0, n or 1, step)]

        # each block keeps its own max and sum, so any part can run it; the
        # sums then add up in block order, as one sweep adds them
        tops = np.empty((len(blocks), pre, 1, post), data.dtype)
        sums = np.empty_like(tops)

        def maxima(s):
            for i in range(s.start, s.stop):
                x3[:, blocks[i]].max(axis=1, keepdims=True, out=tops[i])
                check(tops[i], x3[:, blocks[i]])

        def exponentials(s):
            for i in range(s.start, s.stop):
                ob = o3[:, blocks[i]]
                np.subtract(x3[:, blocks[i]], top, out=ob)
                np.exp(ob, out=ob)
                ob.sum(axis=1, keepdims=True, out=sums[i])

        _split(len(blocks), data.nbytes, maxima)
        top = tops.max(axis=0)  # a max is exact in any order
        _split(len(blocks), 2 * data.nbytes, exponentials)
        total = sums.sum(axis=0)  # post > 1, so numpy adds the blocks one by one, in block order
        _split(n, 2 * data.nbytes, lambda s: np.divide(o3[:, s], total, out=o3[:, s]))
    nx = x._node

    def bw(g):
        gx = _into(g, out_data)
        if gx is None:
            gx = np.empty(out_data.shape, np.result_type(g, out_data))
        g3, gx3 = g.reshape(pre, n, post), gx.reshape(pre, n, post)
        dots = np.einsum("pnq,pnq->pq", g3, o3)[:, None]
        np.subtract(g3, dots, out=gx3)
        gx3 *= o3
        _accum(nx, gx)

    return _make(out_data, (nx,), bw)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale slices along the last axis to unit L2 norm (by 1e8 below a norm of 1e-8)."""
    n = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    d = np.maximum(n, 1e-8)
    out_data, nx = x.data / d, x._node

    def bw(g):
        # a clamped slice was only scaled; a unit-norm one also loses its radial component
        proj = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(nx, (g - out_data * np.where(n < d, 0, proj)) / d)

    return _make(out_data, (nx,), bw)


# ---------------------------------------------------------------------------
# convolution / normalization / resampling
# ---------------------------------------------------------------------------


def _check_ints(layer: str, least: int, **values) -> None:
    """Raise ValueError naming `layer` and the first of `values` that is not an int >= `least`."""
    for name, v in values.items():
        if not isinstance(v, (int, np.integer)) or v < least:
            raise ValueError(f"{layer}: {name} must be an int >= {least}, got {v!r}")


def _conv_shape_check(x, w, stride, padding):
    _check_ints("conv2d", 1, stride=stride)
    _check_ints("conv2d", 0, padding=padding)
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input and OIHW weight, got {x.shape} and {w.shape}")
    c, h, wd = x.shape[1:]
    ic, kh, kw = w.shape[1:]
    if ic != c:
        raise ValueError(f"conv2d: weight expects {ic} input channels, input has {c}")
    if h + 2 * padding < kh or wd + 2 * padding < kw:
        raise ValueError(
            f"conv2d: padded spatial dims ({h + 2 * padding}, {wd + 2 * padding}) smaller than kernel ({kh}, {kw})"
        )


# Size cap of the conv patch block; a block holds at least one output row
# whatever the cap.  Measured on the benchmark (2-core box, OpenBLAS): 4 and
# 8 MB tie at 512 px, 8 MB leads at 256 px, 16 MB is slower at both.
_CONV_BLOCK_BYTES = 8 << 20


def _spans(k, size, count, stride, padding, start=0):
    """Per tap along one axis: the span [lo, hi) of the `count` outputs from
    `start` that read inside an input of `size`, and the index output lo reads."""
    spans = []
    for at in range(stride * start - padding, stride * start - padding + k):  # the index output 0 reads
        lo = min(count, max(0, -(at // stride)))
        hi = max(lo, min(count, (size - 1 - at) // stride + 1))
        spans.append((lo, hi, at + stride * lo))
    return spans


def _im2col(x, cols, stride, padding, r0):
    """Fill `cols`, (N, C, kh, kw, rows, OW), with the zero-padded NCHW `x`'s patches, rows r0..."""
    kh, kw, rows, ow = cols.shape[2:]
    row_spans, col_spans = _spans(kh, x.shape[2], rows, stride, padding, r0), _spans(kw, x.shape[3], ow, stride, padding)
    for i, (a, b, y) in enumerate(row_spans):
        for j, (e, f, z) in enumerate(col_spans):
            if b - a < rows or f - e < ow:  # the tap reads the border
                cols[:, :, i, j] = 0
            cols[:, :, i, j, a:b, e:f] = x[:, :, y : y + stride * (b - a) : stride, z : z + stride * (f - e) : stride]


def _col2im(gx, gcols, stride, padding, r0):
    """Add patch gradients laid out as in `_im2col` into NCHW `gx`, dropping
    those that fall on the border."""
    kh, kw, rows, ow = gcols.shape[2:]
    row_spans, col_spans = _spans(kh, gx.shape[2], rows, stride, padding, r0), _spans(kw, gx.shape[3], ow, stride, padding)
    for i, (a, b, y) in enumerate(row_spans):
        for j, (e, f, z) in enumerate(col_spans):
            gx[:, :, y : y + stride * (b - a) : stride, z : z + stride * (f - e) : stride] += gcols[:, :, i, j, a:b, e:f]


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, *, padding: int) -> Tensor:
    """2-D cross-correlation over NCHW input with OIHW weights.

    One im2col-GEMM path serves every stride and padding, each GEMM a 2-D
    product of the (O, C*kh*kw) weights and the patches, which `_im2col`
    writes through an image-first view, (N, C, kh, kw, rows, OW).  There is
    no bias: every conv of the matcher feeds a batch norm, which subtracts
    any per-channel constant added before it.

    Patches are extracted one block of output rows at a time into a buffer
    of at most `_CONV_BLOCK_BYTES` (at least one row per image).  The whole
    patch matrix is kh*kw times the input: at 512 px it would be up to
    151 MB, streamed through memory twice per call; a block stays in cache
    between its fill and its GEMMs.  Forward gives each image a region of
    the buffer, (C, kh, kw, rows, OW), and splits per image (`_split`): a
    part fills its images' regions block by block and runs one GEMM per
    image and block into the NCHW output, so the buffer is shared, not one
    per thread, and no block waits for another.  Backward lays each block
    out with the batch in the GEMM columns, (C, kh, kw, N, rows, OW), and
    the output gradient likewise, (O, N, rows, OW); it copies the block's
    output gradient and re-extracts its patches, split per image; runs one
    weight-gradient GEMM that sums the images itself (a product per image
    would be weight-sized, larger than a deep stage's activations) and one
    patch-gradient GEMM over the block's columns, each a single BLAS call
    on OpenBLAS's own threads, as `matmul` runs; then scatters the patch
    gradient into the input gradient (col2im), split per image.  No split
    changes the order of any element's sum.  The buffers live for one
    call; the tape keeps only the input, never patches.  Padding makes no
    copy: a tap copies what it reads inside the input (`_spans`), zeroing
    its slice first where it reaches the border, and col2im adds just that
    into a C-contiguous input gradient, bit for bit as on a padded copy.
    """
    _conv_shape_check(x.data, weight.data, stride, padding)
    xd, dtype = x.data, x.data.dtype
    n, c, h, wd = xd.shape
    o, _, kh, kw = weight.data.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    w2 = weight.data.reshape(o, c * kh * kw)
    rows = min(oh, max(1, _CONV_BLOCK_BYTES // max(1, n * c * kh * kw * ow * dtype.itemsize)))
    blocks = [(r0, min(r0 + rows, oh)) for r0 in range(0, oh, rows)]

    def block(buf, per, r0, r1):
        """Rows [r0, r1) in front of `buf`, laid out (*per, N, rows, OW): the
        image-first view (N, *per, rows, OW) and the GEMM view."""
        span = n * (r1 - r0) * ow
        cols = buf[: math.prod(per) * span].reshape(*per, n, r1 - r0, ow)
        return np.moveaxis(cols, len(per), 0), cols.reshape(math.prod(per), span)

    def block_bytes(r0, r1):
        """What a block's parts read and write: patches, output rows and weights."""
        return (c * kh * kw + o) * n * (r1 - r0) * ow * dtype.itemsize + w2.nbytes

    out_data = np.empty((n, o, oh, ow), dtype=np.result_type(xd, weight.data))
    out3 = out_data.reshape(n, o, oh * ow)  # a block's columns are a view
    regions = np.empty((n, c * kh * kw * rows * ow), dtype=dtype)

    def forward(s):
        """Images `s`, each through every block in its own region."""
        for r0, r1 in blocks:
            span = (r1 - r0) * ow
            cols = regions[s, : c * kh * kw * span].reshape(s.stop - s.start, c, kh, kw, r1 - r0, ow)
            _im2col(xd[s], cols, stride, padding, r0)
            for patches, out in zip(cols, out3[s, :, r0 * ow : r1 * ow]):
                np.matmul(w2, patches.reshape(c * kh * kw, span), out=out)

    _split(n, block_bytes(*blocks[0]), forward)
    nx, nw = x._node, weight._node
    xd = xd if nw is not None else None  # read by the weight gradient only

    def bw(g):
        gx = np.zeros((n, c, h, wd), dtype=dtype) if nx is not None else None
        buf, gybuf = np.empty(c * kh * kw * n * rows * ow, dtype=dtype), np.empty(o * n * rows * ow, dtype=g.dtype)
        gw = None

        def images(s):
            """Output gradient and, for the weight gradient, patches of images `s` in the block."""
            gys[s] = g[s, :, r0:r1]
            if xd is not None:
                _im2col(xd[s], cols[s], stride, padding, r0)

        for r0, r1 in blocks:
            (cols, mat), (gys, gyb) = block(buf, (c, kh, kw), r0, r1), block(gybuf, (o,), r0, r1)
            _split(n, block_bytes(r0, r1), images)
            if xd is not None:
                part = gyb @ mat.T
                gw = part if gw is None else np.add(gw, part, out=gw)
            if gx is not None:
                np.matmul(w2.T, gyb, out=mat)  # the patch gradient overwrites the patches
                _split(n, block_bytes(r0, r1), lambda s: _col2im(gx[s], cols[s], stride, padding, r0))
        if gw is not None:
            _accum(nw, gw.reshape(nw.shape))
        if gx is not None:
            _accum(nx, gx)

    return _make(out_data, (nx, nw), bw)


def batchnorm2d(
    x: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    gamma: Tensor,
    beta: Tensor,
    training: bool,
    momentum: float = 0.1,
) -> Tensor:
    """Per-channel batch normalization over NCHW, with eps 1e-5.

    Training normalizes by biased batch statistics and updates the running
    buffers in place with the unbiased variance; eval uses the buffers and
    folds gamma and beta into one scale and shift.  The tape keeps only the
    per-channel mean and inverse std; backward recomputes x_hat from x.
    """
    if x.data.ndim != 4:
        raise ValueError(f"batchnorm2d expects NCHW input, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    for name, v in (("running_mean", running_mean), ("running_var", running_var), ("gamma", gamma.data), ("beta", beta.data)):
        if v.shape != (c,):
            raise ValueError(f"batchnorm2d: {name} has shape {v.shape}, but the input has {c} channels")
    axes, cnt = (0, 2, 3), n * h * w
    if training and not cnt:
        raise ValueError(f"batchnorm2d: training needs values per channel, the input has shape {x.data.shape}")
    xd, gd, bd = x.data, gamma.data, beta.data
    dtype = np.result_type(xd, gd, bd)

    def per_channel(v):
        return v[None, :, None, None]

    out_data = np.empty(xd.shape, dtype)
    if training:
        mean, var, inv_std = np.empty(c, xd.dtype), np.empty(c, dtype), np.empty(c, dtype)
        squares = np.empty(xd.shape, dtype)
    else:
        mean, var_eps = running_mean.astype(xd.dtype), running_var.astype(xd.dtype) + 1e-5
        if not (var_eps > 0).all():
            k = int(np.argmin(var_eps > 0))
            raise ValueError(f"batchnorm2d: running_var + eps must be positive, channel {k} has {var_eps[k].item()!r}")
        inv_std = 1.0 / np.sqrt(var_eps)
        scale = inv_std * gd
        shift = bd - mean * scale

    def normalize(s):
        xs, out = xd[:, s], out_data[:, s]
        if training:
            mean[s] = xs.mean(axis=axes)
            np.subtract(xs, per_channel(mean[s]), out=out, dtype=dtype)  # the centred copy becomes the output
            var[s] = np.square(out, out=squares[:, s]).mean(axis=axes)  # biased
            inv_std[s] = 1.0 / np.sqrt(var[s] + 1e-5)
            # gamma is not folded into inv_std, so the output rounds as x_hat * gamma + beta
            out *= per_channel(inv_std[s])
            out *= per_channel(gd[s])
            out += per_channel(bd[s])
        else:  # gamma and beta fold into one scale and shift
            np.multiply(xs, per_channel(scale[s]), out=out, dtype=dtype)
            out += per_channel(shift[s])

    _split(c, xd.nbytes + out_data.nbytes, normalize, grain=2)
    if training:
        unbiased = var * cnt / max(cnt - 1, 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.astype(running_var.dtype)
    nx, ngamma, nbeta = x._node, gamma._node, beta._node

    def bw(g):
        # recompute x_hat from x into the buffer that becomes the input gradient
        buf = np.empty(xd.shape, np.result_type(xd, mean))
        g_sum, g_xhat = np.empty(c, g.dtype), np.empty(c, np.result_type(g, buf))
        products = np.empty(xd.shape, g_xhat.dtype)

        def channels(s):
            gs, bs = g[:, s], buf[:, s]
            np.subtract(xd[:, s], per_channel(mean[s]), out=bs)
            bs *= per_channel(inv_std[s])
            g_sum[s] = gs.sum(axis=axes)
            g_xhat[s] = np.multiply(gs, bs, out=products[:, s]).sum(axis=axes)
            if nx is None:
                return
            if training:
                bs *= per_channel(-g_xhat[s] / cnt)
                bs += gs
                bs -= per_channel(g_sum[s] / cnt)
                bs *= per_channel(gd[s] * inv_std[s])
            else:
                np.multiply(gs, per_channel(gd[s] * inv_std[s]), out=bs)

        _split(c, xd.nbytes + 2 * buf.nbytes, channels, grain=2)
        _accum(ngamma, g_xhat)
        _accum(nbeta, g_sum)
        if nx is not None:
            _accum(nx, buf)

    return _make(out_data, (nx, ngamma, nbeta), bw)


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
    nx = x._node

    def bw(g):
        _accum(nx, uh.T @ g @ uw)

    return _make(uh @ x.data @ uw.T, (nx,), bw)
