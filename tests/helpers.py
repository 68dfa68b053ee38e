"""Shared test utilities: the central finite-difference gradient oracle."""

import numpy as np

from semidense import tensor as T
from semidense.tensor import Tensor


def fd_gradient(fn, arrays, h=1e-4):
    """Central finite differences of a scalar function of numpy arrays.

    `fn` receives plain float64 arrays and returns a python float; the
    returned list holds one gradient array per input.
    """
    grads = []
    for k, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for i in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[k].reshape(-1)[i] += h
            fp = fn(*bumped)
            bumped[k].reshape(-1)[i] -= 2 * h
            fm = fn(*bumped)
            flat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def check_gradients(builder, arrays, h=1e-4, rtol=1e-4, atol=1e-7):
    """Compare tape gradients of `builder` against finite differences.

    `builder` maps Tensors (float64, requires_grad) to a scalar Tensor.
    Raises AssertionError naming the offending input on mismatch.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = builder(*tensors)
    for t in tensors:
        t.grad = None
    T.backward(loss)

    def scalar_fn(*bumped):
        return builder(*[Tensor(b) for b in bumped]).item()

    numeric = fd_gradient(scalar_fn, arrays, h=h)
    for i, (t, num) in enumerate(zip(tensors, numeric)):
        assert t.grad is not None, f"input {i} received no gradient: backward did not reach it"
        np.testing.assert_allclose(
            t.grad, num, rtol=rtol, atol=atol,
            err_msg=f"analytic/finite-difference mismatch on input {i}",
        )
