"""Tests of the tensor engine: forward values against independent oracles,
and tape gradients against the finite-difference oracle in helpers."""

import ctypes
import os
import re
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
import weakref
from concurrent.futures import Future
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from helpers import check_gradients
from semidense import tensor as T
from semidense.module import BatchNorm2d, Conv2d
from semidense.tensor import Tensor


def conv2d_loops(x, w, stride=1, padding=1):
    """Direct six-loop convolution reference."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((n, o, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for yy in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, yy * stride + i, xx * stride + j] * w[oi, ci, i, j]
                    y[ni, oi, yy, xx] = acc
    return y


# (cin, cout, k, stride, padding, bias) of the conv gradient checks; each id
# keeps the "1" of a column since removed, so that no case changes name
CONV_GRAD_CASES = [
    (3, 4, 3, 1, 0, True),
    (3, 4, 3, 1, 1, False),
    (3, 4, 3, 2, 1, True),
    (3, 4, 3, 2, 0, False),
    (3, 5, 1, 1, 0, True),
]
CONV_GRAD_IDS = ["-".join(map(str, (*case[:-1], 1, case[-1]))) for case in CONV_GRAD_CASES]


class TestConv2d:
    def test_constant_field(self):
        x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float64))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        y = T.conv2d(x, w, padding=0)
        assert np.allclose(y.data, 9.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 6, 7)))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = T.conv2d(x, Tensor(w), stride=1, padding=1)
        np.testing.assert_allclose(y.data, x.data, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        y = T.conv2d(Tensor(x), Tensor(w), padding=0)
        ref = conv2d_loops(x, w, padding=0)
        np.testing.assert_allclose(y.data, ref, atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)], ids=["1-0", "1-1", "2-1", "2-0"])
    def test_strides_and_padding(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 7, 6))
        w = rng.normal(size=(4, 4, 3, 3))
        y = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        ref = conv2d_loops(x, w, stride=stride, padding=padding)
        np.testing.assert_allclose(y.data, ref, atol=1e-9)

    @pytest.mark.parametrize("cin,cout,k,stride,padding,bias", CONV_GRAD_CASES, ids=CONV_GRAD_IDS)
    def test_gradients(self, cin, cout, k, stride, padding, bias):
        """`bias` adds a per-channel constant after the conv, as a caller
        without a batch norm behind the conv would."""
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, cin, 5, 6))
        w = rng.normal(size=(cout, cin, k, k))
        oh = (5 + 2 * padding - k) // stride + 1
        ow = (6 + 2 * padding - k) // stride + 1
        r = rng.normal(size=(2, cout, oh, ow))  # fixed weights, so no symmetry hides an error
        arrays = [x, w] + ([rng.normal(size=cout)] if bias else [])

        def loss(x, w, b=None):
            y = T.conv2d(x, w, stride=stride, padding=padding)
            return ((y if b is None else y + b.reshape(-1, 1, 1)) * r).sum()

        check_gradients(loss, arrays)

    @staticmethod
    def rows_per_block(monkeypatch, x, k, ow, rows):
        """Cap `conv2d`'s patch block at `rows` output rows of input `x` and a
        k x k kernel, or a (kh, kw) one."""
        n, c = x.shape[:2]
        taps = k * k if isinstance(k, int) else k[0] * k[1]
        monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", rows * n * c * taps * ow * x.itemsize)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (5, 3)], ids=["1x1", "3x3", "5x3"])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_padding_agrees_with_an_explicitly_padded_input(self, monkeypatch, stride, padding, kernel, dtype):
        """The border reads as zeros and its gradient is dropped, bit for bit
        as on a zero-padded copy of the input, in blocks of 2 output rows;
        some taps of a block lie wholly in the border once padding >= kernel.
        The input gradient handed to the tape is C-contiguous."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 10, 7)).astype(dtype)
        w = rng.standard_normal((4, 3, *kernel)).astype(dtype)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh, ow = ((xp.shape[2] - kernel[0]) // stride + 1, (xp.shape[3] - kernel[1]) // stride + 1)
        self.rows_per_block(monkeypatch, x, kernel, ow, 2)
        r = rng.standard_normal((2, 4, oh, ow)).astype(dtype)
        sent, accum = [], T._accum
        monkeypatch.setattr(T, "_accum", lambda node, g, **kw: (sent.append((node, g)), accum(node, g, **kw)))

        def run(a, pad):
            leaf, wt = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
            xin = leaf.reshape(*a.shape)  # an inner node: it takes conv2d's input gradient as it is
            y = T.conv2d(xin, wt, stride=stride, padding=pad)
            T.backward((y * r).sum())
            return y.data, next(g for node, g in sent if node is xin._node), wt.grad

        y, gx, gw = run(x, padding)
        y0, gx0, gw0 = run(xp, 0)
        assert y.dtype == gx.dtype == gw.dtype == dtype
        np.testing.assert_array_equal(y, y0)
        np.testing.assert_array_equal(gx, gx0[..., padding : padding + 10, padding : padding + 7])
        np.testing.assert_array_equal(gw, gw0)
        assert gx.flags.c_contiguous

    @pytest.mark.parametrize("cin,cout,k,stride,padding,bias", CONV_GRAD_CASES, ids=CONV_GRAD_IDS)
    def test_gradients_in_row_blocks(self, monkeypatch, cin, cout, k, stride, padding, bias):
        """Several patch blocks of 3 output rows, the last one partial."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, cin, 10, 6))
        w = rng.normal(size=(cout, cin, k, k))
        oh = (10 + 2 * padding - k) // stride + 1
        ow = (6 + 2 * padding - k) // stride + 1
        assert oh > 3 and oh % 3, "the case must run several blocks with a partial last one"
        self.rows_per_block(monkeypatch, x, k, ow, 3)
        r = rng.normal(size=(2, cout, oh, ow))
        arrays = [x, w] + ([rng.normal(size=cout)] if bias else [])

        def loss(x, w, b=None):
            y = T.conv2d(x, w, stride=stride, padding=padding)
            return ((y if b is None else y + b.reshape(-1, 1, 1)) * r).sum()

        check_gradients(loss, arrays)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_row_blocks_agree_with_one_block(self, monkeypatch, stride):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 8, 21, 20), dtype=np.float32)
        w = 0.1 * rng.standard_normal((8, 8, 3, 3), dtype=np.float32)
        ow = (20 + 2 - 3) // stride + 1

        def run():
            ts = [Tensor(a, requires_grad=True) for a in (x, w)]
            y = T.conv2d(*ts, stride=stride, padding=1)
            T.backward((y * y).sum())
            return [y.data] + [t.grad for t in ts]

        one = run()  # the default cap holds this layer in one block
        self.rows_per_block(monkeypatch, x, 3, ow, 4)
        for got, ref in zip(run(), one):
            assert got.dtype == np.float32
            # block order changes the summation order of gW and of overlapping
            # col2im rows, so an element near zero may move by float32 rounding
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_gradients_batch_in_gemm_columns(self, monkeypatch, batch, stride, padding):
        """The images share each block's GEMM columns; no gradient may cross between them."""
        rng = np.random.default_rng(17)
        x = rng.normal(size=(batch, 4, 10, 5))
        w = rng.normal(size=(4, 4, 3, 3))
        oh = (10 + 2 * padding - 3) // stride + 1
        ow = (5 + 2 * padding - 3) // stride + 1
        assert oh > 3 and oh % 3, "the case must run several blocks with a partial last one"
        self.rows_per_block(monkeypatch, x, 3, ow, 3)
        r = rng.normal(size=(batch, 4, oh, ow))

        def loss(x, w):
            return (T.conv2d(x, w, stride=stride, padding=padding) * r).sum()

        check_gradients(loss, [x, w])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_batch_agrees_with_image_by_image(self, monkeypatch, stride):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 8, 21, 20), dtype=np.float32)
        w = 0.1 * rng.standard_normal((8, 8, 3, 3), dtype=np.float32)
        ow = (20 + 2 - 3) // stride + 1

        def run(xs):
            # the same 4 output rows per block whatever the batch, so col2im
            # adds each input-gradient element in the same order
            self.rows_per_block(monkeypatch, xs, 3, ow, 4)
            ts = [Tensor(a, requires_grad=True) for a in (xs, w)]
            y = T.conv2d(*ts, stride=stride, padding=1)
            T.backward((y * y).sum())
            return [y.data] + [t.grad for t in ts]

        y, gx, gw = run(x)
        assert y.shape[2] > 4, "the case must run several blocks"
        solo = [run(x[k : k + 1]) for k in range(3)]
        assert y.dtype == gx.dtype == np.float32
        np.testing.assert_array_equal(y, np.concatenate([s[0] for s in solo]))
        np.testing.assert_array_equal(gx, np.concatenate([s[1] for s in solo]))
        # the batched GEMM sums the images in its own order
        ref = np.sum([s[2] for s in solo], axis=0)
        np.testing.assert_allclose(gw, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_empty_batch(self, stride, padding):
        x = Tensor(np.zeros((0, 3, 5, 6), np.float32), requires_grad=True)
        w = Tensor(np.ones((4, 3, 3, 3), np.float32), requires_grad=True)
        y = T.conv2d(x, w, stride=stride, padding=padding)
        oh, ow = (5 + 2 * padding - 3) // stride + 1, (6 + 2 * padding - 3) // stride + 1
        assert y.shape == (0, 4, oh, ow) and y.dtype == np.float32
        T.backward(y.sum())
        assert x.grad.shape == (0, 3, 5, 6)
        assert w.grad.shape == (4, 3, 3, 3) and not w.grad.any()

    def test_forward_is_one_split(self, monkeypatch):
        """The forward runs every block, the partial last one too, in one
        `_split` call: each image fills its own region of the patch buffer."""
        calls, real = [], T._split

        def counting(n, nbytes, fn, grain=1):
            calls.append(n)
            real(n, nbytes, fn, grain)

        monkeypatch.setattr(T, "_split", counting)
        rng = np.random.default_rng(19)
        x = rng.standard_normal((3, 4, 11, 7), dtype=np.float32)
        w = rng.standard_normal((6, 4, 3, 3), dtype=np.float32)
        self.rows_per_block(monkeypatch, x, 3, 7, 3)  # 11 output rows: blocks of 3, 3, 3 and 2
        with T.no_grad():
            y = T.conv2d(Tensor(x), Tensor(w), padding=1)
        assert calls == [3]
        np.testing.assert_allclose(y.data, conv2d_loops(x, w), rtol=1e-4, atol=1e-4)

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        with pytest.raises(ValueError, match="kernel"):
            T.conv2d(x, Tensor(np.zeros((4, 3, 7, 7))), padding=0)
        with pytest.raises(ValueError, match="input channels"):
            T.conv2d(x, Tensor(np.zeros((4, 2, 3, 3))), padding=0)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda x, w: T.conv2d(x, w, stride=0, padding=0), "stride"),
        (lambda x, w: T.conv2d(x, w, stride=-1, padding=0), "stride"),
        (lambda x, w: T.conv2d(x, w, stride=1.0, padding=0), "stride"),
        (lambda x, w: T.conv2d(x, w, padding=-1), "padding"),
        (lambda x, w: T.conv2d(x, w, padding="1"), "padding"),
        (lambda x, w: Conv2d(4, 4, 3, np.random.default_rng(0), stride=0, padding=1), "stride"),
        (lambda x, w: BatchNorm2d(4)(Tensor(np.ones((2, 4), np.float32))), "NCHW"),
        (lambda x, w: BatchNorm2d(4)(Tensor(np.ones((1, 4, 2, 2, 2), np.float32))), "NCHW"),
    ],
    ids=["stride-0", "stride-negative", "stride-float", "padding-negative", "padding-str",
         "Conv2d-stride-0", "batchnorm-2d", "batchnorm-5d"],
)
def test_bad_conv_and_batchnorm_arguments_are_named(build, name):
    x, w = Tensor(np.ones((1, 4, 5, 5), np.float32)), Tensor(np.ones((4, 4, 3, 3), np.float32))
    with pytest.raises(ValueError, match=name):
        build(x, w)


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        w = Tensor(np.eye(3))
        y = T.linear(x, w, Tensor(np.zeros(3)))
        np.testing.assert_allclose(y.data, x.data)

    def test_hand_sum(self):
        y = T.linear(Tensor(np.array([2.0, 3.0])), Tensor(np.array([[1.0, 1.0]])), Tensor(np.zeros(1)))
        np.testing.assert_allclose(y.data, [5.0])

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3, 7))
        w = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        y = T.linear(Tensor(x), Tensor(w), Tensor(b))
        ref = np.einsum("bti,oi->bto", x, w) + b
        np.testing.assert_allclose(y.data, ref, atol=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="last dim"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 1), ()], ids=["one", "too-many", "2-d", "0-d"])
    def test_bias_must_have_one_value_per_output_and_is_named(self, shape):
        """A bias that merely broadcasts, (1,) or (4, 1), is refused like one that does not."""
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3)))
        with pytest.raises(ValueError, match=re.escape(f"linear: bias has shape {shape}, but the weight has 4 output features")):
            T.linear(x, w, Tensor(np.ones(shape)))


class TestBatchNorm:
    def test_eval_identity_stats(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4, 4))
        y = T.batchnorm2d(
            Tensor(x), np.zeros(3), np.ones(3),
            Tensor(np.ones(3)), Tensor(np.zeros(3)), training=False,
        )
        np.testing.assert_allclose(y.data, x / np.sqrt(1.0 + 1e-5), rtol=1e-12, atol=0)

    def test_training_constant_input_gives_beta(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.0))
        beta = np.array([0.5, -1.0, 2.0])
        y = T.batchnorm2d(
            x, np.zeros(3), np.ones(3), Tensor(np.ones(3)), Tensor(beta), training=True,
        )
        for c in range(3):
            np.testing.assert_allclose(y.data[:, c], beta[c], atol=1e-6)

    def test_training_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 8, 8))
        gamma = np.array([1.5, 0.5])
        beta = np.array([-1.0, 2.0])
        y = T.batchnorm2d(
            Tensor(x), np.zeros(2), np.ones(2), Tensor(gamma), Tensor(beta), training=True,
        )
        mean = y.data.mean(axis=(0, 2, 3))
        std = y.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, beta, atol=1e-4)
        np.testing.assert_allclose(std, gamma, atol=1e-4)

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = rng.normal(loc=1.0, size=(4, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        T.batchnorm2d(Tensor(x), rm, rv, Tensor(np.ones(2)), Tensor(np.zeros(2)), training=True, momentum=0.1)
        n = 4 * 4 * 4
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-6)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * n / (n - 1), atol=1e-6)

    @pytest.mark.parametrize("shape", [(0, 2, 3, 3), (2, 2, 0, 3)], ids=["no-images", "no-rows"])
    def test_training_without_values_raises_and_eval_is_empty(self, shape):
        rm, rv = np.zeros(2), np.ones(2)
        args = Tensor(np.zeros(shape)), rm, rv, Tensor(np.ones(2)), Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="batchnorm2d"):
            T.batchnorm2d(*args, training=True)
        assert np.array_equal(rm, np.zeros(2)) and np.array_equal(rv, np.ones(2))
        assert T.batchnorm2d(*args, training=False).shape == shape

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            T.batchnorm2d(
                Tensor(np.zeros((1, 3, 2, 2))), np.zeros(2), np.ones(2),
                Tensor(np.ones(2)), Tensor(np.zeros(2)), training=False,
            )

    @pytest.mark.parametrize("var", [-1.0, -1e-5, np.nan], ids=["negative", "minus-eps", "nan"])
    def test_eval_refuses_a_running_var_that_eps_leaves_not_positive(self, var):
        args = Tensor(np.ones((1, 2, 2, 2))), np.zeros(2), np.array([1.0, var]), Tensor(np.ones(2)), Tensor(np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any sqrt warns
            with pytest.raises(ValueError, match=r"running_var \+ eps must be positive, channel 1 has"):
                T.batchnorm2d(*args, training=False)

    @pytest.mark.parametrize("wrong", ["running_mean", "running_var", "gamma", "beta"])
    @pytest.mark.parametrize("training", [True, False])
    def test_each_statistic_vector_checked_and_named(self, wrong, training):
        vectors = {"running_mean": np.zeros(3), "running_var": np.ones(3), "gamma": np.ones(3), "beta": np.zeros(3)}
        vectors[wrong] = vectors[wrong][:1]  # shape (1,) would broadcast silently
        with pytest.raises(ValueError, match=f"{wrong} has shape \\(1,\\), but the input has 3 channels"):
            T.batchnorm2d(
                Tensor(np.zeros((1, 3, 2, 2))), vectors["running_mean"], vectors["running_var"],
                Tensor(vectors["gamma"]), Tensor(vectors["beta"]), training=training,
            )


class TestSoftmaxAndFriends:
    def test_symmetry(self):
        y = T.softmax(Tensor(np.array([0.0, 0.0])))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_single_element(self):
        y = T.softmax(Tensor(np.array([3.7])))
        np.testing.assert_allclose(y.data, [1.0])

    def test_scalar_oracle(self):
        y = T.softmax(Tensor(np.array([2.0, 0.0])))
        np.testing.assert_allclose(y.data, [0.8808, 0.1192], atol=1e-4)

    def test_sums_and_shift_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 7))
        y = T.softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-6)
        y2 = T.softmax(Tensor(x + 13.0), axis=1)
        np.testing.assert_allclose(y.data, y2.data, atol=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(FloatingPointError):
            T.softmax(Tensor(np.array([np.inf, 0.0])))

    def test_empty_input(self):
        assert T.softmax(Tensor(np.zeros((0, 2, 3)))).shape == (0, 2, 3)

    def test_axis_out_of_range_is_named(self):
        with pytest.raises(IndexError, match="softmax: axis 5 .* ndim 2"):
            T.softmax(Tensor(np.zeros((2, 3))), axis=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_rejects_every_non_finite_kind(self, bad, axis):
        x = np.arange(6.0).reshape(2, 3)
        x[1, 0] = bad  # a -inf here is no row or column max: only the global min sees it
        with pytest.raises(FloatingPointError, match="non-finite"):
            T.softmax(Tensor(x), axis=axis)

    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_exactly(self, dtype):
        x = Tensor(np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0], dtype=dtype))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = T.sigmoid(x).data
        assert y.dtype == dtype
        assert y[0] == 0.0 and y[-1] == 1.0
        np.testing.assert_allclose(y[1:4], 1.0 / (1.0 + np.exp(-np.array([-1.0, 0.0, 1.0]))), rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_the_branch_formula(self, dtype):
        """The numerator max(e, x >= 0) is bitwise np.where(x >= 0, 1, e)."""
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, 104.0, -104.0, 200.0, -200.0]
        x = np.concatenate([edges, 30.0 * np.random.default_rng(72).standard_normal(1000)]).astype(dtype)
        e = np.exp(-np.abs(x))
        expected = np.where(x >= 0, 1.0, e) / (1.0 + e)
        y = T.sigmoid(Tensor(x)).data
        assert y.dtype == expected.dtype == dtype
        assert np.array_equal(y, expected, equal_nan=True)

    def test_l2_normalize_triangle(self):
        y = T.l2_normalize(Tensor(np.array([3.0, 4.0])))
        np.testing.assert_allclose(y.data, [0.6, 0.8], atol=1e-7)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 8))
        y = T.l2_normalize(Tensor(x))
        norms = np.linalg.norm(y.data, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_l2_normalize_small_norm_scaling(self):
        """A slice of norm below 1e-8 is scaled by 1e8, not to unit norm."""
        x = np.array([[1e-10, 2e-10], [3.0, 4.0]])
        y = T.l2_normalize(Tensor(x))
        np.testing.assert_allclose(y.data, [[1e-2, 2e-2], [0.6, 0.8]], rtol=1e-12)


class TestBlockedSoftmax:
    """softmax with `_SOFTMAX_BLOCK_BYTES` cut to three slices, so that a
    case along any axis but the last runs several blocks and its last block
    is partial.  The last axis takes no blocks, so a row case sets no cap:
    it checks the row path's gradient, non-finite check and shift."""

    @staticmethod
    def three_per_block(monkeypatch, shape, axis, dtype):
        if axis in (-1, len(shape) - 1):
            return
        n = shape[axis]
        assert n > 3 and n % 3, "several blocks, the last one partial"
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 3 * (int(np.prod(shape)) // n) * np.dtype(dtype).itemsize)

    @pytest.mark.parametrize("shape,axis", [((7, 4), 0), ((2, 7, 3), 1), ((5, 2, 4), -1)])
    def test_gradients(self, monkeypatch, shape, axis):
        self.three_per_block(monkeypatch, shape, axis, np.float64)
        rng = np.random.default_rng(40)
        x, r = rng.normal(size=shape), rng.normal(size=shape)
        check_gradients(lambda x: (T.softmax(x, axis=axis) * r).sum(), [x])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("axis", [1, -1], ids=["slices", "rows"])
    def test_rejects_non_finite_in_a_later_block(self, monkeypatch, bad, axis):
        self.three_per_block(monkeypatch, (2, 7, 5), axis, np.float64)
        x = np.arange(70.0).reshape(2, 7, 5)
        x[1, 4, 2] = bad  # row 11 of 14, slice 4 of 7 (block 2 of 3)
        with pytest.raises(FloatingPointError, match="non-finite"):
            T.softmax(Tensor(x), axis=axis)

    @pytest.mark.parametrize("axis", [0, -1], ids=["slices", "rows"])
    def test_shift_is_the_max_over_every_block(self, monkeypatch, axis):
        x = np.zeros((7, 7), dtype=np.float32)
        x[4, 4] = 100.0  # in row 5 of 7, and in slice block 2 of 3; exp(100) overflows float32
        x[6, 6] = -100.0
        self.three_per_block(monkeypatch, x.shape, axis, np.float32)
        y = T.softmax(Tensor(x), axis=axis).data
        assert y[4, 4] == 1.0 and np.isfinite(y).all()

    @pytest.mark.parametrize("shape,axis", [((50, 6, 5), 0), ((3, 40, 7), 1), ((2, 41, 3, 2), 1)])
    def test_slices_match_float64_reference(self, monkeypatch, shape, axis):
        x = (5.0 * np.random.default_rng(42).normal(size=shape)).astype(np.float32)
        self.three_per_block(monkeypatch, shape, axis, np.float32)
        y = T.softmax(Tensor(x), axis=axis).data
        ref = np.exp(x.astype(np.float64) - x.max(axis=axis, keepdims=True))
        ref /= ref.sum(axis=axis, keepdims=True)
        assert y.dtype == np.float32
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_sums_add_in_block_order(self, monkeypatch, dtype):
        x = (5.0 * np.random.default_rng(44).normal(size=(3, 40, 7))).astype(dtype)
        self.three_per_block(monkeypatch, x.shape, 1, dtype)
        e = np.exp(x - x.max(axis=1, keepdims=True))
        total = e[:, :3].sum(axis=1, keepdims=True)
        for a in range(3, 40, 3):
            total += e[:, a : a + 3].sum(axis=1, keepdims=True)
        assert np.array_equal(T.softmax(Tensor(x), axis=1).data, e / total)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_one_block_is_the_whole_array_passes(self, axis):
        x = 5.0 * np.random.default_rng(43).normal(size=(6, 5, 4)).astype(np.float32)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        assert np.array_equal(T.softmax(Tensor(x), axis=axis).data, e / e.sum(axis=axis, keepdims=True))

    @pytest.mark.parametrize("shape,axis", [((0, 2, 3), -1), ((0, 2, 3), 1), ((2, 0, 3), 0), ((2, 3, 0), 0), ((3, 0, 0), -1)])
    def test_empty_input(self, monkeypatch, shape, axis):
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 1)  # below one slice: one per block
        assert T.softmax(Tensor(np.zeros(shape)), axis=axis).shape == shape

    @pytest.mark.parametrize("axis", [0, -1])
    def test_one_dimensional_input(self, monkeypatch, axis):
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 1)
        y = T.softmax(Tensor(np.array([2.0, 0.0])), axis=axis)
        np.testing.assert_allclose(y.data, [0.8808, 0.1192], atol=1e-4)


class TestUpsample:
    @staticmethod
    def upsample_oracle(x):
        """Independent half-pixel-center interpolation formula."""
        n, c, h, w = x.shape
        out = np.zeros((n, c, 2 * h, 2 * w), dtype=x.dtype)
        for oy in range(2 * h):
            sy = (oy + 0.5) / 2 - 0.5
            y0 = int(np.floor(sy))
            wy = sy - y0
            y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
            for ox in range(2 * w):
                sx = (ox + 0.5) / 2 - 0.5
                x0 = int(np.floor(sx))
                wx = sx - x0
                x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
                out[:, :, oy, ox] = (
                    x[:, :, y0c, x0c] * (1 - wy) * (1 - wx)
                    + x[:, :, y0c, x1c] * (1 - wy) * wx
                    + x[:, :, y1c, x0c] * wy * (1 - wx)
                    + x[:, :, y1c, x1c] * wy * wx
                )
        return out

    def test_2x2_case(self):
        x = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
        y = T.bilinear_upsample2x(Tensor(x))
        np.testing.assert_allclose(y.data, self.upsample_oracle(x), atol=1e-6)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 5, 4))
        y = T.bilinear_upsample2x(Tensor(x))
        np.testing.assert_allclose(y.data, self.upsample_oracle(x), atol=1e-9)


class TestNegativeInputs:
    def test_fractional_power_of_negative_raises(self):
        with pytest.raises(FloatingPointError, match="pow_scalar"):
            Tensor(np.array([-2.0])) ** 0.5

    @pytest.mark.parametrize("e", [-1.0, -0.5, -2.0])
    def test_negative_power_of_zero_raises(self, e):
        with pytest.raises(FloatingPointError, match="pow_scalar"):
            T.pow_scalar(Tensor(np.array([1.0, 0.0])), e)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("e", [0.5, 0.25, 0.0])
    def test_power_below_one_has_a_finite_gradient_at_zero(self, e, dtype):
        xs = np.array([0.0, 1.0, 4.0], dtype=dtype)
        x = Tensor(xs, requires_grad=True)
        T.backward((x**e).sum())  # a divide-by-zero warning would fail the test
        assert np.isfinite(x.grad).all()
        np.testing.assert_array_equal(x.grad[1:], e * xs[1:] ** (e - 1))

    def test_integer_power_of_negative_is_allowed(self):
        x = Tensor(np.array([-2.0]), requires_grad=True)
        y = x**2.0
        T.backward(y.sum())
        np.testing.assert_array_equal(y.data, [4.0])
        np.testing.assert_array_equal(x.grad, [-4.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_of_every_size_one_shape(shape, dtype):
    value = Tensor(np.full(shape, 3.5, dtype=dtype)).item()
    assert type(value) is float and value == 3.5


@pytest.mark.parametrize("shape", [(0, 3)], ids=["all"])
def test_mean_over_no_values_names_shape_and_axis(shape):
    with pytest.raises(ValueError, match=re.escape(f"mean over no values: input shape {shape}")):
        Tensor(np.zeros(shape), requires_grad=True).mean()


class TestGradientOwnership:
    def test_leaf_grads_are_own_writable_arrays(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        T.backward((a + b).sum())  # both leaves receive the same broadcast view
        for t in (a, b):
            assert t.grad.shape == t.shape and t.grad.dtype == t.dtype
            assert t.grad.flags.writeable and t.grad.flags.c_contiguous
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[...] = 5.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))

    def test_inner_and_loss_grads_are_freed(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 2.0
        z = T.relu(h)
        loss = (z + h).sum()
        T.backward(loss)
        assert h.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [4.0, 2.0, 4.0])

    def test_leaf_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        x.zero_grad()
        T.backward((x * 3.0).sum())
        T.backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])

    @pytest.mark.parametrize("inner", [False, True], ids=["leaf", "inner"])
    def test_fan_out_accumulates(self, inner):
        rng = np.random.default_rng(18)
        c, r, q = rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)
        x = Tensor(rng.normal(size=4), requires_grad=True)
        h = x * 1.5 if inner else x
        # three uses: add, getitem with a repeated index, and sum (a broadcast view)
        loss = ((h + c) * r).sum() + (h[[0, 0, 3]] * q).sum() + h.sum() * 2.0
        T.backward(loss)
        expected = r + 2.0
        np.add.at(expected, [0, 0, 3], q)
        np.testing.assert_allclose(x.grad, expected * (1.5 if inner else 1.0), rtol=1e-12)

    def test_shared_upstream_is_not_corrupted(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        p, q = x * 2.0, x * 3.0
        # p and q borrow one gradient array; getitem must not add into it
        loss = (p + q).sum() + p[[0, 0]].sum()
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0 * 3.0 + 3.0, 5.0, 5.0])

    def test_float32_leaf_keeps_its_dtype(self):
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0], dtype=np.float64))
        loss = (a * b).sum() + (a + b).sum()
        assert loss.dtype == np.float64
        T.backward(loss)
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, [4.0, 5.0])

    def test_a_released_graph_raises_instead_of_passing_for_a_leaf(self):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        z = x * 3.0
        built_before = (z * 2.0).sum()
        T.backward(z.sum())
        with pytest.raises(RuntimeError, match="released"):
            z * 2.0
        with pytest.raises(RuntimeError, match="released"):
            T.backward(built_before)
        loss = (x * 3.0).sum()
        T.backward(loss)
        with pytest.raises(RuntimeError, match="released"):
            T.backward(loss)
        assert z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])  # two backwards, none of the failed ones

    def test_closure_receives_an_ndarray_of_the_node_dtype(self):
        seen = []
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        h = T._make(np.asarray(a.data.sum()), (a._node,), seen.append)  # a 0-d float32 node that records its gradient
        T.backward(h * Tensor(np.array(2.0)))  # float64 operand; 0-d products are numpy scalars
        assert type(seen[0]) is np.ndarray and seen[0].dtype == np.float32

    def test_a_gradient_of_another_shape_raises_naming_both(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        na = a._node
        t = T._make(a.data.T.copy(), (na,), lambda g: T._accum(na, g))  # sends the (3, 2) gradient back untransposed
        with pytest.raises(RuntimeError, match=re.escape("(3, 2) does not sum to its node's shape (2, 3)")):
            T.backward(t.sum())
        assert a.grad is None

    @staticmethod
    def record(monkeypatch):
        """Record each (node, gradient) sent to `_accum` and the shape of each leaf copy."""
        sent, copies = [], []
        accum, copy = T._accum, T._leaf_copy
        monkeypatch.setattr(T, "_accum", lambda node, g, **kw: (sent.append((node, g)), accum(node, g, **kw)))
        monkeypatch.setattr(T, "_leaf_copy", lambda g, dtype: (copies.append(g.shape), copy(g, dtype))[1])
        return sent, copies

    def test_a_weight_used_twice_adopts_the_first_gradient_and_adds_the_second(self, monkeypatch):
        rng = np.random.default_rng(24)
        x1, x2 = rng.standard_normal((5, 3), dtype=np.float32), rng.standard_normal((5, 3), dtype=np.float32)
        r = rng.standard_normal((5, 4), dtype=np.float32)
        w = Tensor(rng.standard_normal((4, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32), requires_grad=True)
        sent, copies = self.record(monkeypatch)
        T.backward(((T.linear(Tensor(x1), w, b) + T.linear(Tensor(x2), w, b)) * r).sum())
        first = next(g for node, g in sent if node is w._node)
        assert w.grad is first and not copies  # the first is taken as it is, the second added into it
        np.testing.assert_array_equal(w.grad, r.T @ x1 + r.T @ x2)
        np.testing.assert_array_equal(b.grad, 2 * r.sum(axis=0))
        assert not np.shares_memory(w.grad, b.grad)

    def test_pass_through_gradients_are_copied(self, monkeypatch):
        rng = np.random.default_rng(25)
        a, b, c, d, e = (Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(5))
        r1, r2, r3 = rng.standard_normal((2, 3)), rng.standard_normal(6), rng.standard_normal((2, 6))
        sent, copies = self.record(monkeypatch)
        # add hands both leaves one array, reshape a view, concat a slice each
        loss = ((a + b) * r1).sum() + (c.reshape(6) * r2).sum() + (T.concat([d, e], axis=1) * r3).sum()
        T.backward(loss)
        leaves = (a, b, c, d, e)
        assert len(copies) == len(leaves)
        for i, t in enumerate(leaves):
            assert t.grad.flags.c_contiguous and t.grad.flags.writeable
            assert not any(np.shares_memory(t.grad, g) for _, g in sent)
            assert not any(np.shares_memory(t.grad, u.grad) for u in leaves[i + 1 :])
        for t, expected in zip(leaves, (r1, r1, r2.reshape(2, 3), r3[:, :3], r3[:, 3:])):
            np.testing.assert_array_equal(t.grad, expected)

    def test_a_gradient_of_another_dtype_is_copied_into_the_leaf_dtype(self, monkeypatch):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        node = p._node
        g32 = np.array([0.5, -1.5], np.float32)
        sent, copies = self.record(monkeypatch)
        # a float32 node whose closure hands the float64 leaf a new float32 array
        t = T._make(np.array(3.0, np.float32), (node,), lambda g: T._accum(node, g32.copy(), fresh=True))
        T.backward(t)
        assert copies == [(2,)]
        assert p.grad.dtype == np.float64 and not np.shares_memory(p.grad, sent[-1][1])
        np.testing.assert_array_equal(p.grad, [0.5, -1.5])

    def test_an_adopted_gradient_survives_zero_grad_and_a_second_backward(self, monkeypatch):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((5, 3), dtype=np.float32)
        r1, r2 = rng.standard_normal((5, 4), dtype=np.float32), rng.standard_normal((5, 4), dtype=np.float32)
        w = Tensor(rng.standard_normal((4, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, np.float32))
        sent, copies = self.record(monkeypatch)
        T.backward((T.linear(Tensor(x), w, b) * r1).sum())
        first = w.grad
        assert first is sent[-1][1]
        w.zero_grad()
        T.backward((T.linear(Tensor(x), w, b) * r2).sum())
        assert not copies and w.grad is not first
        np.testing.assert_array_equal(first, r1.T @ x)
        np.testing.assert_array_equal(w.grad, r2.T @ x)
        w.grad += 1.0  # the leaf owns its gradient: writing it leaves the first alone
        np.testing.assert_array_equal(first, r1.T @ x)

    def test_grad_setter_keeps_its_own_copy_in_the_node_dtype(self):
        x = Tensor(np.zeros(3, np.float32), requires_grad=True)
        given = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])[::2]  # a float64 view of stride 2
        x.grad = given
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous and not np.shares_memory(x.grad, given)
        given[0] = 9.0
        T.backward((x * 2.0).sum())
        np.testing.assert_array_equal(x.grad, [3.0, 5.0, 7.0])
        x.grad = [1, 2, 3]
        assert x.grad.dtype == np.float32

    @pytest.mark.parametrize(
        "value,given",
        [([1, 2], "int64 of shape (2,)"), (np.ones((3, 1)), "float64 of shape (3, 1)"), (2.0, "float64 of shape ()"),
         (np.ones(3, np.complex64), "complex64 of shape (3,)"), ("abc", "<U3 of shape ()")],
        ids=["short-list", "column", "scalar", "complex", "string"],
    )
    def test_grad_setter_rejects_another_shape_or_a_non_real_array(self, value, given):
        x = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with pytest.raises(ValueError, match=re.escape(f"a real array of shape (3,), got {given}")):
            x.grad = value
        assert x.grad is None


def test_tape_keeps_only_the_outputs():
    """conv -> batchnorm -> relu holds the conv and relu outputs and little else:
    the batch norm output is read by no backward."""
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((2, 8, 64, 64), dtype=np.float32), requires_grad=True)
    w = Tensor(0.1 * rng.standard_normal((8, 8, 3, 3), dtype=np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    rm, rv = np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.float32)
    tracemalloc.start()
    try:
        y = T.relu(T.batchnorm2d(T.conv2d(x, w, padding=1), rm, rv, gamma, beta, training=True))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.shape == x.shape
    assert held <= 1.1 * 2 * x.data.nbytes


class TestGraphNodes:
    """The tape holds the arrays backward reads and frees the rest."""

    def test_batchnorm_output_is_freed_before_backward(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((2, 4, 8, 8), dtype=np.float32), requires_grad=True)
        gamma, beta = Tensor(np.ones(4, np.float32), requires_grad=True), Tensor(np.zeros(4, np.float32), requires_grad=True)
        h = T.batchnorm2d(x, np.zeros(4, np.float32), np.ones(4, np.float32), gamma, beta, training=True)
        freed = weakref.ref(h.data)
        y = T.relu(h)
        del h
        assert freed() is None  # relu's backward reads its own output only
        T.backward(y.sum())
        assert np.isfinite(x.grad).all()

    def test_dual_softmax_scores_are_freed_and_softmax_outputs_kept(self):
        rng = np.random.default_rng(21)
        f = Tensor(rng.standard_normal((2, 16, 8), dtype=np.float32), requires_grad=True)
        raw = f[:1] @ f[1:].transpose(0, 2, 1)
        scaled = raw * 0.125
        by_row, by_col = T.softmax(scaled, axis=2), T.softmax(scaled, axis=1)
        conf = by_row * by_col
        freed = [weakref.ref(t.data) for t in (raw, scaled)]
        kept = [weakref.ref(t.data) for t in (by_row, by_col)]
        del raw, scaled, by_row, by_col
        assert all(r() is None for r in freed)
        assert all(r() is not None for r in kept)
        T.backward(T.gather_rows(conf.reshape(-1), [0, 17, 17]).sum())
        assert all(r() is None for r in kept)  # released as backward unwinds
        assert np.isfinite(f.grad).all()

    def test_arrays_backward_reads_live_until_backward(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 8, 8), dtype=np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3), dtype=np.float32), requires_grad=True)
        gamma, beta = Tensor(np.ones(4, np.float32), requires_grad=True), Tensor(np.zeros(4, np.float32), requires_grad=True)
        conv_in = T.relu(x)
        bn_in = T.conv2d(conv_in, w, padding=1)
        loss = T.batchnorm2d(bn_in, np.zeros(4, np.float32), np.ones(4, np.float32), gamma, beta, training=True).sum()
        refs = [weakref.ref(t.data) for t in (conv_in, bn_in)]
        del conv_in, bn_in
        assert all(r() is not None for r in refs)
        T.backward(loss)
        assert all(r() is None for r in refs)
        assert w.grad.shape == w.shape and x.grad.shape == x.shape

    def test_zero_grad_releases_and_an_unreached_leaf_keeps_none(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        T.backward((a * 2.0).sum())
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        assert b.grad is None
        a.zero_grad()
        assert a.grad is None

    def test_leaf_gradient_follows_reassigned_data(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        p.data = p.data.astype(np.float64)
        T.backward((p * p).sum())
        assert p.grad.dtype == np.float64 and p.grad.shape == (2,)
        np.testing.assert_array_equal(p.grad, [2.0, -4.0])

    def test_grad_is_writable(self):
        x = Tensor(np.ones(2))
        assert x.grad is None and not x.requires_grad
        x.grad = None
        with pytest.raises(ValueError, match="does not require grad"):
            x.grad = np.zeros(2)
        y = Tensor(np.ones(2), requires_grad=True)
        T.backward((y * 3.0).sum())
        np.testing.assert_array_equal(y.grad, [3.0, 3.0])
        y.grad = None
        assert y.grad is None

    def test_no_grad_makes_no_node(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.relu(x * 2.0) + x
        assert y._node is None and not y.requires_grad


@pytest.mark.parametrize("padding,stride", [(0, 1), (1, 2)])
def test_transposed_view_matches_contiguous_copy(padding, stride):
    """softmax and conv2d read a strided view as they read its contiguous copy."""
    rng = np.random.default_rng(23)
    for op, base_shape, axes in (
        (lambda t: T.softmax(t, axis=1), (3, 5, 7), (2, 0, 1)),
        (lambda t: T.softmax(t, axis=-1), (3, 5, 7), (2, 0, 1)),
        (lambda t: T.conv2d(t, w, padding=padding, stride=stride), (2, 6, 6, 3), (0, 3, 1, 2)),
    ):
        w = Tensor(rng.standard_normal((4, base_shape[-1], 3, 3), dtype=np.float32))
        base = Tensor(rng.standard_normal(base_shape, dtype=np.float32), requires_grad=True)
        view = base.transpose(*axes)
        assert not view.data.flags.c_contiguous
        copy = Tensor(view.data.copy(), requires_grad=True)
        y_view, y_copy = op(view), op(copy)
        np.testing.assert_array_equal(y_view.data, y_copy.data)
        r = rng.standard_normal(y_copy.shape, dtype=np.float32)
        T.backward((y_view * r).sum())
        T.backward((y_copy * r).sum())
        np.testing.assert_array_equal(base.grad.transpose(axes), copy.grad)


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_repeated_large_op_reuses_its_pages():
    """A second 64 MB softmax reuses the freed buffer instead of faulting fresh pages."""
    x = Tensor(np.ones((4096, 4096), dtype=np.float32))
    T.softmax(x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    T.softmax(x)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


class TestGatherAndShape:
    def test_gather_rows(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3))
        y = T.gather_rows(x, [2, 0, 2])
        np.testing.assert_allclose(y.data, x.data[[2, 0, 2]])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError, match="4"):
            T.gather_rows(Tensor(np.zeros((3, 2))), [0, 4])

    def test_gather_rejects_non_integer_index(self):
        x = Tensor(np.zeros((4, 2)))
        for bad in ([1.7, 2.2], np.array([0.0, 1.0]), np.array([True, False, True, False])):
            with pytest.raises(IndexError, match="gather_rows needs integer indices"):
                T.gather_rows(x, bad)
        assert T.gather_rows(x, []).shape == (0, 2)
        assert T.gather_rows(x, np.array([3, 0], dtype=np.uint8)).shape == (2, 2)

    def test_concat_and_slice(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        c = T.concat([a, b], axis=0)
        assert c.shape == (4, 3)
        np.testing.assert_allclose(c.data[:2], 1.0)
        sl = c[2:4]
        np.testing.assert_allclose(sl.data, 0.0)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.arange(3, dtype=np.float64), requires_grad=True)
        T.backward(x[[0, 0, 2]].sum())
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_getitem_gradients(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 4))
        r = rng.normal(size=(3, 3))
        check_gradients(lambda x: (x[:, [1, 3, 1]] * r).sum() + x[1:, 2].sum(), [x])

    def test_matmul_batched(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        y = T.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(y.data, a @ b, atol=1e-9)

    @pytest.mark.parametrize("a,b", [((4,), (4, 5)), ((3, 4), (4,)), ((4,), (4,))])
    def test_matmul_rejects_a_vector_naming_both_shapes(self, a, b):
        with pytest.raises(ValueError, match=re.escape(f"at least 2 dims, got shapes {a} and {b}")):
            T.matmul(Tensor(np.ones(a), requires_grad=True), Tensor(np.ones(b), requires_grad=True))


class TestScalarOperands:
    """A Python scalar is cast to the tensor's dtype; one that the cast breaks is an error."""

    @pytest.mark.parametrize(
        "op,value,becomes",
        [(T.mul, 1e-50, "0.0"), (T.mul, 1e50, "inf"), (T.add, 1e50, "inf"), (T.sub, -1e50, "-inf")],
        ids=["mul-underflow", "mul-overflow", "add-overflow", "sub-overflow"],
    )
    def test_scalar_that_does_not_fit_float32_is_named(self, op, value, becomes):
        x = Tensor(np.ones(2, np.float32))
        with pytest.raises(ValueError, match=re.escape(f"scalar {value!r} does not fit float32: it would become {becomes}")):
            op(x, value)

    def test_reflected_operand_is_checked_too(self):
        x = Tensor(np.ones(2, np.float32))
        for reflected in (lambda: T.sub(-1e50, x), lambda: 1e50 - x):
            with pytest.raises(ValueError, match="does not fit float32"):
                reflected()

    @pytest.mark.parametrize("op", [T.mul, T.add, T.sub])
    @pytest.mark.parametrize("entry,becomes", [(1e50, "inf"), (-1e50, "-inf"), (1e-50, "0.0")], ids=["overflow", "neg-overflow", "underflow"])
    def test_array_entry_that_does_not_fit_float32_is_named(self, op, entry, becomes):
        x = Tensor(np.ones((2, 2), np.float32))
        message = re.escape(f"entry (1,) of the array, {entry!r}, does not fit float32: it would become {becomes}")
        reflected = ((np.array([1.0, entry]), x),) if op is T.sub else ()
        for operands in ((x, np.array([1.0, entry])), *reflected):
            with pytest.raises(ValueError, match=message):
                op(*operands)

    def test_array_entries_that_fit_pass(self):
        x = Tensor(np.ones(3, np.float32))
        np.testing.assert_array_equal(T.mul(x, np.array([1e-40, np.inf, 0.0])).data, np.float32([1e-40, np.inf, 0.0]))
        np.testing.assert_array_equal(T.mul(Tensor(np.ones(2)), np.array([1e50, 1e-50])).data, [1e50, 1e-50])

    def test_float64_keeps_its_results(self):
        x = Tensor(np.ones(2))
        np.testing.assert_array_equal((x * 1e-50).data, np.full(2, 1e-50))
        np.testing.assert_array_equal((x * 1e50).data, np.full(2, 1e50))
        np.testing.assert_array_equal((x + 1e50).data, np.full(2, 1e50))

    def test_subnormal_and_non_finite_scalars_pass(self):
        x = Tensor(np.ones(2, np.float32))
        assert ((x * 1e-40).data > 0).all()  # subnormal in float32, but not zero
        assert np.isinf((x * np.inf).data).all()
        assert (x * 0.0).data.tolist() == [0.0, 0.0]


class TestComplexValues:
    """A complex value is an error, not a cast that drops its imaginary part."""

    @pytest.mark.parametrize("data", [np.array([1 + 2j]), np.array([1.0, 2.0], np.complex64), [1j, 2.0], 3j])
    def test_constructor_names_the_dtype(self, data):
        with pytest.raises(ValueError, match=f"dtype {np.asarray(data).dtype} is non-real"):
            Tensor(data)

    @pytest.mark.parametrize("op", [T.mul, T.add, T.sub])
    def test_scalar_operand_names_the_dtype(self, op):
        x = Tensor(np.ones(2, np.float32))
        reflected = ((1 + 2j, x),) if op is T.sub else ()
        for operands in ((x, 1 + 2j), (x, np.complex64(1.0)), *reflected):
            with pytest.raises(ValueError, match="an operand of dtype complex(128|64) is non-real"):
                op(*operands)

    @pytest.mark.parametrize("op", [T.mul, T.add, T.sub])
    def test_array_operand_names_the_dtype(self, op):
        x = Tensor(np.ones((2, 2)))
        reflected = ((np.array([1.0, 2.0], np.complex64), x),) if op is T.sub else ()
        for operands in ((x, np.array([1j, 2.0])), *reflected):
            with pytest.raises(ValueError, match="an operand of dtype complex(128|64) is non-real; it would lose its imaginary part in float64"):
                op(*operands)


class TestOnlyRealFloatData:
    """A tensor holds a float32 or float64 array: data without a real value
    is an error that names its type or dtype, never a NaN or a stored list."""

    @pytest.mark.parametrize("data", [None, [1, None], "abc"], ids=["none", "none-entry", "str"])
    def test_constructor_names_the_dtype(self, data):
        with pytest.raises(ValueError, match=f"Tensor data of dtype {np.asarray(data).dtype} is not numeric"):
            Tensor(data)

    @pytest.mark.parametrize("op", [T.mul, T.add, T.sub])
    def test_operand_without_a_value_names_the_dtype(self, op):
        with pytest.raises(ValueError, match="an operand of dtype object is not numeric"):
            op(Tensor(np.ones(2, np.float32)), None)

    @pytest.mark.parametrize(
        "value,named",
        [([1.0, 2.0], "a list"), (None, "a NoneType"), (np.array([1, 2]), "an array of dtype int64"),
         (np.array([1 + 2j, 2.0]), "an array of dtype complex128"), (np.float64(1.0), "a float64")],
        ids=["list", "none", "int", "complex", "numpy-scalar"],
    )
    def test_data_setter_refuses_and_changes_nothing(self, value, named):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        before, node = x.data, x._node
        with pytest.raises(ValueError, match=re.escape(f"Tensor.data must be a float32 or float64 ndarray, got {named}")):
            x.data = value
        assert x.data is before and x._node is node
        assert (node.shape, node.dtype) == ((2,), np.float32)

    def test_data_setter_takes_either_float_dtype(self):
        x = Tensor(np.ones(2, np.float32), requires_grad=True)
        x.data = np.zeros(3)  # a float64 copy of a model assigns its parameters so
        assert x.dtype == np.float64 and (x._node.shape, x._node.dtype) == ((3,), np.float64)
        x.data = np.zeros(3, np.float32)
        assert x._node.dtype == np.float32


class TestArithmeticWithArrays:
    @pytest.mark.parametrize("op", [T.mul, T.sub])
    @pytest.mark.parametrize("xs,bs", [((3, 4), (4,)), ((4,), (3, 4)), ((2, 1, 4), (3, 1))])
    def test_ndarray_operand_broadcast_gradients(self, op, xs, bs):
        rng = np.random.default_rng(16)
        b = rng.uniform(0.5, 2.0, size=bs)
        r = rng.normal(size=np.broadcast_shapes(xs, bs))
        check_gradients(lambda x: (op(x, b) * r).sum(), [rng.normal(size=xs)])

    def test_ndarray_operand_value_and_dtype(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        b = np.array([2.0, 4.0])
        np.testing.assert_array_equal(T.mul(x, b).data, x.data * b)
        np.testing.assert_array_equal(T.sub(x, b).data, (x.data - b).astype(np.float32))
        assert T.mul(x, b).dtype == T.sub(x, b).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mul_by_scalar_and_neg_round_as_numpy(self, dtype):
        x = Tensor(np.random.default_rng(20).standard_normal(10_000).astype(dtype))
        for got, expected in ((x * 0.1, x.data * 0.1), (x * -1.0, -x.data)):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got.data, expected)

    def test_scalars_keep_fast_path(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        for y in (x * -1.0, x * np.float32(3.0), x - 2, 2.0 - x):
            assert y._node.parents == (x._node,)


_rng = np.random.default_rng(17)


def _normal(*shape):
    return _rng.normal(size=shape)


def _positive(*shape):
    return _rng.uniform(0.5, 2.0, size=shape)


# (id, op, inputs): each op's tape gradient is checked against finite differences
GRAD_CASES = [
    ("add-broadcast", lambda a, b: a + b, [_normal(3, 1, 4), _normal(2, 4)]),
    ("sub-broadcast", lambda a, b: a - b, [_normal(2, 4), _normal(3, 1, 4)]),
    ("mul-broadcast", lambda a, b: a * b, [_normal(3, 1, 4), _normal(2, 1)]),
    ("rsub-scalar", lambda x: 2.0 - x, [_normal(3, 4)]),
    ("neg", lambda x: x * -1.0, [_normal(3, 4)]),
    ("pow-2", lambda x: x**2, [_normal(3, 4)]),
    ("pow-neg-half", lambda x: x**-0.5, [_positive(3, 4)]),
    ("log", T.log, [_positive(3, 4)]),
    ("sigmoid", T.sigmoid, [3.0 * _normal(3, 4)]),
    ("relu", T.relu, [_normal(3, 4)]),
    ("clamp_min", lambda x: T.clamp_min(x, 0.1), [_normal(3, 4)]),
    ("sum-all", lambda x: x.sum(), [_normal(2, 3, 4)]),
    ("sum-axis-tuple", lambda x: x.sum(axis=(0, 2)), [_normal(2, 3, 4)]),
    ("sum-neg-axes", lambda x: x.sum(axis=(0, -1)), [_normal(2, 3, 4)]),
    ("mean-all", lambda x: x.mean(), [_normal(2, 3, 4)]),
    ("reshape", lambda x: x.reshape(4, -1), [_normal(2, 3, 4)]),
    ("transpose-axes", lambda x: x.transpose(2, 0, 1), [_normal(2, 3, 4)]),
    ("transpose-reverse", lambda x: x.transpose(2, 1, 0), [_normal(2, 3, 4)]),
    ("matmul-broadcast", T.matmul, [_normal(2, 1, 3, 4), _normal(3, 4, 2)]),
    ("linear-3d", T.linear, [_normal(2, 3, 4), _normal(5, 4), _normal(5)]),
    ("softmax-axis0", lambda x: T.softmax(x, axis=0), [_normal(3, 4)]),
    ("softmax-axis-1", lambda x: T.softmax(x, axis=-1), [_normal(2, 3, 4)]),
    ("l2_normalize-above-eps", T.l2_normalize, [_normal(3, 4) + 1.0]),
    # scaled so that every slice and its finite-difference probes stay below the norm 1e-8
    ("l2_normalize-below-eps", lambda x: T.l2_normalize(x * 1e-10), [_normal(3, 4)]),
    (
        "batchnorm-train",
        lambda x, g, b: T.batchnorm2d(x, np.zeros(3), np.ones(3), g, b, training=True),
        [_normal(2, 3, 3, 3), _positive(3), _normal(3)],
    ),
    (
        "batchnorm-eval",
        lambda x, g, b: T.batchnorm2d(x, np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.0, 2.0]), g, b, training=False),
        [_normal(2, 3, 3, 3), _positive(3), _normal(3)],
    ),
    ("upsample", T.bilinear_upsample2x, [_normal(1, 2, 3, 4)]),
    ("concat-neg-axis", lambda a, b: T.concat([a, b], axis=-1), [_normal(2, 3, 2), _normal(2, 3, 4)]),
    ("gather_rows-1d-repeated", lambda x: T.gather_rows(x, [2, 0, 2, 2]), [_normal(4)]),
    ("gather_rows-2d-repeated", lambda x: T.gather_rows(x, [1, 3, 1, 0, 1]), [_normal(4, 3)]),
    ("pow-half", lambda x: x**0.5, [_positive(3, 4)]),
    ("mul-same-shape", lambda a, b: a * b, [_normal(3, 4), _normal(3, 4)]),
    ("transpose-mixed-sign-axes", lambda x: x.transpose(-1, 0, 1), [_normal(2, 3, 4)]),
]


@pytest.mark.parametrize("op,arrays", [case[1:] for case in GRAD_CASES], ids=[case[0] for case in GRAD_CASES])
def test_op_gradients(op, arrays):
    out = op(*[Tensor(a) for a in arrays])
    r = np.random.default_rng(18).normal(size=out.shape)  # drawn once: the builder runs per FD probe
    check_gradients(lambda *xs: (op(*xs) * r).sum(), arrays)


def _closure_contents(fn):
    """Every object the closure of `fn` captures, nested functions included."""
    out = []
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        out += _closure_contents(v) if isinstance(v, types.FunctionType) else [v]
    return out


def _graph_nodes(t):
    stack, seen = [t._node], set()
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack += node.parents
    return seen


@pytest.mark.parametrize(
    "op,arrays",
    [case[1:] for case in GRAD_CASES] + [(lambda x, w: T.conv2d(x, w, padding=1), [_normal(2, 3, 4, 4), _normal(2, 3, 3, 3)])],
    ids=[case[0] for case in GRAD_CASES] + ["conv2d"],
)
def test_no_node_or_closure_refers_to_a_tensor(op, arrays):
    """The tape is a graph of nodes whose closures hold arrays, never a Tensor."""
    out = op(*[Tensor(a, requires_grad=True) for a in arrays])
    for node in _graph_nodes(out):
        assert all(isinstance(p, T.Node) for p in node.parents)
        if node.backward is not None:
            assert not any(isinstance(v, Tensor) for v in _closure_contents(node.backward))


# op, d(out)/da and d(out)/db as arrays of the broadcast shape
BROADCAST_OPS = {
    "add": (T.add, lambda a, b: np.ones_like(a * b), lambda a, b: np.ones_like(a * b)),
    "sub": (T.sub, lambda a, b: np.ones_like(a * b), lambda a, b: -np.ones_like(a * b)),
    "mul": (T.mul, lambda a, b: b + 0 * a, lambda a, b: a + 0 * b),
}


def _sum_to(g, shape):
    """Sum a broadcast gradient back to `shape` with np.sum."""
    g = np.sum(g, axis=tuple(range(g.ndim - len(shape))))
    return np.sum(g, axis=tuple(i for i, s in enumerate(shape) if s == 1), keepdims=True).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BROADCAST_OPS)),
    shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4, max_side=3),
    seed=st.integers(0, 2**16),
)
def test_broadcasting_properties(name, shapes, seed):
    op, da, db = BROADCAST_OPS[name]
    (sa, sb), out_shape = shapes.input_shapes, shapes.result_shape
    rng = np.random.default_rng(seed)
    a_np, b_np = rng.normal(size=sa), rng.uniform(0.5, 2.0, size=sb)
    a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=True)
    out = op(a, b)
    assert out.shape == np.broadcast_shapes(sa, sb) == out_shape
    g = rng.normal(size=out_shape)
    T.backward((out * g).sum())
    assert a.grad.shape == sa and b.grad.shape == sb
    np.testing.assert_allclose(a.grad, _sum_to(g * da(a_np, b_np), sa), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(b.grad, _sum_to(g * db(a_np, b_np), sb), rtol=1e-12, atol=1e-12)


class TestDeterminismAndParallel:
    def test_fixed_seed_bitwise(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
            w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
            y = T.conv2d(x, w, padding=1)
            return T.softmax(y.reshape(2, -1), axis=1).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_set_parallel_accepts_only_zero(self):
        T.set_parallel(0)
        T.set_parallel()
        for n in (1, 2, -1):
            with pytest.raises(ValueError, match="OPENBLAS_NUM_THREADS"):
                T.set_parallel(n)


class TestThreadSplit:
    """Ops that `_split` cuts into parts run on the pool's threads and give
    the inline path's outputs and gradients bit for bit."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """Count the `_split` calls that run in more than one part."""
        count = [0]
        real = T._split

        def counting(n, nbytes, fn, grain=1):
            count[0] += min(T._PARTS, n // grain, nbytes // T._PART_BYTES) >= 2
            real(n, nbytes, fn, grain)

        monkeypatch.setattr(T, "_split", counting)
        return count

    @staticmethod
    def inline_and_split(monkeypatch, splits, parts, run, expect_split=True):
        """`run()` with one part, then in `parts` parts of any size; the
        second run takes the split path exactly when `expect_split` says so."""
        monkeypatch.setattr(T, "_PARTS", 1)
        inline = run()
        monkeypatch.setattr(T, "_PARTS", parts)
        monkeypatch.setattr(T, "_PART_BYTES", 1)
        splits[0] = 0
        split = run()
        assert (splits[0] > 0) == expect_split, f"the case must {'take the split path' if expect_split else 'run in one part'}"
        assert len(inline) == len(split)
        for a, b in zip(inline, split):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

    @staticmethod
    def outputs_and_grads(op, arrays, seed=60):
        """Output of `op` and the gradient of every input, for a fixed cotangent."""
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        y = op(*ts)
        r = np.random.default_rng(seed).standard_normal(y.shape).astype(y.dtype)
        # <y, r> as one matrix product, which never splits: a split counted is the op's own
        T.backward(T.matmul(y.reshape(1, -1), Tensor(r.reshape(-1, 1))).sum())
        return [y.data] + [t.grad for t in ts]

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2], ids=["1-1", "2-1"])  # "-1": a column since removed; the names stay
    def test_conv2d(self, monkeypatch, splits, parts, batch, stride):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((batch, 4, 11, 7), dtype=np.float32)
        w = rng.standard_normal((6, 4, 3, 3), dtype=np.float32)
        oh, ow = (11 + 2 - 3) // stride + 1, (7 + 2 - 3) // stride + 1
        rows = 2 if stride == 1 else 4  # several blocks, the last one partial
        assert oh > rows and oh % rows
        TestConv2d.rows_per_block(monkeypatch, x, 3, ow, rows)
        op = lambda x, w: T.conv2d(x, w, stride=stride, padding=1)
        # conv2d splits per image: one image runs in one part
        self.inline_and_split(monkeypatch, splits, parts, lambda: self.outputs_and_grads(op, [x, w]), expect_split=batch > 1)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("block,axis", [(None, -1), (None, 1), (3, 1)], ids=["one-block--1", "one-block-1", "blocks-1"])
    def test_softmax(self, monkeypatch, splits, parts, block, axis):
        x = 4.0 * np.random.default_rng(64).standard_normal((7, 5, 4), dtype=np.float32)
        if block:  # three slices per block; the last axis takes no blocks
            monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", block * 4 * 7 * x.itemsize)
        op = lambda x: T.softmax(x, axis=axis)
        self.inline_and_split(monkeypatch, splits, parts, lambda: self.outputs_and_grads(op, [x]))

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm2d(self, monkeypatch, splits, parts, training):
        rng = np.random.default_rng(65)
        x = rng.standard_normal((3, 7, 4, 5), dtype=np.float32)
        gamma, beta = rng.uniform(0.5, 1.5, 7).astype(np.float32), rng.standard_normal(7, dtype=np.float32)

        def run():
            rm, rv = np.full(7, 0.1, np.float32), np.full(7, 2.0, np.float32)
            op = lambda x, g, b: T.batchnorm2d(x, rm, rv, g, b, training=training)
            return self.outputs_and_grads(op, [x, gamma, beta]) + [rm, rv]

        self.inline_and_split(monkeypatch, splits, parts, run)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("a,b", [((7, 3, 4), (7, 3, 4)), ((), (7, 3, 4)), ((1, 9, 5), (1, 9, 5)), ((4,), ())])
    def test_mul(self, monkeypatch, splits, parts, a, b):
        rng = np.random.default_rng(67)
        arrays = [rng.standard_normal(a).astype(np.float32), rng.standard_normal(b).astype(np.float32)]
        self.inline_and_split(monkeypatch, splits, parts, lambda: self.outputs_and_grads(T.mul, arrays))

    def test_relu_and_broadcast_mul_never_split(self, monkeypatch):
        """relu, a product of two arrays of different shapes, neither 0-d,
        and every matrix product (a broadcast-batch matmul, a 3-D linear,
        bilinear_upsample2x) run as plain numpy calls however large, forward
        and backward."""

        def no_split(*args, **kwargs):
            raise AssertionError("_split called")

        monkeypatch.setattr(T, "_PARTS", 2)
        monkeypatch.setattr(T, "_split", no_split)
        rng = np.random.default_rng(71)
        x = rng.standard_normal((1024, 2048), dtype=np.float32)  # 8 MB
        x[:, ::3] = 0.0  # the gradient at zero
        w = rng.standard_normal(2048, dtype=np.float32)
        assert x.nbytes >= 2 * T._PART_BYTES  # large enough for two parts, were it split
        a = Tensor(x, requires_grad=True)
        y = T.relu(a)
        T.backward(y.sum())
        assert np.array_equal(y.data, np.maximum(x, 0))
        assert np.array_equal(a.grad, (x > 0).astype(np.float32))
        a = Tensor(x, requires_grad=True)
        y = a * Tensor(w)  # w takes no gradient: that one is a product of one shape, which splits
        T.backward(y.sum())
        assert np.array_equal(y.data, x * w)
        assert np.array_equal(a.grad, np.broadcast_to(w, x.shape))
        monkeypatch.setattr(T, "_PART_BYTES", 1)  # any product with a batch axis would split
        up = T._up2_matrix
        for op, shapes, ref in (
            (T.matmul, [(2, 1, 7, 4), (3, 4, 5)], np.matmul),
            (T.linear, [(2, 7, 5), (6, 5), (6,)], lambda x, w, b: np.matmul(x, w.T) + b),
            (T.bilinear_upsample2x, [(2, 3, 4, 5)], lambda x: up(4, x.dtype) @ x @ up(5, x.dtype).T),
        ):
            arrays = [rng.standard_normal(s, dtype=np.float32) for s in shapes]
            y, *grads = self.outputs_and_grads(op, arrays)
            assert np.array_equal(y, ref(*arrays))
            assert all(g.shape == a.shape and np.isfinite(g).all() for g, a in zip(grads, arrays))

    def test_a_part_no_helper_started_runs_on_the_calling_thread(self, monkeypatch, splits):
        """A pool whose threads never start a part and whose queue keeps what
        it is handed: the caller runs every part, in order, the queue keeps
        none of the op's arrays, and conv2d gives the inline outputs bit for
        bit."""

        class Idle:
            def __init__(self):
                self.queue = []

            def submit(self, fn, *args):
                self.queue.append((fn, args))
                return Future()

        pool = Idle()
        monkeypatch.setattr(T, "_pool", [pool])
        monkeypatch.setattr(T, "_PARTS", 3)
        monkeypatch.setattr(T, "_PART_BYTES", 1)
        seen, out = [], np.zeros(6)

        def part(out, s):
            out[s] = s.start
            seen.append((s.start, s.stop, threading.get_ident()))

        T._split(6, 6, partial(part, out))
        assert seen == [(lo, lo + 2, threading.get_ident()) for lo in (0, 2, 4)]
        assert np.array_equal(out, [0, 0, 2, 2, 4, 4]) and len(pool.queue) == 2
        freed = weakref.ref(out)
        del out
        assert freed() is None
        rng = np.random.default_rng(70)
        x, w = rng.standard_normal((3, 4, 6, 5), dtype=np.float32), rng.standard_normal((5, 4, 3, 3), dtype=np.float32)
        op = lambda x, w: T.conv2d(x, w, padding=1)
        self.inline_and_split(monkeypatch, splits, 3, lambda: self.outputs_and_grads(op, [x, w]))

    @pytest.mark.parametrize("nbytes,cuts", [(19, [(0, 8)]), (25, [(0, 4), (4, 8)]), (100, [(0, 2), (2, 4), (4, 6), (6, 8)])])
    def test_each_part_gets_at_least_the_part_bytes(self, monkeypatch, nbytes, cuts):
        monkeypatch.setattr(T, "_PARTS", 4)
        monkeypatch.setattr(T, "_PART_BYTES", 10)
        seen = []
        T._split(8, nbytes, lambda s: seen.append((s.start, s.stop)))
        assert sorted(seen) == cuts

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("a,b", [((0,), (0,)), ((0, 3), (3,)), ((1, 0, 3), (3,)), ((2, 0), (2, 1))])
    def test_empty_relu_and_mul(self, monkeypatch, parts, a, b):
        monkeypatch.setattr(T, "_PARTS", parts)
        monkeypatch.setattr(T, "_PART_BYTES", 1)
        x, w = np.ones(a, np.float32), np.ones(b, np.float32)
        y, gx = self.outputs_and_grads(T.relu, [x])
        assert y.shape == gx.shape == a
        y, gx, gw = self.outputs_and_grads(T.mul, [x, w])
        assert y.shape == np.broadcast_shapes(a, b) and gx.shape == a
        assert np.array_equal(gw, np.zeros(b, np.float32))
        assert T.relu(T.gather_rows(Tensor(np.ones((4, 2), np.float32)), [])).shape == (0, 2)

    @pytest.mark.parametrize("axis", [-1, 0])
    def test_non_finite_in_the_second_part_raises_and_helpers_go_on(self, monkeypatch, axis):
        monkeypatch.setattr(T, "_PARTS", 2)
        monkeypatch.setattr(T, "_PART_BYTES", 1)
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 1)  # a slice per block; rows take no blocks
        x = np.arange(60, dtype=np.float32).reshape(6, 10) / 60
        bad = x.copy()
        bad[4, 7] = np.nan  # row or slice 4 of 6, in the helper's part
        with pytest.raises(FloatingPointError, match="non-finite"):
            T.softmax(Tensor(bad), axis=axis)
        y = T.softmax(Tensor(x), axis=-1).data
        monkeypatch.setattr(T, "_PARTS", 1)
        assert np.array_equal(y, T.softmax(Tensor(x), axis=-1).data)

    def test_two_threads_split_softmax_at_once(self, monkeypatch):
        """Two threads split softmax at once, in four parts each, with the
        interpreter switching threads as often as it can: the one that finds
        the helpers busy runs inline, and every result is the inline one.
        Softmax calls no BLAS; ops that do must not run beside each other
        (see the thread policy in the module docstring)."""
        rng = np.random.default_rng(69)
        xs = [rng.standard_normal((8, 33), dtype=np.float32) for _ in range(2)]
        refs = [T.softmax(Tensor(x)).data for x in xs]
        monkeypatch.setattr(T, "_PARTS", 4)
        monkeypatch.setattr(T, "_PART_BYTES", 1)
        wrong = []

        def run(k):
            for _ in range(200):
                if not np.array_equal(T.softmax(Tensor(xs[k])).data, refs[k]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @staticmethod
    def python(code, **env):
        src = str(Path(T.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **env}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_one_blas_thread_starts_no_helper(self):
        out = self.python(
            "import threading, numpy as np\n"
            "from semidense import tensor as T\n"
            "T.softmax(T.Tensor(np.ones((1024, 1024), np.float32)))\n"  # 8 MB: above the cutoff
            "print(T._PARTS, threading.active_count())\n",
            OPENBLAS_NUM_THREADS="1",
        )
        assert out == ["1", "1"]

    @pytest.mark.skipif(T._BLAS is None, reason="numpy bundles no OpenBLAS")
    def test_parts_follow_the_blas_thread_count_and_import_starts_no_thread(self):
        out = self.python(
            "from semidense import tensor as T\n"
            "import threading\n"
            "print(T._PARTS, T._BLAS[0](), threading.active_count())\n",
            OPENBLAS_NUM_THREADS="2",
        )
        count = str(min(2, len(os.sched_getaffinity(0))))  # OpenBLAS takes no more threads than CPUs
        assert out == [count, count, "1"]

    @pytest.mark.skipif(T._BLAS is None, reason="numpy bundles no OpenBLAS")
    def test_blas_runs_one_thread_while_a_split_runs(self, monkeypatch):
        monkeypatch.setattr(T, "_PARTS", 2)
        monkeypatch.setattr(T, "_PART_BYTES", 1)
        before, seen = T._BLAS[0](), []
        T._split(2, 2, lambda s: seen.append(T._BLAS[0]()))
        assert seen == [1, 1]
        assert T._BLAS[0]() == before
        try:  # the count at the split's start comes back, not the one at import
            T._BLAS[1](1)
            T._split(2, 2, lambda s: None)
            assert T._BLAS[0]() == 1
        finally:
            T._BLAS[1](before)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_completes_a_split_on_its_own_pool(self):
        out = self.python(
            "import os, threading, numpy as np\n"
            "from semidense import tensor as T\n"
            "T._PARTS, T._PART_BYTES = 2, 1\n"
            "x = T.Tensor(np.arange(-8, 8, dtype=np.float32).reshape(4, 4))\n"
            "x * x\n"  # the parent's pool starts its thread
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    ok = np.array_equal((x * x).data, x.data * x.data)\n"
            "    os._exit(0 if ok and threading.active_count() == 2 else 1)\n"  # the child's own helper
            "print(os.waitpid(pid, 0)[1])\n",
        )
        assert out == ["0"]

    def test_split_at_interpreter_exit_runs_inline(self):
        out = self.python(
            "import atexit, numpy as np\n"
            "from semidense import tensor as T\n"
            "T._PARTS, T._PART_BYTES = 2, 1\n"
            "x = T.Tensor(np.arange(-8, 8, dtype=np.float32).reshape(4, 4))\n"
            "x * x\n"
            "atexit.register(lambda: print(np.array_equal((x * x).data, x.data * x.data)))\n",
        )
        assert out == ["True"]

    def test_process_with_helpers_exits_promptly(self):
        start = time.perf_counter()
        out = self.python(
            "import threading, numpy as np\n"
            "from semidense import tensor as T\n"
            "T._PARTS, T._PART_BYTES = 2, 1\n"
            "x = T.Tensor(np.ones((4, 4), np.float32))\n"
            "x * x\n"
            "print(threading.active_count())\n",
        )
        assert out == ["2"]  # the caller and one helper
        assert time.perf_counter() - start < 30
