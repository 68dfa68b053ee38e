"""Tests of the tensor engine: forward values against independent oracles,
and tape gradients against the finite-difference oracle in helpers."""

import ctypes
import resource
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from helpers import check_gradients
from semidense import tensor as T
from semidense.tensor import Tensor


def conv2d_loops(x, w, b=None, stride=1, padding=1, groups=1):
    """Direct six-loop convolution reference."""
    n, c, h, wd = x.shape
    o, cg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    y = np.zeros((n, o, oh, ow), dtype=np.float64)
    og = o // groups
    for ni in range(n):
        for oi in range(o):
            gi = oi // og
            for yy in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for ci in range(cg):
                        for i in range(kh):
                            for j in range(kw):
                                acc += (
                                    xp[ni, gi * cg + ci, yy * stride + i, xx * stride + j]
                                    * w[oi, ci, i, j]
                                )
                    y[ni, oi, yy, xx] = acc + (b[oi] if b is not None else 0.0)
    return y


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

    @pytest.mark.parametrize(
        "stride,padding,groups",
        [(1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 0, 1), (2, 1, 2)],
        ids=["1-0", "1-1", "2-1", "2-0", "2-1-grouped"],
    )
    def test_strides_and_padding(self, stride, padding, groups):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 7, 6))
        w = rng.normal(size=(4, 4 // groups, 3, 3))
        b = rng.normal(size=4)
        y = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, groups=groups)
        ref = conv2d_loops(x, w, b, stride=stride, padding=padding, groups=groups)
        np.testing.assert_allclose(y.data, ref, atol=1e-9)

    def test_depthwise_equals_per_channel(self):
        rng = np.random.default_rng(3)
        c = 4
        x = rng.normal(size=(2, c, 6, 6))
        w = rng.normal(size=(c, 1, 3, 3))
        y = T.conv2d(Tensor(x), Tensor(w), padding=1, groups=c)
        ref = conv2d_loops(x, w, padding=1, groups=c)
        np.testing.assert_allclose(y.data, ref, atol=1e-9)
        # per-channel independent convolution oracle
        for ci in range(c):
            solo = conv2d_loops(x[:, ci : ci + 1], w[ci : ci + 1], padding=1)
            np.testing.assert_allclose(y.data[:, ci : ci + 1], solo, atol=1e-6)

    def test_grouped(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(6, 2, 3, 3))
        y = T.conv2d(Tensor(x), Tensor(w), padding=1, groups=2)
        ref = conv2d_loops(x, w, padding=1, groups=2)
        np.testing.assert_allclose(y.data, ref, atol=1e-9)

    @pytest.mark.parametrize(
        "cin,cout,k,stride,padding,groups,bias",
        [
            (3, 4, 3, 1, 0, 1, True),
            (3, 4, 3, 1, 1, 1, False),
            (3, 4, 3, 2, 1, 1, True),
            (3, 4, 3, 2, 0, 1, False),
            (3, 5, 1, 1, 0, 1, True),
            (4, 6, 3, 1, 1, 2, True),
            (4, 4, 3, 2, 1, 2, False),
            (4, 4, 3, 1, 1, 4, False),
            (4, 4, 3, 2, 1, 4, True),
        ],
    )
    def test_gradients(self, cin, cout, k, stride, padding, groups, bias):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, cin, 5, 6))
        w = rng.normal(size=(cout, cin // groups, k, k))
        oh = (5 + 2 * padding - k) // stride + 1
        ow = (6 + 2 * padding - k) // stride + 1
        r = rng.normal(size=(2, cout, oh, ow))  # fixed weights, so no symmetry hides an error
        arrays = [x, w] + ([rng.normal(size=cout)] if bias else [])

        def loss(x, w, b=None):
            return (T.conv2d(x, w, b, stride=stride, padding=padding, groups=groups) * r).sum()

        check_gradients(loss, arrays)

    @staticmethod
    def rows_per_block(monkeypatch, x, k, ow, rows):
        """Cap `conv2d`'s patch block at `rows` output rows of input `x`."""
        n, c = x.shape[:2]
        monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", rows * n * c * k * k * ow * x.itemsize)

    @pytest.mark.parametrize(
        "cin,cout,k,stride,padding,groups,bias",
        [
            (3, 4, 3, 1, 0, 1, True),
            (3, 4, 3, 1, 1, 1, False),
            (3, 4, 3, 2, 1, 1, True),
            (3, 4, 3, 2, 0, 1, False),
            (3, 5, 1, 1, 0, 1, True),
            (4, 6, 3, 1, 1, 2, True),
            (4, 4, 3, 2, 1, 2, False),
        ],
    )
    def test_gradients_in_row_blocks(self, monkeypatch, cin, cout, k, stride, padding, groups, bias):
        """Several patch blocks of 3 output rows, the last one partial."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, cin, 10, 6))
        w = rng.normal(size=(cout, cin // groups, k, k))
        oh = (10 + 2 * padding - k) // stride + 1
        ow = (6 + 2 * padding - k) // stride + 1
        assert oh > 3 and oh % 3, "the case must run several blocks with a partial last one"
        self.rows_per_block(monkeypatch, x, k, ow, 3)
        r = rng.normal(size=(2, cout, oh, ow))
        arrays = [x, w] + ([rng.normal(size=cout)] if bias else [])

        def loss(x, w, b=None):
            return (T.conv2d(x, w, b, stride=stride, padding=padding, groups=groups) * r).sum()

        check_gradients(loss, arrays)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_row_blocks_agree_with_one_block(self, monkeypatch, stride):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 8, 21, 20), dtype=np.float32)
        w = 0.1 * rng.standard_normal((8, 8, 3, 3), dtype=np.float32)
        b = rng.standard_normal(8, dtype=np.float32)
        ow = (20 + 2 - 3) // stride + 1

        def run():
            ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
            y = T.conv2d(*ts, stride=stride, padding=1)
            (y * y).sum().backward()
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
        w = rng.normal(size=(4, 2, 3, 3))  # groups 2
        oh = (10 + 2 * padding - 3) // stride + 1
        ow = (5 + 2 * padding - 3) // stride + 1
        assert oh > 3 and oh % 3, "the case must run several blocks with a partial last one"
        self.rows_per_block(monkeypatch, x, 3, ow, 3)
        r = rng.normal(size=(batch, 4, oh, ow))

        def loss(x, w, b):
            return (T.conv2d(x, w, b, stride=stride, padding=padding, groups=2) * r).sum()

        check_gradients(loss, [x, w, rng.normal(size=4)])

    @pytest.mark.parametrize("stride", [1, 2])
    def test_batch_agrees_with_image_by_image(self, monkeypatch, stride):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 8, 21, 20), dtype=np.float32)
        w = 0.1 * rng.standard_normal((8, 4, 3, 3), dtype=np.float32)
        b = rng.standard_normal(8, dtype=np.float32)
        ow = (20 + 2 - 3) // stride + 1

        def run(xs):
            # the same 4 output rows per block whatever the batch, so col2im
            # adds each input-gradient element in the same order
            self.rows_per_block(monkeypatch, xs, 3, ow, 4)
            ts = [Tensor(a, requires_grad=True) for a in (xs, w, b)]
            y = T.conv2d(*ts, stride=stride, padding=1, groups=2)
            (y * y).sum().backward()
            return [y.data] + [t.grad for t in ts]

        y, gx, gw, gb = run(x)
        assert y.shape[2] > 4, "the case must run several blocks"
        solo = [run(x[k : k + 1]) for k in range(3)]
        assert y.dtype == gx.dtype == np.float32
        np.testing.assert_array_equal(y, np.concatenate([s[0] for s in solo]))
        np.testing.assert_array_equal(gx, np.concatenate([s[1] for s in solo]))
        # the batched GEMM sums the images in its own order
        for got, parts in ((gw, [s[2] for s in solo]), (gb, [s[3] for s in solo])):
            ref = np.sum(parts, axis=0)
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        with pytest.raises(ValueError, match="groups"):
            T.conv2d(x, Tensor(np.zeros((4, 3, 3, 3))), groups=2)
        with pytest.raises(ValueError, match="kernel"):
            T.conv2d(x, Tensor(np.zeros((4, 3, 7, 7))), padding=0)
        with pytest.raises(ValueError, match="input channels"):
            T.conv2d(x, Tensor(np.zeros((4, 2, 3, 3))))


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        w = Tensor(np.eye(3))
        y = T.linear(x, w)
        np.testing.assert_allclose(y.data, x.data)

    def test_hand_sum(self):
        y = T.linear(Tensor(np.array([2.0, 3.0])), Tensor(np.array([[1.0, 1.0]])))
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
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


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

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            T.batchnorm2d(
                Tensor(np.zeros((1, 3, 2, 2))), np.zeros(2), np.ones(2),
                Tensor(np.ones(2)), Tensor(np.zeros(2)), training=False,
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

    def test_l2_normalize_triangle(self):
        y = T.l2_normalize(Tensor(np.array([3.0, 4.0])), axis=0)
        np.testing.assert_allclose(y.data, [0.6, 0.8], atol=1e-7)

    def test_l2_normalize_unit_norm(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 8))
        y = T.l2_normalize(Tensor(x), axis=1)
        norms = np.linalg.norm(y.data, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_l2_normalize_small_norm_scaling(self):
        eps = 0.1
        x = np.array([[0.001, 0.002]])
        y = T.l2_normalize(Tensor(x), axis=1, eps=eps)
        np.testing.assert_allclose(y.data, x / eps, atol=1e-9)


class TestBlockedSoftmax:
    """softmax with `_SOFTMAX_BLOCK_BYTES` cut to three rows (last axis
    reduced) or three slices (any other axis), so that every case below runs
    several blocks and its last block is partial."""

    @staticmethod
    def three_per_block(monkeypatch, shape, axis, dtype):
        n = shape[axis]
        last = axis in (-1, len(shape) - 1)
        count = int(np.prod(shape)) // n if last else n  # rows or slices
        assert count > 3 and count % 3, "several blocks, the last one partial"
        per = n if last else int(np.prod(shape)) // n
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 3 * per * np.dtype(dtype).itemsize)

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
        x[1, 4, 2] = bad  # row 11 of 14 (block 4 of 5), slice 4 of 7 (block 2 of 3)
        with pytest.raises(FloatingPointError, match="non-finite"):
            T.softmax(Tensor(x), axis=axis)

    @pytest.mark.parametrize("axis", [0, -1], ids=["slices", "rows"])
    def test_shift_is_the_max_over_every_block(self, monkeypatch, axis):
        x = np.zeros((7, 7), dtype=np.float32)
        x[4, 4] = 100.0  # block 2 of 3 either way; exp(100) overflows float32
        x[6, 6] = -100.0
        self.three_per_block(monkeypatch, x.shape, axis, np.float32)
        y = T.softmax(Tensor(x), axis=axis).data
        assert y[4, 4] == 1.0 and np.isfinite(y).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 5, 33), (2, 1, 5, 17)])
    def test_rows_bitwise_equal_to_one_block(self, monkeypatch, dtype, shape):
        x = Tensor((5.0 * np.random.default_rng(41).normal(size=shape)).astype(dtype))
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 1 << 40)
        whole = T.softmax(x, axis=-1).data
        self.three_per_block(monkeypatch, shape, -1, dtype)
        assert np.array_equal(T.softmax(x, axis=-1).data, whole)

    @pytest.mark.parametrize("shape,axis", [((50, 6, 5), 0), ((3, 40, 7), 1), ((2, 41, 3, 2), 1)])
    def test_slices_match_float64_reference(self, monkeypatch, shape, axis):
        x = (5.0 * np.random.default_rng(42).normal(size=shape)).astype(np.float32)
        self.three_per_block(monkeypatch, shape, axis, np.float32)
        y = T.softmax(Tensor(x), axis=axis).data
        ref = np.exp(x.astype(np.float64) - x.max(axis=axis, keepdims=True))
        ref /= ref.sum(axis=axis, keepdims=True)
        assert y.dtype == np.float32
        np.testing.assert_allclose(y, ref, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_one_block_is_the_whole_array_passes(self, axis):
        x = 5.0 * np.random.default_rng(43).normal(size=(6, 5, 4)).astype(np.float32)
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        assert np.array_equal(T.softmax(Tensor(x), axis=axis).data, e / e.sum(axis=axis, keepdims=True))

    @pytest.mark.parametrize("shape,axis", [((0, 2, 3), -1), ((0, 2, 3), 1), ((2, 0, 3), 0), ((2, 3, 0), 0)])
    def test_empty_input(self, monkeypatch, shape, axis):
        monkeypatch.setattr(T, "_SOFTMAX_BLOCK_BYTES", 1)  # below one row or slice: one per block
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
    def test_sqrt_of_negative_raises(self):
        with pytest.raises(FloatingPointError, match="sqrt"):
            T.sqrt(Tensor(np.array([4.0, -1.0])))

    def test_fractional_power_of_negative_raises(self):
        with pytest.raises(FloatingPointError, match="pow_scalar"):
            Tensor(np.array([-2.0])) ** 0.5

    @pytest.mark.parametrize("e", [-1.0, -0.5, -2.0])
    def test_negative_power_of_zero_raises(self, e):
        with pytest.raises(FloatingPointError, match="pow_scalar"):
            T.pow_scalar(Tensor(np.array([1.0, 0.0])), e)

    def test_integer_power_of_negative_is_allowed(self):
        x = Tensor(np.array([-2.0]), requires_grad=True)
        y = x**2.0
        y.sum().backward()
        np.testing.assert_array_equal(y.data, [4.0])
        np.testing.assert_array_equal(x.grad, [-4.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_of_every_size_one_shape(shape, dtype):
    value = Tensor(np.full(shape, 3.5, dtype=dtype)).item()
    assert type(value) is float and value == 3.5


class TestGradientOwnership:
    def test_leaf_grads_are_own_writable_arrays(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()  # both leaves receive the same broadcast view
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
        loss.backward()
        assert h.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [4.0, 2.0, 4.0])

    def test_leaf_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        x.zero_grad()
        (x * 3.0).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])

    @pytest.mark.parametrize("inner", [False, True], ids=["leaf", "inner"])
    def test_fan_out_accumulates(self, inner):
        rng = np.random.default_rng(18)
        c, r, q = rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)
        x = Tensor(rng.normal(size=4), requires_grad=True)
        h = x * 1.5 if inner else x
        # three uses: add, getitem with a repeated index, and sum (a broadcast view)
        loss = ((h + c) * r).sum() + (h[[0, 0, 3]] * q).sum() + h.sum() * 2.0
        loss.backward()
        expected = r + 2.0
        np.add.at(expected, [0, 0, 3], q)
        np.testing.assert_allclose(x.grad, expected * (1.5 if inner else 1.0), rtol=1e-12)

    def test_shared_upstream_is_not_corrupted(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        p, q = x * 2.0, x * 3.0
        # p and q borrow one gradient array; getitem must not add into it
        loss = (p + q).sum() + p[[0, 0]].sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0 * 3.0 + 3.0, 5.0, 5.0])

    def test_float32_leaf_keeps_its_dtype(self):
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0], dtype=np.float64))
        loss = (a * b).sum() + (a + b).sum()
        assert loss.dtype == np.float64
        loss.backward()
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, [4.0, 5.0])

    def test_closure_receives_an_ndarray_of_the_node_dtype(self):
        seen = []
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        h = T._make(np.asarray(a.data.sum()), (a,), seen.append)  # a 0-d float32 node that records its gradient
        (h * Tensor(np.array(2.0))).backward()  # float64 operand; 0-d products are numpy scalars
        assert type(seen[0]) is np.ndarray and seen[0].dtype == np.float32


def test_tape_keeps_only_the_outputs():
    """conv -> batchnorm -> relu holds its three outputs and little else."""
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
    assert held <= 1.1 * 3 * x.data.nbytes


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
        x[[0, 0, 2]].sum().backward()
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


class TestArithmeticWithArrays:
    @pytest.mark.parametrize("op", [T.mul, T.div])
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
        np.testing.assert_array_equal(T.div(x, b).data, (x.data / b).astype(np.float32))
        assert T.mul(x, b).dtype == np.float32

    def test_scalars_keep_fast_path(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        for y in (-x, x * np.float32(3.0), x / 2):
            assert y._parents == (x,)


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
    ("div-broadcast", lambda a, b: a / b, [_normal(2, 1), _positive(3, 1, 4)]),
    ("radd-rmul-scalar", lambda x: 2.0 + 3.0 * x, [_normal(3, 4)]),
    ("rsub-scalar", lambda x: 2.0 - x, [_normal(3, 4)]),
    ("rdiv-scalar", lambda x: 3.0 / x, [_positive(3, 4)]),
    ("neg", lambda x: -x, [_normal(3, 4)]),
    ("pow-2", lambda x: x**2, [_normal(3, 4)]),
    ("pow-neg-half", lambda x: x**-0.5, [_positive(3, 4)]),
    ("exp", T.exp, [_normal(3, 4)]),
    ("log", T.log, [_positive(3, 4)]),
    ("sqrt", T.sqrt, [_positive(3, 4)]),
    ("abs", T.tabs, [_normal(3, 4)]),
    ("tanh", T.tanh, [_normal(3, 4)]),
    ("sigmoid", T.sigmoid, [3.0 * _normal(3, 4)]),
    ("relu", T.relu, [_normal(3, 4)]),
    ("clip", lambda x: T.clip(x, -0.5, 0.5), [_normal(3, 4)]),
    ("clamp_min", lambda x: T.clamp_min(x, 0.1), [_normal(3, 4)]),
    ("sum-all", lambda x: x.sum(), [_normal(2, 3, 4)]),
    ("sum-axis-tuple", lambda x: x.sum(axis=(0, 2)), [_normal(2, 3, 4)]),
    ("sum-neg-axes", lambda x: x.sum(axis=(0, -1)), [_normal(2, 3, 4)]),
    ("sum-neg-axis-keepdims", lambda x: x.sum(axis=-2, keepdims=True), [_normal(2, 3, 4)]),
    ("mean-all", lambda x: x.mean(), [_normal(2, 3, 4)]),
    ("mean-axis-tuple-neg", lambda x: x.mean(axis=(1, -1)), [_normal(2, 3, 4)]),
    ("mean-keepdims", lambda x: x.mean(axis=(0, 2), keepdims=True), [_normal(2, 3, 4)]),
    ("reshape", lambda x: x.reshape(4, -1), [_normal(2, 3, 4)]),
    ("transpose-axes", lambda x: x.transpose(2, 0, 1), [_normal(2, 3, 4)]),
    ("transpose-reverse", lambda x: x.transpose(), [_normal(2, 3, 4)]),
    ("matmul-broadcast", T.matmul, [_normal(2, 1, 3, 4), _normal(3, 4, 2)]),
    ("linear-3d", T.linear, [_normal(2, 3, 4), _normal(5, 4), _normal(5)]),
    ("softmax-axis0", lambda x: T.softmax(x, axis=0), [_normal(3, 4)]),
    ("softmax-axis-1", lambda x: T.softmax(x, axis=-1), [_normal(2, 3, 4)]),
    ("l2_normalize-above-eps", lambda x: T.l2_normalize(x, axis=1, eps=0.1), [_normal(3, 4) + 1.0]),
    ("l2_normalize-below-eps", lambda x: T.l2_normalize(x, axis=1, eps=0.1), [0.01 * _normal(3, 4)]),
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
]


@pytest.mark.parametrize("op,arrays", [case[1:] for case in GRAD_CASES], ids=[case[0] for case in GRAD_CASES])
def test_op_gradients(op, arrays):
    out = op(*[Tensor(a) for a in arrays])
    r = np.random.default_rng(18).normal(size=out.shape)  # drawn once: the builder runs per FD probe
    check_gradients(lambda *xs: (op(*xs) * r).sum(), arrays)


# op, d(out)/da and d(out)/db as arrays of the broadcast shape
BROADCAST_OPS = {
    "add": (T.add, lambda a, b: np.ones_like(a * b), lambda a, b: np.ones_like(a * b)),
    "sub": (T.sub, lambda a, b: np.ones_like(a * b), lambda a, b: -np.ones_like(a * b)),
    "mul": (T.mul, lambda a, b: b + 0 * a, lambda a, b: a + 0 * b),
    "div": (T.div, lambda a, b: 1 / b + 0 * a, lambda a, b: -a / b**2),
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
    (out * g).sum().backward()
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
            with pytest.raises(ValueError, match="no longer splits batches"):
                T.set_parallel(n)
