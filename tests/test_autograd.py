"""Tensor engine: forward values, backward gradients, optimizer algebra."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_grad_close,
    check_op_gradients,
    copying_edge_fold,
    nine_slice_col2im,
    nine_slice_im2col,
    numerical_gradient,
)

from sanlab import autograd as ag
from sanlab.autograd import Parameter, Tensor
from sanlab.errors import GraphError, ShapeError


def rng_for(seed):
    return np.random.default_rng(seed)


class TestTensorBasics:
    def test_shape_data_invariant(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.data.size == math.prod(t.shape)

    def test_grad_matches_shape_after_backward(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        ag.sum_all(t).backward()
        assert t.grad.shape == t.data.shape

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            t.backward()

    def test_backward_frees_the_graph(self):
        """Backward consumes the graph and frees every op output's
        gradient; leaves, parameters and the loss keep theirs."""
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        p = Parameter(np.array([0.5, 0.5, 0.5]))
        hidden = ag.relu(x)
        scaled = ag.mul(hidden, p)
        loss = ag.sum_all(ag.mul(scaled, hidden))
        loss.backward()
        assert np.array_equal(x.grad, [1.0, 0.0, 3.0])
        assert np.array_equal(p.grad, [1.0, 0.0, 9.0])
        assert np.array_equal(loss.grad, 1.0)
        for node in (loss, scaled, hidden):
            assert node._parents == () and node._backward is None
        assert hidden.grad is None and scaled.grad is None

    def test_backward_frees_each_closure_once_it_has_run(self):
        """A node drops its closure, and the buffers it holds, as soon as it
        has passed its gradient on: when an op's backward runs, the nodes
        after it have already dropped theirs."""
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        seen = []

        def probe(grad_out):
            seen.append((hidden._backward, loss._backward))
            x._accumulate(grad_out)

        hidden = ag.relu(ag._result(x.data.copy(), (x,), probe))
        loss = ag.sum_all(hidden)
        loss.backward()
        assert seen == [(None, None)]
        assert np.array_equal(x.grad, [1.0, 0.0])

    def test_no_grad_blocks_taping(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with ag.no_grad():
            out = ag.relu(t)
        assert not out.requires_grad and out._backward is None

    def test_no_grad_holds_only_in_its_own_thread(self):
        entered, release = threading.Event(), threading.Event()
        inside = []

        def hold():
            with ag.no_grad():
                inside.append(ag.relu(Tensor(np.ones(3), requires_grad=True)).requires_grad)
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            out = ag.relu(Tensor(np.ones(3), requires_grad=True))
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert inside == [False]
        assert out.requires_grad and out._backward is not None

    def test_parameter_momentum_buffer(self):
        p = Parameter(np.zeros((4, 2), dtype=np.float32))
        assert isinstance(p, Tensor)
        assert p.momentum.shape == p.data.shape
        assert p.requires_grad
        with ag.no_grad():
            assert Parameter(np.zeros(2, dtype=np.float32)).requires_grad


def node_sending(x: Tensor, g: np.ndarray) -> Tensor:
    """A hand-built tape node over x whose backward hands x the array g."""
    return ag._result(x.data.copy(), (x,), lambda grad_out: x._accumulate(g))


class TestAccumulate:
    def test_gradient_of_another_shape_is_rejected(self):
        """A (1, C, 1, 1) gradient does not broadcast over an (N, C, 1, 1)
        tensor, whether it is the first gradient or a later one."""
        x = Tensor(np.zeros((2, 3, 1, 1), dtype=np.float32), requires_grad=True)
        wrong = np.ones((1, 3, 1, 1), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"gradient of shape \(1, 3, 1, 1\) for a tensor of shape \(2, 3, 1, 1\)"):
            ag.sum_all(node_sending(x, wrong)).backward()
        assert x.grad is None
        x.grad = np.zeros_like(x.data)
        with pytest.raises(ShapeError, match="gradient of shape"):
            ag.sum_all(node_sending(x, wrong)).backward()
        assert np.array_equal(x.grad, np.zeros_like(x.data))

    def test_first_gradient_of_negative_zero_is_positive_zero(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        ag.sum_all(node_sending(x, np.full(4, -0.0, dtype=np.float32))).backward()
        assert np.array_equal(x.grad, np.zeros(4)) and not np.signbit(x.grad).any()

    def test_first_gradient_is_an_owned_writeable_copy(self):
        """A read-only broadcast view is stored as its own contiguous array,
        and a later change to an op's array does not reach the stored one."""
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        view = np.broadcast_to(np.float32(2.5), (2, 3))
        ag.sum_all(node_sending(x, view)).backward()
        assert x.grad.flags.owndata and x.grad.flags.writeable and x.grad.flags.c_contiguous
        assert np.array_equal(x.grad, np.full((2, 3), 2.5))
        y = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        source = np.arange(6, dtype=np.float32).reshape(2, 3)
        ag.sum_all(node_sending(y, source)).backward()
        assert not np.shares_memory(y.grad, source)
        source += 100
        assert np.array_equal(y.grad, np.arange(6, dtype=np.float32).reshape(2, 3))

    def test_float64_gradient_into_float32_has_the_bits_of_zeros_then_add(self):
        g = rng_for(3).normal(size=(3, 5)) * 1e-3
        g[0, :2] = -0.0, 1.0 + 2.0**-30  # a negative zero, and a value float32 rounds
        x = Tensor(np.ones((3, 5), dtype=np.float32), requires_grad=True)
        ag.sum_all(node_sending(x, g)).backward()
        want = np.zeros_like(x.data)
        want += g
        assert x.grad.dtype == np.float32 and x.grad.tobytes() == want.tobytes()

    def test_zero_dimensional_gradient_stays_an_array(self):
        x = Tensor(np.asarray(np.float32(3.0)), requires_grad=True)
        ag.sum_all(node_sending(x, np.asarray(np.float32(-0.0)))).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == () and not np.signbit(x.grad)


class TestIm2col:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, h, w, kernel, stride, pad",
        [
            (1, 6, 7, 1, 1, 0),
            (3, 6, 7, 1, 2, 0),
            (2, 9, 8, 3, 1, 1),
            (3, 11, 9, 3, 2, 1),
            (2, 7, 9, 5, 1, 2),
            (2, 13, 10, 5, 2, 2),
            (2, 1, 9, 3, 1, 1),  # one pixel high
            (3, 8, 1, 3, 2, 1),  # one pixel wide
            (2, 1, 1, 5, 2, 2),
            (2, 1, 6, 1, 2, 0),
        ],
    )
    def test_bitwise_the_nine_slice_loop(self, n, h, w, kernel, stride, pad, dtype):
        x = rng_for(10 * h + w).normal(size=(n, 3, h, w)).astype(dtype)
        xp = ag._edge_pad(x, pad) if pad else x
        ho, wo = ag._conv_out_size(h, kernel, stride, pad), ag._conv_out_size(w, kernel, stride, pad)
        got = ag._im2col(xp, kernel, kernel, stride, ho, wo)
        assert got.flags.c_contiguous and got.flags.writeable and not np.shares_memory(got, xp)
        assert np.array_equal(got, nine_slice_im2col(xp, kernel, kernel, stride, ho, wo))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", ["sliced", "transposed"])
    @pytest.mark.parametrize("kernel, stride", [(3, 1), (3, 2), (5, 2)])
    def test_non_contiguous_unpadded_input_reads_its_own_strides(self, view, kernel, stride, dtype):
        base = rng_for(kernel + stride).normal(size=(2, 6, 15, 13)).astype(dtype)
        x = base[:, 1::2, 2:13:2, ::-1] if view == "sliced" else base.transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
        ho, wo = ag._conv_out_size(x.shape[2], kernel, stride, 0), ag._conv_out_size(x.shape[3], kernel, stride, 0)
        got = ag._im2col(x, kernel, kernel, stride, ho, wo)
        assert np.array_equal(got, nine_slice_im2col(x, kernel, kernel, stride, ho, wo))
        assert np.array_equal(got, nine_slice_im2col(np.ascontiguousarray(x), kernel, kernel, stride, ho, wo))


class TestConv2d:
    def test_identity_1x1_kernel(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = ag.conv2d(x, w, b)
        assert np.array_equal(out.data, x.data)

    def test_identity_channel_mix(self):
        # the identity-init case: 2-channel 1x1 mixing with the unit matrix
        x = Tensor(np.array([3.0, 5.0]).reshape(1, 2, 1, 1))
        w = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        b = Tensor(np.zeros(2))
        out = ag.conv2d(x, w, b)
        assert np.array_equal(out.data.reshape(2), [3.0, 5.0])

    def test_identity_kernel_transposes_gradient_exactly(self):
        x = Tensor(rng_for(0).normal(size=(1, 3, 4, 4)), requires_grad=True)
        eye = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = ag.conv2d(x, eye, Tensor(np.zeros(3)))
        ag.sum_all(out).backward()
        assert np.array_equal(x.grad, np.ones_like(x.data))

    def test_output_geometry(self):
        x = Tensor(np.zeros((1, 1, 10, 7)))
        out = ag.conv2d(x, Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)), stride=2, pad=1)
        assert out.shape == (1, 2, 5, 4)

    def test_input_without_gradient_is_not_held(self):
        """The node keeps an input only when the input takes a gradient, so
        an input batch built for one pass is freed once the pass is done."""
        r = rng_for(12)
        w, b = Tensor(r.normal(size=(2, 3, 3, 3)), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        for needs_grad in (False, True):
            x = Tensor(r.normal(size=(2, 3, 6, 6)), requires_grad=needs_grad)
            out = ag.conv2d(x, w, b, stride=2, pad=1)
            assert out._parents == ((x, w, b) if needs_grad else (w, b))
            assert any(cell.cell_contents is x for cell in out._backward.__closure__) == needs_grad
            ag.sum_all(out).backward()
            assert (x.grad is not None) == needs_grad

    def test_channel_mismatch_error_names_dims(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 1, 1)))
        with pytest.raises(ShapeError, match="3 channels.*expects 4"):
            ag.conv2d(x, w, Tensor(np.zeros(2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        r = rng_for(seed)
        arrays = {
            "x": r.normal(size=(2, 3, 5, 5)),
            "w": r.normal(size=(4, 3, 3, 3)),
            "b": r.normal(size=(4,)),
        }
        check_op_gradients(
            lambda t: ag.sum_all(ag.conv2d(t["x"], t["w"], t["b"], stride=1, pad=1)),
            arrays,
            context=f"conv2d seed={seed}",
        )

    def test_strided_padded_gradients(self):
        r = rng_for(11)
        arrays = {
            "x": r.normal(size=(1, 2, 7, 6)),
            "w": r.normal(size=(3, 2, 3, 3)),
            "b": r.normal(size=(3,)),
        }
        check_op_gradients(
            lambda t: ag.sum_all(ag.conv2d(t["x"], t["w"], t["b"], stride=2, pad=1)),
            arrays,
            context="conv2d strided",
        )


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def conv_case(seed, n, c, k, h, w, kernel):
    r = rng_for(seed)
    return (
        r.normal(size=(n, c, h, w)).astype(np.float32),
        r.normal(size=(k, c, kernel, kernel)).astype(np.float32),
        r.normal(size=(k,)).astype(np.float32),
    )


def conv_value_and_grads(build, x, w, b, upstream):
    """Forward value and x/w/b gradients of sum(build(x, w, b) * upstream)."""
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = build(tx, tw, tb)
    ag.sum_all(ag.mul(out, Tensor(upstream))).backward()
    return out.data, tx.grad, tw.grad, tb.grad


class TestConvKernelsBitwise:
    """The fused kernels against the op chains they replace, bit for bit (float32)."""

    @pytest.mark.parametrize(
        "n, h, w, kernel, stride",
        [
            (2, 7, 5, 3, 1),
            (2, 9, 11, 3, 2),
            (3, 1, 6, 3, 1),
            (2, 5, 1, 3, 2),
            (1, 1, 1, 3, 1),
            (2, 6, 7, 5, 1),
            (2, 13, 9, 5, 2),
        ],
    )
    @pytest.mark.parametrize("pad", [1, 2])
    def test_padded_conv_equals_replicate_pad_then_conv(self, n, h, w, kernel, stride, pad):
        x, wt, b = conv_case(100 * h + w, n, 3, 4, h, w, kernel)
        fused = ag.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
        upstream = rng_for(7).normal(size=fused.shape).astype(np.float32)
        got = conv_value_and_grads(lambda a, k, c: ag.conv2d(a, k, c, stride=stride, pad=pad), x, wt, b, upstream)
        want = conv_value_and_grads(
            lambda a, k, c: ag.conv2d(ag.replicate_pad(a, pad), k, c, stride=stride, pad=0), x, wt, b, upstream
        )
        for g, e in zip(got, want):
            assert_same_bits(g, e)

    @pytest.mark.parametrize("n, c, h, w", [(2, 5, 7, 3), (1, 32, 7, 7), (3, 4, 1, 1)])
    def test_pointwise_conv_equals_im2col_path(self, n, c, h, w):
        x, wt, b = conv_case(n + c + h, n, c, 6, h, w, 1)
        k = wt.shape[0]
        upstream = rng_for(8).normal(size=(n, k, h, w)).astype(np.float32)
        got = conv_value_and_grads(ag.conv2d, x, wt, b, upstream)
        # the general path: im2col columns, GEMM plus bias, col2im
        wm = wt.reshape(k, c)
        cols = ag._im2col(x, 1, 1, 1, h, w)
        value = np.matmul(wm, cols).reshape(n, k, h, w) + b.reshape(1, k, 1, 1)
        g = upstream.reshape(n, k, h * w)
        gx = np.zeros_like(x)
        gx += nine_slice_col2im(np.matmul(wm.T, g), x.shape, 1, 1, 1, h, w)
        gw = np.zeros_like(wt)
        gw += np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wt.shape)
        gb = np.zeros_like(b)
        gb += g.sum(axis=(0, 2))
        for actual, expected in zip(got, (value, gx, gw, gb)):
            assert_same_bits(actual, expected)

    @pytest.mark.parametrize("kernel, stride, pad", [(3, 2, 1), (3, 1, 1), (1, 1, 0)])
    def test_conv_with_relu_equals_relu_of_conv(self, kernel, stride, pad):
        """The fused ReLU against `relu` of the plain conv: exact zeros in
        the pre-activation (a channel with zero kernel and bias, and zero
        input rows under a -0.0 bias) and upstream gradients of both signs,
        negative over the whole zero channel, where the masked gradient is
        -0.0."""
        x, wt, b = conv_case(kernel + stride, 2, 3, 5, 9, 7, kernel)
        x[:, :, :4] = 0.0
        wt[1], b[1] = 0.0, 0.0
        b[2] = -0.0
        out = ag.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
        upstream = rng_for(9).normal(size=out.shape).astype(np.float32)
        upstream[:, 1] = -np.abs(upstream[:, 1])
        got = conv_value_and_grads(lambda a, k, c: ag.conv2d(a, k, c, stride, pad, relu=True), x, wt, b, upstream)
        want = conv_value_and_grads(lambda a, k, c: ag.relu(ag.conv2d(a, k, c, stride, pad)), x, wt, b, upstream)
        assert (got[0] == 0).any() and (got[0] > 0).any()
        for g, e in zip(got, want):
            assert_same_bits(g, e)

    def test_padded_conv_of_constant_map_is_constant(self):
        x = np.full((1, 2, 4, 3), 0.5, dtype=np.float32)
        wt = np.ones((1, 2, 3, 3), dtype=np.float32)
        out = ag.conv2d(Tensor(x), Tensor(wt), Tensor(np.zeros(1, dtype=np.float32)), stride=2, pad=2)
        assert np.all(out.data == 9.0)


class TestEdgeFold:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 5), (4, 1), (6, 7)])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_in_place_fold_equals_the_copying_fold(self, p, h, w, dtype):
        gp = rng_for(10 * p + h).normal(size=(2, 3, h + 2 * p, w + 2 * p)).astype(dtype)
        want = copying_edge_fold(gp, p)
        got = ag._edge_fold(gp.copy(), p)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def nine_slice_conv_grads(x, wt, upstream, stride, pad):
    """x, w and b gradients of sum(conv2d(x, wt, b, stride, pad) * upstream)
    as conv2d computed them before it summed columns by kernel-tap planes:
    nine-slice im2col and col2im, then the copying edge fold; each stored as
    `Tensor._accumulate` stores a first gradient.  Also the sums of
    absolute terms behind the x gradient."""
    n, c, h, w = x.shape
    k, _, kh, kw = wt.shape
    ho, wo = ag._conv_out_size(h, kh, stride, pad), ag._conv_out_size(w, kw, stride, pad)
    xp = ag._edge_pad(x, pad) if pad else x
    wm = wt.reshape(k, -1)
    g = upstream.reshape(n, k, ho * wo)

    def input_grad(a, b):
        gp = nine_slice_col2im(np.matmul(a.T, b), xp.shape, kh, kw, stride, ho, wo)
        return copying_edge_fold(gp, pad) if pad else gp

    gw = np.matmul(g, nine_slice_im2col(xp, kh, kw, stride, ho, wo).transpose(0, 2, 1)).sum(axis=0)
    grads = tuple(a + 0 for a in (input_grad(wm, g), gw.reshape(wt.shape), g.sum(axis=(0, 2))))
    return grads, input_grad(np.abs(wm), np.abs(g))


class TestConvInputGradient:
    """conv2d's backward, which sums its input gradient by kernel-tap planes,
    against the nine-slice column sum it replaced."""

    @staticmethod
    def check(x, wt, b, upstream, stride, pad):
        got = conv_value_and_grads(lambda a, k, c: ag.conv2d(a, k, c, stride, pad), x, wt, b, upstream)[1:]
        want, magnitude = nine_slice_conv_grads(x, wt, upstream, stride, pad)
        assert_same_bits(got[1], want[1])
        assert_same_bits(got[2], want[2])
        if x.dtype == np.float32 or upstream.shape[2:] == (1, 1):
            assert_same_bits(got[0], want[0])
        else:
            # float64 column products of another width can differ in the last
            # bits: OpenBLAS's dgemm kernels for AVX-512 sum the columns and
            # rows past the last full register block in another order
            # (float32's do not); so the float64 input gradient is held to its
            # rounding bound
            k, _, kh, kw = wt.shape
            bound = 2 * (k + kh * kw * (1 + pad) ** 2) * np.finfo(x.dtype).eps * magnitude
            assert got[0].dtype == x.dtype and np.all(np.abs(got[0] - want[0]) <= bound)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_gradients_equal_the_nine_slice_path(self, data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        kernel = data.draw(st.sampled_from([1, 3, 5]))
        stride, pad = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        h, w = (data.draw(st.integers(max(1, kernel - 2 * pad), 40)) for _ in range(2))
        n, c, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 16)), data.draw(st.integers(1, 70))
        r = rng_for(data.draw(st.integers(0, 2**32 - 1)))
        x = r.normal(size=(n, c, h, w)).astype(dtype)
        wt = r.normal(size=(k, c, kernel, kernel)).astype(dtype)
        b = r.normal(size=k).astype(dtype)
        ho, wo = ag._conv_out_size(h, kernel, stride, pad), ag._conv_out_size(w, kernel, stride, pad)
        upstream = r.normal(size=(n, k, ho, wo)).astype(dtype)
        # zeros of both signs, as a ReLU mask passes them on
        upstream[r.random(upstream.shape) < 0.2] = 0.0
        upstream[r.random(upstream.shape) < 0.1] = -0.0
        self.check(x, wt, b, upstream, stride, pad)

    @pytest.mark.parametrize("c, side", [(16, 48), (32, 24)])
    def test_training_shapes_equal_the_nine_slice_path(self, c, side):
        """Backbone blocks 2 and 3 on a training step's two 96-px images."""
        x, wt, b = conv_case(c + side, 2, c, 32, side, side, 3)
        upstream = rng_for(side).normal(size=(2, 32, side // 2, side // 2)).astype(np.float32)
        upstream[upstream < -0.5] = 0.0
        self.check(x, wt, b, upstream, 2, 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "kernel, stride, pad, h, w",
        [(3, 1, 1, 1, 1), (3, 2, 1, 1, 2), (3, 3, 0, 4, 5), (5, 1, 2, 1, 1), (5, 3, 0, 5, 7), (1, 2, 0, 1, 2)],
    )
    def test_one_by_one_output_equals_the_nine_slice_path(self, kernel, stride, pad, h, w, dtype):
        """A 1x1 output's column product is a GEMV, whose sums differ from a
        GEMM's once there are more than about 50 output channels."""
        r = rng_for(kernel * 10 + stride)
        x = r.normal(size=(2, 5, h, w)).astype(dtype)
        wt = r.normal(size=(64, 5, kernel, kernel)).astype(dtype)
        b = r.normal(size=64).astype(dtype)
        upstream = r.normal(size=(2, 64, 1, 1)).astype(dtype)
        assert ag._conv_out_size(h, kernel, stride, pad) == ag._conv_out_size(w, kernel, stride, pad) == 1
        self.check(x, wt, b, upstream, stride, pad)


class TestPointwiseOps:
    def test_relu_values(self):
        out = ag.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_identity_on_nonnegative(self):
        x = np.abs(rng_for(1).normal(size=(3, 4)))
        assert np.array_equal(ag.relu(Tensor(x)).data, x)

    def test_relu_gradient_against_fd_away_from_kink(self):
        r = rng_for(2)
        x = r.normal(size=(40,))
        x = np.where(np.abs(x) < 1e-3, x + 0.01, x)  # kink exclusion
        check_op_gradients(lambda t: ag.sum_all(ag.relu(t["x"])), {"x": x}, context="relu")

    def test_global_avg_pool_constant(self):
        out = ag.global_avg_pool(Tensor(np.full((1, 2, 3, 3), 7.5)))
        assert np.allclose(out.data, 7.5)
        assert out.shape == (1, 2, 1, 1)

    def test_global_avg_pool_mean(self):
        out = ag.global_avg_pool(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
        assert out.data.reshape(()) == pytest.approx(2.5)

    def test_global_avg_pool_fd(self):
        check_op_gradients(
            lambda t: ag.sum_all(ag.mul(ag.global_avg_pool(t["x"]), ag.global_avg_pool(t["x"]))),
            {"x": rng_for(3).normal(size=(2, 3, 4, 5))},
            context="gap",
        )

    def test_gap_linearity(self):
        r = rng_for(4)
        a, b = r.normal(size=(1, 4, 6, 6)), r.normal(size=(1, 4, 6, 6))
        lhs = ag.global_avg_pool(ag.add(Tensor(a), Tensor(b))).data
        rhs = ag.global_avg_pool(Tensor(a)).data + ag.global_avg_pool(Tensor(b)).data
        assert np.allclose(lhs, rhs, atol=1e-6)

    def test_add_zero_identity_and_values(self):
        a = Tensor(np.array([1.0, 2.0]))
        assert np.array_equal(ag.add(a, Tensor(np.zeros(2))).data, a.data)
        assert np.array_equal(ag.add(a, Tensor(np.array([3.0, 4.0]))).data, [4.0, 6.0])

    def test_add_gradient_is_ones(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        ag.sum_all(ag.add(a, Tensor(np.array([3.0, 4.0])))).backward()
        assert np.array_equal(a.grad, np.ones(2))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ag.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_mul_sub_scale_gradients(self):
        r = rng_for(5)
        arrays = {"a": r.normal(size=(6,)), "b": r.normal(size=(6,))}
        check_op_gradients(
            lambda t: ag.sum_all(ag.mul(ag.sub(t["a"], t["b"]), ag.scale(t["a"], 0.7))),
            arrays,
            context="mul/sub/scale",
        )

    def test_scale_by_trainable_scalar(self):
        r = rng_for(6)
        arrays = {"x": r.normal(size=(5,)), "alpha": np.array(0.3)}
        check_op_gradients(
            lambda t: ag.sum_all(ag.mul(ag.scale_by(t["x"], t["alpha"]), t["x"])),
            arrays,
            context="scale_by",
        )

    def test_replicate_pad_values_and_gradients(self):
        r = rng_for(21)
        x = r.normal(size=(1, 2, 3, 4))
        out = ag.replicate_pad(Tensor(x), 2)
        assert out.shape == (1, 2, 7, 8)
        assert np.array_equal(out.data[:, :, 2:5, 2:6], x)
        assert np.array_equal(out.data[0, 0, 0, 0], x[0, 0, 0, 0])  # corner replicates
        check_op_gradients(
            lambda t: ag.sum_all(ag.mul(ag.replicate_pad(t["x"], 1), ag.replicate_pad(t["x"], 1))),
            {"x": x},
            context="replicate_pad",
        )
        # wider pads, and 1-pixel-high / -wide maps whose one edge row or
        # column collects the border gradient of both sides
        for shape, p in (((1, 2, 3, 4), 2), ((1, 2, 3, 4), 3), ((1, 2, 1, 4), 2), ((1, 2, 3, 1), 3), ((1, 1, 1, 1), 2)):
            weights = Tensor(r.normal(size=(shape[0], shape[1], shape[2] + 2 * p, shape[3] + 2 * p)))
            x = r.normal(size=shape)
            assert np.array_equal(ag.replicate_pad(Tensor(x), p).data, np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge"))
            check_op_gradients(
                lambda t, p=p, w=weights: ag.sum_all(
                    ag.mul(ag.mul(ag.replicate_pad(t["x"], p), ag.replicate_pad(t["x"], p)), w)
                ),
                {"x": x},
                context=f"replicate_pad p={p} {shape}",
            )

    @pytest.mark.parametrize("shape", [(2, 3, 5, 4), (1, 2, 1, 6), (2, 1, 7, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("p", [1, 2])
    def test_replicate_pad_gradient_folds_rows_then_columns(self, shape, p):
        """The fold order fixes the rounding of the border sums (and of the
        corners, which both folds visit); conv2d's padding shares it."""
        x = Tensor(rng_for(23).normal(size=shape).astype(np.float32), requires_grad=True)
        out = ag.replicate_pad(x, p)
        gp = rng_for(24).normal(size=out.shape).astype(np.float32)
        ag.sum_all(ag.mul(out, Tensor(gp))).backward()
        h, w = shape[2:]
        rows = gp[:, :, p : p + h].copy()
        rows[:, :, 0] += gp[:, :, :p].sum(axis=2)
        rows[:, :, h - 1] += gp[:, :, p + h :].sum(axis=2)
        expected = rows[:, :, :, p : p + w].copy()
        expected[:, :, :, 0] += rows[:, :, :, :p].sum(axis=3)
        expected[:, :, :, w - 1] += rows[:, :, :, p + w :].sum(axis=3)
        assert_same_bits(x.grad, expected)

    def test_replicate_pad_constant_stays_constant(self):
        out = ag.replicate_pad(Tensor(np.full((1, 1, 3, 3), 0.7)), 3)
        assert np.all(out.data == 0.7)

    def test_row_and_ordered_sums(self):
        r = rng_for(22)
        check_op_gradients(
            lambda t: ag.sum_in_order(ag.mul(ag.sum_rows(t["x"]), ag.sum_rows(t["x"]))),
            {"x": r.normal(size=(3, 2, 2, 1))},
            context="sum_rows/sum_in_order",
        )
        values = (r.normal(size=16) * 10.0 ** r.integers(-3, 4, size=16)).astype(np.float32)
        chain = Tensor(values[0])
        for v in values[1:]:
            chain = ag.add(chain, Tensor(v))
        assert ag.sum_in_order(Tensor(values)).data == chain.data  # same rounding as the add chain
        rows = r.normal(size=(5, 32, 1, 1)).astype(np.float32)
        assert all(ag.sum_rows(Tensor(rows)).data[i] == ag.sum_all(Tensor(rows[i : i + 1])).data for i in range(5))

    def test_take0_concat_slice_gradients(self):
        r = rng_for(7)
        weights = Tensor(r.normal(size=(28,)))

        def build(t):
            picked = ag.take0(t["x"], [2, 0, 1, 2])
            stacked = ag.concat0([picked, t["x"]])
            flat = ag.reshape(stacked, (stacked.data.size,))
            return ag.sum_all(ag.mul(ag.mul(flat, flat), weights))

        check_op_gradients(build, {"x": r.normal(size=(3, 4))}, context="take0/concat/reshape")

    def test_take0_gradient_is_bitwise_add_at(self):
        """The scatter sums each row in occurrence order, as np.add.at does,
        then accumulates onto the gradient already present."""
        r = rng_for(23)
        for trial in range(40):
            rows = int(r.integers(1, 6))
            idx = r.integers(0, rows, size=int(r.integers(0, 12))) if trial else np.zeros(0, dtype=np.intp)
            x = Tensor(r.normal(size=(rows, 3, 2)).astype(np.float32), requires_grad=True)
            x.grad = r.normal(size=x.shape).astype(np.float32)
            expected = np.zeros_like(x.data)
            out = ag.take0(x, idx.tolist())
            # spread magnitudes so a different summation order would round differently
            out.grad = (r.normal(size=out.shape) * 10.0 ** r.integers(-4, 5, size=out.shape)).astype(np.float32)
            np.add.at(expected, idx, out.grad)
            expected = x.grad + expected
            out._backward(out.grad)
            assert np.array_equal(x.grad, expected), (trial, idx)


class TestDetach:
    def test_forward_value_identical(self):
        x = Tensor(rng_for(8).normal(size=(3, 3)), requires_grad=True)
        assert np.array_equal(ag.detach(x).data, x.data)

    def test_gradient_blocked(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ag.sum_all(ag.detach(ag.scale(x, 2.0)))
        loss.backward()
        assert x.grad is None

    def test_detached_branch_leaves_upstream_gradients_bitwise_identical(self):
        # run the same graph with and without a detached side loss
        base = rng_for(9).normal(size=(4,))
        for include in (False, True):
            x = Tensor(base.copy(), requires_grad=True)
            y = ag.mul(x, x)
            loss = ag.sum_all(y)
            if include:
                loss = ag.add(loss, ag.sum_all(ag.smooth_l1(ag.detach(y))))
            loss.backward()
            if include:
                with_branch = x.grad
            else:
                without_branch = x.grad
        assert np.array_equal(with_branch, without_branch)

    def test_detach_never_changes_forward_values(self):
        x = Tensor(rng_for(10).normal(size=(2, 2)), requires_grad=True)
        direct = ag.sum_all(ag.mul(x, x)).item()
        detached = ag.sum_all(ag.mul(ag.detach(x), ag.detach(x))).item()
        assert direct == detached


class TestBilinearResize:
    def test_same_size_identity(self):
        x = rng_for(11).normal(size=(1, 2, 5, 7))
        assert np.array_equal(ag.bilinear_resize(Tensor(x), 5, 7).data, x)

    def test_constant_image_any_size(self):
        x = np.full((1, 3, 4, 4), 0.37)
        out = ag.bilinear_resize(Tensor(x), 9, 5)
        assert np.allclose(out.data, 0.37)

    def test_matches_direct_interpolation_formula(self):
        x = np.array([[[[0.0, 1.0], [2.0, 3.0]]]])
        out = ag.bilinear_resize(Tensor(x), 4, 4).data[0, 0]

        def reference(i, j):
            # sample at (i+0.5)*h/out - 0.5, clamped, with edge-clamped corners
            sy = min(max((i + 0.5) * 2 / 4 - 0.5, 0.0), 1.0)
            sx = min(max((j + 0.5) * 2 / 4 - 0.5, 0.0), 1.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, 1), min(x0 + 1, 1)
            fy, fx = sy - y0, sx - x0
            top = x[0, 0, y0, x0] * (1 - fx) + x[0, 0, y0, x1] * fx
            bot = x[0, 0, y1, x0] * (1 - fx) + x[0, 0, y1, x1] * fx
            return top * (1 - fy) + bot * fy

        expected = np.array([[reference(i, j) for j in range(4)] for i in range(4)])
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "h, w, out_h, out_w",
        [
            (5, 7, 9, 13),  # up
            (17, 23, 6, 5),  # down
            (8, 3, 4, 11),  # down in y, up in x
            (24, 40, 48, 48),  # a reference crop
            (5, 7, 5, 7),  # same size
            (1, 1, 4, 3),  # from one pixel
            (1, 6, 3, 2),
            (6, 1, 2, 5),
            (4, 4, 1, 1),  # to one pixel
        ],
    )
    def test_bitwise_equal_to_row_pair_formula(self, h, w, out_h, out_w):
        x = rng_for(h * w).normal(size=(2, 3, h, w)).astype(np.float32)

        def axis(size, out_size):
            pos = (np.arange(out_size, dtype=np.float64) + 0.5) * (size / out_size) - 0.5
            pos = np.clip(pos, 0.0, size - 1.0)
            lo = np.floor(pos).astype(np.intp)
            return lo, np.minimum(lo + 1, size - 1), (pos - lo).astype(np.float32)

        # gather both source rows per output row, interpolate each along x
        y0, y1, fy = axis(h, out_h)
        x0, x1, fx = axis(w, out_w)
        r0, r1 = x[:, :, y0], x[:, :, y1]
        top = r0[:, :, :, x0] * (1 - fx) + r0[:, :, :, x1] * fx
        bot = r1[:, :, :, x0] * (1 - fx) + r1[:, :, :, x1] * fx
        expected = top * (1 - fy)[:, None] + bot * fy[:, None]
        assert_same_bits(ag.bilinear_resize(Tensor(x), out_h, out_w).data, expected)

    @pytest.mark.parametrize(
        "h, w, out_h, out_w",
        [(5, 7, 9, 13), (17, 23, 6, 5), (8, 3, 4, 11), (24, 40, 48, 48), (5, 7, 5, 7), (1, 1, 4, 3), (4, 4, 1, 1)],
    )
    def test_window_is_that_window_of_the_full_resize(self, h, w, out_h, out_w):
        """Every window, the same-size branch's too, is bit for bit the
        slice of the full result."""
        x = rng_for(h + w).normal(size=(2, 3, h, w)).astype(np.float32)
        full = ag.bilinear_resize(Tensor(x), out_h, out_w).data
        rng = rng_for(out_h * out_w)

        def span(size):
            lo = int(rng.integers(0, size))
            return lo, int(rng.integers(lo + 1, size + 1))

        windows = [((0, out_h), (0, out_w)), ((out_h - 1, out_h), (0, 1))]
        windows += [(span(out_h), span(out_w)) for _ in range(6)]
        for (r0, r1), (c0, c1) in windows:
            out = ag.bilinear_resize(Tensor(x), out_h, out_w, window=((r0, r1), (c0, c1))).data
            assert_same_bits(out, full[:, :, r0:r1, c0:c1])
            assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("window", [((0, 0), (0, 4)), ((2, 1), (0, 4)), ((0, 5), (0, 4)), ((0, 3), (-1, 2))])
    def test_empty_or_outside_window_rejected(self, window):
        with pytest.raises(ShapeError, match="window"):
            ag.bilinear_resize(Tensor(np.zeros((1, 1, 3, 3))), 4, 4, window=window)

    def test_same_size_result_is_a_copy(self):
        x = rng_for(13).normal(size=(1, 2, 3, 4)).astype(np.float32)
        out = ag.bilinear_resize(Tensor(x), 3, 4).data
        assert not np.shares_memory(out, x)

    def test_result_carries_no_gradient(self):
        x = Tensor(rng_for(12).normal(size=(1, 1, 4, 4)), requires_grad=True)
        out = ag.bilinear_resize(x, 2, 2)
        assert not out.requires_grad


class TestSoftmaxCrossEntropy:
    def test_confident_correct_prediction(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 30.0
        loss = ag.softmax_cross_entropy(Tensor(logits), [2])
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_log4(self):
        loss = ag.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [1])
        assert loss.item() == pytest.approx(math.log(4), abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError, match="out of range"):
            ag.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_stability_under_large_logits(self):
        logits = np.full((2, 3), 1e4)
        loss = ag.softmax_cross_entropy(Tensor(logits), [0, 2])
        assert math.isfinite(loss.item())

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_fd(self, seed):
        r = rng_for(100 + seed)
        logits = r.normal(size=(5, 4))
        labels = r.integers(0, 4, size=5).tolist()
        check_op_gradients(
            lambda t: ag.softmax_cross_entropy(t["logits"], labels),
            {"logits": logits},
            context=f"ce seed={seed}",
        )


class TestSmoothL1:
    @pytest.mark.parametrize("x,expected", [(0.0, 0.0), (0.5, 0.125), (3.0, 2.5), (-3.0, 2.5), (-0.5, 0.125)])
    def test_values(self, x, expected):
        out = ag.smooth_l1(Tensor(np.array([x])))
        assert out.data[0] == pytest.approx(expected, abs=1e-9)

    def test_gradient_is_clamped_input(self):
        x = Tensor(np.array([-5.0, -0.5, 0.5, 5.0]), requires_grad=True)
        ag.sum_all(ag.smooth_l1(x)).backward()
        assert np.allclose(x.grad, [-1.0, -0.5, 0.5, 1.0])

    def test_gradient_fd_away_from_transition(self):
        r = rng_for(13)
        x = r.normal(size=(50,)) * 2
        x = x[np.abs(np.abs(x) - 1) > 1e-2][:30]  # avoid the |x|=1 transition
        check_op_gradients(lambda t: ag.sum_all(ag.smooth_l1(t["x"])), {"x": x}, context="smooth_l1")


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float32))
        p.grad = np.array([0.5, -0.5], dtype=np.float32)
        ag.sgd_step([p], lr=1.0, momentum=0.0, weight_decay=0.0)
        assert np.allclose(p.data, [0.5, 2.5])
        assert p.grad is None

    def test_two_momentum_steps_unroll(self):
        p = Parameter(np.zeros(1, dtype=np.float64))
        g = 0.25
        total = 0.0
        for _ in range(2):
            p.grad = np.array([g])
            ag.sgd_step([p], lr=1.0, momentum=0.9, weight_decay=0.0)
        # buf_1 = g ; buf_2 = 0.9 g + g -> total displacement g + 1.9 g
        assert p.data[0] == pytest.approx(-(g + 1.9 * g), abs=1e-12)

    def test_weight_decay_geometric_shrink(self):
        lr, wd = 0.1, 0.05
        w0 = 3.0
        p = Parameter(np.array([w0]))
        for k in range(1, 26):
            p.grad = np.zeros(1)
            ag.sgd_step([p], lr=lr, momentum=0.0, weight_decay=wd)
            assert p.data[0] == pytest.approx(w0 * (1 - lr * wd) ** k, rel=1e-9)

    def test_missing_grad_errors(self):
        p = Parameter(np.zeros(2), name="head.w")
        with pytest.raises(GraphError, match="head.w"):
            ag.sgd_step([p], lr=0.1)


def composed_arrays_away_from_kinks(seed):
    """Random leaf values whose forward pass keeps every ReLU preactivation
    and smooth-L1 input clear of its kink by > 5e-3 (finite differences use
    step 1e-3, so the perturbed passes stay on the same linear piece)."""
    for attempt in range(100):
        r = rng_for(1000 * seed + attempt)
        arrays = {
            "x": r.normal(size=(1, 2, 8, 8)),
            "w1": r.normal(size=(3, 2, 3, 3)) * 0.5,
            "b1": r.normal(size=(3,)) * 0.1,
            "w2": r.normal(size=(3, 3, 1, 1)) * 0.5,
            "b2": r.normal(size=(3,)) * 0.1,
        }
        pre1 = ag.conv2d(Tensor(arrays["x"]), Tensor(arrays["w1"]), Tensor(arrays["b1"]), stride=2, pad=1)
        h1 = ag.relu(pre1)
        pre2 = ag.conv2d(h1, Tensor(arrays["w2"]), Tensor(arrays["b2"]))
        pooled = ag.global_avg_pool(ag.relu(pre2)).data.reshape(3)
        margin = min(np.abs(pre1.data).min(), np.abs(pre2.data).min(), np.abs(np.abs(pooled * 0.3) - 1).min())
        if margin > 5e-3:
            return arrays
    raise RuntimeError("no kink-free composed graph found")


class TestComposedGraphs:
    @pytest.mark.parametrize("seed", range(3))
    def test_end_to_end_finite_differences(self, seed):
        """Backward through conv/relu/pool/losses matches FD on the full scalar."""
        arrays = composed_arrays_away_from_kinks(seed)

        def build(t):
            h = ag.relu(ag.conv2d(t["x"], t["w1"], t["b1"], stride=2, pad=1))
            h = ag.relu(ag.conv2d(h, t["w2"], t["b2"]))
            pooled = ag.global_avg_pool(h)
            logits = ag.reshape(pooled, (1, 3))
            ce = ag.softmax_cross_entropy(logits, [1])
            reg = ag.sum_all(ag.smooth_l1(ag.scale(ag.reshape(pooled, (3,)), 0.3)))
            return ag.add(ce, ag.scale(reg, 0.5))

        check_op_gradients(build, arrays, context=f"composed seed={seed}")
