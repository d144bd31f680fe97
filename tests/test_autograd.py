"""Tensor engine: forward values, backward gradients, optimizer algebra."""

import math
import threading

import numpy as np
import pytest

from helpers import check_op_gradients, numerical_gradient, assert_grad_close

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
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        hidden = ag.relu(x)
        loss = ag.sum_all(ag.mul(hidden, hidden))
        loss.backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 6.0])
        for node in (loss, hidden):
            assert node._parents == () and node._backward is None
        assert hidden.grad is not None

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
        gx += ag._col2im(np.matmul(wm.T, g), x.shape, 1, 1, 1, h, w)
        gw = np.zeros_like(wt)
        gw += np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(wt.shape)
        gb = np.zeros_like(b)
        gb += g.sum(axis=(0, 2))
        for actual, expected in zip(got, (value, gx, gw, gb)):
            assert_same_bits(actual, expected)

    def test_padded_conv_of_constant_map_is_constant(self):
        x = np.full((1, 2, 4, 3), 0.5, dtype=np.float32)
        wt = np.ones((1, 2, 3, 3), dtype=np.float32)
        out = ag.conv2d(Tensor(x), Tensor(wt), Tensor(np.zeros(1, dtype=np.float32)), stride=2, pad=2)
        assert np.all(out.data == 9.0)


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

        def build(t):
            picked = ag.take0(t["x"], [2, 0, 1, 2])
            stacked = ag.concat0([picked, t["x"]])
            flat = ag.reshape(stacked, (stacked.data.size,))
            return ag.sum_all(ag.mul(ag.slice1d(flat, 3, 11), ag.slice1d(flat, 0, 8)))

        check_op_gradients(build, {"x": r.normal(size=(3, 4))}, context="take0/concat/slice")

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
