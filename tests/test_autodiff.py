"""Tensor engine tests: forward semantics, adjoints, tape behavior.

Every differentiable primitive is checked against central finite
differences on random inputs in [-1, 1].
"""

import zlib

import numpy as np
import pytest

from msdalab import autodiff as ad
from msdalab.autodiff import (
    ContractError,
    ShapeError,
    Tensor,
    backward,
    conv2d,
    finite_difference_check,
    global_avg_pool,
    matmul,
    relu,
    softmax_rows,
)

FD_TOL = 1e-4


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def reference_conv(x, k, g, stride):
    """Forward, dX and dK of a valid convolution by nested loops over windows."""
    b, _, h, w = x.shape
    cout, _, kh, kw = k.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    out = np.zeros((b, cout, oh, ow))
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for n in range(b):
        for o in range(cout):
            for r in range(oh):
                for c in range(ow):
                    win = (n, slice(None), slice(r * stride, r * stride + kh),
                           slice(c * stride, c * stride + kw))
                    out[n, o, r, c] = np.sum(x[win] * k[o])
                    gx[win] += g[n, o, r, c] * k[o]
                    gk[o] += g[n, o, r, c] * x[win]
    return out, gx, gk


class TestMatmul:
    def test_identity(self):
        a = rand((3, 3), 0)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        a = ad.parameter(rand((4, 3), 1))
        b = ad.parameter(rand((3, 5), 2))
        err = finite_difference_check(lambda: ad.tsum(matmul(a, b)), [a, b], eps=1e-5)
        assert err < 1e-6


class TestConv2d:
    def test_all_ones_gives_fours(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k, 1)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_delta_kernel_is_identity_on_valid_region(self):
        x = Tensor(rand((2, 1, 5, 6), 3))
        k = np.zeros((1, 1, 2, 2))
        k[0, 0, 0, 0] = 1.0
        out = conv2d(x, Tensor(k), 1)
        np.testing.assert_array_equal(out.data[:, 0], x.data[:, 0, :4, :5])

    def test_output_shape_with_stride(self):
        out = conv2d(Tensor(np.zeros((1, 2, 9, 7))), Tensor(np.zeros((3, 2, 3, 3))), 2)
        assert out.shape == (1, 3, 4, 3)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))), 1)

    @pytest.mark.parametrize("stride, x_shape, k_shape", [
        (1, (1, 2, 5, 7), (3, 2, 3, 2)),
        (2, (2, 3, 7, 6), (2, 3, 3, 3)),
        (3, (1, 1, 8, 11), (2, 1, 2, 4)),
        (3, (2, 2, 9, 5), (1, 2, 1, 1)),
    ])
    def test_matches_nested_loop_reference(self, stride, x_shape, k_shape):
        x = ad.parameter(rand(x_shape, 30))
        k = ad.parameter(rand(k_shape, 31))
        out = conv2d(x, k, stride)
        g = rand(out.shape, 32)
        backward(ad.tsum(ad.mul(out, Tensor(g))))
        want_out, want_gx, want_gk = reference_conv(x.data, k.data, g, stride)
        np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, want_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(k.grad, want_gk, rtol=0, atol=1e-12)

    def test_wide_kernel_stride_three_finite_differences(self):
        x = ad.parameter(rand((2, 2, 7, 11), 33))
        k = ad.parameter(rand((2, 2, 2, 5), 34))

        def f():
            out = conv2d(x, k, 3)
            return ad.tsum(ad.mul(out, out))

        assert finite_difference_check(f, [x, k], eps=1e-5) < FD_TOL

    def test_input_feeding_two_convs_finite_differences(self):
        x = ad.parameter(rand((2, 2, 6, 7), 35))
        k1 = ad.parameter(rand((2, 2, 3, 3), 36))
        k2 = ad.parameter(rand((3, 2, 2, 4), 37))

        def f():
            a = conv2d(x, k1, 1)
            b = conv2d(x, k2, 2)
            return ad.add(ad.tsum(ad.mul(a, a)), ad.tsum(ad.mul(b, b)))

        assert finite_difference_check(f, [x, k1, k2], eps=1e-5) < FD_TOL

    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradient_matches_finite_differences(self, stride):
        x = ad.parameter(rand((2, 2, 6, 5), 4))
        k = ad.parameter(rand((3, 2, 3, 2), 5))

        def f():
            out = conv2d(x, k, stride)
            return ad.tsum(ad.mul(out, out))

        assert finite_difference_check(f, [x, k], eps=1e-5) < FD_TOL


class TestPointwiseOps:
    def test_softmax_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        out = softmax_rows(Tensor(rand((7, 5), 6, -10, 10)))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(7), atol=1e-12)

    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_derivative_zero_at_zero(self):
        x = ad.parameter([-1.0, 0.0, 2.0])
        backward(ad.tsum(relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_relu_passes_nan(self):
        x = ad.parameter([np.nan, -1.0, 2.0])
        out = relu(x)
        np.testing.assert_array_equal(out.data, [np.nan, 0.0, 2.0])
        backward(ad.tsum(ad.mul(out, Tensor([0.0, 1.0, 1.0]))))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_gap_mean(self):
        out = global_avg_pool(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_array_equal(out.data, [[2.5]])

    @pytest.mark.parametrize(
        "name",
        ["relu", "softmax", "gap", "exp", "log", "abs", "lse", "pairwise", "take",
         "concat", "channel_bias", "transpose", "sum_axis", "mean", "add_bias", "reciprocal"],
    )
    def test_every_primitive_passes_gradient_check(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = ad.parameter(rng.uniform(-1, 1, (4, 3)))
        y = ad.parameter(rng.uniform(-1, 1, (5, 3)))
        img = ad.parameter(rng.uniform(-1, 1, (2, 3, 4, 4)))
        bias = ad.parameter(rng.uniform(-1, 1, 3))
        fns = {
            "relu": (lambda: ad.tsum(ad.mul(relu(x), x)), [x]),
            "softmax": (lambda: ad.tsum(ad.mul(softmax_rows(x), Tensor(y.data[:4]))), [x]),
            "gap": (lambda: ad.tsum(ad.mul(global_avg_pool(img), global_avg_pool(img))), [img]),
            "exp": (lambda: ad.tsum(ad.texp(x)), [x]),
            "log": (lambda: ad.tsum(ad.tlog(ad.add(ad.mul(x, x), 1.0))), [x]),
            "abs": (lambda: ad.tsum(ad.tabs(x)), [x]),
            "lse": (lambda: ad.tsum(ad.log_sum_exp_rows(x)), [x]),
            "pairwise": (lambda: ad.tsum(ad.pairwise_sq_dists(x, y)), [x, y]),
            "take": (lambda: ad.tsum(ad.take(x, [0, 5, 5, 11])), [x]),
            "concat": (lambda: ad.tsum(ad.mul(ad.concat_rows(x, y), ad.concat_rows(x, y))), [x, y]),
            "channel_bias": (lambda: ad.tsum(ad.mul(ad.add_channel_bias(img, bias), img)), [img, bias]),
            "transpose": (lambda: ad.tsum(matmul(ad.transpose(x), x)), [x]),
            "sum_axis": (lambda: ad.tsum(ad.mul(ad.tsum(x, axis=1), ad.tsum(x, axis=1))), [x]),
            "mean": (lambda: ad.tmean(ad.mul(x, x)), [x]),
            "add_bias": (lambda: ad.tsum(ad.mul(ad.add(x, bias), x)), [x, bias]),
            "reciprocal": (lambda: ad.reciprocal(ad.add(ad.tsum(ad.mul(x, x)), 1.0)), [x]),
        }
        f, params = fns[name]
        assert finite_difference_check(f, params, eps=1e-5) < FD_TOL

    def test_center_per_sample_passes_gradient_check(self):
        # exp keeps the upstream adjoint's per-sample mean away from zero, so
        # an adjoint that forgets to subtract it fails the check
        img = ad.parameter(rand((3, 2, 4, 5), 22))

        def f():
            return ad.tsum(ad.texp(ad.center_per_sample(img)))

        assert finite_difference_check(f, [img], eps=1e-5) < FD_TOL


class TestBroadcastPolicy:
    def test_row_bias_add_allowed(self):
        out = ad.add(Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_scalar_add_allowed(self):
        out = Tensor([[1.0, 2.0]]) + 1.5
        np.testing.assert_array_equal(out.data, [[2.5, 3.5]])

    def test_column_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))))

    def test_mismatched_mul_rejected(self):
        with pytest.raises(ShapeError):
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.parameter(rand((3, 4), 7))
        backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_loss_node_grad_is_one(self):
        x = ad.parameter(rand((3,), 8))
        loss = ad.tsum(x)
        backward(loss)
        np.testing.assert_array_equal(loss.grad, 1.0)

    def test_untracked_constant_rejected(self):
        with pytest.raises(ContractError):
            backward(Tensor(3.0))

    def test_non_scalar_rejected(self):
        x = ad.parameter(rand((3,), 9))
        with pytest.raises(ContractError):
            backward(ad.mul(x, 2.0))

    def test_leaf_without_record_rejected(self):
        x = ad.parameter(1.0)
        with pytest.raises(ContractError):
            backward(x)

    def test_repeated_backward_accumulates(self):
        x = ad.parameter(rand((4,), 10))
        loss = ad.tsum(ad.mul(x, x))
        backward(loss)
        once = x.grad.copy()
        backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * once, atol=0)

    def test_accumulation_is_linear(self):
        x = ad.parameter(rand((5,), 11))
        f = ad.tsum(ad.mul(x, x))
        g = ad.tsum(ad.texp(x))
        backward(ad.add(f, g))
        combined = x.grad.copy()
        x.zero_grad()
        backward(f)
        just_f = x.grad.copy()
        x.zero_grad()
        backward(g)
        just_g = x.grad.copy()
        np.testing.assert_allclose(combined, just_f + just_g, atol=1e-12)

    def test_grads_do_not_leak_across_graphs(self):
        x = ad.parameter(rand((3,), 12))
        backward(ad.tsum(ad.mul(x, x)))
        first = x.grad.copy()
        x.zero_grad()
        loss2 = ad.tsum(x)
        backward(loss2)
        np.testing.assert_array_equal(x.grad, np.ones(3))
        assert not np.array_equal(first, np.ones(3))

    def test_shared_parent_used_twice(self):
        x = ad.parameter([2.0])
        backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [4.0])

    def test_shared_adjoint_left_intact(self):
        # add hands one adjoint array to both parents and keeps it as its
        # own grad; summing the second parent's copy must not change it
        x = ad.parameter(rand((3,), 19))
        h = ad.mul(x, 1.5)
        y = ad.add(h, h)
        backward(ad.tsum(y))
        np.testing.assert_array_equal(y.grad, np.ones(3))
        np.testing.assert_array_equal(h.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))

    def test_intermediate_grad_accumulates_across_backward_calls(self):
        x = ad.parameter(rand((4,), 20))
        h = ad.mul(x, 2.0)
        assert h.grad is None
        loss = ad.tsum(ad.mul(h, h))
        backward(loss)
        first = h.grad
        np.testing.assert_array_equal(first, 2.0 * h.data)
        backward(loss)
        np.testing.assert_array_equal(h.grad, 4.0 * h.data)
        np.testing.assert_array_equal(first, 2.0 * h.data)

    def test_backward_from_intermediate_leaves_later_nodes_untouched(self):
        x = ad.parameter(rand((4,), 21))
        mid = ad.tsum(ad.mul(x, x))
        later = ad.mul(ad.texp(x), 3.0)
        after = ad.tsum(later)
        backward(mid)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)
        assert later.grad is None and after.grad is None

    def test_forward_deterministic(self):
        x = Tensor(rand((6, 6), 13))
        k = Tensor(rand((2, 1, 3, 3), 14))
        a = conv2d(Tensor(x.data[None, None]), k, 1).data
        b = conv2d(Tensor(x.data[None, None]), k, 1).data
        np.testing.assert_array_equal(a, b)


class TestTape:
    def test_records_accumulate_and_clear(self):
        tape = ad.active_tape()
        before = len(tape)
        x = ad.parameter([1.0])
        ad.mul(x, 2.0)
        assert len(tape) == before + 1
        tape.clear()
        assert len(tape) == 0

    def test_scoped_tape_restores_previous(self):
        outer = ad.active_tape()
        with ad.scoped_tape() as inner:
            assert ad.active_tape() is inner
            x = ad.parameter([1.0])
            backward(ad.tsum(ad.mul(x, x)))
        assert ad.active_tape() is outer

    def test_no_grad_disables_recording(self):
        with ad.scoped_tape() as tape:
            x = ad.parameter([1.0])
            with ad.no_grad():
                out = ad.mul(x, x)
            assert not out.requires_grad
            assert len(tape) == 0

    def test_untracked_ops_not_recorded(self):
        with ad.scoped_tape() as tape:
            ad.mul(Tensor([1.0]), Tensor([2.0]))
            assert len(tape) == 0


class TestTensorContract:
    def test_shape_matches_data_length(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.prod(t.shape) == t.data.size

    def test_grad_buffer_present_iff_tracked(self):
        assert ad.parameter([1.0]).grad is not None
        assert Tensor([1.0]).grad is None

    def test_grad_shape_matches(self):
        t = ad.parameter(np.zeros((2, 5)))
        assert t.grad.shape == t.data.shape


class TestFiniteDifferenceCheck:
    def test_quadratic_is_near_exact(self):
        x = ad.parameter(rand((6,), 15))
        err = finite_difference_check(lambda: ad.tsum(ad.mul(x, x)), [x], eps=1e-5)
        assert err < 1e-9

    def test_cross_entropy_of_linear_model(self):
        from msdalab.losses import cross_entropy

        w = ad.parameter(rand((3, 2), 16))
        inputs = Tensor(rand((8, 3), 17))
        labels = [0, 1, 0, 1, 1, 0, 1, 0]
        err = finite_difference_check(
            lambda: cross_entropy(matmul(inputs, w), labels), [w], eps=1e-5
        )
        assert err < 1e-6

    def test_zero_eps_rejected(self):
        x = ad.parameter([1.0])
        with pytest.raises(ContractError):
            finite_difference_check(lambda: ad.tsum(x), [x], eps=0.0)

    def test_composite_two_layer_net_objective(self):
        """Alignment + classification objective through a 2-layer net."""
        from msdalab.losses import (
            KernelConfig,
            LossWeights,
            class_discrepancy,
            coral_loss,
            cross_entropy,
            mmd_squared,
            total_loss,
        )

        rng = np.random.default_rng(18)
        w1 = ad.parameter(rng.uniform(-1, 1, (4, 6)))
        b1 = ad.parameter(rng.uniform(-1, 1, 6))
        w2 = ad.parameter(rng.uniform(-1, 1, (6, 3)))
        b2 = ad.parameter(rng.uniform(-1, 1, 3))
        w3 = ad.parameter(rng.uniform(-1, 1, (6, 3)))
        b3 = ad.parameter(rng.uniform(-1, 1, 3))
        xs = Tensor(rng.uniform(-1, 1, (7, 4)))
        xt = Tensor(rng.uniform(-1, 1, (5, 4)))
        labels = [0, 1, 2, 0, 1, 2, 0]
        cfg = KernelConfig()

        def hidden(x):
            return relu(ad.add(matmul(x, w1), b1))

        def f():
            hs, ht = hidden(xs), hidden(xt)
            logits_s = matmul(hs, w2) + b2
            cl = cross_entropy(logits_s, labels)
            fd = mmd_squared(hs, ht, cfg) + coral_loss(hs, ht)
            cd = class_discrepancy([softmax_rows(matmul(ht, w2) + b2), softmax_rows(matmul(ht, w3) + b3)])
            return total_loss(cl, fd, cd, LossWeights(lam=0.5, gamma=0.1))

        err = finite_difference_check(f, [w1, b1, w2, b2, w3, b3], eps=1e-5)
        assert err < 1e-4
