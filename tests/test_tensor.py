"""Tensor arithmetic, structural maps, and gradient-tape correctness."""

import json
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cban.tensor import (
    ConvKernel,
    DomainError,
    GradTape,
    Tensor,
    atanh,
    avg_pool2,
    avg_pool2_adjoint,
    barrier_leaky,
    barrier_tanh,
    clip,
    conv2d_half,
    leaky_sigmoid,
    leaky_sigmoid_inverse,
    matmul,
    reverse_kernel,
    softplus,
    tanh,
    tensor_sum,
    transpose,
    where,
)
from helpers import finite_difference, relative_error, tape_gradients

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def loop_conv(x, w):
    """Half-padded convolution straight from its definition, (n, r, H, W) input."""
    n, r, H, W = x.shape
    q, _, ka, kb = w.shape
    pa, pb = (ka - 1) // 2, (kb - 1) // 2
    out = np.zeros((n, q, H, W))
    for i in range(H):
        for j in range(W):
            for a in range(ka):
                for b in range(kb):
                    ii, jj = i + a - pa, j + b - pb
                    if 0 <= ii < H and 0 <= jj < W:
                        out[:, :, i, j] += x[:, :, ii, jj] @ w[:, :, a, b].T
    return out


def einsum_conv_maps(x, w, g):
    """Forward, input gradient and weight gradient by einsum over windows."""
    ka, kb = w.shape[2], w.shape[3]

    def windows(a):
        pad = [(0, 0), (0, 0), ((ka - 1) // 2,) * 2, ((kb - 1) // 2,) * 2]
        return sliding_window_view(np.pad(a, pad), (ka, kb), axis=(2, 3))

    flipped = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    return (np.einsum("qruv,nrhwuv->nqhw", w, windows(x), optimize=True),
            np.einsum("qruv,nrhwuv->nqhw", flipped, windows(g), optimize=True),
            np.einsum("nqhw,nrhwuv->qruv", g, windows(x), optimize=True))


def config_pair_shapes():
    """(r, q, H, W, k) of every up and down map of the shipped conv configs."""
    shapes = set()
    for name in ("omniglot", "cifar10", "superres"):
        arch = json.loads((CONFIGS / f"{name}.json").read_text())["arch"]
        layers = arch["layers"]
        for lo, hi, k in zip(layers[:-1], layers[1:], arch["kernel_sizes"]):
            hw = (hi["height"], hi["width"])
            shapes.add((lo["channels"], hi["channels"]) + hw + (k,))
            shapes.add((hi["channels"], lo["channels"]) + hw + (k,))
    return sorted(shapes)


class TestTensorBasics:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((0, 3)))

    def test_float64_storage(self):
        t = Tensor(np.arange(4, dtype=np.float32))
        assert t.data.dtype == np.float64

    def test_operation_producing_nan_raises(self):
        import warnings

        big = Tensor([1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                big + big

    def test_error_names_offending_index(self):
        arr = np.zeros((2, 3))
        arr[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            Tensor(arr)


class TestConv2dHalf:
    def test_zero_input_gives_zero_output(self):
        k = ConvKernel(np.random.default_rng(0).normal(size=(1, 1, 3, 3)))
        out = conv2d_half(Tensor(np.zeros((1, 3, 3))), k)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 3)))

    def test_identity_kernel(self):
        x = np.arange(9, dtype=float).reshape(1, 3, 3)
        out = conv2d_half(Tensor(x), ConvKernel(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out.data, x)

    def test_all_ones_kernel_sliding_sum(self):
        # hand-computed sliding-window sums with zero padding
        x = np.array([[[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]])
        out = conv2d_half(Tensor(x), ConvKernel(np.ones((1, 1, 3, 3))))
        assert out.data[0, 1, 1] == 45.0
        assert out.data[0, 0, 0] == 12.0

    def test_channel_mismatch_raises(self):
        k = ConvKernel(np.ones((1, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_half(Tensor(np.zeros((1, 4, 4))), k)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ConvKernel(np.ones((1, 1, 2, 3)))

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("extent", [(1, 1), (3, 3), (5, 5), (3, 5)])
    @pytest.mark.parametrize("q,r", [(2, 3), (3, 3), (4, 2)])
    def test_matches_direct_loop(self, q, r, extent, batched):
        rng = np.random.default_rng(q * 10 + r + extent[1])
        x = rng.normal(size=(3, r, 5, 7))
        w = rng.normal(size=(q, r) + extent)
        ref = loop_conv(x, w)
        if batched:
            out = conv2d_half(Tensor(x), ConvKernel(w)).data
        else:
            out, ref = conv2d_half(Tensor(x[0]), ConvKernel(w)).data, ref[0]
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("q,r", [(2, 3), (3, 2)])
    def test_kernel_wider_than_map(self, q, r, batched):
        # a 7x7 kernel on a 2x3 map: the outer taps read only padding
        rng = np.random.default_rng(40 + q)
        n = 2 if batched else 1
        x = rng.normal(size=(n, r, 2, 3))
        w = rng.normal(size=(q, r, 7, 7))
        g = rng.normal(size=(n, q, 2, 3))
        xt, kt = Tensor(x if batched else x[0]), ConvKernel(w)
        with GradTape() as tape:
            out = conv2d_half(xt, kt)
            loss = tensor_sum(out * Tensor(g if batched else g[0]))
        gx, gw = tape.gradient(loss, [xt, kt])
        np.testing.assert_allclose(out.data.reshape(n, q, 2, 3), loop_conv(x, w),
                                   rtol=0, atol=1e-12)
        _, ref_gx, ref_gw = einsum_conv_maps(x, w, g)
        np.testing.assert_allclose(gx.reshape(n, r, 2, 3), ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gw, ref_gw, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r,q,H,W,k", config_pair_shapes())
    def test_config_shapes_match_einsum(self, r, q, H, W, k):
        rng = np.random.default_rng(r * 1000 + q)
        x = rng.normal(size=(1, r, H, W))
        w = rng.normal(size=(q, r, k, k))
        g = rng.normal(size=(1, q, H, W))
        xt, kt = Tensor(x), ConvKernel(w)
        with GradTape() as tape:
            out = conv2d_half(xt, kt)
            loss = tensor_sum(out * Tensor(g))
        gx, gw = tape.gradient(loss, [xt, kt])
        for new, ref in zip((out.data, gx, gw), einsum_conv_maps(x, w, g)):
            assert relative_error(new, ref) < 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2, 5, 6))
        k = ConvKernel(rng.normal(size=(3, 2, 3, 3)))
        batched = conv2d_half(Tensor(x), k).data
        for i in range(4):
            single = conv2d_half(Tensor(x[i]), k).data
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-14)


class TestReverseKernel:
    def test_one_by_one_self_symmetric(self):
        k = ConvKernel(np.array([[[[2.5]]]]))
        np.testing.assert_array_equal(reverse_kernel(k).weights.data, [[[[2.5]]]])

    def test_corner_flip(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 0] = 1.0
        rev = reverse_kernel(ConvKernel(w)).weights.data
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 2, 2] = 1.0
        np.testing.assert_array_equal(rev, expected)

    def test_channel_transpose(self):
        k = ConvKernel(np.array([[[[3.0]]], [[[7.0]]]]))  # (2,1,1,1)
        rev = reverse_kernel(k)
        assert rev.shape == (1, 2, 1, 1)
        np.testing.assert_array_equal(rev.weights.data, [[[[3.0]], [[7.0]]]])

    @pytest.mark.parametrize("extent", [1, 3, 5])
    def test_involution(self, extent):
        rng = np.random.default_rng(extent)
        k = ConvKernel(rng.normal(size=(3, 2, extent, extent)))
        twice = reverse_kernel(reverse_kernel(k))
        np.testing.assert_array_equal(twice.weights.data, k.weights.data)

    def test_transpose_identity(self):
        # <y, conv(x, k)> == <x, conv(y, reverse(k))>: the testable content
        # of convolutional weight symmetry
        rng = np.random.default_rng(7)
        for _ in range(20):
            c1, c2 = rng.integers(1, 4, size=2)
            H, W = rng.integers(3, 9, size=2)
            ext = int(rng.choice([1, 3, 5]))
            x = rng.normal(size=(c1, H, W))
            y = rng.normal(size=(c2, H, W))
            k = ConvKernel(rng.normal(size=(c2, c1, ext, ext)))
            lhs = float(np.sum(y * conv2d_half(Tensor(x), k).data))
            rhs = float(np.sum(x * conv2d_half(Tensor(y), reverse_kernel(k)).data))
            assert relative_error(np.array(lhs), np.array(rhs)) < 1e-12


class TestPooling:
    def test_constant_preserved(self):
        out = avg_pool2(Tensor(np.full((2, 4, 4), 3.25)))
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 3.25))

    def test_block_mean(self):
        out = avg_pool2(Tensor([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out.data, [[[2.5]]])

    def test_random_block_mean(self):
        x = np.random.default_rng(5).normal(size=(3, 2, 6, 8))
        blocks = x.reshape(3, 2, 3, 2, 4, 2).mean(axis=(-3, -1))
        np.testing.assert_array_equal(avg_pool2(Tensor(x)).data, blocks)

    def test_zeros(self):
        out = avg_pool2(Tensor(np.zeros((1, 6, 8))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 4)))

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="even"):
            avg_pool2(Tensor(np.zeros((1, 3, 4))))

    def test_upsample_replicates(self):
        out = avg_pool2_adjoint(Tensor([[[5.0]]]))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2), 1.25))

    def test_upsample_quadrants(self):
        out = avg_pool2_adjoint(Tensor([[[1.0, 2.0], [3.0, 4.0]]])).data
        np.testing.assert_array_equal(out[0, :2, :2], np.full((2, 2), 0.25))
        np.testing.assert_array_equal(out[0, :2, 2:], np.full((2, 2), 0.5))
        np.testing.assert_array_equal(out[0, 2:, :2], np.full((2, 2), 0.75))
        np.testing.assert_array_equal(out[0, 2:, 2:], np.full((2, 2), 1.0))

    def test_pool_after_adjoint_is_a_quarter(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 5, 7))
        back = avg_pool2(avg_pool2_adjoint(Tensor(x)))
        np.testing.assert_allclose(back.data, 0.25 * x, rtol=0, atol=1e-15)

    def test_adjoint_is_exact_transpose(self):
        # <y, pool(x)> == <adjoint(y), x>, unbatched and batched
        rng = np.random.default_rng(4)
        for shape in ((2, 6, 4), (3, 2, 4, 6)):
            x = rng.normal(size=shape)
            y = rng.normal(size=shape[:-2] + (shape[-2] // 2, shape[-1] // 2))
            lhs = float(np.sum(y * avg_pool2(Tensor(x)).data))
            rhs = float(np.sum(avg_pool2_adjoint(Tensor(y)).data * x))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_adjoint_rejects_flat_input(self):
        with pytest.raises(ValueError, match="adjoint input"):
            avg_pool2_adjoint(Tensor(np.zeros(4)))


class TestElementwiseOps:
    def test_leaky_sigmoid_values(self):
        out = leaky_sigmoid(Tensor([1.0, -1.0, 2.0, -3.0]), alpha=0.2)
        np.testing.assert_allclose(out.data, [1.0, -1.0, 1.2, -1.4], atol=1e-15)

    def test_leaky_inverse_values(self):
        out = leaky_sigmoid_inverse(Tensor([1.2]), alpha=0.2)
        np.testing.assert_allclose(out.data, [2.0], atol=1e-12)

    def test_atanh_domain_error_names_index(self):
        with pytest.raises(DomainError, match=r"\(1,\)"):
            atanh(Tensor([0.5, 1.0]))

    def test_barrier_tanh_value(self):
        got = barrier_tanh(Tensor([0.5])).data[0]
        expected = 0.5 * 1.5 * np.log(1.5) + 0.5 * 0.5 * np.log(0.5)
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.130812) < 1e-6

    def test_barrier_endpoints_finite(self):
        out = barrier_tanh(Tensor([1.0, -1.0, 0.0]))
        np.testing.assert_allclose(out.data, [np.log(2.0), np.log(2.0), 0.0])

    def test_barrier_leaky_quadratic_inside(self):
        out = barrier_leaky(Tensor([1.0, 0.0, -0.5]), alpha=0.2)
        np.testing.assert_allclose(out.data, [0.5, 0.0, 0.125], atol=1e-15)

    def test_barrier_leaky_continuous_at_kinks(self):
        eps = 1e-9
        for alpha in (0.1, 0.2, 0.7):
            lo = barrier_leaky(Tensor([1.0 - eps]), alpha).data[0]
            hi = barrier_leaky(Tensor([1.0 + eps]), alpha).data[0]
            assert abs(hi - lo) < 1e-7

    def test_softplus_values(self):
        out = softplus(Tensor([0.0, 100.0, -40.0]))
        assert abs(out.data[0] - np.log(2.0)) < 1e-15
        assert out.data[1] == 100.0
        assert out.data[2] < 1e-17


class TestGradTape:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        with GradTape() as tape:
            out = tensor_sum(x)
        (g,) = tape.gradient(out, [x])
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_product_gradient(self):
        x = Tensor([2.0])
        with GradTape() as tape:
            out = tensor_sum(x * x)
        (g,) = tape.gradient(out, [x])
        np.testing.assert_allclose(g, [4.0])

    def test_non_scalar_output_rejected(self):
        x = Tensor([1.0, 2.0])
        with GradTape() as tape:
            y = x * 2.0
        with pytest.raises(ValueError, match="scalar"):
            tape.gradient(y, [x])

    def test_value_not_on_tape_rejected(self):
        x = Tensor([1.0])
        z = Tensor([1.0])
        with GradTape() as tape:
            y = tensor_sum(x * 3.0)
        with pytest.raises(ValueError, match="not recorded"):
            tape.gradient(y, [z])

    def test_output_from_other_tape_rejected(self):
        x = Tensor([1.0])
        with GradTape() as t1:
            y = tensor_sum(x)
        with GradTape() as t2:
            tensor_sum(x)
        with pytest.raises(ValueError, match="not recorded"):
            t2.gradient(y, [x])

    def test_tapes_do_not_nest(self):
        with GradTape():
            with pytest.raises(RuntimeError, match="already active"):
                with GradTape():
                    pass

    def test_no_tape_means_no_recording(self):
        x = Tensor([1.0])
        y = x + 1.0
        assert y._node is None

    def test_reuse_of_consumed_tape_rejected(self):
        t = GradTape()
        with t:
            pass
        with pytest.raises(RuntimeError, match="reused"):
            with t:
                pass

    def test_input_from_other_tape_rejected(self):
        x = Tensor([1.0])
        with GradTape():
            y = x * 2.0
        with GradTape() as tape:
            out = tensor_sum(x * 3.0)
        with pytest.raises(ValueError, match="not recorded"):
            tape.gradient(out, [y])

    def test_gradient_can_be_taken_once(self):
        x = Tensor([2.0])
        with GradTape() as tape:
            out = tensor_sum(x * x)
        (g,) = tape.gradient(out, [x])
        np.testing.assert_allclose(g, [4.0])
        with pytest.raises(RuntimeError, match="only once"):
            tape.gradient(out, [x])

    def test_intermediate_read_only_by_add_is_freed(self):
        # add keeps its operands' shapes, so nothing holds the product's array
        x = Tensor([1.0, 2.0])
        with GradTape() as tape:
            prod = x * 3.0
            freed = weakref.ref(prod.data)
            out = tensor_sum(prod + 1.0)
            del prod
        assert freed() is None
        (g,) = tape.gradient(out, [x])
        np.testing.assert_allclose(g, [3.0, 3.0])

    def test_unreached_input_gets_zero_gradient(self):
        x = Tensor([1.0])
        w = Tensor([5.0])
        with GradTape() as tape:
            lhs = tensor_sum(x * 2.0)
            tensor_sum(w * 1.0)  # recorded but not feeding lhs
        gx, gw = tape.gradient(lhs, [x, w])
        np.testing.assert_allclose(gx, [2.0])
        np.testing.assert_allclose(gw, [0.0])


def _gradcheck(build, arrays, step=1e-5, tol=1e-6):
    """Compare tape gradients against central differences for each input."""
    tensors = [Tensor(a) for a in arrays]
    _, grads = tape_gradients(lambda *ts: build(*ts), tensors)
    for i, a in enumerate(arrays):
        def scalar(x, i=i):
            vals = [arr.copy() for arr in arrays]
            vals[i] = x
            return build(*[Tensor(v) for v in vals]).item()

        fd = finite_difference(scalar, a.copy(), step=step)
        assert relative_error(grads[i], fd) < tol, f"input {i}"


class TestGradientsAgainstFiniteDifferences:
    def test_conv_weight_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        _gradcheck(
            lambda xt, wt: tensor_sum(conv2d_half(xt, ConvKernel(wt))
                                      * conv2d_half(xt, ConvKernel(wt))),
            [x, w],
        )

    def test_conv_input_gradient_batched(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        _gradcheck(
            lambda xt, wt: tensor_sum(conv2d_half(xt, ConvKernel(wt)) * 0.5),
            [x, w],
        )

    @pytest.mark.parametrize("extent", [3, 5])
    @pytest.mark.parametrize("q,r", [(2, 3), (3, 2)])
    def test_conv_gradients_both_branches(self, q, r, extent):
        rng = np.random.default_rng(20 + 3 * q + extent)
        x = rng.normal(size=(2, r, 4, 5))
        w = rng.normal(size=(q, r, extent, extent))

        def build(xt, wt):
            y = conv2d_half(xt, ConvKernel(wt))
            return tensor_sum(y * y)

        _gradcheck(build, [x, w])

    def test_reverse_kernel_composition(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))

        def build(xt, wt):
            k = ConvKernel(wt)
            down = conv2d_half(xt, reverse_kernel(k))
            return tensor_sum(down * down)

        _gradcheck(build, [x, w])

    def test_pool_upsample_chain(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 4, 4))
        _gradcheck(
            lambda xt: tensor_sum(avg_pool2_adjoint(avg_pool2(xt))
                                  * avg_pool2(avg_pool2_adjoint(xt)).sum()),
            [x],
        )

    def test_matmul_and_transpose(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3,))
        w = rng.normal(size=(3, 2))
        _gradcheck(
            lambda xt, wt: tensor_sum(tanh(matmul(xt, wt)) * matmul(xt, wt)),
            [x, w],
        )
        _gradcheck(
            lambda wt: tensor_sum(matmul(Tensor([1.0, -1.0]), transpose(wt))),
            [rng.normal(size=(3, 2))],
        )

    def test_elementwise_chain(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-0.9, 0.9, size=(5,))
        _gradcheck(
            lambda xt: tensor_sum(barrier_tanh(xt) + atanh(xt) * 0.1 - tanh(xt)),
            [x],
        )

    def test_leaky_ops_gradient(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-3.0, 3.0, size=(7,))
        x = x[np.abs(np.abs(x) - 1.0) > 1e-2]  # keep clear of the kinks
        _gradcheck(
            lambda xt: tensor_sum(
                leaky_sigmoid(xt, 0.2) * leaky_sigmoid_inverse(xt, 0.2)
                + barrier_leaky(xt, 0.2)
            ),
            [x],
        )

    def test_softplus_clip_where(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(6,))
        mask = np.array([True, False, True, False, True, False])
        _gradcheck(
            lambda xt: tensor_sum(
                softplus(xt) + clip(xt, -0.5, 0.5) + where(mask, xt * 2.0, xt * -1.0)
            ),
            [x],
        )

    def test_unrolled_loop_100_sweeps_differentiable(self):
        # graphs from long unrolled iterations must stay differentiable
        w = Tensor([[0.05]])
        x0 = np.array([0.3])
        with GradTape() as tape:
            x = Tensor(x0)
            for _ in range(100):
                x = tanh(matmul(x, w))
            out = tensor_sum(x)
        (gw,) = tape.gradient(out, [w])

        def scalar(wv):
            x = Tensor(x0)
            for _ in range(100):
                x = tanh(matmul(x, Tensor(wv)))
            return tensor_sum(x).item()

        fd = finite_difference(scalar, np.array([[0.05]]))
        assert relative_error(gw, fd) < 1e-6

    def test_random_compositions(self):
        # broad sweep across >= 20 random small instances
        rng = np.random.default_rng(18)
        for trial in range(20):
            x = rng.uniform(-0.8, 0.8, size=(2, rng.integers(2, 5)))
            w = rng.normal(size=(x.shape[1], 3), scale=0.5)
            _gradcheck(
                lambda xt, wt: tensor_sum(tanh(matmul(xt, wt))
                                          + softplus(matmul(xt, wt))),
                [x, w],
                tol=1e-4,
            )
