"""The weight Tensor, the forward ops on ndarrays and their kernels'
gradients, and the tape that records the TD(1) loss."""

import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import cban.dynamics
import cban.tensor
from cban.data import Example
from cban.dynamics import ArchSpec, LeakySigmoid, Tanh, WeightBundle, conv_layer, fban
from cban.tensor import (
    ConvKernel,
    GradTape,
    Tensor,
    _conv_half_np,
    _conv_weight_grad_np,
    avg_pool2,
    avg_pool2_adjoint,
    conv2d_half,
    matmul,
    reverse_kernel,
)
from cban.training import LOSS_KINDS, TrainConfig, _term_vjp, init_weights, td1_forward
from helpers import finite_difference, relative_error

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reversed_kernel(w):
    """The reversed kernel of an ndarray kernel, through reverse_kernel."""
    return reverse_kernel(ConvKernel(w)).weights


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_among_extremes(self, bad):
        # the check reads min and max: NaN must not hide between finite extremes
        arr = np.full(7, 1e308)
        arr[2] = bad
        with pytest.raises(ValueError, match=r"non-finite value at index \(2,\)"):
            Tensor(arr)
        arr[2] = -1e308
        Tensor(arr)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((0, 3)))

    def test_float64_storage(self):
        t = Tensor(np.arange(4, dtype=np.float32))
        assert t.data.dtype == np.float64

    def test_operation_producing_nan_raises(self):
        import warnings

        big = np.array([1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                matmul(big, np.array([[10.0]]))

    def test_error_names_offending_index(self):
        arr = np.zeros((2, 3))
        arr[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            Tensor(arr)


class TestConv2dHalf:
    def test_zero_input_gives_zero_output(self):
        k = ConvKernel(np.random.default_rng(0).normal(size=(1, 1, 3, 3)))
        out = conv2d_half(np.zeros((1, 3, 3)), k)
        np.testing.assert_array_equal(out, np.zeros((1, 3, 3)))

    def test_identity_kernel(self):
        x = np.arange(9, dtype=float).reshape(1, 3, 3)
        out = conv2d_half(x, ConvKernel(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out, x)

    def test_all_ones_kernel_sliding_sum(self):
        # hand-computed sliding-window sums with zero padding
        x = np.array([[[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]])
        out = conv2d_half(x, ConvKernel(np.ones((1, 1, 3, 3))))
        assert out[0, 1, 1] == 45.0
        assert out[0, 0, 0] == 12.0

    def test_channel_mismatch_raises(self):
        k = ConvKernel(np.ones((1, 2, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_half(np.zeros((1, 4, 4)), k)

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
            out = conv2d_half(x, ConvKernel(w))
        else:
            out, ref = conv2d_half(x[0], ConvKernel(w)), ref[0]
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
        out = conv2d_half(x if batched else x[0], ConvKernel(w))
        np.testing.assert_allclose(out.reshape(n, q, 2, 3), loop_conv(x, w),
                                   rtol=0, atol=1e-12)
        _, ref_gx, ref_gw = einsum_conv_maps(x, w, g)
        gx = _conv_half_np(g, reversed_kernel(w))
        np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_conv_weight_grad_np(x, g, 7, 7), ref_gw,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r,q,H,W,k", config_pair_shapes())
    def test_config_shapes_match_einsum(self, r, q, H, W, k):
        rng = np.random.default_rng(r * 1000 + q)
        x = rng.normal(size=(1, r, H, W))
        w = rng.normal(size=(q, r, k, k))
        g = rng.normal(size=(1, q, H, W))
        out = conv2d_half(x, ConvKernel(w))
        gx = _conv_half_np(g, reversed_kernel(w))
        ref, ref_gx, ref_gw = einsum_conv_maps(x, w, g)
        for new, want in ((out, ref), (gx, ref_gx),
                          (_conv_weight_grad_np(x, g, k, k), ref_gw)):
            assert relative_error(new, want) < 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2, 5, 6))
        k = ConvKernel(rng.normal(size=(3, 2, 3, 3)))
        batched = conv2d_half(x, k)
        for i in range(4):
            single = conv2d_half(x[i], k)
            np.testing.assert_allclose(batched[i], single, rtol=0, atol=1e-14)


class TestReverseKernel:
    def test_one_by_one_self_symmetric(self):
        k = ConvKernel(np.array([[[[2.5]]]]))
        np.testing.assert_array_equal(reverse_kernel(k).weights, [[[[2.5]]]])

    def test_corner_flip(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 0] = 1.0
        rev = reverse_kernel(ConvKernel(w)).weights
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 2, 2] = 1.0
        np.testing.assert_array_equal(rev, expected)

    def test_channel_transpose(self):
        k = ConvKernel(np.array([[[[3.0]]], [[[7.0]]]]))  # (2,1,1,1)
        rev = reverse_kernel(k)
        assert rev.shape == (1, 2, 1, 1)
        np.testing.assert_array_equal(rev.weights, [[[[3.0]], [[7.0]]]])

    @pytest.mark.parametrize("extent", [1, 3, 5])
    def test_involution(self, extent):
        rng = np.random.default_rng(extent)
        k = ConvKernel(rng.normal(size=(3, 2, extent, extent)))
        twice = reverse_kernel(reverse_kernel(k))
        np.testing.assert_array_equal(twice.weights, k.weights)

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
            lhs = float(np.sum(y * conv2d_half(x, k)))
            rhs = float(np.sum(x * conv2d_half(y, reverse_kernel(k))))
            assert relative_error(np.array(lhs), np.array(rhs)) < 1e-12


class TestDownWeightViews:
    """The downward weights are views of the forward ones: deriving copies nothing."""

    def test_reverse_kernel_shares_the_kernel(self):
        k = ConvKernel(np.random.default_rng(3).normal(size=(4, 2, 3, 3)))
        assert np.shares_memory(reverse_kernel(k).weights, k.weights)

    def test_transpose_shares_the_matrix(self, monkeypatch):
        # the down map of an fc pair multiplies by the forward matrix's transpose
        arch = fban(5, [3])
        w = init_weights(arch, seed=3)
        seen = []

        def recording(x, m):
            seen.append(m)
            return matmul(x, m)

        monkeypatch.setattr(cban.dynamics, "matmul", recording)
        cban.dynamics._down_map(np.ones(3), w, arch, 0)
        W = w.forward[0]
        assert np.shares_memory(seen[0], W)
        np.testing.assert_array_equal(seen[0], W.T)


class TestPooling:
    def test_constant_preserved(self):
        out = avg_pool2(np.full((2, 4, 4), 3.25))
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 3.25))

    def test_block_mean(self):
        out = avg_pool2(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out, [[[2.5]]])

    def test_random_block_mean(self):
        x = np.random.default_rng(5).normal(size=(3, 2, 6, 8))
        blocks = x.reshape(3, 2, 3, 2, 4, 2).mean(axis=(-3, -1))
        np.testing.assert_array_equal(avg_pool2(x), blocks)

    def test_zeros(self):
        out = avg_pool2(np.zeros((1, 6, 8)))
        np.testing.assert_array_equal(out, np.zeros((1, 3, 4)))

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="even"):
            avg_pool2(np.zeros((1, 3, 4)))

    def test_upsample_replicates(self):
        out = avg_pool2_adjoint(np.array([[[5.0]]]))
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 1.25))

    def test_upsample_quadrants(self):
        out = avg_pool2_adjoint(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_array_equal(out[0, :2, :2], np.full((2, 2), 0.25))
        np.testing.assert_array_equal(out[0, :2, 2:], np.full((2, 2), 0.5))
        np.testing.assert_array_equal(out[0, 2:, :2], np.full((2, 2), 0.75))
        np.testing.assert_array_equal(out[0, 2:, 2:], np.full((2, 2), 1.0))

    def test_pool_after_adjoint_is_a_quarter(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 5, 7))
        back = avg_pool2(avg_pool2_adjoint(x))
        np.testing.assert_allclose(back, 0.25 * x, rtol=0, atol=1e-15)

    def test_adjoint_is_exact_transpose(self):
        # <y, pool(x)> == <adjoint(y), x>, unbatched and batched
        rng = np.random.default_rng(4)
        for shape in ((2, 6, 4), (3, 2, 4, 6)):
            x = rng.normal(size=shape)
            y = rng.normal(size=shape[:-2] + (shape[-2] // 2, shape[-1] // 2))
            lhs = float(np.sum(y * avg_pool2(x)))
            rhs = float(np.sum(avg_pool2_adjoint(y) * x))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_adjoint_rejects_flat_input(self):
        with pytest.raises(ValueError, match="adjoint input"):
            avg_pool2_adjoint(np.zeros(4))


def test_every_public_op_is_used_outside_tensor():
    # an op that no other module of the package reads is dead surface
    used = set()
    for path in Path(cban.tensor.__file__).parent.glob("*.py"):
        if path.name != "tensor.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert [name for name in cban.tensor.__all__ if name not in used] == []


class TestElementwiseOps:
    def test_leaky_sigmoid_values(self):
        out = LeakySigmoid(0.2)(np.array([1.0, -1.0, 2.0, -3.0]))
        np.testing.assert_allclose(out, [1.0, -1.0, 1.2, -1.4], atol=1e-15)


def _td1_loss():
    """A recipe for one TD(1) loss on a tiny fc net: (forward, weights)."""
    arch = fban(3, [2])
    w = init_weights(arch, seed=0)
    examples = [Example(target=np.array([0.5, -0.5, 0.2]), mask=np.array([True, False, False]))]
    cfg = TrainConfig(epochs=1, loss="se", max_iters=2)
    return (lambda: td1_forward(examples, w, arch, cfg)[0]), w


def _td1_gradients(examples, w, arch, cfg):
    """td1_forward's gradient through a GradTape, and central differences
    of its loss, per block of w.flat: (grads, fd)."""
    with GradTape() as tape:
        loss, _ = td1_forward(examples, w, arch, cfg)
    (grad,) = tape.gradient(loss, w.params())
    fd = finite_difference(
        lambda a: td1_forward(examples, w.with_params([Tensor(a)]), arch, cfg)[0].item(),
        w.flat.data.copy())
    return w.blocks(grad), w.blocks(fd)


class TestGradTape:
    """The tape records the one op td1_forward makes and refuses misuse."""

    def test_gradient_is_one_vector_of_the_parameters_layout(self):
        forward, w = _td1_loss()
        grads = []
        for _ in range(2):
            with GradTape() as tape:
                loss = forward()
            grads.append(tape.gradient(loss, w.params()))
        assert [g.shape for g in grads[0]] == [w.flat.shape]
        assert grads[0][0].tobytes() == grads[1][0].tobytes()

    def test_value_not_on_tape_rejected(self):
        forward, w = _td1_loss()
        with GradTape() as tape:
            forward()
        with pytest.raises(ValueError, match="not recorded"):
            tape.gradient(Tensor(1.0), w.params())

    def test_output_from_other_tape_rejected(self):
        forward, w = _td1_loss()
        with GradTape():
            loss = forward()
        with GradTape() as t2:
            forward()
        with pytest.raises(ValueError, match="not recorded"):
            t2.gradient(loss, w.params())

    def test_tapes_do_not_nest(self):
        with GradTape():
            with pytest.raises(RuntimeError, match="already active"):
                with GradTape():
                    pass

    def test_no_tape_means_no_recording(self):
        forward, w = _td1_loss()
        loss = forward()
        with GradTape() as tape:
            pass
        with pytest.raises(ValueError, match="not recorded"):
            tape.gradient(loss, w.params())

    def test_a_tape_records_one_op(self):
        forward, _ = _td1_loss()
        with GradTape():
            forward()
            with pytest.raises(RuntimeError, match="records one op"):
                forward()

    def test_unreached_input_gets_zero_gradient(self):
        # in one sweep of a 3-2-2 net the top layer is updated after the
        # layer below it has fed v~, so the top pair and bias reach no loss
        arch = fban(3, [2, 2])
        w = init_weights(arch, seed=0)
        examples = [Example(target=np.array([0.5, -0.5, 0.2]),
                            mask=np.array([True, False, True]))]
        cfg = TrainConfig(epochs=1, loss="se", theta=1e-300, max_iters=1)
        grads, fd = _td1_gradients(examples, w, arch, cfg)
        for i in (1, 4):  # the pair (1, 2) and the bias of layer 2
            np.testing.assert_array_equal(grads[i], np.zeros(w.shapes[i]))
            np.testing.assert_array_equal(fd[i], 0.0)
        for i in (0, 2, 3):
            assert np.any(grads[i] != 0.0)
            assert relative_error(grads[i], fd[i]) < 1e-6

    def test_reuse_of_consumed_tape_rejected(self):
        t = GradTape()
        with t:
            pass
        with pytest.raises(RuntimeError, match="reused"):
            with t:
                pass

    def test_input_from_other_tape_rejected(self):
        forward, w = _td1_loss()
        with GradTape() as tape:
            loss = forward()
        with pytest.raises(ValueError, match="not recorded"):
            tape.gradient(loss, [Tensor(p.data) for p in w.params()])

    def test_gradient_can_be_taken_once(self):
        forward, w = _td1_loss()
        with GradTape() as tape:
            loss = forward()
        assert len(tape.gradient(loss, w.params())) == 1
        with pytest.raises(RuntimeError, match="only once"):
            tape.gradient(loss, w.params())


def _conv_gradcheck(x, w, loss, cotangent, tol=1e-6):
    """The gradients of loss(map(x, w)) against central differences, for a
    batched x: the input gradient is the map with the reversed kernel at the
    output gradient, the weight gradient _conv_weight_grad_np's;
    cotangent(y) is dloss/dy."""
    g = cotangent(_conv_half_np(x, w))
    gx = _conv_half_np(g, reversed_kernel(w))
    gw = _conv_weight_grad_np(x, g, w.shape[2], w.shape[3])
    fd_x = finite_difference(lambda a: loss(_conv_half_np(a, w)), x.copy())
    fd_w = finite_difference(lambda a: loss(_conv_half_np(x, a)), w.copy())
    assert relative_error(gx, fd_x) < tol
    assert relative_error(gw, fd_w) < tol


def _squares(y):
    return float(np.sum(y * y))


class TestGradientsAgainstFiniteDifferences:
    def test_conv_weight_gradient(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        _conv_gradcheck(x[None], w, _squares, lambda y: 2.0 * y)

    def test_conv_input_gradient_batched(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 1, 4, 4))
        w = rng.normal(size=(2, 1, 3, 3))
        _conv_gradcheck(x, w, lambda y: float(np.sum(y * 0.5)),
                        lambda y: np.full_like(y, 0.5))

    @pytest.mark.parametrize("extent", [3, 5])
    @pytest.mark.parametrize("q,r", [(2, 3), (3, 2)])
    def test_conv_gradients_both_branches(self, q, r, extent):
        rng = np.random.default_rng(20 + 3 * q + extent)
        x = rng.normal(size=(2, r, 4, 5))
        w = rng.normal(size=(q, r, extent, extent))
        _conv_gradcheck(x, w, _squares, lambda y: 2.0 * y)

    def test_reverse_kernel_composition(self):
        # the down map's weight gradient: the reversed kernel's gradient,
        # reversed back, and as dynamics._up_weight_grad takes it, the up
        # map's weight gradient with the input and the cotangent swapped
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        g = 2.0 * _conv_half_np(x, reversed_kernel(w))
        fd = finite_difference(lambda a: _squares(_conv_half_np(x, reversed_kernel(a))),
                               w.copy())
        gw = _conv_weight_grad_np(x, g, 3, 3)
        assert relative_error(reversed_kernel(gw), fd) < 1e-6
        assert relative_error(_conv_weight_grad_np(g, x, 3, 3), fd) < 1e-6

    def test_unrolled_loop_100_sweeps_differentiable(self):
        # the reverse sweep over 100 unrolled sweeps of a tiny net, its
        # coupling just below critical so that the state is still moving
        arch = fban(2, [1])
        w = WeightBundle.from_blocks([[[0.5], [0.98]], [0.0, 0.0], [0.01]])
        examples = [Example(target=np.array([0.0, -0.2]), mask=np.array([True, False]))]
        cfg = TrainConfig(epochs=1, loss="se", theta=1e-300, max_iters=100)
        _, reports = td1_forward(examples, w, arch, cfg)
        assert reports[0].t_star == 100 and not reports[0].converged
        for g, fd in zip(*_td1_gradients(examples, w, arch, cfg)):
            assert relative_error(g, fd) < 1e-6

    def test_pool_upsample_chain(self):
        # pooling P and its transpose S are each other's backward in
        # training._term_vjp: d<c, P(x)>/dx = S(c), d<c, S(x)>/dx = P(c),
        # and through a chain d<c, S(P(x))>/dx = S(P(c))
        rng = np.random.default_rng(13)
        for chain, shape, backward in (
                (avg_pool2, (2, 4, 4), avg_pool2_adjoint),
                (avg_pool2_adjoint, (2, 2, 2), avg_pool2),
                (lambda a: avg_pool2_adjoint(avg_pool2(a)), (2, 4, 4),
                 lambda c: avg_pool2_adjoint(avg_pool2(c))),
                (lambda a: avg_pool2(avg_pool2_adjoint(a)), (2, 2, 2),
                 lambda c: avg_pool2(avg_pool2_adjoint(c)))):
            x = rng.normal(size=shape)
            c = rng.normal(size=chain(x).shape)
            fd = finite_difference(lambda a: float(np.sum(chain(a) * c)), x)
            assert relative_error(backward(c), fd) < 1e-6

    def test_matmul_and_transpose(self):
        # each pair's up term and down term, differentiated by
        # training._term_vjp, in the input and the forward block: an fc
        # pair's matmul(x, W) and matmul(x, W.T), and conv pairs, unpooled
        # and pooled, with channels rising and falling, whose up term is
        # the conv of x (pooled first) and whose down term is the conv of x
        # with the reversed kernel (spread by pooling's transpose)
        rng = np.random.default_rng(14)

        def conv_pair(lo, hi, pooled):
            top = conv_layer(hi, *((2, 2) if pooled else (4, 4)), pool_before=pooled)
            arch = ArchSpec(layers=(conv_layer(lo, 4, 4, visible=True), top),
                            kernel_sizes=(3,))

            def up(x, a):
                return conv2d_half(avg_pool2(x) if pooled else x, ConvKernel(a))

            def down(x, a):
                y = conv2d_half(x, reverse_kernel(ConvKernel(a)))
                return avg_pool2_adjoint(y) if pooled else y

            return arch, up, down

        pairs = [(fban(3, [2]), matmul, lambda x, a: matmul(x, a.T))]
        pairs += [conv_pair(lo, hi, pooled)
                  for pooled in (False, True) for lo, hi in ((2, 3), (3, 2))]
        for arch, up, down in pairs:
            w = init_weights(arch, seed=0, conv_std=0.3)
            W = w.blocks(w.flat.data)[0]
            for reader, source, term in ((1, 0, up), (0, 1, down)):
                x = rng.normal(size=(2,) + arch.layers[source].shape)
                g = rng.normal(size=term(x, W).shape)
                grads = w.blocks(np.zeros(w.flat.shape))
                gx = _term_vjp(g, x, w, arch, reader, source, grads, need_input=True)
                fd_x = finite_difference(lambda a: float(np.sum(term(a, W) * g)), x.copy())
                fd_w = finite_difference(lambda a: float(np.sum(term(x, a) * g)), W.copy())
                assert relative_error(gx, fd_x) < 1e-6
                assert relative_error(grads[0], fd_w) < 1e-6
                assert not any(np.any(b) for b in grads[1:])

    def test_leaky_sigmoid_gradient(self):
        # d/dx sum(f(x) * x) = f'(x) x + f(x), f' read off f's output
        rng = np.random.default_rng(16)
        x = rng.uniform(-3.0, 3.0, size=(7,))
        x = x[np.abs(np.abs(x) - 1.0) > 1e-2]  # keep clear of the kinks
        kind = LeakySigmoid(0.2)
        y = kind(x)
        got = kind.slope(y) * x + y
        fd = finite_difference(lambda a: float(np.sum(kind(a) * a)), x.copy())
        assert relative_error(got, fd) < 1e-6

    def test_where(self):
        # clamping selects the evidence with where after every visible
        # update; the reverse sweep zeroes the clamped units' cotangent
        arch = fban(4, [3])
        w = init_weights(arch, seed=3)
        examples = [Example(target=np.array([0.6, -0.3, 0.1, -0.7]),
                            mask=np.array([True, False, True, False])),
                    Example(target=np.array([-0.2, 0.4, 0.5, 0.3]),
                            mask=np.array([False, True, False, False]))]
        for loss_kind in LOSS_KINDS:
            cfg = TrainConfig(epochs=1, loss=loss_kind, theta=1e-300, max_iters=3,
                              batch_size=2)
            for g, fd in zip(*_td1_gradients(examples, w, arch, cfg)):
                assert relative_error(g, fd) < 1e-6

    def test_random_compositions(self):
        # broad sweep across 20 random small fc nets: depth, activation,
        # evidence rule, loss and sweep count all drawn
        rng = np.random.default_rng(18)
        for trial in range(20):
            visible = int(rng.integers(2, 5))
            hidden = [int(h) for h in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
            kind = Tanh() if rng.random() < 0.5 else LeakySigmoid(0.3)
            evidence = "clamp" if rng.random() < 0.5 else "external_bias"
            arch = replace(fban(visible, hidden, kind), evidence=evidence)
            w = init_weights(arch, seed=int(rng.integers(1 << 30)))
            mask = np.zeros(visible, dtype=bool)
            mask[rng.permutation(visible)[:int(rng.integers(1, visible))]] = True
            examples = [Example(target=rng.uniform(-0.8, 0.8, size=visible), mask=mask)]
            cfg = TrainConfig(epochs=1, loss=str(rng.choice(LOSS_KINDS)), theta=1e-300,
                              max_iters=int(rng.integers(1, 4)))
            for i, (g, fd) in enumerate(zip(*_td1_gradients(examples, w, arch, cfg))):
                assert relative_error(g, fd) < 1e-4, f"trial {trial} block {i}"


class TestFusedActivation:
    """An activation kind called on a list of terms: one op over one buffer."""

    KINDS = {"tanh": Tanh(), "leaky": LeakySigmoid(0.3)}

    @staticmethod
    def _terms(rng, scale):
        # a lower and an upper map term, a per-channel bias, external evidence
        shape = (2, 3, 4, 4)
        return [rng.normal(scale=scale, size=shape), rng.normal(scale=scale, size=shape),
                rng.normal(scale=scale, size=(3, 1, 1)), rng.normal(scale=scale, size=shape)]

    @pytest.mark.parametrize("act", list(KINDS))
    def test_same_values_as_the_chain_of_ops(self, act):
        f = self.KINDS[act]
        a, b, bias, ev = self._terms(np.random.default_rng(40), 1.0)
        fused = f([a, b, bias, ev])
        assert fused.tobytes() == f(((a + b) + bias) + ev).tobytes()

    @pytest.mark.parametrize("act", list(KINDS))
    def test_gradient_against_finite_differences(self, act):
        # the slope the reverse sweep reads off the output
        kind = self.KINDS[act]
        rng = np.random.default_rng(42)
        terms = self._terms(rng, 0.7)
        z = ((terms[0] + terms[1]) + terms[2]) + terms[3]
        assert np.min(np.abs(np.abs(z) - 1.0)) > 1e-3  # clear of the leaky kinks
        weights = rng.normal(size=z.shape)
        got = kind.slope(kind(terms)) * weights
        fd = finite_difference(lambda a: float(np.sum(kind(a) * weights)), z.copy())
        assert relative_error(got, fd) < 1e-6

    @pytest.mark.parametrize("act", list(KINDS))
    def test_a_sum_that_overflows_fails_at_this_op(self, act):
        # tanh would saturate inf to 1.0: the sum is checked before activation
        big = np.array([0.0, 1e308])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"non-finite value at index \(1,\)"):
                self.KINDS[act]([big, big])

    @pytest.mark.parametrize("act", list(KINDS))
    def test_a_nan_term_fails_at_this_op(self, act):
        with pytest.raises(ValueError, match=r"non-finite value at index \(0, 2\)"):
            self.KINDS[act]([np.zeros((2, 3)), np.array([[0.0, 0.0, np.nan]] * 2)])

    @pytest.mark.parametrize("act", list(KINDS))
    def test_inputs_are_not_written(self, act):
        rng = np.random.default_rng(44)
        arrays = self._terms(rng, 2.0)
        terms = [a.copy() for a in arrays]
        self.KINDS[act](terms)
        self.KINDS[act](terms[0])
        for t, a in zip(terms, arrays):
            np.testing.assert_array_equal(t, a)

    @pytest.mark.parametrize("act", list(KINDS))
    def test_a_later_larger_term_widens_the_sum(self, act):
        f = self.KINDS[act]
        rng = np.random.default_rng(45)
        a, b = rng.normal(size=(3, 1, 1)), rng.normal(size=(1, 4, 1))
        c = rng.normal(size=(2, 3, 4, 4))
        fused = f([a, b, c])
        assert fused.shape == (2, 3, 4, 4) and fused.flags.c_contiguous
        assert fused.tobytes() == f((a + b) + c).tobytes()

    def test_two_scalar_terms(self):
        out = Tanh()([np.array(0.25), np.array(0.5)])
        assert out.shape == () and out == np.tanh(0.75)

    def test_one_term_broadcast_to_a_shape(self):
        # a read-only view, as a layer update's lone bias term is
        out = Tanh()([np.broadcast_to(np.array([0.5, -0.25]), (3, 2))])
        np.testing.assert_array_equal(out, np.tanh(np.tile([0.5, -0.25], (3, 1))))


class TestFinitenessPasses:
    """Ops that cannot make a non-finite value from finite inputs skip the
    check; every other op, and a Tensor's construction, keeps it."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = [0]
        real = cban.tensor._check_finite

        def counted(arr):
            count[0] += 1
            return real(arr)

        monkeypatch.setattr(cban.tensor, "_check_finite", counted)
        return count

    def test_views_and_spreads_skip_it(self, passes):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(2, 3, 4, 4))
        k = ConvKernel(rng.normal(size=(3, 2, 3, 3)))
        passes[0] = 0
        reverse_kernel(k)
        avg_pool2_adjoint(x)
        assert passes[0] == 0

    @pytest.mark.parametrize("act", list(TestFusedActivation.KINDS))
    def test_an_activation_checks_its_sum_once(self, act, passes):
        a = np.ones((2, 3))
        passes[0] = 0
        TestFusedActivation.KINDS[act](a)
        assert passes[0] == 1
        TestFusedActivation.KINDS[act]([a, a, np.zeros(3)])
        assert passes[0] == 2

    def test_other_ops_and_construction_keep_it(self, passes):
        k = ConvKernel(np.ones((3, 2, 3, 3)))
        x = np.ones((2, 4, 4))
        passes[0] = 0
        Tensor(x)
        assert passes[0] == 1
        matmul(np.ones(3), np.ones((3, 2)))  # two operands, one result
        avg_pool2(x)
        conv2d_half(x, k)
        assert passes[0] == 4
