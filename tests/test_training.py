"""Losses, TD(1) unrolling, optimizers, initialization."""

import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cban.dynamics
from cban.config import load_run_config
from cban.tensor import GradTape, Tensor
from cban.dynamics import (
    ArchSpec,
    EvidenceConstraint,
    LeakySigmoid,
    NetState,
    Tanh,
    WeightBundle,
    barrier,
    conv_layer,
    energy,
    fban,
    initial_state,
    inverse_activation,
    settle,
    update_layer,
)
from cban.training import (
    _TANH_CLIP,
    TrainConfig,
    _loss,
    _sigmoid,
    _softplus,
    complete,
    init_opt_state,
    init_weights,
    optimizer_step,
    td1_forward,
    train,
    unclamped_visible,
)
from cban.data import BarTask, Example
from helpers import (
    cban_c_calls,
    finite_difference,
    loss_per_item,
    numpy_calls,
    relative_error,
    tensors_made,
    traced_bytes,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def loss_of(loss_kind, v_tilde, y, act_kind=Tanh()):
    """The loss of one item, through the batched per-item loss."""
    out = loss_per_item(loss_kind, act_kind, np.asarray(v_tilde, dtype=float)[None],
                        np.asarray(y, dtype=float)[None])
    assert out.shape == (1,)
    return out[0]


class TestUnclampedVisible:
    def test_zero_everything_gives_zero(self):
        arch = fban(3, [2])
        w = WeightBundle.from_blocks([np.zeros((3, 2)), np.zeros(3), np.zeros(2)])
        state = NetState([np.zeros(3), np.zeros(2)])
        np.testing.assert_array_equal(unclamped_visible(state, w, arch),
                                      np.zeros(3))

    def test_closed_form_single_weight(self):
        arch = fban(1, [1])
        w = WeightBundle.from_blocks([[[2.0]], [0.0], [0.0]])
        state = NetState([np.array([0.0]), np.array([0.5])])
        got = unclamped_visible(state, w, arch)[0]
        assert abs(got - np.tanh(1.0)) < 1e-15

    def test_matches_update_when_nothing_clamped(self):
        rng = np.random.default_rng(0)
        arch = fban(5, [4])
        w = WeightBundle.from_blocks([rng.normal(scale=0.5, size=(5, 4)), rng.normal(size=5),
                                      np.zeros(4)])
        state = NetState([rng.uniform(-0.5, 0.5, 5), rng.uniform(-0.9, 0.9, 4)])
        via_update = update_layer(state, w, arch, 0).activations[0]
        np.testing.assert_allclose(unclamped_visible(state, w, arch), via_update)


class TestLossSE:
    def test_zero_when_equal(self):
        v = np.array([0.1, -0.4])
        assert loss_of("se", v, v) == 0.0

    def test_hand_value(self):
        got = loss_of("se", np.zeros(2), np.array([0.6, -0.8]))
        assert abs(got - 1.0) < 1e-15

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        v, y = rng.normal(size=12), rng.normal(size=12)
        p = rng.permutation(12)
        assert abs(loss_of("se", v, y) - loss_of("se", v[p], y[p])) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_of("se", np.zeros(3), np.zeros(4))


class TestLossDeltaE:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(-0.9, 0.9, size=8)
        assert abs(loss_of("delta_e", y, y)) < 1e-12
        v = y + 0.05
        assert loss_of("delta_e", v, y) > 1e-9

    def test_single_unit_value(self):
        got = loss_of("delta_e", [0.0], [0.5])
        rho_half = 0.5 * 1.5 * np.log(1.5) + 0.5 * 0.5 * np.log(0.5)
        assert abs(got - rho_half) < 1e-12
        assert abs(got - 0.130812) < 1e-6

    def test_equals_energy_difference(self):
        # oracle: two full energy evaluations on the matched states
        rng = np.random.default_rng(3)
        for _ in range(25):
            depth = int(rng.integers(1, 3))
            sizes = [int(s) for s in rng.integers(2, 9, size=depth + 1)]
            arch = fban(sizes[0], sizes[1:])
            w = init_weights(arch, seed=int(rng.integers(1 << 30)))
            w = WeightBundle.from_blocks([t * 20.0 for t in w.forward]
                                         + [rng.normal(scale=0.3, size=t.shape) for t in w.biases])
            hidden = [rng.uniform(-0.9, 0.9, size=(s,)) for s in sizes[1:]]
            y = rng.uniform(-0.9, 0.9, size=sizes[0])
            state = NetState([np.zeros(sizes[0])] + hidden)
            v_tilde = unclamped_visible(state, w, arch)
            gap = loss_of("delta_e", v_tilde, y)
            clamped = NetState([y] + hidden)
            unclamped = NetState([v_tilde] + hidden)
            oracle = energy(clamped, w, arch) - energy(unclamped, w, arch)
            assert abs(gap - oracle) < 1e-10

    def test_leaky_variant_matches_energy_difference(self):
        rng = np.random.default_rng(4)
        kind = LeakySigmoid(0.2)
        arch = fban(5, [4], activation_kind=kind)
        w = init_weights(arch, seed=7)
        hidden = [rng.uniform(-1.5, 1.5, size=4)]
        y = rng.uniform(-1.2, 1.2, size=5)
        state = NetState([np.zeros(5)] + hidden)
        v_tilde = unclamped_visible(state, w, arch)
        gap = loss_of("delta_e", v_tilde, y, kind)
        oracle = (energy(NetState([y] + hidden), w, arch)
                  - energy(NetState([v_tilde] + hidden), w, arch))
        assert abs(gap - oracle) < 1e-10

    def test_saturated_v_tilde_stays_finite(self):
        y = np.array([0.5])
        v = np.array([1.0 - 1e-17])  # rounds to 1.0
        val = loss_of("delta_e", v, y)
        assert np.isfinite(val)


class TestLossDeltaEPlus:
    def test_softplus_at_zero(self):
        y = np.array([0.3, -0.3])
        got = loss_of("delta_e_plus", y, y)
        assert abs(got - np.log(2.0)) < 1e-12

    def test_large_gap_asymptote(self):
        # engineered gap of about 100 returns the gap itself
        gap = loss_of("delta_e", [0.999999], [-0.999])
        plus = loss_of("delta_e_plus", [0.999999], [-0.999])
        if gap > 30:
            assert plus == gap
        assert abs(plus - np.logaddexp(0.0, gap)) < 1e-10

    def test_matches_softplus_of_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.uniform(-0.95, 0.95, size=6)
            y = rng.uniform(-0.95, 0.95, size=6)
            gap = loss_of("delta_e", v, y)
            plus = loss_of("delta_e_plus", v, y)
            assert abs(plus - np.logaddexp(0.0, gap)) < 1e-12

    def test_softplus_values(self):
        # log 2 at 0, the identity past 30, and a hinge that goes to 0 as
        # the gap goes to -inf
        from cban.training import _softplus

        out = _softplus(np.array([0.0, 100.0, -40.0]))
        assert abs(out[0] - np.log(2.0)) < 1e-15
        assert out[1] == 100.0
        assert out[2] < 1e-17

    def test_gap_is_never_negative(self):
        # the gap is the Bregman divergence of the barrier, so clamping the
        # visible units at the target can only raise the energy
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.uniform(-0.999, 0.999, size=4)
            y = rng.uniform(-0.999, 0.999, size=4)
            assert loss_of("delta_e", v, y) >= 0.0


class TestLossGradient:
    """_loss hands back a closed-form vjp of its per-item losses."""

    KINDS = {"tanh": Tanh(), "leaky": LeakySigmoid(0.2)}
    # per item: inside the clip, beyond +/-_TANH_CLIP, beyond +/-1 (leaky)
    V = np.array([[0.3, -0.7, 1.5, -1.2, 0.9],
                  [-0.2, 0.6, 2.3, -1.7, 0.05]])
    Y = np.array([[0.5, -0.1, 0.8, 0.4, -0.6],
                  [0.1, -0.9, 0.3, -0.5, 0.7]])
    C = np.array([0.7, -1.3])  # distinct per-item cotangents

    def _grad(self, loss_kind, kind, v):
        barrier_y = None if loss_kind == "se" else barrier(kind, self.Y)
        return _loss(loss_kind, kind, v, self.Y, barrier_y)[1](self.C)

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    @pytest.mark.parametrize("act", ["tanh", "leaky"])
    def test_matches_finite_differences(self, loss_kind, act):
        kind = self.KINDS[act]

        def scalar(v):
            return float(np.sum(loss_per_item(loss_kind, kind, v, self.Y) * self.C))

        g = self._grad(loss_kind, kind, self.V)
        assert relative_error(g, finite_difference(scalar, self.V.copy())) < 1e-7
        if loss_kind != "se" and act == "tanh":
            # the clip holds v~ beyond +/-_TANH_CLIP fixed: exactly no gradient
            assert np.all(g[:, 2:4] == 0.0)
            assert np.all(g[:, [0, 1, 4]] != 0.0)

    def test_se_gradient_is_twice_the_difference(self):
        g = self._grad("se", Tanh(), self.V)
        np.testing.assert_array_equal(g, 2.0 * (self.C[:, None] * (self.V - self.Y)))

    def test_leaky_slope_at_the_kink_is_the_inner_one(self):
        # at |v~| = 1 the inverse's slope is 1, not 1/alpha
        v = self.V.copy()
        v[:, 2:4] = [[1.0, -1.0], [-1.0, 1.0]]
        g = self._grad("delta_e", LeakySigmoid(0.2), v)
        np.testing.assert_allclose(g[:, 2:4], self.C[:, None] * (v - self.Y)[:, 2:4],
                                   rtol=1e-15)

    def test_a_bar_sweep_makes_at_most_5_ops(self, monkeypatch):
        # counts the calls of cban.tensor's public ops through the package's
        # bindings to them, and the calls of the activation kinds: 5 per
        # sweep, two maps and three activations, when this bound was set; 6
        # per sweep, with the clamp's select, when the ops still made
        # tensors. What the tape records is
        # test_records_one_tape_op_whose_parents_are_the_weights's concern
        import cban.tensor

        count = [0, 0]  # ops, and of them activations

        def counted(op, activation=False):
            def counting(*args, **kwargs):
                count[0] += 1
                count[1] += activation
                return op(*args, **kwargs)

            return counting

        for name in cban.tensor.__all__:
            op = getattr(cban.tensor, name)
            if not inspect.isfunction(op):
                continue  # a class
            for module in [m for n, m in sys.modules.items() if n.startswith("cban.")]:
                if getattr(module, name, None) is op:
                    monkeypatch.setattr(module, name, counted(op))
        for kind in (Tanh, LeakySigmoid):
            monkeypatch.setattr(kind, "__call__", counted(kind.__call__, activation=True))
        cfg = load_run_config(CONFIGS / "bar.json")
        w = init_weights(cfg.arch, seed=0)
        examples = BarTask().epoch_examples(np.random.default_rng(0))
        ops = []
        for sweeps in (2, 3):
            count[:] = [0, 0]
            with GradTape():
                td1_forward(examples, w, cfg.arch,
                            replace(cfg.train, max_iters=sweeps, theta=1e-300))
            ops.append(list(count))
        assert ops[1][0] - ops[0][0] <= 5
        # the count sees the three activations: layer 1, v~ and the visible layer
        assert ops[1][1] - ops[0][1] == 3

    @staticmethod
    def _bar_step():
        """A warm TD(1) step on the shipped bar config at three sweeps: the
        first step fills caches, so the returned step is the second."""
        cfg = load_run_config(CONFIGS / "bar.json")
        w = init_weights(cfg.arch, seed=0)
        examples = BarTask().epoch_examples(np.random.default_rng(0))
        train_cfg = replace(cfg.train, max_iters=3, theta=1e-300)

        def step():
            with GradTape() as tape:
                loss, _ = td1_forward(examples, w, cfg.arch, train_cfg)
            return tape.gradient(loss, w.params())

        step()
        return step

    def test_a_bar_step_makes_no_more_c_calls_from_cban(self):
        # 296 at three sweeps since the backward takes each pair term's
        # input cotangent through the pair's own map (_down_map or _up_map:
        # its block test and matmul's finiteness check), 271 when this
        # bound was set, 300 while the
        # activations' maths sat in functions that tested the kind with
        # isinstance, 304 while the weights were one Tensor per block, 381
        # while a PairTerms looked up which pair terms to hold, 456 while
        # layer states were tensors (under an earlier bound of 532), 543
        # before _loss called the unchecked kernels and np.add made the
        # activation sum's buffer. The count sees builtins, numpy functions such as
        # np.asarray and array methods called from cban's lines, but no
        # ufunc call or arithmetic operator (see helpers.cban_c_calls);
        # test_a_bar_step_makes_no_more_numpy_calls_from_cban counts those
        # ufuncs. A change that adds calls it sees has to raise the bound
        # on purpose.
        _, calls = cban_c_calls(self._bar_step())
        assert calls <= 296

    def test_a_bar_step_makes_no_more_numpy_calls_from_cban(self):
        # every call through the name np in tensor, dynamics and training,
        # ufuncs included: 113 when this bound was set, 129 while tanh's
        # slope was np.subtract and np.multiply, 131 while the weights were
        # one Tensor per block, 141 while layer states were tensors, 148
        # before the tape kept only the TD(1) op.
        # A change that adds numpy calls to the bar path has to raise the
        # bound on purpose.
        import cban.dynamics
        import cban.tensor
        import cban.training

        step = self._bar_step()
        _, calls = numpy_calls(step, (cban.tensor, cban.dynamics, cban.training))
        assert calls <= 113


def _loss_reference(loss_kind, act_kind, v, y, barrier_y):
    """training._loss as it was before it called the unchecked kernels:
    np.clip, then the checking inverse_activation and barrier."""
    units = tuple(range(1, v.ndim))
    per_unit = (-1,) + (1,) * len(units)
    if loss_kind == "se":
        d = v - y

        def se_vjp(c):
            gd = c.reshape(per_unit) * d
            return gd + gd

        return (d * d).sum(axis=units), se_vjp
    tanh = isinstance(act_kind, Tanh)
    if tanh:
        inside = (v > -_TANH_CLIP) & (v < _TANH_CLIP)
        v = np.clip(v, -_TANH_CLIP, _TANH_CLIP)
    d = v - y
    gap = (inverse_activation(act_kind, v) * d + barrier_y
           - barrier(act_kind, v)).sum(axis=units)
    plus = loss_kind == "delta_e_plus"

    def vjp(c):
        if plus:
            c = c * _sigmoid(gap)
        if tanh:
            slope_d = np.where(inside, d / (1.0 - v * v), 0.0)
        else:
            slope_d = np.where(np.abs(v) > 1.0, d / act_kind.alpha, d)
        return c.reshape(per_unit) * slope_d

    return (_softplus(gap) if plus else gap), vjp


class TestLossKernelPath:
    """Under tanh, _loss clips v~ and calls the kind's unchecked inverse
    and barrier; the values and vjp are the bytes of the checked
    functions'."""

    KINDS = {"tanh": Tanh(), "leaky": LeakySigmoid(0.2)}
    C = np.array([0.7, -1.3, 0.4])

    @staticmethod
    def _v():
        # per row: inside the clip, at it, and beyond it up to past +/-1
        c = _TANH_CLIP
        return np.array([[0.3, -0.7, 0.0, 0.999, -0.5],
                         [c, -c, np.nextafter(c, 0.0), -np.nextafter(c, 0.0), 0.9],
                         [np.nextafter(c, 2.0), -np.nextafter(c, -2.0), 1.0, -1.5, 2.3]])

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    @pytest.mark.parametrize("act", ["tanh", "leaky"])
    def test_values_and_vjp_equal_the_checked_reference(self, loss_kind, act):
        kind = self.KINDS[act]
        v = self._v()
        y = np.random.default_rng(15).uniform(-0.999, 0.999, size=v.shape)
        barrier_y = None if loss_kind == "se" else barrier(kind, y)
        got, got_vjp = _loss(loss_kind, kind, v, y, barrier_y)
        want, want_vjp = _loss_reference(loss_kind, kind, v, y, barrier_y)
        assert got.tobytes() == want.tobytes()
        assert got_vjp(self.C).tobytes() == want_vjp(self.C).tobytes()

    def test_the_input_is_not_written(self):
        v = self._v()
        _loss("delta_e_plus", Tanh(), v, np.zeros_like(v), barrier(Tanh(), np.zeros_like(v)))
        assert v.tobytes() == self._v().tobytes()


def tiny_cfg(**kw):
    defaults = dict(epochs=1, loss="se", optimizer="sgd-l2", lr=0.01,
                    theta=1e-12, max_iters=3, batch_size=4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class ToyExamples:
    """Fixed examples with fresh random masks each epoch."""

    def __init__(self, targets, rng_mask_p=0.5):
        self.targets = targets
        self.p = rng_mask_p

    def epoch_examples(self, rng):
        from cban.data import Example

        out = []
        for t in self.targets:
            mask = rng.random(t.shape) < self.p
            if not mask.any():
                mask.flat[0] = True
            if mask.all():
                mask.flat[-1] = False
            out.append(Example(target=t, mask=mask))
        return out


class TestTd1Forward:
    def _examples(self, rng, n, units):
        from cban.data import Example

        out = []
        for _ in range(n):
            target = rng.uniform(-0.9, 0.9, size=units)
            mask = rng.random(units) < 0.5
            if not mask.any():
                mask[0] = True
            if mask.all():
                mask[-1] = False
            out.append(Example(target=target, mask=mask))
        return out

    def test_single_sweep_reduces_to_single_step_loss(self):
        rng = np.random.default_rng(6)
        arch = fban(4, [3])
        w = init_weights(arch, seed=1)
        examples = self._examples(rng, 3, 4)
        cfg = tiny_cfg(max_iters=1, batch_size=3)
        with GradTape():
            loss, reports = td1_forward(examples, w, arch, cfg)
        assert all(r.t_star == 1 for r in reports)
        assert all(len(r.max_delta_trace) == 1 for r in reports)
        assert np.isfinite(loss.item())

    def test_zero_loss_when_already_producing_targets(self):
        # zero weights and zero targets: the net emits the target at every sweep
        arch = fban(3, [2])
        w = WeightBundle.from_blocks([np.zeros((3, 2)), np.zeros(3), np.zeros(2)])
        from cban.data import Example

        examples = [Example(target=np.zeros(3),
                            mask=np.array([True, False, False]))]
        cfg = tiny_cfg(max_iters=4, loss="se", batch_size=1, theta=1e-9)
        with GradTape():
            loss, reports = td1_forward(examples, w, arch, cfg)
        assert loss.item() == 0.0
        assert reports[0].converged and reports[0].t_star == 1

    def test_non_convergent_items_flagged_and_still_counted(self):
        # a theta no state change falls below runs every item out of sweeps
        rng = np.random.default_rng(7)
        arch = fban(6, [6])
        w = WeightBundle.from_blocks([rng.normal(scale=1.5, size=(6, 6)), np.zeros(6), np.zeros(6)])
        examples = self._examples(rng, 2, 6)
        cfg = tiny_cfg(max_iters=8, theta=1e-300, batch_size=2)
        with GradTape():
            loss, reports = td1_forward(examples, w, arch, cfg)
        assert not any(r.converged for r in reports)
        assert all(r.t_star == 8 for r in reports)
        assert all(len(r.max_delta_trace) == 8 for r in reports)
        # every sweep's loss is counted: the total exceeds the first sweep's
        with GradTape():
            first, _ = td1_forward(examples, w, arch, tiny_cfg(max_iters=1, batch_size=2))
        assert np.isfinite(loss.item()) and loss.item() > first.item()

    @pytest.mark.parametrize("net", ["fc", "pooled-conv"])
    def test_records_one_tape_op_whose_parents_are_the_weights(self, net, monkeypatch):
        from cban.checks import _pooled_conv_arch

        recorded = []
        record = GradTape._record

        def counting(tape, output, parents, backward):
            recorded.append((tape, output, tuple(parents)))
            return record(tape, output, parents, backward)

        monkeypatch.setattr(GradTape, "_record", counting)
        arch = fban(4, [3]) if net == "fc" else _pooled_conv_arch()
        w = init_weights(arch, seed=3, conv_std=0.3)
        examples = ToyExamples(
            [np.full(arch.visible_shape, 0.5)] * 2).epoch_examples(np.random.default_rng(0))
        with GradTape() as tape:
            loss, reports = td1_forward(examples, w, arch, tiny_cfg(max_iters=4))
        assert all(r.t_star == 4 for r in reports)
        # the loss is the only op; its parents are the weights themselves
        assert len(recorded) == 1 and recorded[0][:2] == (tape, loss)
        assert all(p is q for p, q in zip(recorded[0][2], w.params(), strict=True))

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    def test_gradient_matches_finite_differences(self, loss_kind):
        rng = np.random.default_rng(8)
        arch = fban(4, [3])
        w = init_weights(arch, seed=2)
        examples = self._examples(rng, 2, 4)
        cfg = tiny_cfg(max_iters=3, loss=loss_kind, batch_size=2)
        with GradTape() as tape:
            loss, _ = td1_forward(examples, w, arch, cfg)
        (grad,) = tape.gradient(loss, w.params())

        def scalar(x):
            lv, _ = td1_forward(examples, w.with_params([Tensor(x)]), arch, cfg)
            return lv.item()

        fd = finite_difference(scalar, w.flat.data.copy())
        for i, (g, f) in enumerate(zip(w.blocks(grad), w.blocks(fd))):
            assert relative_error(g, f) < 1e-4, f"block {i}"


class TestOptimizerStep:
    def _bundle(self):
        return WeightBundle.from_blocks([[[1.0, 2.0], [3.0, 4.0]], [0.5, 0.5], [0.0, 0.0]])

    @staticmethod
    def _grads(w, g):
        """[the gradient vector]: g on the matrix, zero on the biases."""
        grad = np.zeros(w.flat.shape)
        w.blocks(grad)[0][...] = g
        return [grad]

    def test_zero_gradients_leave_weights(self):
        w = self._bundle()
        grads = [np.zeros_like(p.data) for p in w.params()]
        for optname in ("sgd-l2", "sgd-linf", "adam"):
            opt = init_opt_state(tiny_cfg(optimizer=optname, lr=0.1))
            _, w2 = optimizer_step(opt, w, grads)
            for a, b in zip(w.params(), w2.params()):
                np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("optimizer", ["sgd-l2", "sgd-linf", "adam"])
    def test_gradients_not_of_the_vector_are_refused(self, optimizer):
        w = self._bundle()
        opt = init_opt_state(tiny_cfg(optimizer=optimizer))
        per_block = [np.zeros((2, 2)), np.zeros(2), np.zeros(2)]
        for grads in (per_block, [np.zeros(7)], [np.zeros((8, 1))], []):
            with pytest.raises(ValueError, match=r"one gradient of shape \(8,\)"):
                optimizer_step(opt, w, grads)

    def test_adam_moments_are_vectors_from_the_first_step(self):
        w = self._bundle()
        opt = init_opt_state(tiny_cfg(optimizer="adam"))
        assert opt.m is None and opt.v is None
        opt, _ = optimizer_step(opt, w, self._grads(w, np.ones((2, 2))))
        assert opt.m.shape == opt.v.shape == w.flat.shape

    def test_sgd_l2_step_has_unit_direction(self):
        w = self._bundle()
        g = np.array([[3.0, 0.0], [0.0, 4.0]])
        opt = init_opt_state(tiny_cfg(optimizer="sgd-l2", lr=0.01))
        _, w2 = optimizer_step(opt, w, self._grads(w, g))
        step = w.forward[0] - w2.forward[0]
        assert abs(np.linalg.norm(step) - 0.01) < 1e-12
        np.testing.assert_allclose(step, 0.01 * g / 5.0)

    def test_sgd_linf_normalizes_by_max(self):
        w = self._bundle()
        g = np.array([[2.0, -8.0], [1.0, 0.0]])
        opt = init_opt_state(tiny_cfg(optimizer="sgd-linf", lr=0.1))
        _, w2 = optimizer_step(opt, w, self._grads(w, g))
        step = w.forward[0] - w2.forward[0]
        assert abs(np.max(np.abs(step)) - 0.1) < 1e-12

    def test_adam_first_step_magnitude(self):
        w = self._bundle()
        g = np.array([[0.3, -2.0], [0.001, 5.0]])
        opt = init_opt_state(tiny_cfg(optimizer="adam", lr=0.01))
        _, w2 = optimizer_step(opt, w, self._grads(w, g))
        step = w.forward[0] - w2.forward[0]
        # bias-corrected first step is lr * sign(g) up to eps rounding
        np.testing.assert_allclose(step, 0.01 * np.sign(g), rtol=1e-4)

    def test_symmetric_transpose_identity_preserved(self):
        # reverse weights are derived, so symmetry survives any update
        rng = np.random.default_rng(9)
        from cban.tensor import conv2d_half, reverse_kernel

        w = WeightBundle.from_blocks([rng.normal(size=(2, 1, 3, 3)), np.zeros(1), np.zeros(2)])
        opt = init_opt_state(tiny_cfg(optimizer="adam", lr=0.05))
        for _ in range(3):
            grads = [rng.normal(size=p.shape) for p in w.params()]
            opt, w = optimizer_step(opt, w, grads)
        x = rng.normal(size=(1, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        k2 = w.forward[0]
        lhs = np.sum(y * conv2d_half(x, k2))
        rhs = np.sum(x * conv2d_half(y, reverse_kernel(k2)))
        assert abs(lhs - rhs) < 1e-10


class TestInitWeights:
    def test_fc_std_formula(self):
        arch = fban(25, [50])
        rng_draws = []
        for seed in range(5):
            w = init_weights(arch, seed=seed)
            rng_draws.append(w.forward[0].std())
        expected = 0.1 / np.sqrt(0.5 * 25 + 0.5 * 50 + 1)
        assert abs(expected - 0.016116) < 1e-6
        assert abs(np.mean(rng_draws) - expected) < 0.1 * expected

    def test_biases_exactly_zero(self):
        arch = fban(10, [5, 3])
        w = init_weights(arch, seed=0)
        for b in w.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_seed_determinism(self):
        arch = fban(8, [6])
        a = init_weights(arch, seed=42)
        b = init_weights(arch, seed=42)
        for x, y in zip(a.params(), b.params()):
            np.testing.assert_array_equal(x.data, y.data)

    def test_conv_std_configurable(self):
        from cban.dynamics import ArchSpec, conv_layer

        arch = ArchSpec(layers=(conv_layer(2, 8, 8, visible=True),
                                conv_layer(16, 8, 8)),
                        kernel_sizes=(3,))
        w = init_weights(arch, seed=0, conv_std=0.0001)
        assert abs(w.forward[0].weights.std() - 0.0001) < 5e-5

    @pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_one_vector_holds_the_blocks_of_block_shapes(self, config):
        from cban.dynamics import block_shapes
        from cban.tensor import ConvKernel

        arch = load_run_config(CONFIGS / config, check_paths=False).arch
        w = init_weights(arch, 0)
        assert w.shapes == tuple(block_shapes(arch))
        (flat,) = w.params()
        assert flat is w.flat and w.flat.shape == (sum(map(np.prod, w.shapes)),)
        blocks = [k.weights if isinstance(k, ConvKernel) else k for k in w.forward] + w.biases
        assert [b.shape for b in blocks] == block_shapes(arch)
        assert all(np.shares_memory(b, w.flat.data) for b in blocks)
        for view, block in zip(w.blocks(w.flat.data), blocks, strict=True):
            assert view.__array_interface__ == block.__array_interface__
        rng = np.random.default_rng(0)
        shape = arch.visible_shape
        examples = [Example(target=rng.uniform(-0.9, 0.9, size=shape),
                            mask=rng.random(shape) < 0.5)]
        with GradTape() as tape:
            loss, _ = td1_forward(examples, w, arch, tiny_cfg(max_iters=1, batch_size=1))
        grads = tape.gradient(loss, w.params())
        assert len(grads) == 1 and grads[0].shape == w.flat.shape

    def test_with_params_wraps_the_vector_it_is_given(self):
        from cban.dynamics import ArchSpec, conv_layer

        arch = ArchSpec(layers=(conv_layer(2, 4, 4, visible=True), conv_layer(3, 4, 4),
                                conv_layer(5, 2, 2, pool_before=True)),
                        kernel_sizes=(3, 1))
        w = init_weights(arch, seed=1)
        again = w.with_params(w.params())
        assert again.flat is w.flat and again.shapes == w.shapes
        assert [type(b) for b in again.forward] == [type(b) for b in w.forward]
        with pytest.raises(ValueError, match=rf"shape \({w.flat.shape[0]},\)"):
            w.with_params([Tensor(np.zeros(w.flat.shape[0] - 1))])

    @pytest.mark.parametrize("blocks", [
        [np.zeros((3, 2)), np.zeros(3)],  # no bias for the upper layer
        [np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(2)],  # a 2-d bias
    ])
    def test_a_list_that_is_not_a_nets_blocks_is_refused(self, blocks):
        with pytest.raises(ValueError, match="L-1 forward blocks, then L 1-d biases"):
            WeightBundle.from_blocks(blocks)


class TestTrain:
    def test_zero_epochs_returns_initial_weights(self):
        arch = fban(4, [3])
        cfg = tiny_cfg(epochs=0)
        dataset = ToyExamples([np.full(4, 0.5)])
        w, log = train(dataset, arch, cfg)
        ref = init_weights(arch, seed=cfg.seed)
        for a, b in zip(w.params(), ref.params()):
            np.testing.assert_array_equal(a.data, b.data)
        assert log == []

    def test_loss_trace_finite_and_logged(self):
        rng = np.random.default_rng(10)
        targets = [rng.uniform(-0.9, 0.9, size=6) for _ in range(4)]
        arch = fban(6, [5])
        cfg = tiny_cfg(epochs=3, batch_size=2, max_iters=5, theta=1e-3,
                       loss="delta_e_plus")
        w, log = train(ToyExamples(targets), arch, cfg)
        assert len(log) == 3
        assert all(np.isfinite(row["loss"]) for row in log)
        assert all("mean_t_star" in row for row in log)

    def test_determinism(self):
        rng = np.random.default_rng(11)
        targets = [rng.uniform(-0.9, 0.9, size=5) for _ in range(4)]
        arch = fban(5, [4])
        cfg = tiny_cfg(epochs=2, batch_size=2, max_iters=3)
        w1, log1 = train(ToyExamples(targets), arch, cfg)
        w2, log2 = train(ToyExamples(targets), arch, cfg)
        assert log1 == log2
        for a, b in zip(w1.params(), w2.params()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_lr_schedule_applied(self):
        cfg = tiny_cfg(epochs=4, lr=0.01, lr_schedule=((2, 0.1),))
        assert cfg.lr_at(0) == 0.01
        assert cfg.lr_at(1) == 0.01
        assert abs(cfg.lr_at(2) - 0.001) < 1e-15
        assert abs(cfg.lr_at(3) - 0.001) < 1e-15

    def test_bar_task_training_improves_completion(self):
        # the summed TD loss is not comparable across epochs once the
        # unroll length moves, so assert on completion accuracy instead
        from cban.data import bar_eval_set
        from cban.training import complete, init_weights

        arch = fban(25, [50])
        cfg = tiny_cfg(epochs=300, batch_size=20, max_iters=100, theta=0.01,
                       loss="delta_e_plus", optimizer="sgd-l2", lr=0.01, seed=0)

        def accuracy(weights):
            examples = bar_eval_set(np.random.default_rng(99), 100)
            outputs, _ = complete(examples, weights, arch)
            ok = 0
            for out, ex in zip(outputs, examples):
                free = ~ex.mask.reshape(25)
                ok += np.array_equal(out.reshape(25)[free] > 0,
                                     ex.target.reshape(25)[free] > 0)
            return ok / len(examples)

        untrained = accuracy(init_weights(arch, seed=cfg.seed))
        w, _ = train(BarTask(), arch, cfg)
        trained = accuracy(w)
        assert trained >= 0.6
        assert trained > untrained


# a flat net and a pooled conv net, settled under each evidence rule
_STATE_NETS = {
    "fc": fban(6, [5, 4]),
    "conv": ArchSpec(layers=(conv_layer(2, 4, 4, visible=True), conv_layer(3, 4, 4),
                             conv_layer(4, 2, 2, pool_before=True)),
                     kernel_sizes=(3, 3)),
}


@pytest.mark.parametrize("evidence", ["clamp", "external_bias"])
@pytest.mark.parametrize("net", list(_STATE_NETS))
class TestLayerStatesAreArrays:
    """Layer states are plain float64 ndarrays. settle and td1_forward make
    no Tensor but the recorded loss, on one shard or two, and settle,
    td1_forward and complete write none of their inputs."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        monkeypatch.setattr(cban.dynamics, "_workers", 1)

    @staticmethod
    def _setup(net, evidence, batch=3):
        arch = replace(_STATE_NETS[net], evidence=evidence)
        w = init_weights(arch, seed=5, conv_std=0.3)
        rng = np.random.default_rng(5)
        shape = arch.visible_shape
        examples = [Example(target=rng.uniform(-0.9, 0.9, size=shape),
                            mask=rng.random(shape) < 0.5) for _ in range(batch)]
        masks = np.stack([e.mask for e in examples])
        targets = np.stack([e.target for e in examples])
        start = initial_state(arch, EvidenceConstraint(mask=masks, values=targets * masks),
                              batch=batch)
        return arch, w, examples, start, tiny_cfg(max_iters=3, batch_size=batch)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_the_loss_is_a_tensor(self, net, evidence, workers, monkeypatch):
        # two workers split a conv net's batch into two shards
        monkeypatch.setattr(cban.dynamics, "_workers", workers)
        arch, w, examples, start, cfg = self._setup(net, evidence)
        (state, _), made = tensors_made(
            lambda: settle(start, w, arch, theta=1e-300, max_iters=3))
        assert all(type(x) is np.ndarray and x.dtype == np.float64
                   for x in state.activations)
        assert made == 0
        with GradTape() as tape:
            (loss, _), made = tensors_made(lambda: td1_forward(examples, w, arch, cfg))
        assert made == 1
        _, made = tensors_made(lambda: tape.gradient(loss, w.params()))
        assert made == 0

    def test_inputs_are_left_unwritten(self, net, evidence):
        arch, w, examples, start, cfg = self._setup(net, evidence)
        start_arrays = list(start.activations)
        ev = start.evidence
        inputs = ([e.target for e in examples] + [e.mask for e in examples]
                  + [ev.values, ev.mask] + start_arrays + [p.data for p in w.params()])
        before = [a.copy() for a in inputs]
        settle(start, w, arch, theta=1e-300, max_iters=3)
        with GradTape() as tape:
            loss, _ = td1_forward(examples, w, arch, cfg)
        tape.gradient(loss, w.params())
        complete(examples, w, arch, theta=1e-300, max_iters=3)
        assert all(a is b for a, b in zip(start.activations, start_arrays))
        for a, b in zip(inputs, before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# tracemalloc peak of one recorded TD(1) step with its gradient in
# TestTapeMemory's setting, on the per-op tape that recorded every tensor
# operation of helpers.td1_reference (numpy 2.4.6, the lowest of three warm
# runs in one process)
_PER_OP_TAPE_PEAK = 2_348_052

_COMPLETE_PEAK = 793_504


class TestTapeMemory:
    """The records keep what the backward reads, and train() frees each step."""

    arch = ArchSpec(layers=(conv_layer(3, 16, 16, visible=True), conv_layer(8, 16, 16),
                            conv_layer(16, 8, 8, pool_before=True),
                            conv_layer(32, 4, 4, pool_before=True)),
                    kernel_sizes=(3, 3, 3))
    batch, sweeps = 4, 5

    def _targets(self, n, shape=(3, 16, 16)):
        rng = np.random.default_rng(5)
        return [rng.uniform(-0.9, 0.9, size=shape) for _ in range(n)]

    def _cfg(self, **kw):
        kw = {"max_iters": self.sweeps, "batch_size": self.batch, **kw}
        return tiny_cfg(theta=1e-300, conv_init_std=0.1, **kw)

    @staticmethod
    def _recorded_step(examples, w, arch, cfg):
        with GradTape() as tape:
            loss, reports = td1_forward(examples, w, arch, cfg)
        return tape, loss, reports

    def test_td1_graph_and_backward_stay_within_a_few_states_per_sweep(self):
        examples = ToyExamples(self._targets(self.batch)).epoch_examples(
            np.random.default_rng(0))
        w = init_weights(self.arch, seed=0, conv_std=0.1)
        state_bytes = 8 * self.batch * sum(int(np.prod(l.shape)) for l in self.arch.layers)
        (tape, loss, reports), kept, _ = traced_bytes(
            lambda: self._recorded_step(examples, w, self.arch, self._cfg()))
        # the backward frees forward arrays too, which this count leaves out,
        # so kept + backward_peak bounds the backward's true peak from above
        _, _, backward_peak = traced_bytes(lambda: tape.gradient(loss, w.params()))
        assert all(r.t_star == self.sweeps and not r.converged for r in reports)
        assert kept <= 4 * self.sweeps * state_bytes
        assert kept + backward_peak <= 5 * self.sweeps * state_bytes

    def test_tape_keeps_no_reversed_kernel(self):
        # 64 -> 64 channels on 4x4 maps: one kernel outweighs every state of a sweep
        arch = ArchSpec(layers=(conv_layer(1, 4, 4, visible=True), conv_layer(64, 4, 4),
                                conv_layer(64, 4, 4)), kernel_sizes=(3, 3))
        kernel_bytes = 8 * 64 * 64 * 3 * 3
        examples = ToyExamples(self._targets(1, (1, 4, 4))).epoch_examples(
            np.random.default_rng(0))
        w = init_weights(arch, seed=0, conv_std=0.1)

        def kept_by(sweeps):
            cfg = self._cfg(max_iters=sweeps, batch_size=1)
            (_, _, reports), kept, _ = traced_bytes(
                lambda: self._recorded_step(examples, w, arch, cfg))
            assert reports[0].t_star == sweeps and not reports[0].converged
            return kept

        kept_2, kept_6 = kept_by(2), kept_by(6)
        # the reversed kernels are views of the forward ones: a whole step
        # keeps less than one kernel, and each sweep adds less than one
        assert kept_2 < kernel_bytes
        assert (kept_6 - kept_2) / 4 < kernel_bytes

    def test_reverse_sweep_peaks_no_higher_than_the_per_op_tape(self):
        # a record that held its pair terms, or its pooled inputs, would
        # keep more per sweep than the per-op tape did
        examples = ToyExamples(self._targets(self.batch)).epoch_examples(
            np.random.default_rng(0))
        w = init_weights(self.arch, seed=0, conv_std=0.1)

        def step():
            with GradTape() as tape:
                loss, _ = td1_forward(examples, w, self.arch, self._cfg())
            return tape.gradient(loss, w.params())

        assert traced_bytes(step)[2] <= _PER_OP_TAPE_PEAK

    def test_settling_holds_no_term_past_its_last_read(self, monkeypatch):
        # one shard, every sweep run: a pair term held past its last read
        # raises complete()'s peak over _COMPLETE_PEAK
        monkeypatch.setattr(cban.dynamics, "_workers", 1)
        examples = list(ToyExamples(self._targets(self.batch)).epoch_examples(
            np.random.default_rng(0)))
        w = init_weights(self.arch, seed=0, conv_std=0.1)

        def run():
            _, report = complete(examples, w, self.arch, theta=1e-300, max_iters=self.sweeps)
            assert report.t_star == self.sweeps and not report.converged

        run()  # the first call fills the caches
        assert traced_bytes(run)[2] <= _COMPLETE_PEAK

    def test_train_frees_each_step_before_the_next(self):
        def peak_of(steps):
            dataset = ToyExamples(self._targets(steps * self.batch))
            return traced_bytes(lambda: train(dataset, self.arch, self._cfg()))[2]

        assert peak_of(3) <= 1.1 * peak_of(1)


class TestLossPerItem:
    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    def test_batch_matches_items_alone(self, loss_kind):
        rng = np.random.default_rng(14)
        v = rng.uniform(-0.95, 0.95, size=(3, 2, 4))
        y = rng.uniform(-0.95, 0.95, size=(3, 2, 4))
        batch = loss_per_item(loss_kind, Tanh(), v, y)
        alone = [loss_of(loss_kind, v[i], y[i]) for i in range(3)]
        np.testing.assert_array_equal(batch, alone)


class TestLabelAgnosticLoss:
    def test_losses_invariant_under_consistent_permutation(self):
        rng = np.random.default_rng(12)
        v = rng.uniform(-0.9, 0.9, size=20)
        y = rng.uniform(-0.9, 0.9, size=20)
        p = rng.permutation(20)
        for kind in ("se", "delta_e", "delta_e_plus"):
            assert abs(loss_of(kind, v, y) - loss_of(kind, v[p], y[p])) < 1e-12
