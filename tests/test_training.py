"""Losses, TD(1) unrolling, optimizers, initialization."""

import tracemalloc

import numpy as np
import pytest

from cban.tensor import GradTape, Tensor
from cban.dynamics import (
    ArchSpec,
    LeakySigmoid,
    NetState,
    Tanh,
    WeightBundle,
    conv_layer,
    energy,
    fban,
    norm_1inf,
    update_layer,
)
from cban.training import (
    TrainConfig,
    init_opt_state,
    init_weights,
    loss_per_item,
    optimizer_step,
    td1_forward,
    train,
    unclamped_visible,
)
from cban.data import BarTask
from helpers import finite_difference, relative_error


def loss_of(loss_kind, v_tilde, y, act_kind=Tanh()):
    """The loss of one item, through the batched per-item loss."""
    out = loss_per_item(loss_kind, act_kind, Tensor(np.asarray(v_tilde, dtype=float)[None]),
                        Tensor(np.asarray(y, dtype=float)[None]))
    assert out.shape == (1,)
    return out.data[0]


class TestUnclampedVisible:
    def test_zero_everything_gives_zero(self):
        arch = fban(3, [2])
        w = WeightBundle(forward=[Tensor(np.zeros((3, 2)))],
                         biases=[Tensor(np.zeros(3)), Tensor(np.zeros(2))])
        state = NetState([Tensor(np.zeros(3)), Tensor(np.zeros(2))])
        np.testing.assert_array_equal(unclamped_visible(state, w, arch).data,
                                      np.zeros(3))

    def test_closed_form_single_weight(self):
        arch = fban(1, [1])
        w = WeightBundle(forward=[Tensor([[2.0]])],
                         biases=[Tensor([0.0]), Tensor([0.0])])
        state = NetState([Tensor([0.0]), Tensor([0.5])])
        got = unclamped_visible(state, w, arch).data[0]
        assert abs(got - np.tanh(1.0)) < 1e-15

    def test_matches_update_when_nothing_clamped(self):
        rng = np.random.default_rng(0)
        arch = fban(5, [4])
        w = WeightBundle(forward=[Tensor(rng.normal(scale=0.5, size=(5, 4)))],
                         biases=[Tensor(rng.normal(size=5)), Tensor(np.zeros(4))])
        state = NetState([Tensor(rng.uniform(-0.5, 0.5, 5)),
                          Tensor(rng.uniform(-0.9, 0.9, 4))])
        via_update = update_layer(state, w, arch, 0).activations[0].data
        np.testing.assert_allclose(unclamped_visible(state, w, arch).data, via_update)


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
            w = WeightBundle(
                forward=[Tensor(t.data * 20.0) for t in w.forward],
                biases=[Tensor(rng.normal(scale=0.3, size=t.shape)) for t in w.biases])
            hidden = [Tensor(rng.uniform(-0.9, 0.9, size=(s,))) for s in sizes[1:]]
            y = rng.uniform(-0.9, 0.9, size=sizes[0])
            state = NetState([Tensor(np.zeros(sizes[0]))] + hidden)
            v_tilde = unclamped_visible(state, w, arch)
            gap = loss_of("delta_e", v_tilde.data, y)
            clamped = NetState([Tensor(y)] + hidden)
            unclamped = NetState([v_tilde] + hidden)
            oracle = energy(clamped, w, arch) - energy(unclamped, w, arch)
            assert abs(gap - oracle) < 1e-10

    def test_leaky_variant_matches_energy_difference(self):
        rng = np.random.default_rng(4)
        kind = LeakySigmoid(0.2)
        arch = fban(5, [4], activation_kind=kind)
        w = init_weights(arch, seed=7)
        hidden = [Tensor(rng.uniform(-1.5, 1.5, size=4))]
        y = rng.uniform(-1.2, 1.2, size=5)
        state = NetState([Tensor(np.zeros(5))] + hidden)
        v_tilde = unclamped_visible(state, w, arch)
        gap = loss_of("delta_e", v_tilde.data, y, kind)
        oracle = (energy(NetState([Tensor(y)] + hidden), w, arch)
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

    def test_softplus_limit_vanishes_for_ordered_energies(self):
        # the hinge goes to 0 as the gap goes to -inf
        from cban.tensor import softplus

        assert softplus(Tensor([-40.0])).data[0] < 1e-17

    def test_gap_is_never_negative(self):
        # the gap is the Bregman divergence of the barrier, so clamping the
        # visible units at the target can only raise the energy
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.uniform(-0.999, 0.999, size=4)
            y = rng.uniform(-0.999, 0.999, size=4)
            assert loss_of("delta_e", v, y) >= 0.0


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
        w = WeightBundle(forward=[Tensor(np.zeros((3, 2)))],
                         biases=[Tensor(np.zeros(3)), Tensor(np.zeros(2))])
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
        w = WeightBundle(forward=[Tensor(rng.normal(scale=1.5, size=(6, 6)))],
                         biases=[Tensor(np.zeros(6)), Tensor(np.zeros(6))])
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

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    def test_gradient_matches_finite_differences(self, loss_kind):
        rng = np.random.default_rng(8)
        arch = fban(4, [3])
        w = init_weights(arch, seed=2)
        examples = self._examples(rng, 2, 4)
        cfg = tiny_cfg(max_iters=3, loss=loss_kind, batch_size=2)
        with GradTape() as tape:
            loss, _ = td1_forward(examples, w, arch, cfg)
        grads = tape.gradient(loss, w.params())
        params = w.params()
        for i in range(len(params)):
            def scalar(x, i=i):
                flat = [p.data.copy() for p in params]
                flat[i] = x
                w2 = w.with_params([Tensor(a) for a in flat])
                lv, _ = td1_forward(examples, w2, arch, cfg)
                return lv.item()

            fd = finite_difference(scalar, params[i].data.copy())
            assert relative_error(grads[i], fd) < 1e-4, f"block {i}"


class TestOptimizerStep:
    def _bundle(self):
        return WeightBundle(forward=[Tensor([[1.0, 2.0], [3.0, 4.0]])],
                            biases=[Tensor([0.5, 0.5]), Tensor([0.0, 0.0])])

    def test_zero_gradients_leave_weights(self):
        w = self._bundle()
        grads = [np.zeros_like(p.data) for p in w.params()]
        for optname in ("sgd-l2", "sgd-linf", "adam"):
            opt = init_opt_state(tiny_cfg(optimizer=optname, lr=0.1))
            _, w2 = optimizer_step(opt, w, grads)
            for a, b in zip(w.params(), w2.params()):
                np.testing.assert_array_equal(a.data, b.data)

    def test_sgd_l2_step_has_unit_direction(self):
        w = self._bundle()
        g = np.array([[3.0, 0.0], [0.0, 4.0]])
        grads = [g] + [np.zeros_like(p.data) for p in w.params()[1:]]
        opt = init_opt_state(tiny_cfg(optimizer="sgd-l2", lr=0.01))
        _, w2 = optimizer_step(opt, w, grads)
        step = w.params()[0].data - w2.params()[0].data
        assert abs(np.linalg.norm(step) - 0.01) < 1e-12
        np.testing.assert_allclose(step, 0.01 * g / 5.0)

    def test_sgd_linf_normalizes_by_max(self):
        w = self._bundle()
        g = np.array([[2.0, -8.0], [1.0, 0.0]])
        grads = [g] + [np.zeros_like(p.data) for p in w.params()[1:]]
        opt = init_opt_state(tiny_cfg(optimizer="sgd-linf", lr=0.1))
        _, w2 = optimizer_step(opt, w, grads)
        step = w.params()[0].data - w2.params()[0].data
        assert abs(np.max(np.abs(step)) - 0.1) < 1e-12

    def test_adam_first_step_magnitude(self):
        w = self._bundle()
        g = np.array([[0.3, -2.0], [0.001, 5.0]])
        grads = [g] + [np.zeros_like(p.data) for p in w.params()[1:]]
        opt = init_opt_state(tiny_cfg(optimizer="adam", lr=0.01))
        _, w2 = optimizer_step(opt, w, grads)
        step = w.params()[0].data - w2.params()[0].data
        # bias-corrected first step is lr * sign(g) up to eps rounding
        np.testing.assert_allclose(step, 0.01 * np.sign(g), rtol=1e-4)

    def test_symmetric_transpose_identity_preserved(self):
        # reverse weights are derived, so symmetry survives any update
        rng = np.random.default_rng(9)
        from cban.tensor import ConvKernel, conv2d_half, reverse_kernel

        arch_layers = None  # conv bundle assembled directly
        k = ConvKernel(Tensor(rng.normal(size=(2, 1, 3, 3))))
        w = WeightBundle(forward=[k], biases=[Tensor(np.zeros(1)), Tensor(np.zeros(2))])
        opt = init_opt_state(tiny_cfg(optimizer="adam", lr=0.05))
        for _ in range(3):
            grads = [rng.normal(size=p.shape) for p in w.params()]
            opt, w = optimizer_step(opt, w, grads)
        x = rng.normal(size=(1, 5, 5))
        y = rng.normal(size=(2, 5, 5))
        k2 = w.forward[0]
        lhs = np.sum(y * conv2d_half(Tensor(x), k2).data)
        rhs = np.sum(x * conv2d_half(Tensor(y), reverse_kernel(k2)).data)
        assert abs(lhs - rhs) < 1e-10


class TestInitWeights:
    def test_fc_std_formula(self):
        arch = fban(25, [50])
        rng_draws = []
        for seed in range(5):
            w = init_weights(arch, seed=seed)
            rng_draws.append(w.forward[0].data.std())
        expected = 0.1 / np.sqrt(0.5 * 25 + 0.5 * 50 + 1)
        assert abs(expected - 0.016116) < 1e-6
        assert abs(np.mean(rng_draws) - expected) < 0.1 * expected

    def test_biases_exactly_zero(self):
        arch = fban(10, [5, 3])
        w = init_weights(arch, seed=0)
        for b in w.biases:
            np.testing.assert_array_equal(b.data, np.zeros_like(b.data))

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
        assert abs(w.forward[0].weights.data.std() - 0.0001) < 5e-5

    def test_blocks_follow_block_shapes_in_params_order(self):
        from cban.dynamics import ArchSpec, WeightBundle, block_shapes, conv_layer

        for arch in (fban(6, [4, 3]),
                     ArchSpec(layers=(conv_layer(2, 4, 4, visible=True), conv_layer(3, 4, 4),
                                      conv_layer(5, 2, 2, pool_before=True)),
                              kernel_sizes=(3, 1))):
            w = init_weights(arch, seed=1)
            assert [p.shape for p in w.params()] == block_shapes(arch)
            again = WeightBundle.from_params(w.params(), arch.n_layers)
            assert all(p is q for p, q in zip(again.params(), w.params()))
            assert [type(b) for b in again.forward] == [type(b) for b in w.forward]


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


class TestTapeMemory:
    """The tape keeps what the backward reads, and train() frees each step."""

    arch = ArchSpec(layers=(conv_layer(3, 16, 16, visible=True), conv_layer(8, 16, 16),
                            conv_layer(16, 8, 8, pool_before=True),
                            conv_layer(32, 4, 4, pool_before=True)),
                    kernel_sizes=(3, 3, 3))
    batch, sweeps = 4, 5

    def _targets(self, n):
        rng = np.random.default_rng(5)
        return [rng.uniform(-0.9, 0.9, size=(3, 16, 16)) for _ in range(n)]

    def _cfg(self, **kw):
        return tiny_cfg(max_iters=self.sweeps, theta=1e-300, batch_size=self.batch,
                        conv_init_std=0.1, **kw)

    def test_td1_graph_and_backward_stay_within_a_few_states_per_sweep(self):
        examples = ToyExamples(self._targets(self.batch)).epoch_examples(
            np.random.default_rng(0))
        w = init_weights(self.arch, seed=0, conv_std=0.1)
        cfg = self._cfg()
        state_bytes = 8 * self.batch * sum(int(np.prod(l.shape)) for l in self.arch.layers)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with GradTape() as tape:
                loss, reports = td1_forward(examples, w, self.arch, cfg)
            kept = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            tape.gradient(loss, w.params())
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(r.t_star == self.sweeps and not r.converged for r in reports)
        assert kept <= 4 * self.sweeps * state_bytes
        assert backward_peak <= 5 * self.sweeps * state_bytes

    def test_train_frees_each_step_before_the_next(self):
        def peak_of(steps):
            dataset = ToyExamples(self._targets(steps * self.batch))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                train(dataset, self.arch, self._cfg())
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak_of(3) <= 1.1 * peak_of(1)


class TestLossPerItem:
    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    def test_batch_matches_items_alone(self, loss_kind):
        rng = np.random.default_rng(14)
        v = rng.uniform(-0.95, 0.95, size=(3, 2, 4))
        y = rng.uniform(-0.95, 0.95, size=(3, 2, 4))
        batch = loss_per_item(loss_kind, Tanh(), Tensor(v), Tensor(y)).data
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
