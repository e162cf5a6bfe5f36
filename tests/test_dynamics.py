"""Settling dynamics: activations, energy, convergence, cycles."""

import dataclasses

import numpy as np
import pytest

from cban.tensor import ConvKernel, DomainError, Tensor
from cban.training import init_weights
from cban.dynamics import (
    ArchSpec,
    EvidenceConstraint,
    LeakySigmoid,
    NetState,
    Tanh,
    WeightBundle,
    activation,
    barrier,
    conv_layer,
    detect_cycle,
    energy,
    fban,
    fc_layer,
    initial_state,
    inverse_activation,
    layer_preactivation,
    norm_1inf,
    settle,
    sweep,
    sweep_order,
    synchronous_step,
    update_layer,
)


def random_fc_bundle(arch, rng, scale=0.3, bias_scale=0.0):
    forward, biases = [], []
    sizes = [spec.units for spec in arch.layers]
    for lo, hi in zip(sizes[:-1], sizes[1:]):
        forward.append(Tensor(rng.normal(scale=scale, size=(lo, hi))))
    for n in sizes:
        b = rng.normal(scale=bias_scale, size=(n,)) if bias_scale else np.zeros(n)
        biases.append(Tensor(b))
    reverse = None
    if not arch.symmetric:
        reverse = [Tensor(rng.normal(scale=scale, size=(hi, lo)))
                   for lo, hi in zip(sizes[:-1], sizes[1:])]
    return WeightBundle(forward=forward, biases=biases, reverse=reverse)


def random_state(arch, rng, lo=-0.9, hi=0.9):
    return NetState([Tensor(rng.uniform(lo, hi, size=spec.shape))
                     for spec in arch.layers])


class TestActivationFunctions:
    def test_tanh_zero(self):
        assert activation(Tanh(), np.array([0.0])).data[0] == 0.0

    def test_leaky_boundary_continuity(self):
        k = LeakySigmoid(0.2)
        np.testing.assert_allclose(activation(k, np.array([1.0, -1.0])).data, [1.0, -1.0])

    def test_leaky_outside_values(self):
        k = LeakySigmoid(0.2)
        np.testing.assert_allclose(activation(k, np.array([2.0, -3.0])).data, [1.2, -1.4])

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            LeakySigmoid(0.0)
        with pytest.raises(ValueError):
            LeakySigmoid(1.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.95, 0.95, size=50)
        got = activation(Tanh(), inverse_activation(Tanh(), x)).data
        np.testing.assert_allclose(got, x, atol=1e-12)
        k = LeakySigmoid(0.2)
        y = rng.uniform(-3, 3, size=50)
        np.testing.assert_allclose(activation(k, inverse_activation(k, y)).data, y, atol=1e-12)

    def test_inverse_tanh_domain_error(self):
        with pytest.raises(DomainError):
            inverse_activation(Tanh(), np.array([1.0]))

    def test_leaky_inverse_value(self):
        np.testing.assert_allclose(
            inverse_activation(LeakySigmoid(0.2), np.array([1.2])).data, [2.0]
        )


class TestBarrier:
    def test_zero_at_origin(self):
        assert barrier(Tanh(), np.array([0.0])).data[0] == 0.0
        assert barrier(LeakySigmoid(0.3), np.array([0.0])).data[0] == 0.0

    def test_tanh_value_against_quadrature(self):
        # independent oracle: numerically integrate atanh from 0 to 0.5
        xs = np.linspace(0.0, 0.5, 200001)
        integral = np.trapezoid(np.arctanh(xs), xs)
        got = barrier(Tanh(), np.array([0.5])).data[0]
        assert abs(got - integral) < 1e-9
        assert abs(got - 0.130812) < 1e-6

    def test_leaky_half_square_inside(self):
        got = barrier(LeakySigmoid(0.2), np.array([1.0, 0.4])).data
        np.testing.assert_allclose(got, [0.5, 0.08], atol=1e-15)

    def test_tanh_domain(self):
        with pytest.raises(DomainError):
            barrier(Tanh(), np.array([1.0000001]))

    @pytest.mark.parametrize("kind", [Tanh(), LeakySigmoid(0.2), LeakySigmoid(0.7)])
    def test_derivative_matches_inverse_activation(self, kind):
        # the barrier must integrate the inverse activation
        grid = np.linspace(-0.95, 0.95, 41)
        if isinstance(kind, LeakySigmoid):
            grid = np.linspace(-2.5, 2.5, 41)
            grid = grid[np.abs(np.abs(grid) - 1.0) > 0.05]
        h = 1e-6
        num = (barrier(kind, grid + h).data - barrier(kind, grid - h).data) / (2 * h)
        np.testing.assert_allclose(num, inverse_activation(kind, grid).data, atol=1e-6)


class TestArchValidation:
    def test_needs_two_layers(self):
        with pytest.raises(ValueError):
            ArchSpec(layers=(fc_layer(3, visible=True),))

    def test_first_layer_visible(self):
        with pytest.raises(ValueError, match="visible"):
            ArchSpec(layers=(fc_layer(3), fc_layer(2)))

    def test_mixed_connectivity_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            ArchSpec(layers=(fc_layer(3, visible=True), conv_layer(1, 2, 2)),
                     kernel_sizes=(3,))

    def test_pool_needs_even_predecessor(self):
        with pytest.raises(ValueError, match="even"):
            ArchSpec(layers=(conv_layer(1, 5, 5, visible=True),
                             conv_layer(2, 2, 2, pool_before=True)),
                     kernel_sizes=(3,))

    def test_pool_on_fc_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec(layers=(fc_layer(4, visible=True),
                             LayerSpecPoolHack()))


def LayerSpecPoolHack():
    from cban.dynamics import LayerSpec

    return LayerSpec(kind="fc", units=2, pool_before=True)


class TestPreactivation:
    def test_zero_state_zero_bias_gives_zero(self):
        rng = np.random.default_rng(1)
        arch = fban(4, [3])
        w = random_fc_bundle(arch, rng)
        state = NetState([Tensor(np.zeros(4)), Tensor(np.zeros(3))])
        for l in range(2):
            np.testing.assert_array_equal(
                layer_preactivation(state, w, arch, l).data,
                np.zeros(arch.layers[l].units),
            )

    def test_two_layer_hand_example(self):
        arch = fban(2, [1])
        w = WeightBundle(forward=[Tensor([[1.0], [-1.0]])],
                         biases=[Tensor(np.zeros(2)), Tensor(np.zeros(1))])
        state = NetState([Tensor([0.5, 0.5]), Tensor([0.0])])
        np.testing.assert_allclose(layer_preactivation(state, w, arch, 1).data, [0.0])

    def test_matches_manual_computation_three_layers(self):
        rng = np.random.default_rng(2)
        arch = fban(5, [4, 3])
        w = random_fc_bundle(arch, rng, bias_scale=0.2)
        state = random_state(arch, rng)
        x0, x1, x2 = [a.data for a in state.activations]
        W0, W1 = [t.data for t in w.forward]
        b = [t.data for t in w.biases]
        # end layers get one neighbor contribution, the middle layer two
        np.testing.assert_allclose(
            layer_preactivation(state, w, arch, 0).data, x1 @ W0.T + b[0], atol=1e-14)
        np.testing.assert_allclose(
            layer_preactivation(state, w, arch, 1).data, x0 @ W0 + x2 @ W1.T + b[1],
            atol=1e-14)
        np.testing.assert_allclose(
            layer_preactivation(state, w, arch, 2).data, x1 @ W1 + b[2], atol=1e-14)

    def test_index_out_of_range(self):
        arch = fban(2, [2])
        w = random_fc_bundle(arch, np.random.default_rng(0))
        state = random_state(arch, np.random.default_rng(0))
        with pytest.raises(IndexError):
            layer_preactivation(state, w, arch, 2)


class TestUpdateAndSweep:
    def test_clamp_holds_masked_positions(self):
        rng = np.random.default_rng(3)
        arch = fban(6, [4])
        w = random_fc_bundle(arch, rng, scale=1.0)
        mask = np.array([True, False, True, False, False, True])
        values = np.where(mask, 0.8, 0.0)
        ev = EvidenceConstraint(mask=mask, values=values)
        state = initial_state(arch, ev)
        state = update_layer(state, w, arch, 0)
        np.testing.assert_array_equal(state.activations[0].data[mask], 0.8)

    def test_zero_weights_zero_hidden(self):
        arch = fban(3, [4])
        w = WeightBundle(forward=[Tensor(np.zeros((3, 4)))],
                         biases=[Tensor(np.zeros(3)), Tensor(np.zeros(4))])
        state = NetState([Tensor([0.3, -0.2, 0.9]), Tensor(np.full(4, 0.5))])
        state = update_layer(state, w, arch, 1)
        np.testing.assert_array_equal(state.activations[1].data, np.zeros(4))

    def test_sweep_order_lengths(self):
        assert len(sweep_order(5)) == 8
        assert sweep_order(2) == [1, 0]
        assert sweep_order(5) == [1, 2, 3, 4, 3, 2, 1, 0]

    def test_sweep_fixed_point_unchanged(self):
        rng = np.random.default_rng(5)
        arch = fban(8, [6])
        w = random_fc_bundle(arch, rng)
        state, report = settle(random_state(arch, rng), w, arch,
                               theta=1e-12, max_iters=500)
        assert report.converged
        after = sweep(state, w, arch)
        delta = max(np.max(np.abs(a.data - b.data))
                    for a, b in zip(state.activations, after.activations))
        assert delta < 1e-10

    def test_external_bias_enters_preactivation(self):
        rng = np.random.default_rng(6)
        arch = dataclasses.replace(fban(4, [3]), evidence="external_bias")
        w = random_fc_bundle(arch, rng)
        mask = np.array([True, False, False, False])
        ev = EvidenceConstraint(mask=mask, values=np.where(mask, 0.9, 0.0))
        state = initial_state(arch, ev)
        pre_with = layer_preactivation(state, w, arch, 0).data
        state_free = NetState(list(state.activations), evidence=None)
        pre_without = layer_preactivation(state_free, w, arch, 0).data
        np.testing.assert_allclose(pre_with - pre_without, ev.values)

    def test_external_bias_leaves_observed_units_free(self):
        rng = np.random.default_rng(8)
        arch = dataclasses.replace(fban(5, [3]), evidence="external_bias")
        w = random_fc_bundle(arch, rng, scale=0.8)
        mask = np.array([True, True, False, False, True])
        ev = EvidenceConstraint(mask=mask, values=np.where(mask, 0.5, 0.0))
        state = initial_state(arch, ev)
        np.testing.assert_array_equal(state.activations[0].data, np.zeros(5))
        state = update_layer(update_layer(state, w, arch, 1), w, arch, 0)
        pre = layer_preactivation(state, w, arch, 0)
        np.testing.assert_array_equal(state.activations[0].data, np.tanh(pre.data))
        assert np.all(state.activations[0].data[mask] != 0.5)

    def test_unknown_evidence_rule_rejected(self):
        with pytest.raises(ValueError, match="evidence"):
            ArchSpec(layers=(fc_layer(3, visible=True), fc_layer(2)), evidence="mix")

    def test_replicated_clamps_input_copy_only(self):
        rng = np.random.default_rng(7)
        arch = fban(6, [4])
        w = random_fc_bundle(arch, rng, scale=0.8)
        mask = np.zeros(6, dtype=bool)
        mask[:3] = True  # input copy
        ev = EvidenceConstraint(mask=mask, values=np.where(mask, 0.7, 0.0))
        state, report = settle(initial_state(arch, ev), w, arch, theta=1e-8,
                               max_iters=300)
        np.testing.assert_array_equal(state.activations[0].data[:3], 0.7)
        # output copy is free to move away from its start value
        assert np.max(np.abs(state.activations[0].data[3:])) > 0


class TestEnergy:
    def test_zero_state_zero_energy(self):
        arch = fban(4, [3])
        w = WeightBundle(forward=[Tensor(np.zeros((4, 3)))],
                         biases=[Tensor(np.zeros(4)), Tensor(np.zeros(3))])
        state = NetState([Tensor(np.zeros(4)), Tensor(np.zeros(3))])
        assert energy(state, w, arch) == 0.0

    def test_two_unit_closed_form(self):
        arch = fban(1, [1])
        w = WeightBundle(forward=[Tensor([[1.0]])],
                         biases=[Tensor([0.0]), Tensor([0.0])])
        state = NetState([Tensor([0.5]), Tensor([0.5])])
        rho = 0.5 * 1.5 * np.log(1.5) + 0.5 * 0.5 * np.log(0.5)
        expected = -0.25 + 2 * rho
        got = energy(state, w, arch)
        assert abs(got - expected) < 1e-14
        assert abs(got - 0.011624) < 1e-6

    def test_pure_function_of_state(self):
        rng = np.random.default_rng(8)
        arch = fban(7, [5, 3])
        w = random_fc_bundle(arch, rng, bias_scale=0.1)
        state = random_state(arch, rng)
        assert energy(state, w, arch) == energy(state, w, arch)

    def test_batched_energy_matches_per_item(self):
        rng = np.random.default_rng(9)
        arch = fban(6, [4])
        w = random_fc_bundle(arch, rng, bias_scale=0.1)
        xs = rng.uniform(-0.9, 0.9, size=(5, 6))
        hs = rng.uniform(-0.9, 0.9, size=(5, 4))
        batched = NetState([Tensor(xs), Tensor(hs)])
        evec = energy(batched, w, arch)
        assert evec.shape == (5,)
        for i in range(5):
            single = NetState([Tensor(xs[i]), Tensor(hs[i])])
            assert abs(evec[i] - energy(single, w, arch)) < 1e-12

    def test_external_bias_term_per_item(self):
        rng = np.random.default_rng(11)
        arch = dataclasses.replace(fban(6, [4]), evidence="external_bias")
        w = random_fc_bundle(arch, rng, bias_scale=0.1)
        xs = rng.uniform(-0.9, 0.9, size=(3, 6))
        hs = rng.uniform(-0.9, 0.9, size=(3, 4))
        mask = rng.random((3, 6)) < 0.5
        ev = EvidenceConstraint(mask=mask, values=np.where(mask, 0.4, 0.0))
        with_ev = energy(NetState([Tensor(xs), Tensor(hs)], evidence=ev), w, arch)
        without = energy(NetState([Tensor(xs), Tensor(hs)]), w, arch)
        np.testing.assert_allclose(without - with_ev, (ev.values * xs).sum(axis=1),
                                   atol=1e-12)
        # clamped evidence adds no term
        clamp = dataclasses.replace(arch, evidence="clamp")
        np.testing.assert_array_equal(
            energy(NetState([Tensor(xs), Tensor(hs)], evidence=ev), w, clamp),
            energy(NetState([Tensor(xs), Tensor(hs)]), w, clamp))


class TestSettle:
    def test_fixed_point_reports_t_star_one(self):
        rng = np.random.default_rng(10)
        arch = fban(6, [5])
        w = random_fc_bundle(arch, rng)
        settled, _ = settle(random_state(arch, rng), w, arch, theta=1e-12,
                            max_iters=500)
        _, report = settle(settled, w, arch, theta=1e-3, max_iters=50)
        assert report.converged and report.t_star == 1
        assert report.cycle_length == 0
        assert len(report.energy_trace) == 1
        assert len(report.max_delta_trace) == 1

    def test_symmetric_net_converges_with_descent(self):
        rng = np.random.default_rng(11)
        arch = fban(10, [10])
        w = random_fc_bundle(arch, rng, scale=0.1)
        _, report = settle(random_state(arch, rng), w, arch, theta=1e-3)
        assert report.converged
        assert np.all(np.diff(report.energy_trace) <= 1e-9)

    def test_asymmetric_net_can_cycle(self):
        rng = np.random.default_rng(2)
        arch = fban(10, [10], symmetric=False)
        w = WeightBundle(
            forward=[Tensor(rng.normal(scale=1.2, size=(10, 10)))],
            biases=[Tensor(np.zeros(10)), Tensor(np.zeros(10))],
            reverse=[Tensor(rng.normal(scale=1.2, size=(10, 10)))],
        )
        state = NetState([Tensor(rng.uniform(-0.9, 0.9, size=(10,))),
                          Tensor(rng.uniform(-0.9, 0.9, size=(10,)))])
        _, report = settle(state, w, arch, theta=1e-3, record_energy=False)
        assert not report.converged
        assert report.cycle_length >= 2

    @pytest.mark.parametrize("max_iters", [10, 60])
    def test_trailing_window_matches_full_history(self, max_iters, monkeypatch):
        # max_iters below and above the window: detect_cycle sees exactly
        # the trailing window of the full history and finds the same cycle
        import cban.dynamics as dyn

        rng = np.random.default_rng(2)
        arch = fban(10, [10], symmetric=False)
        w = WeightBundle(
            forward=[Tensor(rng.normal(scale=1.2, size=(10, 10)))],
            biases=[Tensor(np.zeros(10)), Tensor(np.zeros(10))],
            reverse=[Tensor(rng.normal(scale=1.2, size=(10, 10)))],
        )
        state = NetState([Tensor(rng.uniform(-0.9, 0.9, size=(10,))),
                          Tensor(rng.uniform(-0.9, 0.9, size=(10,)))])
        for _ in range(50):  # start on the limit cycle, so both windows find it
            state = sweep(state, w, arch)
        window = dyn._CYCLE_WINDOW
        history = [state.snapshot()]
        s = state
        for _ in range(max_iters):
            s = sweep(s, w, arch)
            history.append(s.snapshot())
        expected = detect_cycle(history[-window:], tol=1e-3)
        seen = []
        monkeypatch.setattr(dyn, "detect_cycle",
                            lambda states, tol: seen.append(states) or detect_cycle(states, tol))
        _, report = settle(state, w, arch, theta=1e-3, max_iters=max_iters,
                           record_energy=False)
        assert not report.converged
        assert expected >= 2 and report.cycle_length == expected
        np.testing.assert_array_equal(np.stack(seen[0]), np.stack(history[-window:]))

    def test_converged_run_takes_no_snapshots(self, monkeypatch):
        import cban.dynamics as dyn

        calls = []
        monkeypatch.setattr(NetState, "snapshot",
                            lambda self: calls.append(1) or np.zeros(1))
        rng = np.random.default_rng(11)
        arch = fban(10, [10])
        w = random_fc_bundle(arch, rng, scale=0.1)
        _, report = settle(random_state(arch, rng), w, arch, theta=1e-3,
                           max_iters=100)
        # snapshots start at t = max_iters + 1 - window
        assert report.converged and report.t_star < 101 - dyn._CYCLE_WINDOW
        assert calls == []

    def test_diverging_state_aborts_with_context(self):
        import warnings

        arch = fban(2, [2], activation_kind=LeakySigmoid(0.9))
        w = WeightBundle(forward=[Tensor(np.full((2, 2), 1e150))],
                         biases=[Tensor(np.zeros(2)), Tensor(np.zeros(2))])
        state = NetState([Tensor([0.5, 0.5]), Tensor([0.5, 0.5])])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="diverged during iteration"):
                settle(state, w, arch, theta=1e-3, max_iters=50, record_energy=False)

    def test_batched_settle_matches_individual(self):
        rng = np.random.default_rng(12)
        arch = fban(6, [4])
        w = random_fc_bundle(arch, rng, scale=0.2)
        masks = rng.random((3, 6)) < 0.5
        values = np.where(masks, rng.uniform(-0.8, 0.8, size=(3, 6)), 0.0)
        ev = EvidenceConstraint(mask=masks, values=values)
        state, _ = settle(initial_state(arch, ev, batch=3), w, arch, theta=1e-9,
                          max_iters=500, record_energy=False)
        for i in range(3):
            evi = EvidenceConstraint(mask=masks[i], values=values[i])
            si, _ = settle(initial_state(arch, evi), w, arch, theta=1e-9,
                           max_iters=500, record_energy=False)
            np.testing.assert_allclose(state.activations[0].data[i],
                                       si.activations[0].data, atol=1e-7)

    def test_fixed_point_stationarity(self):
        # at convergence every unit's recomputed update reproduces its value
        rng = np.random.default_rng(13)
        arch = fban(9, [7, 4])
        w = random_fc_bundle(arch, rng, scale=0.25, bias_scale=0.1)
        theta = 1e-9
        state, report = settle(random_state(arch, rng), w, arch, theta=theta,
                               max_iters=1000, record_energy=False)
        assert report.converged
        for l in range(arch.n_layers):
            pre = layer_preactivation(state, w, arch, l)
            recomputed = np.tanh(pre.data)
            assert np.max(np.abs(recomputed - state.activations[l].data)) < theta

    def test_clamp_conditioning(self):
        # settling minimizes energy over the unclamped coordinates only
        rng = np.random.default_rng(14)
        arch = fban(8, [5])
        w = random_fc_bundle(arch, rng, scale=0.4)
        mask = rng.random(8) < 0.4
        ev = EvidenceConstraint(mask=mask, values=np.where(mask, 0.6, 0.0))
        state, report = settle(initial_state(arch, ev), w, arch, theta=1e-10,
                               max_iters=2000, record_energy=False)
        assert report.converged
        e0 = energy(state, w, arch)
        free = [(0, i) for i in range(8) if not mask[i]] + [(1, j) for j in range(5)]
        for layer, idx in free:
            for delta in (1e-3, -1e-3):
                acts = [Tensor(a.data.copy()) for a in state.activations]
                bumped = acts[layer].data.copy()
                bumped[idx] += delta
                acts[layer] = Tensor(bumped)
                e1 = energy(NetState(acts, evidence=ev), w, arch)
                assert e1 >= e0 - 1e-6


class TestLayerwiseEnergyDescent:
    def test_fc_descent_100_trials(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            depth = int(rng.integers(1, 3))
            sizes = rng.integers(2, 16, size=depth + 1)
            arch = fban(int(sizes[0]), [int(s) for s in sizes[1:]])
            w = random_fc_bundle(arch, rng, scale=0.5, bias_scale=0.2)
            state = random_state(arch, rng)
            e = energy(state, w, arch)
            for _ in range(5):
                for l in sweep_order(arch.n_layers):
                    state = update_layer(state, w, arch, l)
                    e2 = energy(state, w, arch)
                    assert e2 <= e + 1e-9
                    e = e2

    def test_fc_descent_under_external_bias(self):
        # the evidence bias adds -<values, x_visible> to the energy; without
        # that term, visible updates raise energy() in some trials
        rng = np.random.default_rng(18)
        rises = []
        for trial in range(200):
            depth = int(rng.integers(1, 3))
            sizes = rng.integers(2, 16, size=depth + 1)
            arch = fban(int(sizes[0]), [int(s) for s in sizes[1:]])
            arch = dataclasses.replace(arch, evidence="external_bias")
            w = random_fc_bundle(arch, rng, scale=0.5, bias_scale=0.2)
            mask = rng.random(arch.layers[0].units) < 0.5
            ev = EvidenceConstraint(mask=mask, values=np.where(
                mask, rng.uniform(-0.9, 0.9, size=mask.shape), 0.0))
            state = NetState(random_state(arch, rng).activations, evidence=ev)
            e = energy(state, w, arch)
            for _ in range(5):
                for l in sweep_order(arch.n_layers):
                    state = update_layer(state, w, arch, l)
                    e2 = energy(state, w, arch)
                    if e2 > e + 1e-9:
                        rises.append((trial, l, e2 - e))
                    e = e2
        assert not rises, rises

    def test_conv_descent_unpooled(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            c1, c2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            arch = ArchSpec(layers=(conv_layer(c1, 6, 6, visible=True),
                                    conv_layer(c2, 6, 6)),
                            kernel_sizes=(3,))
            w = WeightBundle(
                forward=[ConvKernel(rng.normal(scale=0.2, size=(c2, c1, 3, 3)))],
                biases=[Tensor(rng.normal(scale=0.1, size=(c1,))),
                        Tensor(rng.normal(scale=0.1, size=(c2,)))])
            state = random_state(arch, rng)
            e = energy(state, w, arch)
            for _ in range(5):
                for l in sweep_order(2):
                    state = update_layer(state, w, arch, l)
                    e2 = energy(state, w, arch)
                    assert e2 <= e + 1e-9
                    e = e2

    def test_conv_descent_pooled_empirical(self):
        # the downward map spreads a quarter of each value over the pooled
        # block, the exact transpose of the pooling, so no layer update of
        # any trial may raise the energy, at any weight scale
        rng = np.random.default_rng(17)
        arch = ArchSpec(layers=(conv_layer(1, 8, 8, visible=True),
                                conv_layer(3, 8, 8),
                                conv_layer(5, 4, 4, pool_before=True)),
                        kernel_sizes=(3, 3))
        zero_biases = [Tensor(np.zeros(1)), Tensor(np.zeros(3)), Tensor(np.zeros(5))]
        rises = []
        for std in (0.08, 0.3, 1.0):
            for t in range(40):
                w = WeightBundle(
                    forward=[ConvKernel(rng.normal(scale=std, size=(3, 1, 3, 3))),
                             ConvKernel(rng.normal(scale=std, size=(5, 3, 3, 3)))],
                    biases=zero_biases)
                state = random_state(arch, rng)
                e = energy(state, w, arch)
                for _ in range(5):
                    for l in sweep_order(3):
                        state = update_layer(state, w, arch, l)
                        e2 = energy(state, w, arch)
                        if e2 > e + 1e-9:
                            rises.append((std, t, l, e2 - e))
                        e = e2
        assert not rises, rises


class TestPairMapAdjoint:
    PAIRS = {
        "fc": (fc_layer(5, visible=True), fc_layer(3), 0),
        "conv q<r": (conv_layer(3, 5, 4, visible=True), conv_layer(2, 5, 4), 3),
        "conv q=r": (conv_layer(2, 5, 4, visible=True), conv_layer(2, 5, 4), 5),
        "conv q>r": (conv_layer(2, 5, 4, visible=True), conv_layer(3, 5, 4), 3),
        "conv+pool q<r": (conv_layer(3, 6, 4, visible=True),
                          conv_layer(2, 3, 2, pool_before=True), 3),
        "conv+pool q>r": (conv_layer(2, 6, 4, visible=True),
                          conv_layer(3, 3, 2, pool_before=True), 3),
    }

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_down_map_is_adjoint_of_up_map(self, kind, batch):
        # <y, up(x)> == <down(y), x>, read off the bias-free preactivations
        lo, hi, k = self.PAIRS[kind]
        arch = ArchSpec(layers=(lo, hi), kernel_sizes=(k,))
        w = init_weights(arch, seed=1, conv_std=0.3)
        rng = np.random.default_rng(2)
        lead = () if batch is None else (batch,)
        x = Tensor(rng.normal(size=lead + lo.shape))
        y = Tensor(rng.normal(size=lead + hi.shape))
        state = NetState([x, y])
        up = layer_preactivation(state, w, arch, 1).data
        down = layer_preactivation(state, w, arch, 0).data
        lhs, rhs = float(np.sum(y.data * up)), float(np.sum(down * x.data))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestDetectCycle:
    def test_constant_sequence_period_one(self):
        s = [np.array([0.5, -0.5])] * 5
        assert detect_cycle(s, tol=1e-9) == 1

    def test_alternating_sequence_period_two(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert detect_cycle([a, b, a, b, a], tol=1e-9) == 2

    def test_no_cycle_returns_zero(self):
        s = [np.array([float(i)]) for i in range(6)]
        assert detect_cycle(s, tol=1e-9) == 0

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            detect_cycle([np.zeros(3)], tol=1e-3)

    def test_synchronous_symmetric_periods_are_one_or_two(self):
        rng = np.random.default_rng(18)
        seen = set()
        for _ in range(60):
            n = int(rng.integers(2, 12))
            A = rng.normal(scale=3.0 / np.sqrt(n), size=(n, n))
            W = (A + A.T) / 2
            np.fill_diagonal(W, np.abs(np.diag(W)))
            b = rng.normal(scale=0.2, size=n)
            x = rng.uniform(-1, 1, size=n)
            window = [x.copy()]
            period = 0
            for _ in range(3000):
                x = synchronous_step(x, W, b, Tanh())
                window.append(x.copy())
                if len(window) > 8:
                    window.pop(0)
                if len(window) >= 5:
                    period = detect_cycle(window, tol=1e-8)
                    if period:
                        break
            assert period in (1, 2)
            seen.add(period)
        assert seen == {1, 2}  # both outcomes actually occur at this scale


class TestNorm1Inf:
    def test_zero_weights(self):
        arch = fban(3, [2])
        w = WeightBundle(forward=[Tensor(np.zeros((3, 2)))],
                         biases=[Tensor(np.zeros(3)), Tensor(np.zeros(2))])
        assert norm_1inf(w) == 0.0

    def test_rowwise_example(self):
        w = WeightBundle(forward=[Tensor([[1.0, -2.0], [0.5, 0.5]])],
                         biases=[Tensor(np.zeros(2)), Tensor(np.zeros(2))])
        assert norm_1inf(w) == 3.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(19)
        W = rng.normal(size=(4, 5))
        w1 = WeightBundle(forward=[Tensor(W)],
                          biases=[Tensor(np.zeros(4)), Tensor(np.zeros(5))])
        w2 = WeightBundle(forward=[Tensor(2.5 * W)],
                          biases=[Tensor(np.zeros(4)), Tensor(np.zeros(5))])
        assert abs(norm_1inf(w2) - 2.5 * norm_1inf(w1)) < 1e-12

    def test_interior_layer_sums_both_sides(self):
        w = WeightBundle(
            forward=[Tensor([[1.0], [1.0]]), Tensor([[2.0, -2.0]])],
            biases=[Tensor(np.zeros(2)), Tensor(np.zeros(1)), Tensor(np.zeros(2))])
        # middle unit: |1|+|1| from below plus |2|+|-2| from above = 6
        assert norm_1inf(w) == 6.0

    def test_conv_kernel_norm(self):
        k = np.zeros((2, 1, 3, 3))
        k[0] = 0.1
        k[1] = -0.2
        w = WeightBundle(forward=[ConvKernel(k)],
                         biases=[Tensor(np.zeros(1)), Tensor(np.zeros(2))])
        # upper channel 1 receives 9 * 0.2; lower channel receives 9*(0.1+0.2)
        assert abs(norm_1inf(w) - 2.7) < 1e-12

    def test_pooled_pair_upper_side_exact_lower_side_bounded(self):
        arch = ArchSpec(layers=(conv_layer(1, 8, 8, visible=True),
                                conv_layer(2, 4, 4, pool_before=True)),
                        kernel_sizes=(3,))
        w = init_weights(arch, seed=5, conv_std=0.3)
        k = np.abs(w.forward[0].weights.data)
        # a batch of unit vectors probes each map; summing |outputs| over the
        # batch gives the L1 of the weights each receiving unit sees
        up = layer_preactivation(NetState([Tensor(np.eye(64).reshape(64, 1, 8, 8)),
                                           Tensor(np.zeros((64, 2, 4, 4)))]), w, arch, 1)
        down = layer_preactivation(NetState([Tensor(np.zeros((32, 1, 8, 8))),
                                             Tensor(np.eye(32).reshape(32, 2, 4, 4))]),
                                   w, arch, 0)
        upper = np.abs(up.data).sum(axis=0).max()
        lower = np.abs(down.data).sum(axis=0).max()
        assert abs(upper - k.sum(axis=(1, 2, 3)).max()) < 1e-12
        assert abs(lower - 0.25 * k.sum(axis=(0, 2, 3)).max()) < 1e-12
        assert norm_1inf(w) >= max(upper, lower)


class TestLeakyContraction:
    def test_contractive_nets_reach_fixed_points(self):
        rng = np.random.default_rng(20)
        alpha = 0.2
        for _ in range(20):
            arch = fban(int(rng.integers(3, 10)), [int(rng.integers(3, 10))],
                        activation_kind=LeakySigmoid(alpha))
            w = random_fc_bundle(arch, rng, scale=1.0, bias_scale=0.1)
            target = 0.9 / alpha
            scale = target / norm_1inf(w)
            w = WeightBundle(forward=[Tensor(t.data * scale) for t in w.forward],
                             biases=w.biases)
            assert abs(alpha * norm_1inf(w) - 0.9) < 1e-9
            _, report = settle(random_state(arch, rng), w, arch, theta=1e-6,
                               max_iters=500, record_energy=False)
            assert report.converged and report.cycle_length == 0
