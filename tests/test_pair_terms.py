"""Pair-term reuse in settle and TD(1): the same numbers from fewer maps.

settle and td1_forward sweep each shard through one runner,
dynamics._ShardRun, which holds one pair term per layer between updates,
so each up or down map is computed once per change of its source layer.
The references here are the plain loops they replace: sweep() for
settle, and for the unrolled TD(1) step helpers.td1_reference, update_layer
and unclamped_visible mapping every term afresh. td1_forward's gradient,
its reverse sweep, is compared with the gradients a per-op tape took of
that reference, frozen as test data (helpers.frozen_td1_gradients). The
runner's held terms are checked after every update against fresh maps of
the current state.
"""

import dataclasses
import threading
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import cban.dynamics
import cban.tensor
import cban.training
from cban.config import load_run_config
from cban.data import Example
from cban.dynamics import (
    ArchSpec,
    EvidenceConstraint,
    LeakySigmoid,
    SettleReport,
    _down_map,
    _max_delta,
    _ShardRun,
    _up_map,
    conv_layer,
    energy,
    fban,
    initial_state,
    settle,
    sweep,
    sweep_order,
)
from cban.tensor import GradTape, Tensor
from cban.training import TrainConfig, init_weights, td1_forward
from helpers import (
    frozen_td1_gradients,
    gradient_projections,
    relative_error,
    td1_reference,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ARCHS = {
    "fc2": fban(25, [50]),  # the bar task's shape
    "fc3": fban(9, [7, 5]),
    "conv4": ArchSpec(layers=(conv_layer(2, 8, 8, visible=True), conv_layer(5, 8, 8),
                              conv_layer(4, 4, 4, pool_before=True),
                              conv_layer(3, 2, 2, pool_before=True)),
                      kernel_sizes=(3, 3, 3)),
    # states reach |x| 1.5-1.7, so both slopes of the leaky sigmoid act
    "fc3-leaky": fban(9, [7, 5], LeakySigmoid(0.2)),
}


def _net(name, evidence, seed=4):
    arch = dataclasses.replace(ARCHS[name], evidence=evidence)
    rng = np.random.default_rng(seed)
    w = init_weights(arch, seed=seed, conv_std=0.3)
    # nonzero biases and larger weights, so every layer moves every sweep
    w = w.with_params([Tensor(p.data + rng.normal(scale=0.3, size=p.shape))
                       for p in w.params()])
    return arch, w, rng


def _mask(shape):
    return np.arange(int(np.prod(shape))).reshape(shape) % 3 == 0


def _settle_reference(state, w, arch, theta, max_iters):
    """settle's loop with every sweep the plain sweep()."""
    batched = state.batched(arch)
    energies, deltas = [], []
    for t in range(1, max_iters + 1):
        prev = state.activations
        state = sweep(state, w, arch)
        d = _max_delta(prev, state.activations, batched)
        deltas.append(d)
        energies.append(energy(state, w, arch))
        if float(np.max(d)) < theta:
            break
    return state, SettleReport(t_star=t, converged=float(np.max(d)) < theta,
                               energy_trace=np.asarray(energies),
                               max_delta_trace=np.asarray(deltas))


@pytest.fixture
def one_worker(monkeypatch):
    """Pin runs to one batch shard: the counts below are per whole batch."""
    monkeypatch.setattr(cban.dynamics, "_workers", 1)


def _two_workers(monkeypatch):
    monkeypatch.setattr(cban.dynamics, "_workers", 2)


def _count_maps(monkeypatch):
    """Count the up and down maps of every thread; returns the one-entry
    list that holds the count."""
    count = [0]
    lock = threading.Lock()
    for name in ("_up_map", "_down_map"):
        real = getattr(cban.dynamics, name)

        def counted(*args, real=real):
            with lock:
                count[0] += 1
            return real(*args)

        monkeypatch.setattr(cban.dynamics, name, counted)
    return count


def _examples(arch, rng, n=3):
    shape = arch.visible_shape
    return [Example(target=rng.uniform(-0.9, 0.9, size=shape), mask=_mask(shape))
            for _ in range(n)]


@pytest.mark.parametrize("evidence", ["clamp", "external_bias"])
@pytest.mark.parametrize("net", list(ARCHS))
class TestSameNumbersAsThePlainLoops:
    @pytest.mark.parametrize("batch", [None, 3])
    def test_settle_matches_a_loop_of_sweep(self, net, evidence, batch):
        arch, w, rng = _net(net, evidence)
        shape = arch.visible_shape if batch is None else (batch,) + arch.visible_shape
        mask = rng.random(shape) < 0.4
        ev = EvidenceConstraint(mask=mask, values=rng.uniform(-0.9, 0.9, shape) * mask)
        start = initial_state(arch, ev, batch=batch)
        got, report = settle(start, w, arch, theta=1e-4, max_iters=12)
        ref, ref_report = _settle_reference(start, w, arch, theta=1e-4, max_iters=12)
        assert report.t_star == ref_report.t_star and report.t_star > 2
        assert report.converged == ref_report.converged
        for a, b in zip(got.activations, ref.activations):
            assert a.tobytes() == b.tobytes()
        assert report.max_delta_trace.tobytes() == ref_report.max_delta_trace.tobytes()
        assert report.energy_trace.tobytes() == ref_report.energy_trace.tobytes()

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e", "delta_e_plus"])
    def test_td1_matches_a_loop_of_cacheless_updates(self, net, evidence, loss_kind):
        arch, w, rng = _net(net, evidence)
        # a theta some items reach before others, so the lockstep mask acts
        _assert_td1_matches_the_reference(
            f"{net}-{evidence}-{loss_kind}", _examples(arch, rng), w, arch,
            TrainConfig(epochs=1, loss=loss_kind, theta=0.02, max_iters=6))


def _assert_td1_matches_the_reference(case, examples, w, arch, cfg):
    """td1_forward against helpers.td1_reference: byte-equal loss and
    deltas, and gradients within 1e-12 relative of the per-op tape's,
    frozen for this case. Returns the reports."""
    with GradTape() as tape:
        loss, reports = td1_forward(examples, w, arch, cfg)
    (grad,) = tape.gradient(loss, w.params())
    grads = w.blocks(grad)
    ref_loss, ref_deltas = td1_reference(examples, w, arch, cfg)
    assert loss.data.tobytes() == ref_loss.tobytes()
    deltas = np.stack([r.max_delta_trace for r in reports], axis=1)
    assert deltas.tobytes() == ref_deltas.tobytes()
    frozen, projection = frozen_td1_gradients(case, arch)
    if projection is not None:
        grads = gradient_projections(grads, **projection)
    for g, ref in zip(grads, frozen, strict=True):
        assert relative_error(g, ref) <= 1e-12
    return reports


def test_td1_matches_the_reference_at_the_cifar10_shape():
    # the shipped CIFAR-10 stack (3 -> 40 -> 120 -> 440, two pooled pairs)
    # with the cifar-td1 benchmark's kernel scale, batch 2, all 6 sweeps
    arch = load_run_config(CONFIGS / "cifar10.json", check_paths=False).arch
    rng = np.random.default_rng(6)
    w = init_weights(arch, seed=0, conv_std=0.01)
    w = w.with_params([Tensor(p.data + rng.normal(scale=0.01, size=p.shape))
                       for p in w.params()])
    reports = _assert_td1_matches_the_reference(
        "cifar10-se", _examples(arch, rng, n=2), w, arch,
        TrainConfig(epochs=1, loss="se", theta=1e-300, max_iters=6))
    assert all(r.t_star == 6 and not r.converged for r in reports)


class _NoSkip(cban.training._TD1Run):
    """td1_forward's runner that takes no start as all zero: it maps the
    zero-start layers too, and their start records keep their values."""

    def __init__(self, state, *args):
        super().__init__(state, *args)
        self.zero = [False] * len(self.zero)
        self.records = [(l, x, None, None) for l, x in enumerate(state.activations)]


# a net and evidence for each way a map can be skipped at the zero start
ZERO_STARTS = {
    "conv4-clamp": ("conv4", "clamp", None),
    "conv4-external_bias": ("conv4", "external_bias", None),
    "fc3-clamp": ("fc3", "clamp", None),
    "fc3-external_bias": ("fc3", "external_bias", None),
    # every map of layer 1's first update is skipped: only its bias is left,
    # which must still take the batched shape
    "fc2-zero_clamp": ("fc2", "clamp", 0.0),
}


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("case", list(ZERO_STARTS))
class TestZeroStartSkipping:
    """Skipping the maps of layers at their zero start changes no number.

    Values are compared with the plain loops. td1_forward's gradients are
    compared with the same run when nothing is skipped.
    """

    @staticmethod
    def _setup(case, batch=20):
        net, evidence, value = ZERO_STARTS[case]
        arch, w, rng = _net(net, evidence)
        shape = (batch,) + arch.visible_shape
        mask = rng.random(shape) < 0.4
        values = rng.uniform(-0.9, 0.9, shape) if value is None else np.full(shape, value)
        ev = EvidenceConstraint(mask=mask, values=values * mask)
        return arch, w, rng, initial_state(arch, ev, batch=batch)

    def test_settle(self, case):
        arch, w, _, start = self._setup(case)
        got = settle(start, w, arch, theta=1e-300, max_iters=3, record_energy=False)[0]
        ref = start
        for _ in range(3):
            ref = sweep(ref, w, arch)
        for a, b, spec in zip(got.activations, ref.activations, arch.layers):
            assert a.shape == (20,) + spec.shape
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e_plus"])
    def test_td1_forward(self, case, loss_kind, monkeypatch):
        arch, w, rng, _ = self._setup(case)
        examples = _examples(arch, rng, n=4)
        if ZERO_STARTS[case][2] is not None:
            examples = [Example(target=np.zeros_like(e.target), mask=e.mask)
                        for e in examples]
        cfg = TrainConfig(epochs=1, loss=loss_kind, theta=0.02, max_iters=4)

        def step():
            with GradTape() as tape:
                loss, _ = td1_forward(examples, w, arch, cfg)
            return loss.data, tape.gradient(loss, w.params())

        loss, grads = step()
        ref_loss, _ = td1_reference(examples, w, arch, cfg)
        monkeypatch.setattr(cban.training, "_TD1Run", _NoSkip)
        noskip_loss, noskip_grads = step()
        np.testing.assert_array_equal(loss, ref_loss)
        np.testing.assert_array_equal(loss, noskip_loss)
        for g, ref in zip(grads, noskip_grads):
            np.testing.assert_array_equal(g, ref)

    def test_settle_per_shard(self, case, monkeypatch):
        # each of two shards skips what the whole batch skips: the same
        # states from exactly twice the whole batch's maps (none on fc nets)
        arch, w, _, start = self._setup(case)
        maps = _count_maps(monkeypatch)

        def run():
            maps[0] = 0
            state, _ = settle(start, w, arch, theta=1e-300, max_iters=3, record_energy=False)
            return state, maps[0]

        one, one_maps = run()
        _two_workers(monkeypatch)
        two, two_maps = run()
        for a, b in zip(one.activations, two.activations):
            assert a.tobytes() == b.tobytes()
        assert two_maps == (2 if arch.layers[0].kind == "conv" else 1) * one_maps

    def test_td1_forward_per_shard(self, case, monkeypatch):
        arch, w, rng, _ = self._setup(case)
        examples = _examples(arch, rng, n=4)
        cfg = TrainConfig(epochs=1, loss="delta_e_plus", theta=0.02, max_iters=4)
        maps = _count_maps(monkeypatch)

        def run():
            maps[0] = 0
            with GradTape() as tape:
                loss, _ = td1_forward(examples, w, arch, cfg)
            return loss.data, tape.gradient(loss, w.params()), maps[0]

        loss, grads, one_maps = run()
        _two_workers(monkeypatch)
        two_loss, two_grads, two_maps = run()
        assert two_loss.tobytes() == loss.tobytes()
        for g, h in zip(grads, two_grads):
            assert relative_error(g, h) <= 1e-12
        assert two_maps == (2 if arch.layers[0].kind == "conv" else 1) * one_maps


@pytest.mark.usefixtures("one_worker")
class TestMapsPerSweep:
    """Each map is computed once per change of its source layer."""

    @pytest.fixture
    def maps(self, monkeypatch):
        return _count_maps(monkeypatch)

    @staticmethod
    def _per_sweep(maps, run, sweeps=3):
        """Maps of run(k) for k = 1..sweeps, as counts per added sweep."""
        totals = []
        for k in range(1, sweeps + 1):
            maps[0] = 0
            run(k)
            totals.append(maps[0])
        return [totals[0]] + list(np.diff(totals))

    def _settle_maps(self, maps, net, batch=None):
        arch, w, _ = _net(net, "clamp")
        shape = arch.visible_shape if batch is None else (batch,) + arch.visible_shape
        mask = _mask(shape)
        start = initial_state(arch, EvidenceConstraint(mask=mask, values=0.5 * mask),
                              batch=batch)

        def run(k):
            _, report = settle(start, w, arch, theta=1e-300, max_iters=k,
                               record_energy=False)
            assert report.t_star == k and not report.converged

        return self._per_sweep(maps, run)

    def _td1_maps(self, maps, net):
        arch, w, rng = _net(net, "clamp")
        examples = _examples(arch, rng, n=2)

        def run(k):
            _, reports = td1_forward(examples, w, arch,
                                     TrainConfig(epochs=1, theta=1e-300, max_iters=k))
            assert all(r.t_star == k and not r.converged for r in reports)

        return self._per_sweep(maps, run)

    def test_settle_on_a_4_layer_net(self, maps):
        # up and down once per pair, from the first sweep: the maps of the
        # hidden layers' zero start are skipped
        assert self._settle_maps(maps, "conv4") == [6, 6, 6]

    def test_td1_on_a_4_layer_net(self, maps):
        # one more per sweep for v~ (unclamped_visible)
        assert self._td1_maps(maps, "conv4") == [7, 7, 7]

    def test_td1_on_a_2_layer_net_reuses_the_visible_term(self, maps):
        # the visible update reads v~'s down term
        assert self._td1_maps(maps, "fc2") == [2, 2, 2]

    def test_settle_on_a_4_layer_net_per_shard(self, maps, monkeypatch):
        # a batch of 2 makes the same 6 maps per sweep as one item; on two
        # shards each shard makes them
        assert self._settle_maps(maps, "conv4", batch=2) == [6, 6, 6]
        _two_workers(monkeypatch)
        assert self._settle_maps(maps, "conv4", batch=2) == [12, 12, 12]

    def test_td1_per_shard(self, maps, monkeypatch):
        # two examples on two shards: twice the 7 maps of a 4-layer net; a
        # flat net is never split
        _two_workers(monkeypatch)
        assert self._td1_maps(maps, "conv4") == [14, 14, 14]
        assert self._td1_maps(maps, "fc2") == [2, 2, 2]

    def test_sweep_keeps_computing_every_term(self, maps):
        arch, w, _ = _net("conv4", "clamp")
        mask = _mask(arch.visible_shape)
        sweep(initial_state(arch, EvidenceConstraint(mask=mask, values=0.5 * mask)), w, arch)
        # two maps for each interior update, one for each end update
        assert maps[0] == 10


@pytest.mark.usefixtures("one_worker")
class TestUpdatesStayTraceable:
    """settle and td1_forward call the public update_layer, 2L-2 times per
    sweep and in sweep order, through the bindings a tracer wraps; on
    shards, each shard's thread makes every one of them."""

    @pytest.fixture
    def by_thread(self, monkeypatch):
        seen = defaultdict(list)
        real = cban.dynamics.update_layer

        def counted(state, w, arch, l, *rest):
            seen[threading.get_ident()].append(l)
            return real(state, w, arch, l, *rest)

        # both sweep through dynamics._ShardRun, in dynamics' namespace
        monkeypatch.setattr(cban.dynamics, "update_layer", counted)
        return seen

    @pytest.fixture
    def updates(self, by_thread):
        return by_thread[threading.get_ident()]

    @pytest.mark.parametrize("net", ["fc2", "conv4"])
    def test_settle(self, updates, net):
        arch, w, _ = _net(net, "clamp")
        mask = _mask(arch.visible_shape)
        start = initial_state(arch, EvidenceConstraint(mask=mask, values=0.5 * mask))
        _, report = settle(start, w, arch, theta=1e-300, max_iters=3)
        assert report.t_star == 3
        assert updates == 3 * sweep_order(arch.n_layers)

    @pytest.mark.parametrize("net", ["fc2", "conv4"])
    def test_td1_forward(self, updates, net):
        arch, w, rng = _net(net, "clamp")
        td1_forward(_examples(arch, rng, n=2), w, arch,
                    TrainConfig(epochs=1, theta=1e-300, max_iters=3))
        assert updates == 3 * sweep_order(arch.n_layers)

    @pytest.mark.parametrize("net", ["fc2", "conv4"])
    def test_per_shard(self, by_thread, net, monkeypatch):
        # a batch of 2 on two shards: a conv net's updates run on two
        # threads, each in sweep order; a flat net's on this thread alone
        _two_workers(monkeypatch)
        arch, w, rng = _net(net, "clamp")
        shape = (2,) + arch.visible_shape
        mask = _mask(shape)
        start = initial_state(arch, EvidenceConstraint(mask=mask, values=0.5 * mask), batch=2)
        settle(start, w, arch, theta=1e-300, max_iters=3)
        td1_forward(_examples(arch, rng, n=2), w, arch,
                    TrainConfig(epochs=1, theta=1e-300, max_iters=3))
        shards = 2 if net == "conv4" else 1
        assert len(by_thread) == shards
        assert threading.get_ident() in by_thread
        for seen in by_thread.values():
            assert seen == 6 * sweep_order(arch.n_layers)


class _SlotChecks(_ShardRun):
    """A runner that checks its held terms after every update.

    An interior layer whose last update was upward holds its up term, one
    whose last update was downward its down term, and one not updated yet
    nothing: each held term equals a fresh map of its source's current
    value, so none is stale. The top layer holds nothing, and the visible
    layer only v~'s term on a 2-layer net, until its update.
    """

    def __init__(self, state, w, arch):
        super().__init__(state, w, arch)
        self.last = {}  # interior layer -> direction of its last update
        self.upward = True
        self.checked = 0

    def after_up(self, state):
        self.visible_term(state)
        assert (self.held[0] is not None) == (self.top == 1)
        self.upward = False

    def updated(self, l, state, reads):
        self.last[l] = self.upward
        self.upward = self.upward or l == 0
        x = state.activations
        for k, term in enumerate(self.held):
            if k == 0 and not self.upward:
                continue  # v~'s term, checked by after_up
            if not 0 < k < self.top or k not in self.last:
                assert term is None
            elif self.last[k]:
                assert term.tobytes() == _up_map(x[k - 1], self.w, self.arch, k - 1).tobytes()
            else:
                assert term.tobytes() == _down_map(x[k + 1], self.w, self.arch, k).tobytes()
        self.checked += 1


class TestPairTerms:
    """One held term per layer: the runner's slots after every update."""

    @pytest.mark.parametrize("n_layers", [2, 3, 4, 5])
    def test_between_updates_each_layer_holds_at_most_one_term(self, n_layers):
        arch = fban(4, [5, 3, 6, 2][:n_layers - 1])
        w = init_weights(arch, seed=1)
        w = w.with_params([Tensor(p.data + 0.3) for p in w.params()])
        mask = _mask((2,) + arch.visible_shape)
        run = _SlotChecks(initial_state(arch, EvidenceConstraint(mask, 0.5 * mask), batch=2),
                          w, arch)
        for _ in range(3):
            run.sweep()
            # what a sweep leaves for the next: each interior layer's down term
            x = run.state.activations
            assert run.held[0] is None and run.held[-1] is None
            for k in range(1, n_layers - 1):
                assert run.held[k].tobytes() == _down_map(x[k + 1], w, arch, k).tobytes()
        assert run.checked == 3 * (2 * n_layers - 2)


class TestFinitenessPassesPerUpdate:
    """A layer update checks each map it computes and the sum of its terms,
    once each: the terms are summed and activated in one buffer, so no
    intermediate sum or activation is checked (or allocated) on its own."""

    @pytest.mark.parametrize("evidence", ["clamp", "external_bias"])
    def test_interior_layer_of_the_conv_net(self, evidence, monkeypatch):
        arch, w, _ = _net("conv4", evidence)
        mask = _mask((2,) + arch.visible_shape)
        state = initial_state(arch, EvidenceConstraint(mask=mask, values=0.5 * mask), batch=2)
        counts = {"passes": 0, "maps": 0}
        seen = []

        class Counted(_ShardRun):
            def updated(self, l, state, reads):
                if l == 1:
                    seen.append(counts["maps"])
                    assert counts["passes"] <= counts["maps"] + 1
                counts.update(passes=0, maps=0)

        run = Counted(state, w, arch)
        run.sweep()  # a first sweep, so no layer is at its zero start
        real_check = cban.tensor._check_finite

        def check(arr):
            counts["passes"] += 1
            return real_check(arr)

        monkeypatch.setattr(cban.tensor, "_check_finite", check)
        for name in ("_up_map", "_down_map"):
            def counted(*args, real=getattr(cban.dynamics, name)):
                counts["maps"] += 1
                return real(*args)

            monkeypatch.setattr(cban.dynamics, name, counted)
        seen.clear()
        counts.update(passes=0, maps=0)
        run.sweep()
        # the upward update reuses the down term, the downward one the up term
        assert seen == [1, 1]


class TestFrozenGradients:
    """The loader of the per-op tape's frozen gradients names the case it
    cannot serve."""

    def test_a_case_without_an_entry_is_named(self):
        with pytest.raises(LookupError, match="'fc9-clamp-se'"):
            frozen_td1_gradients("fc9-clamp-se", ARCHS["fc2"])

    @pytest.mark.parametrize("case,net", [("fc2-clamp-se", "fc3"), ("cifar10-se", "conv4")])
    def test_an_entry_of_other_block_shapes_is_named(self, case, net):
        with pytest.raises(ValueError, match=f"'{case}' has block shapes"):
            frozen_td1_gradients(case, ARCHS[net])
