"""Batch shards: a batched run of a conv net sweeps on row shards in lockstep.

settle, complete and td1_forward split such a batch into
min(dynamics._workers, batch) contiguous row shards, swept on threads and
joined after every sweep (dynamics._Lockstep). A layer update reads only
its own item's units, so every number must be the one-worker run's, byte
for byte; the TD(1) gradient is summed over shards, so it must agree to
1e-12. Flat nets never reach the shard threads.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cban.dynamics
from cban.data import Example
from cban.dynamics import (
    ArchSpec,
    EvidenceConstraint,
    LeakySigmoid,
    _Lockstep,
    conv_layer,
    fban,
    initial_state,
    settle,
)
from cban.tensor import GradTape, Tensor
from cban.training import TrainConfig, complete, init_weights, td1_forward
from helpers import relative_error

SRC = Path(__file__).resolve().parents[1] / "src"

NETS = {
    # maps of 196 and 49 positions per item, so a conv GEMM's columns end in
    # a partial block for most batches
    "odd": ArchSpec(layers=(conv_layer(2, 14, 14, visible=True), conv_layer(3, 14, 14),
                            conv_layer(5, 7, 7, pool_before=True)),
                    kernel_sizes=(3, 3)),
    # test_pair_terms' 4-layer net, down to 2x2 maps
    "conv4": ArchSpec(layers=(conv_layer(2, 8, 8, visible=True), conv_layer(5, 8, 8),
                              conv_layer(4, 4, 4, pool_before=True),
                              conv_layer(3, 2, 2, pool_before=True)),
                      kernel_sizes=(3, 3, 3)),
}
BATCHES = [1, 2, 3, 5, 32]


def _net(name, evidence="clamp", seed=4, activation=None):
    arch = dataclasses.replace(NETS[name], evidence=evidence)
    if activation is not None:
        arch = dataclasses.replace(arch, activation=activation)
    rng = np.random.default_rng(seed)
    w = init_weights(arch, seed=seed, conv_std=0.3)
    # nonzero biases and larger weights, so every layer moves every sweep
    w = w.with_params([Tensor(p.data + rng.normal(scale=0.3, size=p.shape))
                       for p in w.params()])
    return arch, w, rng


def _examples(arch, rng, n):
    shape = arch.visible_shape
    return [Example(target=rng.uniform(-0.9, 0.9, size=shape), mask=rng.random(shape) < 0.4)
            for _ in range(n)]


def _start(arch, examples):
    masks = np.stack([e.mask for e in examples])
    values = np.stack([e.target for e in examples]) * masks
    return initial_state(arch, EvidenceConstraint(mask=masks, values=values),
                         batch=len(examples))


@pytest.fixture
def workers(monkeypatch):
    """Set the shard count of the runs that follow."""

    def set_workers(k):
        monkeypatch.setattr(cban.dynamics, "_workers", k)

    return set_workers


def _both(workers, run):
    """run() with one worker, then with two."""
    out = []
    for k in (1, 2):
        workers(k)
        out.append(run())
    return out


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("evidence", ["clamp", "external_bias"])
@pytest.mark.parametrize("net", list(NETS))
class TestTwoWorkersMatchOne:
    def test_settle(self, net, evidence, batch, workers):
        arch, w, rng = _net(net, evidence)
        start = _start(arch, _examples(arch, rng, batch))
        (one, r1), (two, r2) = _both(workers, lambda: settle(
            start, w, arch, theta=1e-4, max_iters=12, record_energy=True))
        assert r2.t_star == r1.t_star and r2.converged == r1.converged
        assert r1.t_star > 2
        for a, b in zip(one.activations, two.activations):
            assert a.tobytes() == b.tobytes()
        assert r2.max_delta_trace.tobytes() == r1.max_delta_trace.tobytes()
        assert r2.energy_trace.shape == (r1.t_star, batch)
        assert r2.energy_trace.tobytes() == r1.energy_trace.tobytes()
        assert two.evidence is start.evidence

    def test_complete(self, net, evidence, batch, workers):
        arch, w, rng = _net(net, evidence)
        examples = _examples(arch, rng, batch)
        (one, r1), (two, r2) = _both(workers, lambda: complete(
            examples, w, arch, theta=1e-4, max_iters=12))
        assert one.tobytes() == two.tobytes()
        assert (r2.t_star, r2.converged) == (r1.t_star, r1.converged)
        assert r2.max_delta_trace.tobytes() == r1.max_delta_trace.tobytes()

    @pytest.mark.parametrize("loss_kind", ["se", "delta_e_plus"])
    def test_td1_forward(self, net, evidence, batch, loss_kind, workers):
        arch, w, rng = _net(net, evidence)
        examples = _examples(arch, rng, batch)
        # a theta some items reach before others, so the lockstep mask acts
        cfg = TrainConfig(epochs=1, loss=loss_kind, theta=0.02, max_iters=6)

        def step():
            with GradTape() as tape:
                loss, reports = td1_forward(examples, w, arch, cfg)
            return loss, reports, tape.gradient(loss, w.params())

        (l1, reps1, g1), (l2, reps2, g2) = _both(workers, step)
        assert l1.data.tobytes() == l2.data.tobytes()
        for a, b in zip(reps1, reps2):
            assert (a.t_star, a.converged) == (b.t_star, b.converged)
            assert a.max_delta_trace.tobytes() == b.max_delta_trace.tobytes()
        for a, b in zip(w.blocks(g1[0]), w.blocks(g2[0]), strict=True):
            assert relative_error(a, b) <= 1e-12


def test_more_shards_than_cores_under_fast_thread_switching(workers):
    # four shards on their threads, which switch every microsecond: a lost
    # or misplaced row would change the bytes
    arch, w, rng = _net("odd", "external_bias")
    examples = _examples(arch, rng, 8)
    cfg = TrainConfig(epochs=1, loss="delta_e_plus", theta=0.02, max_iters=4)

    def run():
        state, report = settle(_start(arch, examples), w, arch, theta=1e-300, max_iters=4)
        loss, _ = td1_forward(examples, w, arch, cfg)
        return [*state.activations, report.energy_trace, report.max_delta_trace, loss.data]

    workers(1)
    one = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers(4)
        four = run()
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(one, four):
        assert a.tobytes() == b.tobytes()


def test_shards_are_contiguous_row_blocks(workers):
    arch, _, rng = _net("conv4")
    start = _start(arch, _examples(arch, rng, 5))
    workers(2)
    rows = _Lockstep(arch, start, lambda rows, state: (rows, state)).shards
    assert [r for r, _ in rows] == [slice(0, 2), slice(2, 5)]
    for r, state in rows:
        assert state.evidence.mask.tobytes() == start.evidence.mask[r].tobytes()
        for a, b in zip(state.activations, start.activations):
            assert a.base is b  # a view of the caller's rows
    workers(8)
    rows = _Lockstep(arch, start, lambda rows, state: rows).shards
    assert rows == [slice(i, i + 1) for i in range(5)]  # never more shards than items


def test_shards_leave_their_inputs_unwritten(workers):
    arch, w, rng = _net("odd", "external_bias")
    examples = _examples(arch, rng, 5)
    start = _start(arch, examples)
    inputs = ([e.target for e in examples] + [e.mask for e in examples]
              + [start.evidence.values, start.evidence.mask] + list(start.activations)
              + [p.data for p in w.params()])
    before = [a.copy() for a in inputs]
    workers(2)
    settle(start, w, arch, theta=1e-300, max_iters=3)
    with GradTape() as tape:
        loss, _ = td1_forward(examples, w, arch, TrainConfig(epochs=1, max_iters=3))
    tape.gradient(loss, w.params())
    complete(examples, w, arch, theta=1e-300, max_iters=3)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()


class TestBlowUps:
    """A state that diverges in the second shard fails as the unsharded run
    does, naming the item by its index in the caller's batch."""

    @staticmethod
    def _diverging(batch=4, item=3):
        # large kernels, zero biases and the leaky sigmoid's unbounded slope:
        # item 3's external-bias evidence grows its states past the float
        # range in sweep 71, while the other items, with zero evidence,
        # stay at zero
        arch = dataclasses.replace(NETS["conv4"], evidence="external_bias",
                                   activation=LeakySigmoid(0.5))
        w = init_weights(arch, seed=4, conv_std=3.0)
        examples = _examples(arch, np.random.default_rng(4), batch)
        examples = [Example(target=e.target * (i == item), mask=e.mask)
                    for i, e in enumerate(examples)]
        return arch, w, examples

    @staticmethod
    def _message(run):
        # numpy's errstate reaches the shard threads: no overflow warning
        # escapes from any of them
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            run()
        return str(info.value)

    def test_settle(self, workers):
        arch, w, examples = self._diverging()
        start = _start(arch, examples)
        one, two = _both(workers, lambda: self._message(
            lambda: settle(start, w, arch, theta=1e-300, max_iters=100, record_energy=False)))
        assert two == one
        assert one.startswith("state diverged during iteration 71: "
                              "non-finite value at index (3, ")
        assert "in tensor of shape (4, " in one

    def test_td1_forward(self, workers):
        arch, w, examples = self._diverging()
        cfg = TrainConfig(epochs=1, loss="se", theta=1e-300, max_iters=100)
        one, two = _both(workers, lambda: self._message(
            lambda: td1_forward(examples, w, arch, cfg)))
        assert two == one
        assert one == "non-finite value at index (3,) in tensor of shape (4,)"


def test_an_fc_net_never_reaches_the_shard_threads(workers, monkeypatch):
    def refuse(shards):
        raise AssertionError("the shard pool was asked for")

    monkeypatch.setattr(cban.dynamics, "_shard_pool", refuse)
    workers(2)
    arch = fban(9, [7, 5])
    w = init_weights(arch, seed=1)
    rng = np.random.default_rng(1)
    examples = [Example(target=rng.uniform(-0.9, 0.9, size=9), mask=rng.random(9) < 0.5)
                for _ in range(6)]
    settle(_start(arch, examples), w, arch, theta=1e-300, max_iters=3)
    complete(examples, w, arch, theta=1e-300, max_iters=3)
    with GradTape() as tape:
        loss, _ = td1_forward(examples, w, arch, TrainConfig(epochs=1, max_iters=3))
    tape.gradient(loss, w.params())
    # nor does an unbatched conv state or a conv batch of one
    arch, w, rng = _net("conv4")
    one = _examples(arch, rng, 1)
    complete(one, w, arch, theta=1e-300, max_iters=3)
    settle(initial_state(arch), w, arch, theta=1e-300, max_iters=3)


def _import_cban(env):
    """Import cban in a fresh interpreter under env; returns its BLAS thread
    variables and shard count."""
    code = ("import os, cban, cban.dynamics; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'), "
            "os.environ.get('MKL_NUM_THREADS'), cban.dynamics._workers)")
    base = {k: v for k, v in os.environ.items()
            if k not in ("CBAN_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    return subprocess.run([sys.executable, "-c", code],
                          env={**base, **env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)


class TestThreadSettings:
    def test_cban_pins_blas_to_one_thread(self):
        out = _import_cban({"CBAN_NUM_THREADS": "2"})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "1", "1", "2"]

    def test_a_thread_count_the_user_set_is_kept(self):
        out = _import_cban({"CBAN_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "3"})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["3", "1", "1", "2"]

    def test_the_shard_count_defaults_to_the_usable_cores(self):
        out = _import_cban({})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-1] == str(len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("value", ["0", "two", "-1"])
    def test_a_shard_count_that_is_not_a_positive_integer_is_refused(self, value):
        out = _import_cban({"CBAN_NUM_THREADS": value})
        assert out.returncode != 0
        assert f"CBAN_NUM_THREADS must be a positive integer, got {value!r}" in out.stderr
