"""Each workload end to end at a reduced size, plain and traced."""

import json
from pathlib import Path

import pytest

import run
import workloads
from cban.dynamics import ArchSpec, conv_layer
from test_spans import _bindings

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CONV = [f"tensor.conv.p{p}.{d}.s" for p in range(3) for d in ("up", "down")]


def _small_arch(channels):
    return ArchSpec(layers=(conv_layer(channels, 16, 16, visible=True),
                            conv_layer(3, 16, 16),
                            conv_layer(4, 8, 8, pool_before=True)),
                    kernel_sizes=(3, 3))


def _reduced(name):
    if name == "bar-train":
        return workloads.BarTrain(ROOT, 5, epochs=12, eval_every=4, target_acc=0.0)
    if name == "omniglot-complete":
        return workloads.OmniglotComplete(ROOT, 5, batch=2, n_batches=1, arch=_small_arch(1))
    return workloads.CifarTD1(ROOT, 5, batch=2, n_batches=1, arch=_small_arch(3))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plain_run_checks_pass_and_reports_every_end_to_end_metric(name):
    wl = _reduced(name)
    try:
        verdicts, metrics = run.run_plain(wl, 0.0, probe_setup=lambda: [1.0])
    finally:
        wl.close()
    assert verdicts and all(verdicts)
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]] > 0, m["name"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_per_layer_metrics_and_restores_bindings(name):
    before = _bindings()
    wl = _reduced(name)
    try:
        verdicts, metrics = run.run_traced(wl, 0.0)
    finally:
        wl.close()
    assert _bindings() == before
    assert verdicts and all(verdicts)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    if name == "bar-train":
        assert all(metrics[c] == 0 for c in CONV)
        assert metrics["checkpoint.save_checkpoint.calls"] == 4
        assert metrics["training.epochs_to_acc"] == 4
    elif name == "omniglot-complete":
        assert metrics["tensor.GradTape.gradient.s"] == 0
        assert metrics["dynamics.energy.calls"] == 0
        assert metrics["dynamics.detect_cycle.calls"] == 0
        assert metrics["tensor.conv.p1.down.s"] > 0
    else:
        assert metrics["training.lockstep_useful_ratio"] == 1.0
        assert metrics["dynamics.max_iters_share"] == 1.0
        assert metrics["tensor.GradTape.gradient.s"] > 0
