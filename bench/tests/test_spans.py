import sys

import numpy as np
import pytest

import cban
from cban.dynamics import ArchSpec, EvidenceConstraint, conv_layer, initial_state, sweep
from cban.training import init_weights
from spans import Recorder


def _bindings():
    """Every function, method and class attribute the recorder may patch."""
    from cban import data, tensor

    out = {}
    for name, mod in sys.modules.items():
        if name == "cban" or name.startswith("cban."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    for cls in (tensor.GradTape, tensor.Tensor, data.BarTask,
                data.ImageFolderCompletion, data.ReplicatedCompletion,
                data.SupervisedDigits):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7]
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 10])
    rec = Recorder(clock=lambda: next(ticks))
    rec.enter("a")
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.enter("d")
    rec.exit()
    rec.exit()
    assert rec.total_s == {"a": 10, "b": 3, "c": 1, "d": 2}
    assert rec.self_s == {"a": 10 - 3 - 2, "b": 3 - 1, "c": 1, "d": 2}
    assert rec.calls == {"a": 1, "b": 1, "c": 1, "d": 1}


def test_span_closes_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.span("outer", boom)
    assert rec.calls["outer"] == 1 and not rec._stack


def test_wraps_every_lookup_namespace_and_restores_all():
    before = _bindings()
    rec = Recorder()
    with rec:
        import cban.dynamics
        import cban.training

        assert cban.tensor.conv2d_half is not before[("cban.tensor", "conv2d_half")]
        assert cban.dynamics.conv2d_half is not before[("cban.dynamics", "conv2d_half")]
        assert cban.training.update_layer is not before[("cban.training", "update_layer")]
        assert cban.dynamics.update_layer is not before[("cban.dynamics", "update_layer")]
        assert cban.update_layer is not before[("cban", "update_layer")]
        assert cban.tensor.GradTape.gradient is not before[("GradTape", "gradient")]
    assert _bindings() == before


def test_no_span_is_recorded_after_uninstall():
    arch = ArchSpec(layers=(conv_layer(1, 8, 8, visible=True), conv_layer(3, 8, 8),
                            conv_layer(4, 4, 4, pool_before=True)), kernel_sizes=(3, 3))
    w = init_weights(arch, 0, conv_std=0.1)
    mask = np.zeros((2, 1, 8, 8), dtype=bool)
    mask[:, :, :4] = True
    state = initial_state(arch, EvidenceConstraint(mask=mask, values=0.5 * mask), batch=2)
    rec = Recorder(channels=(1, 3, 4))
    with rec:
        sweep(state, w, arch)
    seen = dict(rec.calls)
    # one sweep updates layers 1, 2, 1, 0
    assert seen["tensor.conv.p0.up"] == 2 and seen["tensor.conv.p0.down"] == 1
    assert seen["tensor.conv.p1.up"] == 1 and seen["tensor.conv.p1.down"] == 2
    assert seen["dynamics.update_layer.l0"] == 1 and seen["tensor.avg_pool2"] == 1
    # 2 calls x 2 flop x batch 2 x 3 out x 1 in channel x 3x3 kernel x 8x8 sites
    assert rec.counts["tensor.conv.p0.up.flop"] == 2 * 2 * 2 * 3 * 1 * 9 * 64
    sweep(state, w, arch)
    assert dict(rec.calls) == seen
    assert cban.dynamics.sweep is sweep
