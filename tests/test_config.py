"""The config schema: every object the reader makes is readable, and the
shipped configs load to the objects they spell out."""

import typing
from inspect import signature
from pathlib import Path

import pytest

from cban import config, data, dynamics
from cban.config import RunConfig, load_run_config
from cban.data import CompletionData, SquarePatches
from cban.dynamics import ArchSpec, Tanh, conv_layer, fc_layer
from cban.training import TrainConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reachable_callables():
    """What makes each object the reader reads: the train recipe, the
    architecture, each task's data spec and every kind of every object
    read by "kind"."""
    makes = [TrainConfig, ArchSpec] + [make for make, _ in config.TASKS.values()]
    for _, kinds in config._KINDS.values():
        makes += kinds.values()
    return makes


@pytest.mark.parametrize("make", reachable_callables(), ids=lambda make: make.__qualname__)
def test_every_parameter_has_an_annotation_the_reader_reads(make):
    for param in signature(make).parameters.values():
        assert param.annotation in config._READERS or param.annotation in config._KINDS, (
            f"{make.__qualname__}.{param.name} is annotated {param.annotation!r}")


def test_each_task_reads_its_mask_as_a_kind_table():
    assert all(mask in config._KINDS for _, mask in config.TASKS.values())


@pytest.mark.parametrize("alias, module", [("Activation", dynamics), ("PixelMask", data),
                                           ("Mask", data)])
def test_kind_tables_name_the_classes_of_their_annotation(alias, module):
    _, kinds = config._KINDS[alias]
    assert set(kinds.values()) == set(typing.get_args(getattr(module, alias)))


def test_bar_config_loads_to_its_objects():
    assert load_run_config(CONFIGS / "bar.json", check_paths=False) == RunConfig(
        task="bar",
        arch=ArchSpec(layers=(fc_layer(25, visible=True), fc_layer(50)), activation=Tanh()),
        train=TrainConfig(epochs=800, loss="delta_e_plus", optimizer="sgd-l2", lr=0.01,
                          lr_schedule=((600, 0.1),), batch_size=20, theta=0.01,
                          max_iters=100, seed=0),
        mask=None,
        data=None,
        output_dir="out/bar",
        seed=0,
    )


def test_omniglot_config_loads_to_its_objects():
    assert load_run_config(CONFIGS / "omniglot.json", check_paths=False) == RunConfig(
        task="completion",
        arch=ArchSpec(layers=(conv_layer(1, 28, 28, visible=True), conv_layer(128, 28, 28),
                              conv_layer(256, 14, 14, pool_before=True),
                              conv_layer(512, 7, 7, pool_before=True)),
                      activation=Tanh(), kernel_sizes=(3, 3, 3)),
        train=TrainConfig(epochs=120, loss="se", optimizer="adam", lr=0.0005,
                          lr_schedule=((100, 0.1), (120, 0.01)), batch_size=32, theta=0.01,
                          max_iters=100, seed=0, conv_init_std=0.01),
        mask=SquarePatches(diameter_min=3, diameter_max=6, white_fraction=0.25),
        data=CompletionData(folder="../data/omniglot"),
        output_dir="out/omniglot",
        seed=0,
    )
