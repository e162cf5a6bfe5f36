"""Run configuration files: parsing and validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .data import BernoulliMask, LabelOnly, LabelPlus, PerlinMask, SquarePatches
from .dynamics import ArchSpec, LeakySigmoid, Tanh, conv_layer, fc_layer
from .training import TrainConfig

__all__ = [
    "RunConfig",
    "load_run_config",
    "run_config_from_dict",
    "arch_to_dict",
    "arch_from_dict",
    "mask_from_dict",
    "train_from_dict",
]

TASKS = ("bar", "mnist-supervised", "completion")


@dataclass
class RunConfig:
    """One training run: task, architecture, training recipe, data, output."""

    task: str
    arch: ArchSpec
    train: TrainConfig
    mask: object | None
    data: dict
    output_dir: str
    seed: int

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")


def _activation_to_dict(kind):
    if isinstance(kind, Tanh):
        return {"kind": "tanh"}
    return {"kind": "leaky_sigmoid", "alpha": kind.alpha}


def _activation_from_dict(d):
    if d["kind"] == "tanh":
        return Tanh()
    if d["kind"] == "leaky_sigmoid":
        return LeakySigmoid(float(d["alpha"]))
    raise ValueError(f"unknown activation kind {d['kind']!r}")


def arch_to_dict(arch):
    layers = []
    for spec in arch.layers:
        if spec.kind == "fc":
            d = {"kind": "fc", "units": spec.units}
        else:
            d = {"kind": "conv", "channels": spec.channels, "height": spec.height,
                 "width": spec.width, "pool_before": spec.pool_before}
        if spec.visible:
            d["visible"] = True
        layers.append(d)
    return {
        "layers": layers,
        "kernel_sizes": list(arch.kernel_sizes),
        "activation": _activation_to_dict(arch.activation),
        "evidence": arch.evidence,
    }


def _check_keys(d, allowed, where):
    """Refuse any key of d outside allowed, naming it and where it sits."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; "
                         f"expected some of {sorted(allowed)}")


def arch_from_dict(d):
    """An ArchSpec; a dict without "evidence" (older checkpoints) clamps, and
    "symmetric", which older files carry, may only be true."""
    _check_keys(d, ("layers", "kernel_sizes", "activation", "symmetric", "evidence"), "arch")
    if d.get("symmetric", True) is not True:
        raise ValueError(f"arch.symmetric must be true, got {d['symmetric']!r}")
    layers = []
    for ld in d["layers"]:
        if ld["kind"] == "fc":
            layers.append(fc_layer(int(ld["units"]), visible=ld.get("visible", False)))
        elif ld["kind"] == "conv":
            layers.append(conv_layer(int(ld["channels"]), int(ld["height"]),
                                     int(ld["width"]),
                                     pool_before=ld.get("pool_before", False),
                                     visible=ld.get("visible", False)))
        else:
            raise ValueError(f"unknown layer kind {ld['kind']!r}")
    return ArchSpec(layers=tuple(layers),
                    kernel_sizes=tuple(int(k) for k in d.get("kernel_sizes", ())),
                    activation=_activation_from_dict(d.get("activation", {"kind": "tanh"})),
                    evidence=d.get("evidence", "clamp"))


def mask_from_dict(d):
    if d is None:
        return None
    kind = d["kind"]
    if kind == "perlin":
        return PerlinMask(frequency=int(d.get("frequency", 7)),
                          obscured_fraction=float(d.get("obscured_fraction", 1 / 3)))
    if kind == "patches":
        return SquarePatches(diameter_min=int(d.get("diameter_min", 3)),
                             diameter_max=int(d.get("diameter_max", 6)),
                             white_fraction=float(d.get("white_fraction", 0.25)))
    if kind == "bernoulli":
        return BernoulliMask(p=float(d["p"]))
    if kind == "label_only":
        return LabelOnly()
    if kind == "label_plus":
        return LabelPlus(inner=mask_from_dict(d["inner"]))
    raise ValueError(f"unknown mask kind {kind!r}")


# the JSON values each annotated TrainConfig field type accepts; JSON true
# and false load as bool, an int subclass, and are refused as numbers
_FIELD_VALUES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def train_from_dict(d):
    _check_keys(d, [f.name for f in fields(TrainConfig)], "train")
    if "epochs" not in d:
        raise ValueError("train.epochs is required")
    for f in fields(TrainConfig):
        if f.name in d and f.type in _FIELD_VALUES:
            kinds, what = _FIELD_VALUES[f.type]
            value = d[f.name]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(
                    f"train.{f.name} must be {what}, got {type(value).__name__}")
    kwargs = dict(d)
    if "lr_schedule" in d:
        try:
            kwargs["lr_schedule"] = tuple((int(e), float(m)) for e, m in d["lr_schedule"])
        except (TypeError, ValueError):
            raise ValueError("train.lr_schedule must be a list of [epoch, multiplier] "
                             f"pairs, got {d['lr_schedule']!r}") from None
    return TrainConfig(**kwargs)


def run_config_from_dict(d, base_dir=None, check_paths=True):
    _check_keys(d, ("task", "seed", "output_dir", "arch", "train", "mask", "data"),
                "top-level")
    if "seed" not in d:
        raise ValueError("config must carry an explicit seed")
    seed = int(d["seed"])
    train_dict = dict(d.get("train", {}))
    train_dict.setdefault("seed", seed)
    data = dict(d.get("data", {}))
    if check_paths:
        for key, value in data.items():
            if not isinstance(value, str):
                continue  # a setting such as "limit", not a path
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            if not path.exists():
                raise FileNotFoundError(f"data path {key!r} does not exist: {path}")
            data[key] = str(path)
    return RunConfig(
        task=d["task"],
        arch=arch_from_dict(d["arch"]),
        train=train_from_dict(train_dict),
        mask=mask_from_dict(d.get("mask")),
        data=data,
        output_dir=str(d.get("output_dir", "out")),
        seed=seed,
    )


def load_run_config(path, check_paths=True):
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    with open(path) as f:
        d = json.load(f)
    return run_config_from_dict(d, base_dir=path.parent, check_paths=check_paths)

