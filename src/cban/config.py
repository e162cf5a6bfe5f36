"""Run configuration files: parsing and validation.

One reader reads each config object from the signature of the callable
that makes it: a key is a parameter name, the parameter's annotation is
the JSON type of its value, and a parameter without a default is
required. Other keys are refused, and errors name values by dotted key
(`arch.layers[1].units`). An object annotated with a _KINDS key names its
callable by its "kind" key; _READERS reads every other annotation.

The task fixes what `data` reads as and which mask kinds it takes
(TASKS). Data paths resolve against the config file's folder and must
exist, unless check_paths is false.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from inspect import signature
from pathlib import Path

from .data import (
    BernoulliMask,
    CompletionData,
    LabelOnly,
    LabelPlus,
    PerlinMask,
    SquarePatches,
    SupervisedData,
)
from .dynamics import ArchSpec, LeakySigmoid, Tanh, conv_layer, fc_layer
from .training import TrainConfig

__all__ = [
    "RunConfig",
    "load_run_config",
    "run_config_from_dict",
    "arch_to_dict",
    "arch_from_dict",
    "train_from_dict",
]


@dataclass
class RunConfig:
    """One training run: task, architecture, training recipe, data, output."""

    task: str
    arch: ArchSpec
    train: TrainConfig
    mask: Mask | None
    data: SupervisedData | CompletionData | None
    output_dir: str
    seed: int


def arch_to_dict(arch):
    _, kinds = _KINDS["Activation"]
    name = next(n for n, make in kinds.items() if type(arch.activation) is make)
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
        "activation": {"kind": name, **asdict(arch.activation)},
        "evidence": arch.evidence,
    }


# the JSON values each kind of value accepts; JSON true and false load as
# bool, an int subclass, and are refused as numbers
_FIELD_VALUES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "true or false"),
    "list": ((list,), "a list"),
    "object": ((dict,), "an object"),
}


def _checked(value, kind, name):
    """value, refused unless it is a JSON value of `kind` (a _FIELD_VALUES
    key); name is the value's dotted key, for the message."""
    kinds, what = _FIELD_VALUES[kind]
    if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
    return value


def _check_keys(d, allowed, where):
    """Refuse any key of d outside allowed, naming it by its dotted key;
    `where` names d ("" at the top level)."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        names = ", ".join(f"{where}.{key}" if where else key for key in unknown)
        expected = f"some of {sorted(allowed)}" if allowed else "none"
        raise ValueError(f"unknown config key{'s' if len(unknown) > 1 else ''} {names}; "
                         f"expected {expected}")


def _field(d, key, annotation, where):
    """d[key] read as `annotation`, and required; `where` names d ("" at
    the top level)."""
    name = f"{where}.{key}" if where else key
    if key not in d:
        raise ValueError(f"{name} is required")
    return _read(d[key], annotation, name)


def _read_object(make, d, where, tag=()):
    """make(**d), each value read as the annotation of its parameter; `tag`
    lists the keys d carries besides make's parameters."""
    params = signature(make).parameters.values()
    _check_keys(_checked(d, "object", where), [*tag, *(p.name for p in params)], where)
    return make(**{p.name: _field(d, p.name, p.annotation, where)
                   for p in params if p.name in d or p.default is p.empty})


def _read(value, annotation, name):
    """A JSON value read as a parameter annotated `annotation`; name is its
    dotted key."""
    if annotation in _KINDS:
        noun, kinds = _KINDS[annotation]
        kind = _field(_checked(value, "object", name), "kind", "str", name)
        if kind not in kinds:
            raise ValueError(f"unknown {noun} kind {kind!r} at {name}.kind; "
                             f"expected one of {sorted(kinds)}")
        return _read_object(kinds[kind], value, name, tag=("kind",))
    return _READERS[annotation](value, name)


def _sequence(item):
    """The reader of a JSON list of values read as `item`, as a tuple."""
    return lambda value, name: tuple(_read(v, item, f"{name}[{i}]")
                                     for i, v in enumerate(_checked(value, "list", name)))


def _read_schedule(value, name):
    """(epoch, multiplier) pairs from a list of [epoch, multiplier] lists."""
    if not (isinstance(value, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in value)):
        raise ValueError(f"{name} must be a list of [epoch, multiplier] pairs, got {value!r}")
    pairs = []
    for i, (epoch, mult) in enumerate(value):
        if _read(epoch, "int", f"{name}[{i}][0]") < 0:
            raise ValueError(f"{name}[{i}][0] must be >= 0, got {epoch}")
        pairs.append((epoch, _read(mult, "float", f"{name}[{i}][1]")))
    return tuple(pairs)


def arch_from_dict(d, where="arch"):
    """An ArchSpec; a dict without "evidence" (older checkpoints) clamps, and
    "symmetric", which older files carry, may only be true."""
    d = dict(_checked(d, "object", where))
    symmetric = d.pop("symmetric", True)
    if symmetric is not True:
        raise ValueError(f"{where}.symmetric must be true, got {symmetric!r}")
    return _read_object(ArchSpec, d, where)


def train_from_dict(d):
    return _read_object(TrainConfig, d, "train")


# the reader of each annotation outside _KINDS: reader(value, dotted key)
_READERS = {
    "int": lambda value, name: _checked(value, "int", name),
    "float": lambda value, name: float(_checked(value, "float", name)),
    "str": lambda value, name: _checked(value, "str", name),
    "bool": lambda value, name: _checked(value, "bool", name),
    "tuple[int, ...]": _sequence("int"),
    "tuple[LayerSpec, ...]": _sequence("LayerSpec"),
    "tuple[tuple[int, float], ...]": _read_schedule,
    "ArchSpec": arch_from_dict,
}

_PIXEL_MASKS = {"perlin": PerlinMask, "patches": SquarePatches, "bernoulli": BernoulliMask}

# per annotation of an object with a "kind" key: what its kinds are kinds
# of, for messages, and the callable each kind names
_KINDS = {
    "LayerSpec": ("layer", {"fc": fc_layer, "conv": conv_layer}),
    "Activation": ("activation", {"tanh": Tanh, "leaky_sigmoid": LeakySigmoid}),
    "PixelMask": ("pixel mask", _PIXEL_MASKS),
    "Mask": ("mask", {**_PIXEL_MASKS, "label_only": LabelOnly, "label_plus": LabelPlus}),
}

# per task: what makes its data spec (the bar task's takes no entries and
# makes None), and the annotation its mask reads as
TASKS = {
    "bar": (lambda: None, "Mask"),
    "mnist-supervised": (SupervisedData, "Mask"),
    "completion": (CompletionData, "PixelMask"),
}


def _data_path(value, key, base_dir):
    """The path of data entry `key`, relative to base_dir, refused unless
    it exists."""
    path = Path(value)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    if not path.exists():
        raise FileNotFoundError(f"data path {key!r} does not exist: {path}")
    return str(path)


def run_config_from_dict(d, base_dir=None, check_paths=True):
    """A RunConfig; train.seed defaults to the top-level seed."""
    _check_keys(_checked(d, "object", "the config"), [f.name for f in fields(RunConfig)], "")
    seed = _field(d, "seed", "int", "")
    task = _field(d, "task", "str", "")
    if task not in TASKS:
        raise ValueError(f"task must be one of {tuple(TASKS)}, got {task!r}")
    make_data, mask_annotation = TASKS[task]
    data = _read_object(make_data, d.get("data", {}), "data")
    if check_paths and data is not None:
        data = replace(data, **{f.name: _data_path(getattr(data, f.name), f.name, base_dir)
                                for f in fields(data) if f.type == "str"})
    train = _checked(d.get("train", {}), "object", "train")
    mask = d.get("mask")
    return RunConfig(
        task=task,
        arch=_field(d, "arch", "ArchSpec", ""),
        train=train_from_dict({"seed": seed, **train}),
        mask=None if mask is None else _read(mask, mask_annotation, "mask"),
        data=data,
        output_dir=_read(d.get("output_dir", "out"), "str", "output_dir"),
        seed=seed,
    )


def load_run_config(path, check_paths=True):
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    with open(path) as f:
        d = json.load(f)
    return run_config_from_dict(d, base_dir=path.parent, check_paths=check_paths)
