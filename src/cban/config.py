"""Run configuration files: parsing and validation."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
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
    where = "arch.activation"
    kind = _get(_checked(d, "object", where), "kind", "str", where)
    if kind == "tanh":
        _check_keys(d, ("kind",), where)
        return Tanh()
    if kind == "leaky_sigmoid":
        _check_keys(d, ("kind", "alpha"), where)
        return LeakySigmoid(float(_get(d, "alpha", "float", where)))
    raise ValueError(f"unknown activation kind {kind!r}")


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


# the JSON values each kind of config value accepts, by the name of its
# TrainConfig annotation where it has one; JSON true and false load as bool,
# an int subclass, and are refused as numbers
_FIELD_VALUES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "bool": ((bool,), "true or false"),
    "list": ((list,), "a list"),
    "object": ((dict,), "an object"),
}

_REQUIRED = object()


def _checked(value, kind, name):
    """value, refused unless it is a JSON value of `kind` (a _FIELD_VALUES
    key); name is the value's dotted key, for the message."""
    kinds, what = _FIELD_VALUES[kind]
    if isinstance(value, bool) != (bool in kinds) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
    return value


def _get(d, key, kind, where, default=_REQUIRED):
    """d[key] checked as `kind`, or default where d lacks the key; `where`
    names d ("" at the top level), and a key without a default is required."""
    name = f"{where}.{key}" if where else key
    if key not in d:
        if default is _REQUIRED:
            raise ValueError(f"{name} is required")
        return default
    return _checked(d[key], kind, name)


def _check_keys(d, allowed, where):
    """Refuse any key of d outside allowed, naming it by its dotted key;
    `where` names d ("" at the top level)."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        names = ", ".join(f"{where}.{key}" if where else key for key in unknown)
        raise ValueError(f"unknown config key{'s' if len(unknown) > 1 else ''} {names}; "
                         f"expected some of {sorted(allowed)}")


# the keys a layer of each kind may carry
_LAYER_KEYS = {
    "fc": ("kind", "units", "visible", "pool_before"),
    "conv": ("kind", "channels", "height", "width", "visible", "pool_before"),
}

# the keys a mask of each kind may carry
_MASK_KEYS = {
    "perlin": ("kind", "frequency", "obscured_fraction"),
    "patches": ("kind", "diameter_min", "diameter_max", "white_fraction"),
    "bernoulli": ("kind", "p"),
    "label_only": ("kind",),
    "label_plus": ("kind", "inner"),
}


def arch_from_dict(d):
    """An ArchSpec; a dict without "evidence" (older checkpoints) clamps, and
    "symmetric", which older files carry, may only be true."""
    _check_keys(_checked(d, "object", "arch"),
                ("layers", "kernel_sizes", "activation", "symmetric", "evidence"), "arch")
    if d.get("symmetric", True) is not True:
        raise ValueError(f"arch.symmetric must be true, got {d['symmetric']!r}")
    layers = []
    for i, ld in enumerate(_get(d, "layers", "list", "arch")):
        where = f"arch.layers[{i}]"
        kind = _get(_checked(ld, "object", where), "kind", "str", where)
        if kind not in _LAYER_KEYS:
            raise ValueError(f"unknown layer kind {kind!r}")
        _check_keys(ld, _LAYER_KEYS[kind], where)
        visible = _get(ld, "visible", "bool", where, False)
        pool_before = _get(ld, "pool_before", "bool", where, False)
        if kind == "fc":
            if pool_before:
                raise ValueError(f"{where}.pool_before is only valid on conv layers")
            layers.append(fc_layer(_get(ld, "units", "int", where), visible=visible))
        else:
            layers.append(conv_layer(*(_get(ld, key, "int", where)
                                       for key in ("channels", "height", "width")),
                                     pool_before=pool_before, visible=visible))
    sizes = _get(d, "kernel_sizes", "list", "arch", [])
    return ArchSpec(layers=tuple(layers),
                    kernel_sizes=tuple(_checked(k, "int", f"arch.kernel_sizes[{i}]")
                                       for i, k in enumerate(sizes)),
                    activation=_activation_from_dict(d.get("activation", {"kind": "tanh"})),
                    evidence=_get(d, "evidence", "str", "arch", "clamp"))


def mask_from_dict(d, where="mask"):
    if d is None:
        return None
    kind = _get(_checked(d, "object", where), "kind", "str", where)
    if kind not in _MASK_KEYS:
        raise ValueError(f"unknown mask kind {kind!r}")
    _check_keys(d, _MASK_KEYS[kind], where)

    def get(key, value_kind, default=_REQUIRED):
        return _get(d, key, value_kind, where, default)

    if kind == "perlin":
        return PerlinMask(frequency=get("frequency", "int", 7),
                          obscured_fraction=float(get("obscured_fraction", "float", 1 / 3)))
    if kind == "patches":
        return SquarePatches(diameter_min=get("diameter_min", "int", 3),
                             diameter_max=get("diameter_max", "int", 6),
                             white_fraction=float(get("white_fraction", "float", 0.25)))
    if kind == "bernoulli":
        return BernoulliMask(p=float(get("p", "float")))
    if kind == "label_only":
        return LabelOnly()
    return LabelPlus(inner=mask_from_dict(get("inner", "object"), f"{where}.inner"))


def train_from_dict(d):
    _check_keys(d, [f.name for f in fields(TrainConfig)], "train")
    for f in fields(TrainConfig):  # a field without a default is required
        if f.type in _FIELD_VALUES:
            _get(d, f.name, f.type, "train", _REQUIRED if f.default is MISSING else None)
    kwargs = dict(d)
    if "lr_schedule" in d:
        schedule = d["lr_schedule"]
        if not (isinstance(schedule, list)
                and all(isinstance(pair, list) and len(pair) == 2 for pair in schedule)):
            raise ValueError("train.lr_schedule must be a list of [epoch, multiplier] "
                             f"pairs, got {schedule!r}")
        pairs = []
        for i, (epoch, mult) in enumerate(schedule):
            where = f"train.lr_schedule[{i}]"
            if _checked(epoch, "int", f"{where}[0]") < 0:
                raise ValueError(f"{where}[0] must be >= 0, got {epoch}")
            pairs.append((epoch, float(_checked(mult, "float", f"{where}[1]"))))
        kwargs["lr_schedule"] = tuple(pairs)
    return TrainConfig(**kwargs)


def run_config_from_dict(d, base_dir=None, check_paths=True):
    _check_keys(_checked(d, "object", "the config"),
                ("task", "seed", "output_dir", "arch", "train", "mask", "data"), "")
    seed = _get(d, "seed", "int", "")
    train_dict = dict(_get(d, "train", "object", "", {}))
    train_dict.setdefault("seed", seed)
    data = dict(_get(d, "data", "object", "", {}))
    for key, value in data.items():
        # "limit" is a setting; every other entry is a path
        _checked(value, "int" if key == "limit" else "str", f"data.{key}")
        if check_paths and key != "limit":
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            if not path.exists():
                raise FileNotFoundError(f"data path {key!r} does not exist: {path}")
            data[key] = str(path)
    return RunConfig(
        task=_get(d, "task", "str", ""),
        arch=arch_from_dict(_get(d, "arch", "object", "")),
        train=train_from_dict(train_dict),
        mask=mask_from_dict(d.get("mask")),
        data=data,
        output_dir=_get(d, "output_dir", "str", "", "out"),
        seed=seed,
    )


def load_run_config(path, check_paths=True):
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    with open(path) as f:
        d = json.load(f)
    return run_config_from_dict(d, base_dir=path.parent, check_paths=check_paths)

