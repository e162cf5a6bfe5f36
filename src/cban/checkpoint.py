"""Binary checkpoints: weights, optimizer state, progress, rng state.

Container layout (little-endian): the 8-byte magic "CBANCKPT", a u32
format version, a u32-length-prefixed JSON metadata block (architecture,
epoch, rng state, optimizer settings, block manifest), then the raw
float32 parameter blocks in declaration order, followed by the optimizer's
first- and second-moment blocks when present. Weights are stored 32-bit to
keep files small; loading widens back to the 64-bit training precision.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .config import arch_from_dict, arch_to_dict
from .dynamics import ArchSpec, WeightBundle, block_shapes
from .tensor import Tensor
from .training import OptState

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"CBANCKPT"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of this version."""


@dataclass
class Checkpoint:
    """What a checkpoint file holds; save_checkpoint writes format VERSION."""

    arch: ArchSpec
    weights: WeightBundle
    opt_state: OptState | None
    epoch: int
    rng_state: dict | None


_OPT_KEYS = ("kind", "lr", "step", "beta1", "beta2", "eps")


def save_checkpoint(path, ckpt):
    arrays = [p.data for p in ckpt.weights.params()]
    opt = ckpt.opt_state
    opt_meta = None
    moment_arrays = []
    if opt is not None:
        opt_meta = {k: getattr(opt, k) for k in _OPT_KEYS}
        opt_meta["has_moments"] = bool(opt.m)
        moment_arrays = list(opt.m) + list(opt.v)
    meta = {
        "arch": arch_to_dict(ckpt.arch),
        "epoch": ckpt.epoch,
        "rng_state": ckpt.rng_state,
        "optimizer": opt_meta,
        "blocks": [list(a.shape) for a in arrays],
    }
    payload = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        for a in arrays + moment_arrays:
            f.write(a.astype(np.float32).tobytes())


def _read_exact(f, n, what):
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return raw


def load_checkpoint(path):
    with open(path, "rb") as f:
        if _read_exact(f, 8, "magic") != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CheckpointError(
                f"checkpoint version {version} not supported (expected {VERSION})")
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length"))
        meta = json.loads(_read_exact(f, meta_len, "metadata"))
        arch = arch_from_dict(meta["arch"])
        shapes, expected = [tuple(s) for s in meta["blocks"]], block_shapes(arch)
        if shapes != expected:
            raise CheckpointError(f"block manifest {shapes} does not match the "
                                  f"architecture's blocks {expected}")

        def read_blocks(what):  # one float32 block per manifest shape, widened
            return [np.frombuffer(_read_exact(f, 4 * int(np.prod(s)), f"{what} {s}"),
                                  dtype=np.float32).astype(np.float64).reshape(s)
                    for s in shapes]

        arrays = read_blocks("block")
        opt_meta = meta.get("optimizer")
        opt = None
        if opt_meta is not None:
            opt = OptState(**{k: opt_meta[k] for k in _OPT_KEYS})
            if opt_meta["has_moments"]:
                opt.m, opt.v = read_blocks("first moment"), read_blocks("second moment")
    weights = WeightBundle.from_params([Tensor(a) for a in arrays], arch.n_layers)
    return Checkpoint(arch=arch, weights=weights, opt_state=opt,
                      epoch=int(meta["epoch"]), rng_state=meta.get("rng_state"))

