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
from .dynamics import ArchSpec, WeightBundle
from .tensor import ConvKernel, Tensor
from .training import OptState

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"CBANCKPT"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of this version."""


@dataclass
class Checkpoint:
    version: int
    arch: ArchSpec
    weights: WeightBundle
    opt_state: OptState | None
    epoch: int
    rng_state: dict | None


def _weight_arrays(weights):
    return [p.data for p in weights.params()]


def save_checkpoint(path, ckpt):
    arrays = _weight_arrays(ckpt.weights)
    opt = ckpt.opt_state
    opt_meta = None
    moment_arrays = []
    if opt is not None:
        opt_meta = {
            "kind": opt.kind,
            "lr": opt.lr,
            "step": opt.step,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
            "has_moments": bool(opt.m),
        }
        if opt.m:
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
        f.write(struct.pack("<I", ckpt.version))
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
        shapes, expected = [tuple(s) for s in meta["blocks"]], _block_shapes(arch)
        if shapes != expected:
            raise CheckpointError(f"block manifest {shapes} does not match the "
                                  f"architecture's blocks {expected}")
        arrays = []
        for shape in shapes:
            count = int(np.prod(shape))
            raw = _read_exact(f, 4 * count, f"block {shape}")
            arrays.append(np.frombuffer(raw, dtype=np.float32)
                          .astype(np.float64).reshape(shape))
        opt_meta = meta.get("optimizer")
        opt = None
        if opt_meta is not None:
            opt = OptState(kind=opt_meta["kind"], lr=opt_meta["lr"],
                           step=opt_meta["step"], beta1=opt_meta["beta1"],
                           beta2=opt_meta["beta2"], eps=opt_meta["eps"])
            if opt_meta["has_moments"]:
                moments = []
                for shape in shapes + shapes:
                    count = int(np.prod(shape))
                    raw = _read_exact(f, 4 * count, "optimizer moments")
                    moments.append(np.frombuffer(raw, dtype=np.float32)
                                   .astype(np.float64).reshape(shape))
                opt.m = moments[: len(shapes)]
                opt.v = moments[len(shapes):]
    weights = _rebuild_weights(arch, arrays)
    return Checkpoint(version=version, arch=arch, weights=weights, opt_state=opt,
                      epoch=int(meta["epoch"]), rng_state=meta.get("rng_state"))


def _block_shapes(arch):
    """The shape of each parameter block, in WeightBundle.params() order."""
    pairs = list(zip(arch.layers[:-1], arch.layers[1:], arch.kernel_sizes))
    if not arch.symmetric:  # reverse blocks map each upper layer a to its lower b
        pairs += [(hi, lo, k) for lo, hi, k in pairs]
    return [(a.units, b.units) if a.kind == "fc" else (b.channels, a.channels, k, k)
            for a, b, k in pairs] + [spec.shape[:1] for spec in arch.layers]


def _rebuild_weights(arch, arrays):
    # the manifest matches _block_shapes(arch): pair blocks, then one bias per layer
    n_pairs, n_layers = arch.n_layers - 1, arch.n_layers
    blocks = [ConvKernel(Tensor(a)) if a.ndim == 4 else Tensor(a)
              for a in arrays[:-n_layers]]
    return WeightBundle(forward=blocks[:n_pairs], reverse=blocks[n_pairs:] or None,
                        biases=[Tensor(a) for a in arrays[-n_layers:]])
