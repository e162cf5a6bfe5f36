"""Seeded procedural inputs for the benchmark workloads.

Nothing here reads a dataset: the Omniglot and CIFAR-10 data are not on
disk, so the conv workloads run on images drawn from the seed. Omniglot
stand-ins are white pen strokes on a black field, because the shipped
Omniglot mask hides a share of the white pixels and needs some to exist.
CIFAR stand-ins are smooth colour fields, because the Perlin mask and the
3-channel visible layer only need natural-looking low-frequency content.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ON = 0.999
OFF = -0.999


def stroke_images(rng, n, size=28):
    """n glyphs of `size`x`size`: 2-4 quadratic Bezier pen strokes each.

    Ink is ON, background OFF, matching the bar task's target range.
    """
    strokes, pen = (2, 4), 1.3
    yy, xx = np.mgrid[0:size, 0:size] + 0.5
    t = np.linspace(0.0, 1.0, 4 * size)[:, None]
    margin = size / 7
    out = np.full((n, size, size), OFF)
    for i in range(n):
        ink = np.zeros((size, size), dtype=bool)
        for _ in range(int(rng.integers(strokes[0], strokes[1] + 1))):
            p = rng.uniform(margin, size - margin, size=(3, 2))
            pts = (1 - t) ** 2 * p[0] + 2 * (1 - t) * t * p[1] + t ** 2 * p[2]
            d2 = ((yy[None] - pts[:, 0, None, None]) ** 2
                  + (xx[None] - pts[:, 1, None, None]) ** 2).min(axis=0)
            ink |= d2 <= pen * pen
        out[i][ink] = ON
    return out


def colour_fields(rng, n, channels=3, size=32):
    """n smooth (channels, size, size) images in (-0.9, 0.9).

    Each channel is a bilinear interpolation of a random 5x5 lattice,
    squashed with tanh.
    """
    grid, amplitude = 5, 0.9
    pos = np.linspace(0.0, grid - 1.0, size)
    i0 = np.minimum(pos.astype(int), grid - 2)
    f = pos - i0
    lattice = rng.normal(size=(n, channels, grid, grid))
    rows = lattice[:, :, i0, :] * (1 - f)[:, None] + lattice[:, :, i0 + 1, :] * f[:, None]
    img = rows[..., i0] * (1 - f) + rows[..., i0 + 1] * f
    return amplitude * np.tanh(img)


def bar_config_copy(repo_root, out_dir, epochs=None):
    """Write configs/bar.json with output_dir pointing into `out_dir`.

    output_dir resolves against the working directory, not the config
    file, so it is written absolute. `epochs`, if given, shortens the run.
    Returns the copy's path.
    """
    with open(Path(repo_root) / "configs" / "bar.json") as f:
        cfg = json.load(f)
    cfg["output_dir"] = str(Path(out_dir).resolve() / "run")
    if epochs is not None:
        cfg["train"]["epochs"] = int(epochs)
    path = Path(out_dir) / "bar.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path
