"""Binary PGM (P5) and PPM (P6) reading and writing.

Zero-dependency image files for evidence, completions, and sample grids.
Pixels map affinely between bytes [0, 255] and activations
[-TARGET_BOUND, TARGET_BOUND].
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TARGET_BOUND",
    "read_pgm",
    "read_ppm",
    "read_image",
    "write_pgm",
    "write_ppm",
    "bytes_to_activations",
    "activations_to_bytes",
    "sample_grid",
]

# the largest magnitude of a target or pixel value: strictly inside tanh's
# range, so the inverse activation and barrier of every target are finite
TARGET_BOUND = 0.999
_SPAN = 2 * TARGET_BOUND  # activation range covered by the byte range


def bytes_to_activations(raw):
    return np.asarray(raw, dtype=np.float64) / 255.0 * _SPAN - TARGET_BOUND


def activations_to_bytes(x):
    b = np.rint((np.asarray(x, dtype=np.float64) + TARGET_BOUND) / _SPAN * 255.0)
    return np.clip(b, 0, 255).astype(np.uint8)


def _read_header(f, magic):
    if f.read(2) != magic:
        raise ValueError(f"not a {magic.decode()} file")
    fields = []
    while len(fields) < 3:
        line = f.readline()
        if not line:
            raise ValueError("truncated header")
        text = line.split(b"#", 1)[0]
        fields.extend(int(tok) for tok in text.split())
    width, height, maxval = fields[:3]
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    return width, height


def read_pgm(path):
    """Grayscale image as (height, width) uint8."""
    with open(path, "rb") as f:
        width, height = _read_header(f, b"P5")
        raw = f.read(width * height)
    if len(raw) != width * height:
        raise ValueError("truncated pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width).copy()


def read_ppm(path):
    """Color image as (3, height, width) uint8."""
    with open(path, "rb") as f:
        width, height = _read_header(f, b"P6")
        raw = f.read(width * height * 3)
    if len(raw) != width * height * 3:
        raise ValueError("truncated pixel data")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return img.transpose(2, 0, 1).copy()


def read_image(path):
    """Read PGM or PPM by suffix; returns (channels, height, width) uint8."""
    name = str(path).lower()
    if name.endswith(".pgm"):
        return read_pgm(path)[None]
    if name.endswith(".ppm"):
        return read_ppm(path)
    raise ValueError(f"unsupported image suffix: {path}")


def write_pgm(path, img):
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise ValueError(f"PGM wants a 2-d grayscale image, got {img.shape}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())


def write_ppm(path, img):
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"PPM wants a (3, h, w) image, got {img.shape}")
    h, w = img.shape[1:]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(img.transpose(1, 2, 0).tobytes())


def _to_color_bytes(x):
    b = activations_to_bytes(x)
    if b.ndim == 2:
        return np.stack([b, b, b])
    if b.ndim == 3 and b.shape[0] == 1:
        return np.concatenate([b, b, b], axis=0)
    if b.ndim == 3 and b.shape[0] == 3:
        return b
    raise ValueError(f"cannot render image of shape {x.shape}")


def sample_grid(targets, completions, masks, pad=1):
    """Color grid with one example per column: target, completion, evidence.

    Unobserved evidence pixels render red. Inputs are activation-valued
    images, (h, w) or (c, h, w) with 1 or 3 channels; returns a (3, H, W)
    uint8 image ready for write_ppm.
    """
    rows = [[], [], []]
    for target, completion, mask in zip(targets, completions, masks):
        mask2d = np.asarray(mask, dtype=bool)
        if mask2d.ndim == 3:
            mask2d = mask2d.any(axis=0)
        evidence = _to_color_bytes(np.where(mask, target, 0.0))
        evidence[0][~mask2d] = 255
        evidence[1][~mask2d] = 0
        evidence[2][~mask2d] = 0
        rows[0].append(_to_color_bytes(target))
        rows[1].append(_to_color_bytes(completion))
        rows[2].append(evidence)
    h, w = rows[0][0].shape[1:]
    n = len(rows[0])
    H = 3 * h + 2 * pad
    W = n * w + (n - 1) * pad
    grid = np.full((3, H, W), 128, dtype=np.uint8)
    for r, row in enumerate(rows):
        for c, img in enumerate(row):
            top = r * (h + pad)
            left = c * (w + pad)
            grid[:, top:top + h, left:left + w] = img
    return grid
