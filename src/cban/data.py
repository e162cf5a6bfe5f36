"""Task data: the bar task, IDX digit files, label coding, and masking.

Masks follow one convention everywhere: boolean arrays with True marking
observed (evidence) positions and False marking positions the network must
fill in. Targets live in [-0.999, 0.999] so they stay strictly inside the
tanh range.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .imageio import bytes_to_activations, read_image

__all__ = [
    "Example",
    "PerlinMask",
    "SquarePatches",
    "BernoulliMask",
    "LabelOnly",
    "LabelPlus",
    "generate_mask",
    "channel_mask",
    "gen_bar_patterns",
    "gen_bar_evidence",
    "bar_consistency_count",
    "BarTask",
    "bar_eval_set",
    "load_idx",
    "save_idx",
    "encode_label",
    "decode_label",
    "perlin_mask",
    "square_patch_mask",
    "bernoulli_mask",
    "LABEL_UNITS",
    "make_supervised_example",
    "SupervisedDigits",
    "load_image_folder",
    "ImageFolderCompletion",
    "ReplicatedCompletion",
    "replicated_example",
]

ON = 0.999
OFF = -0.999


@dataclass
class Example:
    """A completion problem: full target plus the observed-position mask."""

    target: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.target.shape != self.mask.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} != target shape {self.target.shape}")
        if not self.mask.any() or self.mask.all():
            raise ValueError("need at least one observed and one unobserved unit")


# ---------------------------------------------------------------------------
# mask specifications

@dataclass(frozen=True)
class PerlinMask:
    frequency: int = 7
    obscured_fraction: float = 1.0 / 3.0

    def __post_init__(self):
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if not 0.0 < self.obscured_fraction < 1.0:
            raise ValueError("obscured_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class SquarePatches:
    diameter_min: int = 3
    diameter_max: int = 6
    white_fraction: float = 0.25

    def __post_init__(self):
        if self.diameter_min > self.diameter_max:
            raise ValueError("diameter_min must be <= diameter_max")
        if self.diameter_min < 1:
            raise ValueError("diameters must be >= 1")
        if not 0.0 < self.white_fraction < 1.0:
            raise ValueError("white_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class BernoulliMask:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")


@dataclass(frozen=True)
class LabelOnly:
    """Supervised layout: only the label row is hidden."""


@dataclass(frozen=True)
class LabelPlus:
    """Supervised layout: label row hidden plus pixels per the inner spec."""

    inner: object


def generate_mask(spec, image, rng):
    """Observed-position mask for a 2-d image per the mask specification."""
    h, w = image.shape
    if isinstance(spec, PerlinMask):
        return perlin_mask(h, w, spec.frequency, spec.obscured_fraction, rng)
    if isinstance(spec, SquarePatches):
        return square_patch_mask(image, spec.diameter_min, spec.diameter_max,
                                 spec.white_fraction, rng)
    if isinstance(spec, BernoulliMask):
        return bernoulli_mask(h, w, spec.p, rng)
    raise ValueError(f"cannot generate a pixel mask from {spec!r}")


def channel_mask(spec, image, rng):
    """Observed-position mask for a (c, h, w) image: one pixel mask, drawn
    from the channel-mean image, shared by every channel."""
    pixel = generate_mask(spec, image.mean(axis=0), rng)
    return np.broadcast_to(pixel, image.shape).copy()


# ---------------------------------------------------------------------------
# bar task

def gen_bar_patterns():
    """All 5x5 patterns with exactly two rows on or two columns on, stacked
    as a (20, 5, 5) array."""
    patterns = []
    for i, j in combinations(range(5), 2):
        p = np.full((5, 5), OFF)
        p[i, :] = ON
        p[j, :] = ON
        patterns.append(p)
    for i, j in combinations(range(5), 2):
        p = np.full((5, 5), OFF)
        p[:, i] = ON
        p[:, j] = ON
        patterns.append(p)
    return np.stack(patterns)


def bar_consistency_count(values, mask, patterns):
    """How many of `patterns` agree with the evidence on all observed pixels.

    `patterns` is a list or an array of patterns of the evidence's shape,
    such as gen_bar_patterns(); they are matched as one (n, 25) matrix
    against the observed pixels.
    """
    patterns = np.asarray(patterns)
    stack = patterns.reshape(len(patterns), -1)
    observed = np.asarray(mask, dtype=bool).reshape(-1)
    evidence = np.asarray(values).reshape(-1)[observed]
    return int((stack[:, observed] == evidence).all(axis=1).sum())


def gen_bar_evidence(pattern, rng, patterns, max_tries=100000):
    """Random evidence under which `pattern` is the only consistent completion.

    Rejection sampling: draw an observed-pixel subset, keep it only if
    exactly one of `patterns` (the 20 of gen_bar_patterns()) matches it. A
    nearly full mask is always uniquely consistent, so the loop terminates.
    """
    for _ in range(max_tries):
        k = int(rng.integers(1, 25))  # always >= 1 observed, >= 1 unobserved
        idx = rng.choice(25, size=k, replace=False)
        mask = np.zeros(25, dtype=bool)
        mask[idx] = True
        mask = mask.reshape(5, 5)
        if bar_consistency_count(pattern, mask, patterns) == 1:
            return Example(target=pattern, mask=mask)
    raise RuntimeError("no uniquely-consistent evidence found")


class BarTask:
    """The 20 bar patterns with fresh unique evidence each epoch."""

    def __init__(self):
        self.patterns = gen_bar_patterns()

    def epoch_examples(self, rng):
        return [gen_bar_evidence(p, rng, self.patterns) for p in self.patterns]


def bar_eval_set(rng, n):
    """n fresh unique-evidence states over uniformly drawn bar patterns."""
    patterns = gen_bar_patterns()
    out = []
    for _ in range(n):
        p = patterns[int(rng.integers(len(patterns)))]
        out.append(gen_bar_evidence(p, rng, patterns))
    return out


# ---------------------------------------------------------------------------
# IDX digit files

_IDX_IMAGE_TYPE = 0x08  # unsigned byte


def load_idx(path):
    """Read an IDX file: 3-d image files scale to [-0.999, 0.999] floats,
    1-d label files return integers."""
    with open(path, "rb") as f:
        header = f.read(4)
        if len(header) != 4 or header[0] != 0 or header[1] != 0:
            raise ValueError(f"bad IDX magic in {path}")
        type_byte, ndim = header[2], header[3]
        if type_byte != _IDX_IMAGE_TYPE:
            raise ValueError(f"unsupported IDX type byte 0x{type_byte:02x}")
        if ndim not in (1, 3):
            raise ValueError(f"unsupported IDX dimension count {ndim}")
        dims = struct.unpack(f">{ndim}I", f.read(4 * ndim))
        count = int(np.prod(dims))
        raw = f.read(count)
        if len(raw) != count:
            raise ValueError(f"truncated IDX file {path}")
    data = np.frombuffer(raw, dtype=np.uint8).reshape(dims)
    if ndim == 1:
        return data.astype(np.int64)
    return bytes_to_activations(data)


def save_idx(path, array):
    """Write a uint8 array (1-d labels or 3-d images) in IDX format."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    if arr.ndim not in (1, 3):
        raise ValueError("IDX writer handles 1-d or 3-d uint8 arrays")
    with open(path, "wb") as f:
        f.write(bytes([0, 0, _IDX_IMAGE_TYPE, arr.ndim]))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


# ---------------------------------------------------------------------------
# label coding

LABEL_UNITS = 28


def encode_label(cls):
    """Redundant pair coding: units 2c and 2c+1 on, the rest off."""
    if not 0 <= cls <= 9:
        raise ValueError(f"class must be 0..9, got {cls}")
    row = np.full(LABEL_UNITS, OFF)
    row[2 * cls] = ON
    row[2 * cls + 1] = ON
    return row


def decode_label(row):
    """Argmax over pair sums; ties resolve to the smaller class index."""
    row = np.asarray(row, dtype=np.float64)
    sums = row[0:20:2] + row[1:20:2]
    return int(np.argmax(sums))


# ---------------------------------------------------------------------------
# masking procedures

def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def _perlin_field(h, w, frequency, rng):
    if frequency < 2:
        return np.zeros((h, w))
    cells = frequency - 1  # gradient lattice of frequency x frequency nodes
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(frequency, frequency))
    gx, gy = np.cos(theta), np.sin(theta)
    ys = (np.arange(h) + 0.5) / h * cells
    xs = (np.arange(w) + 0.5) / w * cells
    yi = np.minimum(ys.astype(int), cells - 1)
    xi = np.minimum(xs.astype(int), cells - 1)
    dy = (ys - yi)[:, None]
    dx = (xs - xi)[None, :]
    yi = yi[:, None]
    xi = xi[None, :]

    def corner(oy, ox):
        return (gy[yi + oy, xi + ox] * (dy - oy)
                + gx[yi + oy, xi + ox] * (dx - ox))

    sy, sx = _smoothstep(dy), _smoothstep(dx)
    top = corner(0, 0) * (1 - sx) + corner(0, 1) * sx
    bot = corner(1, 0) * (1 - sx) + corner(1, 1) * sx
    return top * (1 - sy) + bot * sy


def perlin_mask(h, w, frequency, obscured_fraction, rng):
    """Spatially coherent mask from single-octave gradient noise.

    The field is thresholded at the per-image quantile so that exactly
    round(obscured_fraction * h * w) pixels come out unobserved; the
    unobserved region is blob-like rather than i.i.d. speckle.
    """
    if not 0.0 < obscured_fraction < 1.0:
        raise ValueError("obscured_fraction must lie in (0, 1)")
    field = _perlin_field(h, w, frequency, rng)
    k = int(round(obscured_fraction * h * w))
    order = np.argsort(field.ravel(), kind="stable")
    mask = np.ones(h * w, dtype=bool)
    mask[order[:k]] = False
    return mask.reshape(h, w)


def square_patch_mask(image, diameter_min, diameter_max, white_fraction, rng):
    """Drop random squares until the target share of white pixels is hidden.

    Squares have side drawn uniformly from [diameter_min, diameter_max],
    may overlap, and land uniformly inside the image. "White" means pixel
    value > 0.
    """
    image = np.asarray(image)
    h, w = image.shape
    white = image > 0
    n_white = int(white.sum())
    if n_white == 0:
        raise ValueError("image has no white pixels; the fraction is undefined")
    unobs = np.zeros((h, w), dtype=bool)
    while (unobs & white).sum() / n_white < white_fraction:
        side = int(rng.integers(diameter_min, diameter_max + 1))
        side = min(side, h, w)
        r = int(rng.integers(0, h - side + 1))
        c = int(rng.integers(0, w - side + 1))
        unobs[r:r + side, c:c + side] = True
    return ~unobs


def bernoulli_mask(h, w, p, rng):
    """i.i.d. mask: each pixel unobserved with probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return rng.random((h, w)) >= p


# ---------------------------------------------------------------------------
# supervised digit completion (image plus label row)

def make_supervised_example(image, cls, mask_spec, rng):
    """Stack a digit image with its label row; the label is never observed.

    The visible target is (h+1, w): image rows then one label row. LabelOnly
    leaves every pixel observed; LabelPlus masks pixels per its inner spec;
    a bare pixel-mask spec is treated like LabelPlus(spec).
    """
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape
    if w < LABEL_UNITS:
        raise ValueError(f"image width {w} cannot carry {LABEL_UNITS} label units")
    label_row = np.full(w, OFF)
    label_row[:LABEL_UNITS] = encode_label(cls)
    target = np.vstack([image, label_row])
    if isinstance(mask_spec, LabelOnly):
        pixel_mask = np.ones((h, w), dtype=bool)
    else:
        inner = mask_spec.inner if isinstance(mask_spec, LabelPlus) else mask_spec
        pixel_mask = generate_mask(inner, image, rng)
    mask = np.vstack([pixel_mask, np.zeros(w, dtype=bool)])
    return Example(target=target, mask=mask)


class SupervisedDigits:
    """Digit images with class labels coded into an extra visible row."""

    def __init__(self, images, labels, mask_spec):
        self.images = np.asarray(images, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels disagree in length")
        self.mask_spec = mask_spec

    def epoch_examples(self, rng):
        return [make_supervised_example(img, int(cls), self.mask_spec, rng)
                for img, cls in zip(self.images, self.labels)]


# ---------------------------------------------------------------------------
# generic image completion

def load_image_folder(path):
    """All PGM/PPM images under a directory as (c, h, w) activation arrays."""
    root = Path(path)
    files = sorted(p for p in root.iterdir()
                   if p.suffix.lower() in (".pgm", ".ppm"))
    if not files:
        raise ValueError(f"no PGM/PPM images under {root}")
    return [bytes_to_activations(read_image(p)) for p in files]


class ImageFolderCompletion:
    """Fixed images, fresh masks each epoch, masks shared across channels."""

    def __init__(self, images, mask_spec):
        self.images = [np.asarray(img, dtype=np.float64) for img in images]
        self.mask_spec = mask_spec

    def epoch_examples(self, rng):
        return [Example(target=img, mask=channel_mask(self.mask_spec, img, rng))
                for img in self.images]


def replicated_example(input_image, output_target):
    """Stack input channels (clamped) with output channels (free).

    The visible state carries both copies; the mask observes exactly the
    input copy. Used by architectures that read evidence into one set of
    channels and read the completion out of another.
    """
    input_image = np.asarray(input_image, dtype=np.float64)
    output_target = np.asarray(output_target, dtype=np.float64)
    if input_image.shape != output_target.shape:
        raise ValueError("input and output copies must share a shape")
    target = np.concatenate([input_image, output_target], axis=0)
    mask = np.zeros_like(target, dtype=bool)
    mask[: input_image.shape[0]] = True
    return Example(target=target, mask=mask)


class ReplicatedCompletion:
    """Replicated-visible completion: the observation (masked image, zeros at
    missing pixels) is clamped into the input copy while the output copy
    settles freely toward the clean target."""

    def __init__(self, images, mask_spec):
        self.images = [np.asarray(img, dtype=np.float64) for img in images]
        self.mask_spec = mask_spec

    def epoch_examples(self, rng):
        out = []
        for img in self.images:
            mask = channel_mask(self.mask_spec, img, rng)
            out.append(replicated_example(np.where(mask, img, 0.0), img))
        return out
