"""Reconstruction and classification quality: PSNR, SSIM, accuracies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import decode_label
from .imageio import TARGET_BOUND

__all__ = [
    "psnr",
    "ssim",
    "check_ssim_extent",
    "completion_accuracy",
    "label_accuracy",
    "MetricSummary",
    "MetricReport",
    "summarize",
]

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5


def psnr(a, b, peak):
    """10 log10(peak^2 / MSE) in decibels; identical inputs give +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    return w / w.sum()


def _window_means(img, kernel):
    wins = sliding_window_view(img, kernel.shape)
    return np.einsum("hwuv,uv->hw", wins, kernel, optimize=True)


def _to_luminance(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        return img.mean(axis=0)
    if img.ndim != 2:
        raise ValueError(f"ssim wants 2-d or (c, h, w) images, got {img.shape}")
    return img


def check_ssim_extent(height, width):
    """Refuse an image extent smaller than the SSIM window."""
    if min(height, width) < _SSIM_WINDOW:
        raise ValueError(f"image {(height, width)} is smaller than the "
                         f"{_SSIM_WINDOW}x{_SSIM_WINDOW} window")


def ssim(a, b, peak):
    """Mean structural similarity over Gaussian-weighted sliding windows.

    11x11 window with sigma 1.5 and the reference stabilizers
    C1 = (0.01 peak)^2, C2 = (0.03 peak)^2. Color inputs are reduced to
    channel-mean luminance first.
    """
    a = _to_luminance(a)
    b = _to_luminance(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    check_ssim_extent(*a.shape)
    kernel = _gaussian_window(_SSIM_WINDOW, _SSIM_SIGMA)
    mu_a = _window_means(a, kernel)
    mu_b = _window_means(b, kernel)
    aa = _window_means(a * a, kernel) - mu_a * mu_a
    bb = _window_means(b * b, kernel) - mu_b * mu_b
    ab = _window_means(a * b, kernel) - mu_a * mu_b
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * ab + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (aa + bb + c2)
    return float(np.mean(num / den))


def completion_accuracy(outputs, targets, masks):
    """Share of items whose sign agrees with a binary-valued target on
    every unobserved position; observed positions are ignored."""
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if not (outputs.shape == targets.shape == masks.shape):
        raise ValueError("outputs, targets, and masks must share a shape")
    n = outputs.shape[0]
    agree = (outputs > 0) == (targets > 0)
    flat_ok = (agree | masks).reshape(n, -1).all(axis=1)
    return float(flat_ok.mean())


def label_accuracy(label_rows, classes):
    """Fraction of rows whose decoded class matches the true class."""
    classes = np.asarray(classes)
    hits = sum(decode_label(row) == int(c) for row, c in zip(label_rows, classes))
    return float(hits / len(classes))


@dataclass
class MetricSummary:
    """Per-item values with their mean and standard error of the mean."""

    values: np.ndarray
    mean: float
    stderr: float


def summarize(values):
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MetricSummary(values=values, mean=mean, stderr=stderr)


@dataclass
class MetricReport:
    """Reconstruction metrics over an evaluation set."""

    psnr: MetricSummary
    ssim: MetricSummary


def metric_report(outputs, targets):
    """PSNR and SSIM summaries over paired (output, target) images, with
    the target range, 2 * TARGET_BOUND, as their peak."""
    peak = 2 * TARGET_BOUND
    psnrs = [psnr(o, t, peak) for o, t in zip(outputs, targets)]
    ssims = [ssim(o, t, peak) for o, t in zip(outputs, targets)]
    return MetricReport(psnr=summarize(psnrs), ssim=summarize(ssims))
