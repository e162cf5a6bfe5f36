"""PSNR, SSIM, completion accuracy, and summary statistics."""

import numpy as np
import pytest

from cban.metrics import (
    completion_accuracy,
    label_accuracy,
    metric_report,
    psnr,
    ssim,
    summarize,
)
from cban.data import encode_label


class TestPsnr:
    def test_identical_inputs_are_infinite(self):
        x = np.random.default_rng(0).normal(size=(8, 8))
        assert psnr(x, x, peak=1.0) == float("inf")

    def test_formula_spot_value(self):
        a = np.zeros(100)
        b = np.full(100, 0.1)  # MSE = 0.01
        assert abs(psnr(a, b, peak=1.0) - 20.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        assert abs(psnr(a, b, 1.5) - psnr(3 * a, 3 * b, 4.5)) < 1e-12

    def test_monotone_in_noise_level(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 16))
        noise = rng.normal(size=(16, 16))
        values = [psnr(x, x + s * noise, peak=2.0) for s in (0.01, 0.1, 0.5, 1.0)]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4), 1.0)


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        x = np.random.default_rng(3).normal(size=(14, 14))
        assert ssim(x, x, peak=2.0) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(12, 12)), rng.normal(size=(12, 12))
        assert abs(ssim(a, b, 2.0) - ssim(b, a, 2.0)) < 1e-15

    def test_negated_zero_mean_image_scores_negative(self):
        # anti-correlated structure drives the covariance term negative; a
        # checkerboard keeps window means near zero so the sign survives
        # the luminance factor
        i, j = np.indices((16, 16))
        x = np.where((i + j) % 2 == 0, 0.8, -0.8)
        assert x.mean() == 0.0
        assert ssim(x, -x, peak=2.0) < 0.0

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = rng.uniform(-1, 1, size=(11, 13))
            b = rng.uniform(-1, 1, size=(11, 13))
            v = ssim(a, b, peak=2.0)
            assert -1.0 <= v <= 1.0

    def test_small_image_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((10, 12)), np.zeros((10, 12)), 1.0)

    def test_color_reduces_to_luminance(self):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(3, 12, 12))
        assert abs(ssim(img, img, 2.0) - 1.0) < 1e-15


class TestCompletionAccuracy:
    def test_perfect_outputs(self):
        t = np.sign(np.random.default_rng(8).normal(size=(5, 9))) * 0.999
        m = np.zeros((5, 9), dtype=bool)
        m[:, 0] = True
        assert completion_accuracy(t, t, m) == 1.0

    def test_one_wrong_pixel_in_one_item(self):
        t = np.full((4, 6), 0.999)
        out = t.copy()
        out[2, 3] = -0.5
        m = np.zeros((4, 6), dtype=bool)
        m[:, 0] = True
        assert completion_accuracy(out, t, m) == 0.75

    def test_threshold_at_zero(self):
        t = np.array([[0.999, -0.999]])
        m = np.array([[False, False]])
        assert completion_accuracy(np.array([[0.3, -0.001]]), t, m) == 1.0
        assert completion_accuracy(np.array([[-0.3, -0.9]]), t, m) == 0.0

    def test_observed_positions_ignored(self):
        t = np.array([[0.999, 0.999]])
        out = np.array([[-0.9, 0.9]])  # wrong only at the observed position
        m = np.array([[True, False]])
        assert completion_accuracy(out, t, m) == 1.0


class TestLabelAccuracy:
    def test_decoded_rows(self):
        rows = [encode_label(c) for c in (3, 1, 4)]
        assert label_accuracy(rows, [3, 1, 4]) == 1.0
        assert abs(label_accuracy(rows, [3, 1, 5]) - 2 / 3) < 1e-12


class TestSummaries:
    def test_stderr_formula(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        s = summarize(vals)
        assert abs(s.mean - 2.5) < 1e-15
        assert abs(s.stderr - vals.std(ddof=1) / 2.0) < 1e-15

    def test_stderr_shrinks_like_inverse_sqrt_n(self):
        rng = np.random.default_rng(9)
        pool = rng.normal(size=6400)
        s_small = summarize(pool[:100]).stderr
        s_large = summarize(pool).stderr
        # 64x the samples should shrink stderr by about 8
        assert 4.0 < s_small / s_large < 16.0

    def test_mean_within_value_range(self):
        rng = np.random.default_rng(10)
        vals = rng.uniform(3.0, 9.0, size=37)
        s = summarize(vals)
        assert vals.min() <= s.mean <= vals.max()

    def test_metric_report_shapes(self):
        rng = np.random.default_rng(11)
        outs = rng.normal(size=(4, 12, 12))
        tgts = outs + 0.05 * rng.normal(size=(4, 12, 12))
        report = metric_report(outs, tgts)
        assert len(report.psnr.values) == 4
        assert len(report.ssim.values) == 4
        assert np.isfinite(report.psnr.mean)
