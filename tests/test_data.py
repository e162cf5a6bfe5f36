"""Task generators: bar patterns, IDX files, label coding, masks."""

import numpy as np
import pytest

from cban.data import (
    BarTask,
    BernoulliMask,
    Example,
    LabelOnly,
    LabelPlus,
    PerlinMask,
    SquarePatches,
    bar_consistency_count,
    bar_eval_set,
    bernoulli_mask,
    decode_label,
    encode_label,
    gen_bar_evidence,
    gen_bar_patterns,
    generate_mask,
    load_idx,
    load_image_folder,
    make_supervised_example,
    perlin_mask,
    replicated_example,
    save_idx,
    square_patch_mask,
)
from cban.dynamics import EvidenceConstraint
from cban.imageio import activations_to_bytes, write_pgm, write_ppm


class TestExample:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Example(target=np.zeros((2, 2)), mask=np.zeros((2, 3), dtype=bool))

    def test_all_observed_rejected(self):
        with pytest.raises(ValueError):
            Example(target=np.zeros(4), mask=np.ones(4, dtype=bool))

    def test_evidence_values_zero_off_mask(self):
        # evidence built from a whole target keeps only its observed values
        ex = Example(target=np.array([0.5, -0.5]), mask=np.array([True, False]))
        ev = EvidenceConstraint(mask=ex.mask, values=ex.target)
        np.testing.assert_array_equal(ev.values, [0.5, 0.0])


class TestBarPatterns:
    def test_twenty_distinct_patterns(self):
        patterns = gen_bar_patterns()
        assert len(patterns) == 20
        keys = {p.tobytes() for p in patterns}
        assert len(keys) == 20

    def test_each_has_ten_on_pixels(self):
        for p in gen_bar_patterns():
            assert (p > 0).sum() == 10
            # exactly two full lines: either two rows or two columns
            rows_on = np.all(p > 0, axis=1).sum()
            cols_on = np.all(p > 0, axis=0).sum()
            assert (rows_on, cols_on) in ((2, 0), (0, 2))

    def test_values_are_inside_tanh_range(self):
        for p in gen_bar_patterns():
            assert np.max(np.abs(p)) < 1.0


class TestBarEvidence:
    def test_fully_observed_pattern_is_unique(self):
        patterns = gen_bar_patterns()
        mask = np.ones((5, 5), dtype=bool)
        assert bar_consistency_count(patterns[0], mask, patterns) == 1

    def test_ambiguous_evidence_detected(self):
        # two "on" pixels in distinct rows and columns fit both a row pair
        # and a column pair, so the consistency count exceeds one
        patterns = gen_bar_patterns()
        target = patterns[0]  # rows 0 and 1 on
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = True
        mask[1, 1] = True
        assert bar_consistency_count(target, mask, patterns) > 1

    def test_generated_evidence_always_unique(self):
        rng = np.random.default_rng(0)
        patterns = gen_bar_patterns()
        for i in range(200):
            p = patterns[i % 20]
            ex = gen_bar_evidence(p, rng, patterns)
            assert bar_consistency_count(ex.target, ex.mask, patterns) == 1
            assert not ex.mask.all() and ex.mask.any()

    def test_epoch_examples_cover_all_patterns(self):
        rng = np.random.default_rng(1)
        examples = BarTask().epoch_examples(rng)
        assert len(examples) == 20
        keys = {ex.target.tobytes() for ex in examples}
        assert len(keys) == 20

    def test_eval_set_size_and_uniqueness_property(self):
        rng = np.random.default_rng(2)
        examples = bar_eval_set(rng, 50)
        assert len(examples) == 50
        patterns = gen_bar_patterns()
        for ex in examples:
            assert bar_consistency_count(ex.target, ex.mask, patterns) == 1


def _reference_count(values, mask, patterns):
    """The per-pattern loop that the matrix match replaced."""
    return sum(np.array_equal(p[mask], values[mask]) for p in patterns)


def _reference_mask(pattern, rng, patterns):
    """The rejection loop of gen_bar_evidence over the reference count."""
    while True:
        k = int(rng.integers(1, 25))
        idx = rng.choice(25, size=k, replace=False)
        mask = np.zeros(25, dtype=bool)
        mask[idx] = True
        mask = mask.reshape(5, 5)
        if _reference_count(pattern, mask, patterns) == 1:
            return mask


class TestBarMatchEquivalence:
    def test_count_equals_the_per_pattern_loop(self):
        rng = np.random.default_rng(11)
        patterns = gen_bar_patterns()
        as_list = list(patterns)
        masks = [np.ones((5, 5), dtype=bool)]
        for i in range(25):
            single = np.zeros(25, dtype=bool)
            single[i] = True
            masks.append(single.reshape(5, 5))
        masks += [rng.random((5, 5)) < rng.random() for _ in range(1000)]
        counts = set()
        for i, mask in enumerate(masks):
            # a bar pattern, or random on/off pixels that may fit no pattern
            values = (patterns[rng.integers(20)] if i % 2 else
                      np.where(rng.random((5, 5)) < 0.4, 0.999, -0.999))
            expected = _reference_count(values, mask, as_list)
            assert bar_consistency_count(values, mask, patterns) == expected
            assert bar_consistency_count(values, mask, as_list) == expected
            counts.add(expected)
        assert {0, 1, 20} <= counts and max(counts - {20}) > 1

    def test_evidence_draws_equal_the_reference_loop(self):
        patterns = gen_bar_patterns()
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        for i in range(500):
            p = patterns[i % 20]
            ex = gen_bar_evidence(p, rng, patterns)
            np.testing.assert_array_equal(ex.mask, _reference_mask(p, ref, list(patterns)))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_eval_set_equals_the_reference_loop(self):
        patterns = list(gen_bar_patterns())
        rng, ref = np.random.default_rng(13), np.random.default_rng(13)
        examples = bar_eval_set(rng, 500)
        for ex in examples:
            p = patterns[int(ref.integers(20))]
            np.testing.assert_array_equal(ex.target, p)
            np.testing.assert_array_equal(ex.mask, _reference_mask(p, ref, patterns))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestIdx:
    def test_round_trip_images(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, size=(4, 7, 5)).astype(np.uint8)
        path = tmp_path / "imgs.idx"
        save_idx(path, raw)
        loaded = load_idx(path)
        assert loaded.shape == (4, 7, 5)
        back = np.rint((loaded + 0.999) / 1.998 * 255).astype(np.uint8)
        np.testing.assert_array_equal(back, raw)

    def test_round_trip_labels(self, tmp_path):
        labels = np.array([3, 1, 4, 1, 5, 9], dtype=np.uint8)
        path = tmp_path / "labels.idx"
        save_idx(path, labels)
        loaded = load_idx(path)
        assert loaded.dtype == np.int64
        np.testing.assert_array_equal(loaded, labels)

    def test_pixel_scaling_endpoints(self, tmp_path):
        raw = np.array([[[0, 255]]], dtype=np.uint8)
        path = tmp_path / "ends.idx"
        save_idx(path, raw)
        loaded = load_idx(path)
        np.testing.assert_allclose(loaded[0, 0], [-0.999, 0.999], atol=1e-12)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x13\x37\x08\x01" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_idx(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.idx"
        path.write_bytes(bytes([0, 0, 8, 1]) + (100).to_bytes(4, "big") + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            load_idx(path)

    def test_unsupported_type_byte(self, tmp_path):
        path = tmp_path / "weird.idx"
        path.write_bytes(bytes([0, 0, 0x0D, 1]) + (1).to_bytes(4, "big") + b"\x00" * 4)
        with pytest.raises(ValueError, match="type byte"):
            load_idx(path)


class TestLabelCoding:
    def test_class_zero_positions(self):
        row = encode_label(0)
        assert (row > 0).sum() == 2
        assert row[0] == row[1] == 0.999

    def test_class_nine_positions(self):
        row = encode_label(9)
        on = np.flatnonzero(row > 0)
        np.testing.assert_array_equal(on, [18, 19])

    def test_every_class_has_two_positive_units(self):
        for c in range(10):
            assert (encode_label(c) > 0).sum() == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_label(10)

    def test_encode_decode_inverse(self):
        for c in range(10):
            assert decode_label(encode_label(c)) == c

    def test_tie_breaks_to_smaller_class(self):
        assert decode_label(np.zeros(28)) == 0

    def test_argmax_of_pair_sums(self):
        row = np.full(28, -1.0)
        row[2] = 1.0
        row[3] = 0.8
        assert decode_label(row) == 1


class TestPerlinMask:
    def test_exact_unobserved_count(self):
        rng = np.random.default_rng(4)
        for frac in (1 / 3, 0.25, 0.6):
            mask = perlin_mask(28, 28, 7, frac, rng)
            assert (~mask).sum() == round(frac * 28 * 28)

    def test_seed_determinism(self):
        a = perlin_mask(28, 28, 7, 1 / 3, np.random.default_rng(5))
        b = perlin_mask(28, 28, 7, 1 / 3, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_spatial_coherence_beats_bernoulli(self):
        # Monte-Carlo estimate of the adjacency statistic for both
        # generators at the same obscured fraction
        def unobserved_adjacency(mask):
            """Fraction of unobserved pixels that touch an unobserved 4-neighbor."""
            unobs = np.pad(~mask, 1)
            near = (unobs[:-2, 1:-1] | unobs[2:, 1:-1]
                    | unobs[1:-1, :-2] | unobs[1:-1, 2:])
            return float((~mask & near).sum() / (~mask).sum())

        rng = np.random.default_rng(6)
        perlin = np.mean([unobserved_adjacency(perlin_mask(28, 28, 7, 1 / 3, rng))
                          for _ in range(300)])
        bern = np.mean([unobserved_adjacency(bernoulli_mask(28, 28, 1 / 3, rng))
                        for _ in range(300)])
        assert perlin > 0.9
        assert perlin > bern + 0.1

    def test_degenerate_frequency_one(self):
        mask = perlin_mask(8, 8, 1, 0.25, np.random.default_rng(7))
        assert (~mask).sum() == 16


class TestSquarePatchMask:
    def test_white_fraction_guard_met(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            img = np.where(rng.random((28, 28)) < 0.3, 0.999, -0.999)
            if not (img > 0).any():
                continue
            mask = square_patch_mask(img, 3, 6, 0.25, rng)
            white = img > 0
            frac = ((~mask) & white).sum() / white.sum()
            assert frac >= 0.25

    def test_single_patch_area_on_all_white(self):
        class OnePatchRng:
            def __init__(self):
                self.calls = 0

            def integers(self, lo, hi):
                self.calls += 1
                if self.calls == 1:
                    return 3  # side
                return 0  # top-left corner

        img = np.full((28, 28), 0.999)
        mask = square_patch_mask(img, 3, 3, 9 / 784 - 1e-9, OnePatchRng())
        assert (~mask).sum() == 9

    def test_no_white_pixels_rejected(self):
        img = np.full((8, 8), -0.999)
        with pytest.raises(ValueError, match="white"):
            square_patch_mask(img, 3, 6, 0.25, np.random.default_rng(9))

    def test_union_bound_on_unobserved(self):
        rng = np.random.default_rng(10)
        img = np.full((20, 20), 0.999)
        mask = square_patch_mask(img, 4, 4, 0.1, rng)
        assert (~mask).sum() <= 16 * 10  # far looser than sum of areas


class TestBernoulliMask:
    def test_fraction_within_binomial_ci(self):
        rng = np.random.default_rng(11)
        p = 0.3
        mask = bernoulli_mask(100, 100, p, rng)
        frac = (~mask).mean()
        sigma = np.sqrt(p * (1 - p) / mask.size)
        assert abs(frac - p) < 3 * sigma

    def test_determinism(self):
        a = bernoulli_mask(10, 10, 0.5, np.random.default_rng(12))
        b = bernoulli_mask(10, 10, 0.5, np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            bernoulli_mask(4, 4, 0.0, np.random.default_rng(0))


class TestSupervisedAssembly:
    def _image(self, rng):
        return rng.uniform(-0.999, 0.999, size=(28, 28))

    def test_label_row_never_observed(self):
        rng = np.random.default_rng(13)
        for spec in (LabelOnly(), LabelPlus(PerlinMask(7, 1 / 3)),
                     BernoulliMask(0.3)):
            ex = make_supervised_example(self._image(rng), 4, spec, rng)
            assert ex.target.shape == (29, 28)
            assert not ex.mask[28].any()

    def test_label_only_observes_all_pixels(self):
        rng = np.random.default_rng(14)
        ex = make_supervised_example(self._image(rng), 2, LabelOnly(), rng)
        assert ex.mask[:28].all()

    def test_label_row_carries_the_class(self):
        rng = np.random.default_rng(15)
        ex = make_supervised_example(self._image(rng), 7, LabelOnly(), rng)
        assert decode_label(ex.target[28]) == 7

    def test_flattened_size_matches_fban_input(self):
        rng = np.random.default_rng(16)
        ex = make_supervised_example(self._image(rng), 0, LabelOnly(), rng)
        assert ex.target.size == 812  # 784 pixels + 28 label units


class TestImageFolder:
    def test_load_pgm_and_ppm(self, tmp_path):
        rng = np.random.default_rng(17)
        gray = rng.integers(0, 256, size=(6, 6)).astype(np.uint8)
        color = rng.integers(0, 256, size=(3, 6, 6)).astype(np.uint8)
        write_pgm(tmp_path / "a.pgm", gray)
        write_ppm(tmp_path / "b.ppm", color)
        images = load_image_folder(tmp_path)
        assert len(images) == 2
        assert images[0].shape == (1, 6, 6)
        assert images[1].shape == (3, 6, 6)
        np.testing.assert_array_equal(activations_to_bytes(images[0][0]), gray)

    def test_empty_folder_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no PGM/PPM"):
            load_image_folder(tmp_path)


class TestReplicatedExample:
    def test_mask_covers_input_copy_only(self):
        low = np.full((3, 4, 4), 0.1)
        high = np.full((3, 4, 4), 0.9)
        ex = replicated_example(low, high)
        assert ex.target.shape == (6, 4, 4)
        assert ex.mask[:3].all() and not ex.mask[3:].any()
        np.testing.assert_array_equal(ex.target[3:], high)


class TestGenerateMaskDispatch:
    def test_all_pixel_specs_dispatch(self):
        rng = np.random.default_rng(18)
        img = np.where(np.random.default_rng(0).random((16, 16)) < 0.5, 0.9, -0.9)
        for spec in (PerlinMask(5, 0.3), SquarePatches(2, 4, 0.2), BernoulliMask(0.4)):
            mask = generate_mask(spec, img, rng)
            assert mask.shape == img.shape and mask.dtype == bool

    def test_label_specs_rejected_for_plain_images(self):
        with pytest.raises(ValueError):
            generate_mask(LabelOnly(), np.zeros((4, 4)), np.random.default_rng(0))
