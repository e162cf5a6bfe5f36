"""Configuration files, checkpoint serialization, and the CLI commands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cban
from cban.checks import check_gradients
from cban.checkpoint import (
    VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from cban.cli import main
from cban.config import (
    arch_from_dict,
    arch_to_dict,
    bar_arch,
    cifar10_arch,
    load_run_config,
    mask_from_dict,
    mask_to_dict,
    omniglot_arch,
    superres_arch,
    supervised_digits_arch,
    train_from_dict,
    train_to_dict,
)
from cban.data import LabelPlus, PerlinMask, SquarePatches, save_idx
from cban.dynamics import LeakySigmoid, fban
from cban.imageio import read_ppm, write_pgm
from cban.training import TrainConfig, init_opt_state, init_weights, optimizer_step


class TestConfigRoundTrips:
    def test_arch_round_trip(self):
        for arch in (bar_arch(), bar_arch((48, 24)), supervised_digits_arch(),
                     omniglot_arch(), cifar10_arch(), superres_arch(),
                     fban(6, [4], activation_kind=LeakySigmoid(0.2), symmetric=False)):
            again = arch_from_dict(arch_to_dict(arch))
            assert again == arch

    def test_mask_round_trip(self):
        for spec in (PerlinMask(7, 1 / 3), SquarePatches(3, 6, 0.25),
                     LabelPlus(PerlinMask(5, 0.25)), None):
            assert mask_from_dict(mask_to_dict(spec)) == spec

    def test_train_round_trip(self):
        cfg = TrainConfig(epochs=5, loss="se", optimizer="adam", lr=0.005,
                          lr_schedule=((3, 0.1),), batch_size=7, seed=11)
        again = train_from_dict(train_to_dict(cfg))
        assert again == cfg

    def test_seed_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"task": "bar", "arch": arch_to_dict(bar_arch()),
                                    "train": {"epochs": 1}}))
        with pytest.raises(ValueError, match="seed"):
            load_run_config(path)

    def test_missing_data_path_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "task": "completion", "seed": 0, "arch": arch_to_dict(bar_arch()),
            "train": {"epochs": 1}, "data": {"folder": "nowhere/x"}}))
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_run_config(path)

    def test_shipped_configs_parse(self):
        from pathlib import Path

        for name in ("bar.json", "bar_deep.json", "mnist_supervised.json",
                     "omniglot.json", "cifar10.json", "superres.json"):
            cfg = load_run_config(Path("configs") / name, check_paths=False)
            assert cfg.train.epochs > 0


def make_checkpoint(arch=None, with_moments=False):
    arch = arch or fban(6, [4])
    w = init_weights(arch, seed=3)
    opt = init_opt_state(TrainConfig(epochs=1, optimizer="adam", lr=0.01))
    if with_moments:
        grads = [np.full(p.shape, 0.25) for p in w.params()]
        opt, w = optimizer_step(opt, w, grads)
    rng = np.random.default_rng(5)
    rng.random(10)
    return Checkpoint(version=VERSION, arch=arch, weights=w, opt_state=opt,
                      epoch=4, rng_state=rng.bit_generator.state)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        for with_moments in (False, True):
            ckpt = make_checkpoint(with_moments=with_moments)
            p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
            save_checkpoint(p1, ckpt)
            save_checkpoint(p2, load_checkpoint(p1))
            assert p1.read_bytes() == p2.read_bytes()

    def test_weights_round_trip_within_float32(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.weights.params(), loaded.weights.params()):
            denom = np.maximum(np.abs(a.data), 1e-12)
            assert np.max(np.abs(a.data - b.data) / denom) < 1e-6

    def test_metadata_round_trip(self, tmp_path):
        ckpt = make_checkpoint(with_moments=True)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 4
        assert loaded.arch == ckpt.arch
        assert loaded.rng_state == ckpt.rng_state
        assert loaded.opt_state.kind == "adam"
        assert loaded.opt_state.step == ckpt.opt_state.step
        assert len(loaded.opt_state.m) == len(ckpt.opt_state.m)

    def test_corrupted_magic_rejected(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, ckpt)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        ckpt = make_checkpoint()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_asymmetric_bundle_round_trip(self, tmp_path):
        arch = fban(5, [4], symmetric=False)
        ckpt = make_checkpoint(arch=arch)
        path = tmp_path / "asym.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.weights.reverse is not None
        assert loaded.weights.reverse[0].shape == (4, 5)


def write_bar_config(tmp_path, epochs=3, seed=0):
    cfg = {
        "task": "bar",
        "seed": seed,
        "output_dir": str(tmp_path / "out"),
        "arch": {"layers": [{"kind": "fc", "units": 25, "visible": True},
                            {"kind": "fc", "units": 12}],
                 "activation": {"kind": "tanh"}},
        "train": {"epochs": epochs, "loss": "delta_e_plus", "optimizer": "sgd-l2",
                  "lr": 0.01, "batch_size": 20, "theta": 0.01, "max_iters": 30},
    }
    path = tmp_path / "bar.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCmdTrain:
    def test_tiny_bar_run_writes_outputs(self, tmp_path):
        config = write_bar_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "latest.ckpt").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "samples.ppm").exists()
        lines = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 epochs
        grid = read_ppm(out / "samples.ppm")
        assert grid.shape[0] == 3

    def test_rerun_same_seed_identical_log_and_checkpoint(self, tmp_path):
        config = write_bar_config(tmp_path)
        assert main(["train", "--config", str(config)]) == 0
        out = tmp_path / "out"
        log1 = (out / "train_log.csv").read_bytes()
        ckpt1 = (out / "latest.ckpt").read_bytes()
        assert main(["train", "--config", str(config)]) == 0
        assert (out / "train_log.csv").read_bytes() == log1
        assert (out / "latest.ckpt").read_bytes() == ckpt1

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "none.json")]) == 2
        assert "none.json" in capsys.readouterr().err

    def test_missing_data_path_exits_2(self, tmp_path, capsys):
        cfg = {
            "task": "completion", "seed": 0, "output_dir": str(tmp_path / "o"),
            "arch": {"layers": [{"kind": "fc", "units": 4, "visible": True},
                                {"kind": "fc", "units": 2}]},
            "train": {"epochs": 1},
            "mask": {"kind": "bernoulli", "p": 0.5},
            "data": {"folder": str(tmp_path / "missing_dir")},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert "missing_dir" in capsys.readouterr().err

    def test_in_training_evaluation_uses_the_evidence_mode(self, tmp_path, monkeypatch):
        import cban.training

        path = write_bar_config(tmp_path, epochs=2)
        cfg = json.loads(path.read_text())
        cfg["train"]["evidence_mode"] = "external_bias"
        path.write_text(json.dumps(cfg))
        modes = []
        original = cban.training.complete

        def recording(*args, **kwargs):
            modes.append(kwargs.get("evidence_mode"))
            return original(*args, **kwargs)

        monkeypatch.setattr(cban.training, "complete", recording)
        assert main(["train", "--config", str(path), "--eval-every", "1"]) == 0
        # two bar-accuracy evaluations, then the sample grid
        assert modes == ["external_bias"] * 3

    def test_keep_every_writes_numbered_checkpoints(self, tmp_path):
        config = write_bar_config(tmp_path, epochs=4)
        assert main(["train", "--config", str(config), "--keep-every", "2"]) == 0
        out = tmp_path / "out"
        assert (out / "epoch_00001.ckpt").exists()
        assert (out / "epoch_00003.ckpt").exists()


class TestCmdComplete:
    def _trained_ckpt(self, tmp_path):
        config = write_bar_config(tmp_path, epochs=2)
        main(["train", "--config", str(config)])
        return tmp_path / "out" / "latest.ckpt"

    def test_npz_evidence_outputs_and_trace(self, tmp_path):
        from cban.data import gen_bar_patterns

        ckpt = self._trained_ckpt(tmp_path)
        pattern = gen_bar_patterns()[0]
        mask = np.zeros((5, 5), dtype=bool)
        mask[0] = True
        mask[1] = True
        np.savez(tmp_path / "ev.npz", values=np.where(mask, pattern, 0.0), mask=mask)
        outdir = tmp_path / "cmp"
        code = main(["complete", "--ckpt", str(ckpt), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(outdir)])
        assert code in (0, 1)
        assert (outdir / "completed.pgm").exists()
        assert (outdir / "dream.pgm").exists()
        trace = (outdir / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "iteration,energy,max_delta"
        assert len(trace) >= 2

    def test_clamped_pixels_survive_into_output(self, tmp_path):
        from cban.data import gen_bar_patterns
        from cban.imageio import read_pgm, bytes_to_activations

        ckpt = self._trained_ckpt(tmp_path)
        pattern = gen_bar_patterns()[3]
        mask = np.ones((5, 5), dtype=bool)
        mask[4, 4] = False
        np.savez(tmp_path / "ev.npz", values=np.where(mask, pattern, 0.0), mask=mask)
        outdir = tmp_path / "cmp2"
        main(["complete", "--ckpt", str(ckpt), "--input", str(tmp_path / "ev.npz"),
              "--outdir", str(outdir)])
        out = bytes_to_activations(read_pgm(outdir / "completed.pgm"))
        np.testing.assert_allclose(out[mask], pattern[mask], atol=0.01)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = self._trained_ckpt(tmp_path)
        np.savez(tmp_path / "bad.npz", values=np.zeros((3, 3)),
                 mask=np.ones((3, 3), dtype=bool))
        code = main(["complete", "--ckpt", str(ckpt), "--input",
                     str(tmp_path / "bad.npz"), "--outdir", str(tmp_path / "x")])
        assert code == 2
        assert "visible layer" in capsys.readouterr().err

    def test_image_input_with_mask_option(self, tmp_path):
        ckpt = self._trained_ckpt(tmp_path)
        img = np.random.default_rng(0).integers(0, 256, size=(5, 5)).astype(np.uint8)
        write_pgm(tmp_path / "in.pgm", img)
        outdir = tmp_path / "cmp3"
        code = main(["complete", "--ckpt", str(ckpt), "--input",
                     str(tmp_path / "in.pgm"), "--mask", "bernoulli",
                     "--mask-fraction", "0.4", "--outdir", str(outdir)])
        assert code in (0, 1)
        assert (outdir / "completed.pgm").exists()

    def test_nonconvergent_checkpoint_exits_1_with_outputs(self, tmp_path):
        # asymmetric random weights cycle rather than settle
        rng = np.random.default_rng(2)
        from cban.dynamics import WeightBundle
        from cban.tensor import Tensor

        arch = fban(25, [25], symmetric=False)
        w = WeightBundle(
            forward=[Tensor(rng.normal(scale=1.2, size=(25, 25)))],
            biases=[Tensor(np.zeros(25)), Tensor(np.zeros(25))],
            reverse=[Tensor(rng.normal(scale=1.2, size=(25, 25)))])
        ckpt = Checkpoint(version=VERSION, arch=arch, weights=w, opt_state=None,
                          epoch=0, rng_state=None)
        path = tmp_path / "asym.ckpt"
        save_checkpoint(path, ckpt)
        mask = np.zeros(25, dtype=bool)
        mask[:5] = True
        values = np.where(mask, 0.9, 0.0)
        np.savez(tmp_path / "ev.npz", values=values, mask=mask)
        outdir = tmp_path / "cyc"
        code = main(["complete", "--ckpt", str(path), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(outdir)])
        assert code == 1
        from cban.imageio import read_pgm

        # flat evidence of a perfect-square length renders as a square
        assert read_pgm(outdir / "completed.pgm").shape == (5, 5)


class TestCmdEval:
    def test_metrics_on_synthetic_idx(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
        save_idx(tmp_path / "imgs.idx", images)
        arch = fban(784, [16])
        ckpt = Checkpoint(version=VERSION, arch=arch,
                          weights=init_weights(arch, seed=0), opt_state=None,
                          epoch=0, rng_state=None)
        save_checkpoint(tmp_path / "m.ckpt", ckpt)
        outdir = tmp_path / "ev"
        code = main(["eval", "--ckpt", str(tmp_path / "m.ckpt"), "--data",
                     str(tmp_path / "imgs.idx"), "--mask", "perlin",
                     "--outdir", str(outdir)])
        assert code == 0
        text = (outdir / "metrics.csv").read_text()
        assert "psnr_mean" in text and "ssim_mean" in text
        assert "psnr_mean" in capsys.readouterr().out

    def test_supervised_layout_reports_label_accuracy(self, tmp_path):
        rng = np.random.default_rng(3)
        save_idx(tmp_path / "imgs.idx", rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8))
        save_idx(tmp_path / "labels.idx", np.array([0, 3, 7, 9], dtype=np.uint8))
        arch = supervised_digits_arch()
        save_checkpoint(tmp_path / "d.ckpt", Checkpoint(
            version=VERSION, arch=arch, weights=init_weights(arch, seed=0),
            opt_state=None, epoch=0, rng_state=None))
        outdir = tmp_path / "ev"
        code = main(["eval", "--ckpt", str(tmp_path / "d.ckpt"), "--data",
                     str(tmp_path / "imgs.idx"), "--labels", str(tmp_path / "labels.idx"),
                     "--outdir", str(outdir), "--max-iters", "5"])
        assert code == 0
        rows = dict(line.split(",") for line in
                    (outdir / "metrics.csv").read_text().strip().splitlines()[1:])
        assert set(rows) == {"psnr_mean", "psnr_stderr", "ssim_mean", "ssim_stderr",
                             "label_accuracy"}
        assert float(rows["label_accuracy"]) in (0.0, 0.25, 0.5, 0.75, 1.0)

    def _replicated_run(self, tmp_path, image_size):
        from cban.dynamics import ArchSpec, WeightBundle, conv_layer
        from cban.imageio import write_ppm
        from cban.tensor import ConvKernel, Tensor

        rng = np.random.default_rng(4)
        folder = tmp_path / "imgs"
        folder.mkdir()
        images = rng.integers(0, 256, size=(3, 3, image_size, image_size)).astype(np.uint8)
        for i, img in enumerate(images):
            write_ppm(folder / f"{i}.ppm", img)
        arch = ArchSpec(layers=(conv_layer(6, 12, 12, visible=True),
                                conv_layer(4, 12, 12)),
                        kernel_sizes=(3,))
        # zero weights leave the free output copy at exactly 0
        w = WeightBundle(forward=[ConvKernel(Tensor(np.zeros((4, 6, 3, 3))))],
                         biases=[Tensor(np.zeros(6)), Tensor(np.zeros(4))])
        save_checkpoint(tmp_path / "r.ckpt", Checkpoint(
            version=VERSION, arch=arch, weights=w, opt_state=None, epoch=0,
            rng_state=None))
        outdir = tmp_path / "ev"
        code = main(["eval", "--ckpt", str(tmp_path / "r.ckpt"), "--data", str(folder),
                     "--mask", "bernoulli", "--mask-fraction", "0.5",
                     "--outdir", str(outdir)])
        return code, images, outdir

    def test_replicated_checkpoint_scored_on_output_copy(self, tmp_path):
        from cban.imageio import bytes_to_activations
        from cban.metrics import psnr

        code, images, outdir = self._replicated_run(tmp_path, 12)
        assert code == 0
        rows = dict(line.split(",") for line in
                    (outdir / "metrics.csv").read_text().strip().splitlines()[1:])
        expected = np.mean([psnr(np.zeros((3, 12, 12)), bytes_to_activations(img), 1.998)
                            for img in images])
        assert abs(float(rows["psnr_mean"]) - expected) < 1e-9

    def test_image_shape_mismatch_exits_2(self, tmp_path, capsys):
        code, _, outdir = self._replicated_run(tmp_path, 10)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "visible layer" in err
        assert not (outdir / "metrics.csv").exists()

    def test_image_smaller_than_ssim_window_exits_2(self, tmp_path, capsys):
        images = np.random.default_rng(1).integers(0, 256, size=(4, 8, 8))
        save_idx(tmp_path / "small.idx", images.astype(np.uint8))
        arch = fban(64, [8])
        save_checkpoint(tmp_path / "s.ckpt", Checkpoint(
            version=VERSION, arch=arch, weights=init_weights(arch, seed=0),
            opt_state=None, epoch=0, rng_state=None))
        code = main(["eval", "--ckpt", str(tmp_path / "s.ckpt"), "--data",
                     str(tmp_path / "small.idx"), "--mask", "bernoulli",
                     "--mask-fraction", "0.5", "--outdir", str(tmp_path / "ev")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "window" in err


class TestCmdCheck:
    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--suite", "bogus"])

    def test_gradient_suite_covers_pooled_conv(self):
        result = check_gradients(seed=3, per_loss=0)
        assert result.trials == 6 and result.passed, result.failures

    def test_convergence_suite_passes(self, capsys):
        assert main(["check", "--suite", "convergence", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "synchronous-two-cycle-bound" in out


class TestModuleEntryPoint:
    def _run(self, *args):
        src = str(Path(cban.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-m", "cban.cli", *args],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})

    def test_bad_subcommand_exits_2(self):
        proc = self._run("bogus")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    def test_help_prints_usage(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage:")
