"""Configuration files, checkpoint serialization, and the CLI commands."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import cban
from cban.checks import check_gradients, check_layerwise_descent
from cban.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from cban.cli import main
from cban.config import (
    arch_from_dict,
    arch_to_dict,
    load_run_config,
    run_config_from_dict,
    train_from_dict,
)
from cban.data import BernoulliMask, LabelOnly, LabelPlus, PerlinMask, SquarePatches
from cban.dynamics import LeakySigmoid, fban
from cban.imageio import read_ppm, write_pgm
from cban.training import TrainConfig, init_opt_state, init_weights, optimizer_step
from helpers import save_idx


SHIPPED_CONFIGS = ("bar.json", "bar_deep.json", "mnist_supervised.json",
                   "omniglot.json", "cifar10.json", "superres.json")


def shipped_arch(name):
    return load_run_config(Path("configs") / name, check_paths=False).arch


class TestConfigRoundTrips:
    def test_arch_round_trip(self):
        archs = [shipped_arch(name) for name in SHIPPED_CONFIGS]
        archs.append(fban(6, [4], activation_kind=LeakySigmoid(0.2)))
        for arch in archs:
            again = arch_from_dict(arch_to_dict(arch))
            assert again == arch
        # the written activation, keys in order, as checkpoints store it
        written = [list(arch_to_dict(a)["activation"].items()) for a in (archs[0], archs[-1])]
        assert written == [[("kind", "tanh")], [("kind", "leaky_sigmoid"), ("alpha", 0.2)]]

    def test_mask_round_trip(self):
        cases = [
            ({"kind": "perlin", "frequency": 5, "obscured_fraction": 0.25},
             PerlinMask(5, 0.25)),
            ({"kind": "patches", "diameter_min": 2, "diameter_max": 4,
              "white_fraction": 0.5}, SquarePatches(2, 4, 0.5)),
            ({"kind": "bernoulli", "p": 0.3}, BernoulliMask(0.3)),
            ({"kind": "label_only"}, LabelOnly()),
            ({"kind": "label_plus", "inner": {"kind": "perlin"}}, LabelPlus(PerlinMask())),
            (None, None),
        ]
        def mask_read(d):  # as a bar run config reads its mask
            return run_config_from_dict({"task": "bar", "seed": 0, "train": {"epochs": 1},
                                         "arch": arch_to_dict(fban(4, [2])), "mask": d}).mask

        for d, spec in cases:
            assert mask_read(d) == spec
        with pytest.raises(ValueError, match="unknown mask kind"):
            mask_read({"kind": "stripes"})

    def test_train_round_trip(self):
        d = {"epochs": 5, "loss": "se", "optimizer": "adam", "lr": 0.005,
             "lr_schedule": [[3, 0.1]], "batch_size": 7, "seed": 11}
        assert train_from_dict(d) == TrainConfig(
            epochs=5, loss="se", optimizer="adam", lr=0.005,
            lr_schedule=((3, 0.1),), batch_size=7, seed=11)

    def test_arch_without_evidence_key_loads_as_clamp(self):
        d = arch_to_dict(fban(6, [4]))
        del d["evidence"]  # the arch dict of an older checkpoint
        assert arch_from_dict(d).evidence == "clamp"
        external = dataclasses.replace(fban(6, [4]), evidence="external_bias")
        assert arch_to_dict(external)["evidence"] == "external_bias"
        assert arch_from_dict(arch_to_dict(external)) == external

    def test_seed_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"task": "bar", "arch": arch_to_dict(fban(25, [50])),
                                    "train": {"epochs": 1}}))
        with pytest.raises(ValueError, match="seed"):
            load_run_config(path)

    def test_missing_data_path_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "task": "completion", "seed": 0, "arch": arch_to_dict(fban(25, [50])),
            "train": {"epochs": 1}, "data": {"folder": "nowhere/x"}}))
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_run_config(path)

    def test_shipped_configs_parse(self):
        for name in SHIPPED_CONFIGS:
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
    return Checkpoint(arch=arch, weights=w, opt_state=opt,
                      epoch=4, rng_state=rng.bit_generator.state)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        for with_moments in (False, True):
            ckpt = make_checkpoint(with_moments=with_moments)
            p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
            save_checkpoint(p1, ckpt)
            save_checkpoint(p2, load_checkpoint(p1))
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("net", ["fc", "conv"])
    def test_body_is_the_float32_blocks_then_the_moments(self, tmp_path, net):
        from cban.dynamics import ArchSpec, block_shapes, conv_layer
        from cban.tensor import ConvKernel

        arch = fban(6, [4, 3]) if net == "fc" else ArchSpec(
            layers=(conv_layer(2, 4, 4, visible=True), conv_layer(3, 4, 4),
                    conv_layer(5, 2, 2, pool_before=True)), kernel_sizes=(3, 1))
        ckpt = make_checkpoint(arch, with_moments=True)
        path = tmp_path / "b.ckpt"
        save_checkpoint(path, ckpt)
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[12:16])
        meta = json.loads(raw[16:16 + n])
        w, opt = ckpt.weights, ckpt.opt_state
        blocks = [k.weights if isinstance(k, ConvKernel) else k for k in w.forward] + w.biases
        assert [tuple(s) for s in meta["blocks"]] == [b.shape for b in blocks] \
            == block_shapes(arch)
        # each block in order, then the first moment's blocks, then the second's
        body = b"".join(a.astype(np.float32).tobytes()
                        for a in blocks + w.blocks(opt.m) + w.blocks(opt.v))
        assert len(body) == 3 * 4 * w.flat.shape[0]
        assert raw[16 + n:] == body
        assert meta["crc32"] == zlib.crc32(body)

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
        assert loaded.opt_state.m.shape == ckpt.opt_state.m.shape == ckpt.weights.flat.shape

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

    def test_older_metadata_loads_with_equal_weights_and_moments(self, tmp_path):
        # older checkpoints carry "symmetric": true in the arch and adam's
        # constants among the optimizer settings, and no "crc32"
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(new, make_checkpoint(with_moments=True))
        rewrite_metadata(new, old, lambda meta: (
            meta["arch"].update(symmetric=True),
            meta["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8),
            meta.pop("crc32")))
        fresh, loaded = load_checkpoint(new), load_checkpoint(old)
        assert loaded.arch == fresh.arch and loaded.epoch == fresh.epoch
        assert loaded.opt_state.kind == "adam" and loaded.opt_state.step == 1
        assert loaded.opt_state.lr == fresh.opt_state.lr

        def arrays(ckpt):
            return [ckpt.weights.flat.data, ckpt.opt_state.m, ckpt.opt_state.v]

        for a, b in zip(arrays(fresh), arrays(loaded)):
            np.testing.assert_array_equal(a, b)


class TestCheckpointInPlace:
    """A save rewrites an existing file in place; a checksum refuses a torn one."""

    def test_save_over_longer_or_shorter_file_equals_a_fresh_save(self, tmp_path):
        small, large = make_checkpoint(), make_checkpoint(with_moments=True)
        fresh = tmp_path / "fresh.ckpt"
        for ckpt, old in ((small, large), (large, small)):
            save_checkpoint(fresh, ckpt)
            path = tmp_path / "over.ckpt"
            save_checkpoint(path, old)
            save_checkpoint(path, ckpt)
            assert path.read_bytes() == fresh.read_bytes()
            fresh.unlink()

    def test_save_rewrites_in_place_without_truncate_or_rename(self, tmp_path, monkeypatch):
        # Guards the cost this format avoids: on ext4, truncating a file to
        # zero and rewriting it (mode "w"), or renaming a new file over it,
        # makes its close start a forced write-back, and `cban train` saves
        # latest.ckpt every epoch. The file must keep its inode, and a save
        # over it must never open it in a "w" mode.
        import builtins
        import io

        path = tmp_path / "latest.ckpt"
        save_checkpoint(path, make_checkpoint(with_moments=True))
        inode = path.stat().st_ino
        modes, real_open = [], builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                modes.append(mode)
            return real_open(file, mode, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a save renamed a file over the checkpoint")

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.setattr(os, "rename", refuse)
        save_checkpoint(path, make_checkpoint())
        assert modes and not any("w" in m for m in modes)
        assert path.stat().st_ino == inode

    @staticmethod
    def spliced(tmp_path):
        """The head of one save over the tail of another of the same layout."""
        a = make_checkpoint()
        b = dataclasses.replace(a, weights=init_weights(a.arch, seed=4))
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(pa, a)
        save_checkpoint(pb, b)
        head, tail = pa.read_bytes(), pb.read_bytes()
        cut = 64  # the weight matrix's last 6 values and the biases (zero at init)
        path = tmp_path / "torn.ckpt"
        path.write_bytes(head[:-cut] + tail[-cut:])
        return path

    def test_spliced_file_is_refused(self, tmp_path):
        path = self.spliced(tmp_path)
        with pytest.raises(CheckpointError, match="torn or corrupt") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_spliced_file_exits_2(self, tmp_path, capsys, command):
        path = self.spliced(tmp_path)
        extra = (["--input", str(tmp_path / "none.npz")] if command == "complete"
                 else ["--data", str(tmp_path / "none.idx")])
        assert main([command, "--ckpt", str(path), "--outdir",
                     str(tmp_path / "x")] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "torn or corrupt" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_torn_metadata_is_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, make_checkpoint())
        raw = bytearray(path.read_bytes())
        raw[17] = 0xFF  # inside the JSON metadata
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="torn or corrupt"):
            load_checkpoint(path)


def replace_metadata(src, dst, new):
    """Copy checkpoint src to dst with its metadata replaced by new(metadata)."""
    raw = Path(src).read_bytes()
    (n,) = struct.unpack("<I", raw[12:16])
    payload = json.dumps(new(json.loads(raw[16:16 + n])), sort_keys=True).encode()
    Path(dst).write_bytes(raw[:12] + struct.pack("<I", len(payload)) + payload + raw[16 + n:])


def rewrite_metadata(src, dst, edit):
    """Copy checkpoint src to dst with edit(metadata) applied."""
    def new(meta):
        edit(meta)
        return meta

    replace_metadata(src, dst, new)


# metadata the loader cannot read, and what its error names
MALFORMED_METADATA = {
    "blocks-not-a-list": (lambda meta: {**meta, "blocks": 5}, "'blocks'"),
    "metadata-a-list": (lambda meta: [meta], "not a JSON object"),
    "epoch-null": (lambda meta: {**meta, "epoch": None}, "'epoch'"),
    "optimizer-a-string": (lambda meta: {**meta, "optimizer": "x"}, "'optimizer'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_METADATA))
def test_malformed_checkpoint_metadata_exits_2(tmp_path, capsys, case):
    new, named = MALFORMED_METADATA[case]
    save_checkpoint(tmp_path / "good.ckpt", make_checkpoint())
    replace_metadata(tmp_path / "good.ckpt", tmp_path / "bad.ckpt", new)
    with pytest.raises(CheckpointError, match=named):
        load_checkpoint(tmp_path / "bad.ckpt")
    np.savez(tmp_path / "ev.npz", values=np.zeros(6), mask=np.ones(6, dtype=bool))
    code = main(["complete", "--ckpt", str(tmp_path / "bad.ckpt"), "--input",
                 str(tmp_path / "ev.npz"), "--outdir", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
    assert not (tmp_path / "x").exists()


BAD_SETTLE_OPTIONS = [("--theta", "0"), ("--theta", "nan"), ("--max-iters", "0")]


def assert_bad_settle_option_exits_2(tmp_path, capsys, argv, option, value):
    """`cban <argv>` with a bad settle option exits 2 naming it, writing nothing."""
    code = main(argv + ["--ckpt", str(tmp_path / "none.ckpt"),
                        "--outdir", str(tmp_path / "x"), option, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and option in err
    assert not (tmp_path / "x").exists()


NEGATIVE_COUNT_OPTIONS = [("train", "--eval-every", "-3"), ("train", "--keep-every", "-2"),
                          ("eval", "--limit", "-1")]


@pytest.mark.parametrize("command, option, value", NEGATIVE_COUNT_OPTIONS)
def test_negative_count_option_exits_2_before_loading(tmp_path, capsys, monkeypatch,
                                                      command, option, value):
    import cban.checkpoint
    import cban.config

    def refuse(*args, **kwargs):
        raise AssertionError("loaded before the option was checked")

    monkeypatch.setattr(cban.config, "load_run_config", refuse)
    monkeypatch.setattr(cban.checkpoint, "load_checkpoint", refuse)
    if command == "train":
        argv = ["train", "--config", str(write_bar_config(tmp_path))]
        outdir = tmp_path / "out"
    else:
        argv = ["eval", "--ckpt", str(tmp_path / "none.ckpt"),
                "--data", str(tmp_path / "none.idx"), "--outdir", str(tmp_path / "ev")]
        outdir = tmp_path / "ev"
    assert main(argv + [option, value]) == 2
    assert capsys.readouterr().err == f"error: {option} must be 0 or more\n"
    assert not outdir.exists()


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


def assert_bad_train_value_exits_2(tmp_path, capsys, key, value, message):
    """`cban train` on the shipped bar config with train.<key> set to value
    exits 2 with the one error line `message`, writing nothing."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "bar.json").read_text())
    cfg["train"][key] = value
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "bar.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity load back as floats
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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
        cfg["arch"]["evidence"] = "external_bias"
        path.write_text(json.dumps(cfg))
        modes = []
        original = cban.training.complete

        def recording(examples, w, arch, **kwargs):
            modes.append(arch.evidence)
            return original(examples, w, arch, **kwargs)

        monkeypatch.setattr(cban.training, "complete", recording)
        assert main(["train", "--config", str(path), "--eval-every", "1"]) == 0
        # two bar-accuracy evaluations, then the sample grid
        assert modes == ["external_bias"] * 3

    @pytest.mark.parametrize("where, key", [
        (None, "comment"),
        ("train", "lr_shedule"),
        ("train", "evidence_mode"),
        ("train", "adam_beta1"),
        ("arch", "evidnce"),
    ])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, where, key):
        path = write_bar_config(tmp_path)
        cfg = json.loads(path.read_text())
        (cfg if where is None else cfg[where])[key] = 1
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "out").exists()

    def test_asymmetric_config_exits_2(self, tmp_path, capsys):
        path = write_bar_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["arch"]["symmetric"] = False
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: arch.symmetric must be true, got False\n"
        assert not (tmp_path / "out").exists()

    def test_missing_epochs_exits_2(self, tmp_path, capsys):
        path = write_bar_config(tmp_path)
        cfg = json.loads(path.read_text())
        del cfg["train"]["epochs"]
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "train.epochs" in err

    def test_image_shape_mismatch_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "imgs"
        folder.mkdir()
        for i in range(2):
            write_pgm(folder / f"{i}.pgm", np.full((6, 6), 128, dtype=np.uint8))
        cfg = {
            "task": "completion", "seed": 0, "output_dir": str(tmp_path / "o"),
            "arch": {"layers": [{"kind": "fc", "units": 4, "visible": True},
                                {"kind": "fc", "units": 2}]},
            "train": {"epochs": 1},
            "mask": {"kind": "bernoulli", "p": 0.5},
            "data": {"folder": str(folder)},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "visible layer" in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _supervised_config(tmp_path, limit):
        """The shipped supervised config on six random digits, one short epoch."""
        rng = np.random.default_rng(6)
        save_idx(tmp_path / "imgs.idx", rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8))
        save_idx(tmp_path / "labels.idx", rng.integers(0, 10, size=6).astype(np.uint8))
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "mnist_supervised.json").read_text())
        cfg["data"].update(images=str(tmp_path / "imgs.idx"),
                           labels=str(tmp_path / "labels.idx"), limit=limit)
        cfg["train"].update(epochs=1, max_iters=3)
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "mnist.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_shipped_supervised_config_trains_with_a_limit(self, tmp_path):
        # "limit" under "data" is a setting, not a path to check
        path = self._supervised_config(tmp_path, limit=3)
        assert main(["train", "--config", str(path)]) == 0
        rows = (tmp_path / "out" / "train_log.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + 1 epoch

    @pytest.mark.parametrize("key", ["images", "labels"])
    def test_supervised_config_without_its_data_exits_2(self, tmp_path, capsys, key):
        path = self._supervised_config(tmp_path, limit=3)
        cfg = json.loads(path.read_text())
        del cfg["data"][key]
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: data.{key} is required\n"
        assert not (tmp_path / "out").exists()

    def test_negative_data_limit_exits_2(self, tmp_path, capsys):
        path = self._supervised_config(tmp_path, limit=-5)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: data.limit must be 0 or more, got -5\n"
        assert not (tmp_path / "out").exists()

    def test_image_the_mask_cannot_use_exits_2(self, tmp_path, capsys):
        # an all-black image has no white pixels for the patches mask to size by
        folder = tmp_path / "imgs"
        folder.mkdir()
        write_pgm(folder / "black.pgm", np.zeros((4, 4), dtype=np.uint8))
        cfg = {
            "task": "completion", "seed": 0, "output_dir": str(tmp_path / "o"),
            "arch": {"layers": [{"kind": "fc", "units": 16, "visible": True},
                                {"kind": "fc", "units": 2}]},
            "train": {"epochs": 1, "batch_size": 1},
            "mask": {"kind": "patches"},
            "data": {"folder": str(folder)},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: image 0 has no white pixels for a patches mask to hide\n"
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _white_4x4_config(tmp_path, mask, pixels=None):
        folder = tmp_path / "imgs"
        folder.mkdir()
        write_pgm(folder / "white.pgm",
                  np.full((4, 4), 255, dtype=np.uint8) if pixels is None else pixels)
        cfg = {
            "task": "completion", "seed": 0, "output_dir": str(tmp_path / "o"),
            "arch": {"layers": [{"kind": "fc", "units": 16, "visible": True},
                                {"kind": "fc", "units": 2}]},
            "train": {"epochs": 3, "batch_size": 1, "max_iters": 3},
            "mask": mask,
            "data": {"folder": str(folder)},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_small_image_patches_leave_pixels_observed(self, tmp_path):
        # most patches clip to the whole 4x4 image; those masks are redrawn
        path = self._white_4x4_config(tmp_path, {"kind": "patches"})
        assert main(["train", "--config", str(path)]) == 0
        rows = (tmp_path / "o" / "train_log.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 epochs

    def test_image_every_patch_hides_exits_2(self, tmp_path, capsys):
        path = self._white_4x4_config(tmp_path, {"kind": "patches", "diameter_min": 4})
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: image 0 is 4x4, so every patch (diameter_min 4) "
                       "hides all of it\n")
        assert not (tmp_path / "o").exists()

    def test_image_every_drawn_mask_hides_exits_2(self, tmp_path, capsys):
        # white only at the corners: hiding 90% of the white hides all four
        # corners, and the 3x3 squares that do so cover the whole image
        corners = np.zeros((4, 4), dtype=np.uint8)
        corners[::3, ::3] = 255
        mask = {"kind": "patches", "diameter_min": 3, "diameter_max": 3,
                "white_fraction": 0.9}
        path = self._white_4x4_config(tmp_path, mask, pixels=corners)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: each of 1000 patch masks hid the whole 4x4 image\n")

    @pytest.mark.parametrize("mask", [
        {"kind": "label_only"},
        {"kind": "label_plus", "inner": {"kind": "perlin"}},
    ])
    def test_label_mask_on_a_completion_task_exits_2(self, tmp_path, capsys, mask):
        # a completion image has no label row for a label mask to hide
        path = self._white_4x4_config(tmp_path, mask)
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown pixel mask kind {mask['kind']!r} at mask.kind; "
            "expected one of ['bernoulli', 'patches', 'perlin']\n")
        assert not (tmp_path / "o").exists()

    def test_label_mask_inside_label_plus_exits_2(self, tmp_path, capsys):
        path = self._supervised_config(tmp_path, limit=3)
        cfg = json.loads(path.read_text())
        cfg["mask"] = {"kind": "label_plus", "inner": {"kind": "label_only"}}
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown pixel mask kind 'label_only' at mask.inner.kind; "
            "expected one of ['bernoulli', 'patches', 'perlin']\n")
        assert not (tmp_path / "out").exists()

    def test_supervised_data_keys_on_a_completion_task_exit_2(self, tmp_path, capsys):
        path = self._white_4x4_config(tmp_path, {"kind": "bernoulli", "p": 0.5})
        cfg = json.loads(path.read_text())
        cfg["data"].update(labels=cfg["data"]["folder"], limit=1)
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config keys data.labels, data.limit; expected some of ['folder']\n")
        assert not (tmp_path / "o").exists()

    def test_empty_image_set_exits_2(self, tmp_path, capsys):
        save_idx(tmp_path / "empty.idx", np.zeros((0, 4, 4), dtype=np.uint8))
        path = self._white_4x4_config(tmp_path, {"kind": "bernoulli", "p": 0.5})
        cfg = json.loads(path.read_text())
        cfg["data"]["folder"] = str(tmp_path / "empty.idx")
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'empty.idx'} holds no images\n"
        assert not (tmp_path / "o").exists()

    def test_keep_every_writes_numbered_checkpoints(self, tmp_path):
        config = write_bar_config(tmp_path, epochs=4)
        assert main(["train", "--config", str(config), "--keep-every", "2"]) == 0
        out = tmp_path / "out"
        assert (out / "epoch_00001.ckpt").exists()
        assert (out / "epoch_00003.ckpt").exists()

    def test_log_after_every_epoch_is_the_full_rewrite(self, tmp_path, monkeypatch):
        import cban.checkpoint
        import cban.training
        from cban.cli import _write_log_csv

        log, ref = tmp_path / "out" / "train_log.csv", tmp_path / "ref.csv"
        train, save = cban.training.train, cban.checkpoint.save_checkpoint
        rows, mismatches, rows_at_save = [], [], []

        def checked_train(*args, on_epoch, **kwargs):
            def hook(epoch, w, opt, rng, row):
                on_epoch(epoch, w, opt, rng, row)
                rows.append(row)
                _write_log_csv(ref, rows)
                if log.read_bytes() != ref.read_bytes():
                    mismatches.append(epoch)
            return train(*args, on_epoch=hook, **kwargs)

        def counting_save(path, ckpt):
            rows_at_save.append(len(log.read_text().splitlines()) - 1)
            return save(path, ckpt)

        monkeypatch.setattr(cban.training, "train", checked_train)
        monkeypatch.setattr(cban.checkpoint, "save_checkpoint", counting_save)
        path = write_bar_config(tmp_path, epochs=5)
        # accuracy first appears at epoch 1, the first evaluation
        assert main(["train", "--config", str(path), "--eval-every", "2"]) == 0
        assert ["accuracy" in row for row in rows] == [False, True, False, True, True]
        assert mismatches == []
        # each epoch's row is on disk when its checkpoint is saved
        assert rows_at_save == [1, 2, 3, 4, 5]

    def test_zero_epoch_run_writes_a_header_only_log(self, tmp_path):
        from cban.cli import _write_log_csv

        path = write_bar_config(tmp_path, epochs=0)
        assert main(["train", "--config", str(path), "--eval-every", "2"]) == 0
        _write_log_csv(tmp_path / "ref.csv", [])
        log = tmp_path / "out" / "train_log.csv"
        assert log.read_bytes() == (tmp_path / "ref.csv").read_bytes() == b"\r\n"
        assert (tmp_path / "out" / "latest.ckpt").exists()

    def test_held_out_set_is_drawn_once_per_run(self, tmp_path, monkeypatch):
        import csv

        import cban.cli
        import cban.data

        draw, score = cban.data.bar_eval_set, cban.cli._bar_accuracy
        draws, anew = [], []

        def counting_draw(rng, n):
            draws.append(n)
            return draw(rng, n)

        def scoring(w, arch, train_cfg, examples):
            # what the evaluation scored when it redrew its set every time
            fresh = draw(np.random.default_rng(7777), 200)
            anew.append(score(w, arch, train_cfg, fresh)["accuracy"])
            return score(w, arch, train_cfg, examples)

        monkeypatch.setattr(cban.data, "bar_eval_set", counting_draw)
        monkeypatch.setattr(cban.cli, "_bar_accuracy", scoring)
        path = write_bar_config(tmp_path, epochs=5)
        assert main(["train", "--config", str(path), "--eval-every", "2"]) == 0
        assert draws == [200]
        with open(tmp_path / "out" / "train_log.csv", newline="") as f:
            logged = [float(r["accuracy"]) for r in csv.DictReader(f) if r["accuracy"]]
        assert len(logged) == 3 and logged == anew

    def test_diverging_training_exits_1_with_a_message(self, tmp_path, capsys):
        # a leaky sigmoid's unbounded tails at a huge learning rate overflow
        cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "bar.json").read_text())
        cfg["arch"]["activation"] = {"kind": "leaky_sigmoid", "alpha": 0.2}
        cfg["train"].update(loss="se", lr=1e6, epochs=5)
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "bar.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged:") and "non-finite value" in err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "out" / "samples.ppm").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("lr", "0.01", "train.lr must be a number, got str"),
        ("epochs", True, "train.epochs must be an integer, got bool"),
        ("max_iters", 10.0, "train.max_iters must be an integer, got float"),
        ("theta", None, "train.theta must be a number, got NoneType"),
        ("loss", 3, "train.loss must be a string, got int"),
        ("optimizer", ["adam"], "train.optimizer must be a string, got list"),
        ("lr_schedule", 5, "train.lr_schedule must be a list of [epoch, multiplier] "
                           "pairs, got 5"),
        ("lr_schedule", [[600]], "train.lr_schedule must be a list of [epoch, multiplier] "
                                 "pairs, got [[600]]"),
    ])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, key, value, message):
        assert_bad_train_value_exits_2(tmp_path, capsys, key, value, message)

    @pytest.mark.parametrize("key, value, message", [
        ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ("batch_size", -3, "batch_size must be >= 1, got -3"),
        ("lr", float("nan"), "lr must be positive and finite, got nan"),
        ("lr", float("inf"), "lr must be positive and finite, got inf"),
        ("theta", float("nan"), "theta must be positive, got nan"),
        ("conv_init_std", -0.5, "conv_init_std must be >= 0 and finite, got -0.5"),
        ("lr_schedule", [[10, 0]], "lr_schedule multipliers must be positive and finite, "
                                   "got [0.0]"),
        ("lr_schedule", [[10, 0.1], [20, -1]], "lr_schedule multipliers must be positive "
                                               "and finite, got [0.1, -1.0]"),
        ("lr_schedule", [[10, float("nan")]], "lr_schedule multipliers must be positive "
                                              "and finite, got [nan]"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, key, value, message):
        assert_bad_train_value_exits_2(tmp_path, capsys, key, value, message)


def _set(*path_and_value):
    """An edit of a config dict that sets the value at a key path."""
    *path, key, value = path_and_value

    def edit(cfg):
        for step in path:
            cfg = cfg[step]
        cfg[key] = value

    return edit


# (edit of the shipped bar config, or a whole config; the error line's message)
MALFORMED_CONFIGS = {
    "arch is a list": (_set("arch", [{}]), "arch must be an object, got list"),
    "layers is a number": (_set("arch", "layers", 5), "arch.layers must be a list, got int"),
    "a layer is a string": (_set("arch", "layers", 1, "fc"),
                            "arch.layers[1] must be an object, got str"),
    "units is null": (_set("arch", "layers", 1, "units", None),
                      "arch.layers[1].units must be an integer, got NoneType"),
    "units is 1e400": (_set("arch", "layers", 1, "units", float("inf")),
                       "arch.layers[1].units must be an integer, got float"),
    "activation is a string": (_set("arch", "activation", "tanh"),
                               "arch.activation must be an object, got str"),
    "kernel_sizes is a number": (_set("arch", "kernel_sizes", 3),
                                 "arch.kernel_sizes must be a list, got int"),
    "mask is a string": (_set("mask", "perlin"), "mask must be an object, got str"),
    "the top level is a list": ([], "the config must be an object, got list"),
    "seed is null": (_set("seed", None), "seed must be an integer, got NoneType"),
    "data is a list": (_set("data", ["x"]), "data must be an object, got list"),
    "output_dir is null": (_set("output_dir", None),
                           "output_dir must be a string, got NoneType"),
    "seed is fractional": (_set("seed", 1.5), "seed must be an integer, got float"),
    "seed is true": (_set("seed", True), "seed must be an integer, got bool"),
    "pool_before is a string": (_set("arch", "layers", 1, "pool_before", "false"),
                                "arch.layers[1].pool_before must be true or false, got str"),
    "visible is a string": (_set("arch", "layers", 0, "visible", "false"),
                            "arch.layers[0].visible must be true or false, got str"),
    # 200 TB of weights: refused when the first block cannot be allocated
    "units is 10**12": (_set("arch", "layers", 1, "units", 10**12),
                        "the network does not fit in memory: "),
    "a layer key is misspelt": (_set("arch", "layers", 1, "pool_befor", True),
                                "unknown config key arch.layers[1].pool_befor; "),
    "a conv key on an fc layer": (_set("arch", "layers", 1, "channels", 7),
                                  "unknown config key arch.layers[1].channels; "),
    "an activation key is misspelt": (_set("arch", "activation", "alhpa", 3),
                                      "unknown config key arch.activation.alhpa; "),
    "a mask key is misspelt": (_set("mask", {"kind": "perlin", "frequncy": 3}),
                               "unknown config key mask.frequncy; "),
    "an inner mask key is misspelt": (
        _set("mask", {"kind": "label_plus", "inner": {"kind": "bernoulli", "p": 0.5, "q": 1}}),
        "unknown config key mask.inner.q; "),
    "two unknown keys": (_set("arch", "layers", 0, {"kind": "fc", "units": 25, "visible": True,
                                                    "b": 1, "a": 2}),
                         "unknown config keys arch.layers[0].a, arch.layers[0].b; "),
    "a schedule entry is strings": (_set("train", "lr_schedule", [["3", "0.1"]]),
                                    "train.lr_schedule[0][0] must be an integer, got str"),
    "a schedule epoch is true": (_set("train", "lr_schedule", [[True, 0.5]]),
                                 "train.lr_schedule[0][0] must be an integer, got bool"),
    "a schedule epoch is fractional": (_set("train", "lr_schedule", [[600, 0.1], [2.7, 0.5]]),
                                       "train.lr_schedule[1][0] must be an integer, got float"),
    "a schedule epoch is negative": (_set("train", "lr_schedule", [[-1, 0.5]]),
                                     "train.lr_schedule[0][0] must be >= 0, got -1"),
    "a schedule multiplier is a string": (_set("train", "lr_schedule", [[3, "0.1"]]),
                                          "train.lr_schedule[0][1] must be a number, got str"),
    "a schedule multiplier is null": (_set("train", "lr_schedule", [[3, None]]),
                                      "train.lr_schedule[0][1] must be a number, got NoneType"),
    # the bar task draws its own data
    "a data entry on the bar task": (_set("data", {"images": "x.idx"}),
                                     "unknown config key data.images; "),
}


@pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
def test_malformed_config_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, case):
    edit, message = MALFORMED_CONFIGS[case]
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs" / "bar.json").read_text())
    cfg["output_dir"] = "out"
    if callable(edit):
        edit(cfg)
    else:
        cfg = edit
    (tmp_path / "bar.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)  # a relative or null output_dir would land here
    assert main(["train", "--config", "bar.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bar.json"]


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

    @pytest.mark.parametrize("value, message", [(1.0, "|v| < 1"), (np.nan, "finite")])
    def test_bad_evidence_values_exit_2(self, tmp_path, capsys, value, message):
        ckpt = self._trained_ckpt(tmp_path)
        mask = np.zeros(25, dtype=bool)
        mask[:3] = True
        values = np.where(mask, 0.5, 0.0)
        values[1] = value
        np.savez(tmp_path / "ev.npz", values=values, mask=mask)
        code = main(["complete", "--ckpt", str(ckpt), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "x").exists()

    def test_external_bias_checkpoint_settles_without_clamping(self, tmp_path):
        from cban.dynamics import WeightBundle
        from cban.imageio import bytes_to_activations, read_pgm

        # no couplings: each visible unit settles at tanh(b + evidence), so
        # an observed value of 0.9 reads tanh(0.9), not 0.9
        arch = dataclasses.replace(fban(25, [4]), evidence="external_bias")
        w = WeightBundle.from_blocks([np.zeros((25, 4)), np.zeros(25), np.zeros(4)])
        save_checkpoint(tmp_path / "eb.ckpt", Checkpoint(
            arch=arch, weights=w, opt_state=None, epoch=0,
            rng_state=None))
        mask = np.zeros((5, 5), dtype=bool)
        mask[:2] = True
        np.savez(tmp_path / "ev.npz", values=np.where(mask, 0.9, 0.0), mask=mask)
        outdir = tmp_path / "eb"
        code = main(["complete", "--ckpt", str(tmp_path / "eb.ckpt"), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(outdir)])
        assert code == 0
        out = bytes_to_activations(read_pgm(outdir / "completed.pgm"))
        np.testing.assert_allclose(out[mask], np.tanh(0.9), atol=0.01)
        assert np.all(np.abs(out[mask] - 0.9) > 0.1)
        np.testing.assert_allclose(out[~mask], 0.0, atol=0.01)

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = self._trained_ckpt(tmp_path)
        np.savez(tmp_path / "bad.npz", values=np.zeros((3, 3)),
                 mask=np.ones((3, 3), dtype=bool))
        code = main(["complete", "--ckpt", str(ckpt), "--input",
                     str(tmp_path / "bad.npz"), "--outdir", str(tmp_path / "x")])
        assert code == 2
        assert "visible layer" in capsys.readouterr().err

    def test_mask_shape_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = self._trained_ckpt(tmp_path)
        np.savez(tmp_path / "bad.npz", values=np.zeros((5, 5)),
                 mask=np.ones(24, dtype=bool))
        code = main(["complete", "--ckpt", str(ckpt), "--input",
                     str(tmp_path / "bad.npz"), "--outdir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "(24,)" in err and "(5, 5)" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("hidden, blocks", [
        # a 4 -> 3 net whose weight block is stored transposed
        ([3], [np.zeros((3, 4)), np.zeros(4), np.zeros(3)]),
        # a 4 -> 3 -> 2 net with the blocks of a 4 -> 3 net, fewer than it has
        ([3, 2], [np.zeros((4, 3)), np.zeros(4), np.zeros(3)]),
    ])
    def test_block_manifest_mismatch_exits_2(self, tmp_path, capsys, hidden, blocks):
        from cban.dynamics import WeightBundle

        arch = fban(4, hidden)
        # the bundle's shapes are these blocks', so they become the manifest
        w = WeightBundle.from_blocks(blocks)
        save_checkpoint(tmp_path / "bad.ckpt", Checkpoint(
            arch=arch, weights=w, opt_state=None, epoch=0,
            rng_state=None))
        np.savez(tmp_path / "ev.npz", values=np.zeros(4), mask=np.ones(4, dtype=bool))
        code = main(["complete", "--ckpt", str(tmp_path / "bad.ckpt"), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "block manifest" in err
        with pytest.raises(CheckpointError, match="block manifest"):
            load_checkpoint(tmp_path / "bad.ckpt")

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

    @pytest.mark.parametrize("option, value", BAD_SETTLE_OPTIONS)
    def test_bad_settle_option_exits_2(self, tmp_path, capsys, option, value):
        # refused before the (missing) checkpoint is read
        np.savez(tmp_path / "ev.npz", values=np.zeros(25), mask=np.ones(25, dtype=bool))
        assert_bad_settle_option_exits_2(
            tmp_path, capsys, ["complete", "--input", str(tmp_path / "ev.npz")], option, value)

    def test_asymmetric_checkpoint_exits_2(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "new.ckpt", make_checkpoint())
        rewrite_metadata(tmp_path / "new.ckpt", tmp_path / "asym.ckpt",
                         lambda meta: meta["arch"].update(symmetric=False))
        np.savez(tmp_path / "ev.npz", values=np.zeros(6), mask=np.ones(6, dtype=bool))
        code = main(["complete", "--ckpt", str(tmp_path / "asym.ckpt"), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == "error: arch.symmetric must be true, got False\n"
        assert not (tmp_path / "x").exists()

    def test_diverging_net_exits_1_without_outputs(self, tmp_path, capsys):
        from cban.dynamics import WeightBundle

        # weights of 10.0 drive a leaky sigmoid's unbounded tails to overflow
        arch = fban(4, [4], activation_kind=LeakySigmoid(0.5))
        w = WeightBundle.from_blocks([np.full((4, 4), 10.0), np.full(4, 10.0), np.full(4, 10.0)])
        save_checkpoint(tmp_path / "div.ckpt", Checkpoint(
            arch=arch, weights=w, opt_state=None, epoch=0,
            rng_state=None))
        mask = np.zeros(4, dtype=bool)
        mask[0] = True
        np.savez(tmp_path / "ev.npz", values=np.where(mask, 0.5, 0.0), mask=mask)
        outdir = tmp_path / "div"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["complete", "--ckpt", str(tmp_path / "div.ckpt"), "--input",
                         str(tmp_path / "ev.npz"), "--outdir", str(outdir)])
        assert code == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite value" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_nonconvergent_checkpoint_exits_1_with_outputs(self, tmp_path, capsys):
        # two sweeps cannot bring a random net's state change below 1e-12
        rng = np.random.default_rng(2)
        from cban.dynamics import WeightBundle

        arch = fban(25, [25])
        w = WeightBundle.from_blocks([rng.normal(scale=1.2, size=(25, 25)),
                                      np.zeros(25), np.zeros(25)])
        ckpt = Checkpoint(arch=arch, weights=w, opt_state=None,
                          epoch=0, rng_state=None)
        path = tmp_path / "rand.ckpt"
        save_checkpoint(path, ckpt)
        mask = np.zeros(25, dtype=bool)
        mask[:5] = True
        values = np.where(mask, 0.9, 0.0)
        np.savez(tmp_path / "ev.npz", values=values, mask=mask)
        outdir = tmp_path / "out"
        code = main(["complete", "--ckpt", str(path), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(outdir),
                     "--max-iters", "2", "--theta", "1e-12"])
        assert code == 1
        assert "settled in 2 iterations: did not converge" in capsys.readouterr().out
        from cban.imageio import read_pgm

        # flat evidence of a perfect-square length renders as a square
        assert read_pgm(outdir / "completed.pgm").shape == (5, 5)


class TestCmdEval:
    @pytest.mark.parametrize("option, value", BAD_SETTLE_OPTIONS)
    def test_bad_settle_option_exits_2(self, tmp_path, capsys, option, value):
        # refused before the (missing) checkpoint and data are read
        assert_bad_settle_option_exits_2(
            tmp_path, capsys, ["eval", "--data", str(tmp_path / "none.idx")], option, value)

    def test_diverging_net_exits_1_without_outputs(self, tmp_path, capsys):
        from cban.dynamics import WeightBundle

        # weights of 10.0 drive a leaky sigmoid's unbounded tails to overflow
        save_idx(tmp_path / "imgs.idx", np.random.default_rng(5).integers(
            0, 256, size=(3, 12, 12)).astype(np.uint8))
        arch = fban(144, [4], activation_kind=LeakySigmoid(0.5))
        w = WeightBundle.from_blocks([np.full((144, 4), 10.0),
                                      np.full(144, 10.0), np.full(4, 10.0)])
        save_checkpoint(tmp_path / "div.ckpt", Checkpoint(
            arch=arch, weights=w, opt_state=None, epoch=0, rng_state=None))
        outdir = tmp_path / "ev"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--ckpt", str(tmp_path / "div.ckpt"), "--data",
                         str(tmp_path / "imgs.idx"), "--mask", "bernoulli",
                         "--outdir", str(outdir)])
        assert code == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: settling diverged:") and "non-finite value" in err
        assert err.count("\n") == 1
        assert not outdir.exists()

    def test_metrics_on_synthetic_idx(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
        save_idx(tmp_path / "imgs.idx", images)
        arch = fban(784, [16])
        ckpt = Checkpoint(arch=arch,
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

    def test_large_set_settles_in_batches_of_32(self, tmp_path, monkeypatch):
        import cban.training

        rng = np.random.default_rng(5)
        save_idx(tmp_path / "imgs.idx",
                 rng.integers(0, 256, size=(70, 12, 12)).astype(np.uint8))
        arch = fban(144, [4])
        save_checkpoint(tmp_path / "m.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0), opt_state=None,
            epoch=0, rng_state=None))
        sizes, original = [], cban.training.complete

        def recording(examples, *args, **kwargs):
            sizes.append(len(examples))
            return original(examples, *args, **kwargs)

        monkeypatch.setattr(cban.training, "complete", recording)
        outdir = tmp_path / "ev"
        code = main(["eval", "--ckpt", str(tmp_path / "m.ckpt"), "--data",
                     str(tmp_path / "imgs.idx"), "--mask", "bernoulli",
                     "--mask-fraction", "0.5", "--outdir", str(outdir)])
        assert code == 0
        assert sizes == [32, 32, 6]
        assert "psnr_mean" in (outdir / "metrics.csv").read_text()

    def test_supervised_layout_reports_label_accuracy(self, tmp_path):
        rng = np.random.default_rng(3)
        save_idx(tmp_path / "imgs.idx", rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8))
        save_idx(tmp_path / "labels.idx", np.array([0, 3, 7, 9], dtype=np.uint8))
        arch = shipped_arch("mnist_supervised.json")
        save_checkpoint(tmp_path / "d.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0),
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
        w = WeightBundle.from_blocks([np.zeros((4, 6, 3, 3)), np.zeros(6), np.zeros(4)])
        save_checkpoint(tmp_path / "r.ckpt", Checkpoint(
            arch=arch, weights=w, opt_state=None, epoch=0,
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

    def test_external_bias_checkpoint_scored_unclamped(self, tmp_path):
        from cban.data import BernoulliMask, CompletionData, build_dataset
        from cban.dynamics import WeightBundle
        from cban.metrics import psnr

        rng = np.random.default_rng(2)
        save_idx(tmp_path / "imgs.idx",
                 rng.integers(0, 256, size=(3, 12, 12)).astype(np.uint8))
        # zero weights: each visible unit settles at tanh of its evidence
        arch = dataclasses.replace(fban(144, [4]), evidence="external_bias")
        w = WeightBundle.from_blocks([np.zeros((144, 4)), *init_weights(arch, seed=0).biases])
        save_checkpoint(tmp_path / "eb.ckpt", Checkpoint(
            arch=arch, weights=w, opt_state=None, epoch=0,
            rng_state=None))
        outdir = tmp_path / "ev"
        code = main(["eval", "--ckpt", str(tmp_path / "eb.ckpt"), "--data",
                     str(tmp_path / "imgs.idx"), "--mask", "bernoulli",
                     "--mask-fraction", "0.5", "--outdir", str(outdir)])
        assert code == 0
        rows = dict(line.split(",") for line in
                    (outdir / "metrics.csv").read_text().strip().splitlines()[1:])
        dataset = build_dataset(arch, CompletionData(str(tmp_path / "imgs.idx")),
                                BernoulliMask(0.5))
        examples = dataset.epoch_examples(np.random.default_rng(0))
        free = [np.where(e.mask, np.tanh(np.clip(e.target, -0.999, 0.999)), 0.0)
                for e in examples]
        clamped = [np.where(e.mask, np.clip(e.target, -0.999, 0.999), 0.0)
                   for e in examples]
        expected = np.mean([psnr(o, e.target, 1.998) for o, e in zip(free, examples)])
        assert abs(float(rows["psnr_mean"]) - expected) < 1e-9
        assert abs(expected - np.mean([psnr(o, e.target, 1.998)
                                       for o, e in zip(clamped, examples)])) > 0.1

    def test_image_shape_mismatch_exits_2(self, tmp_path, capsys):
        code, _, outdir = self._replicated_run(tmp_path, 10)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "visible layer" in err
        assert not (outdir / "metrics.csv").exists()

    def test_empty_image_set_exits_2_before_settling(self, tmp_path, capsys, monkeypatch):
        import cban.training

        save_idx(tmp_path / "empty.idx", np.zeros((0, 8, 8), dtype=np.uint8))
        arch = fban(64, [8])
        save_checkpoint(tmp_path / "e.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0),
            opt_state=None, epoch=0, rng_state=None))
        calls = []
        real = cban.training.complete
        monkeypatch.setattr(cban.training, "complete",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--ckpt", str(tmp_path / "e.ckpt"), "--data",
                         str(tmp_path / "empty.idx"), "--mask", "bernoulli",
                         "--outdir", str(tmp_path / "ev")])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {tmp_path / 'empty.idx'} holds no images\n"
        assert calls == []
        assert not (tmp_path / "ev").exists()

    def test_image_smaller_than_ssim_window_exits_2(self, tmp_path, capsys, monkeypatch):
        import cban.training

        # 40 images are two batches: the refusal comes before either settles
        images = np.random.default_rng(1).integers(0, 256, size=(40, 8, 8))
        save_idx(tmp_path / "small.idx", images.astype(np.uint8))
        arch = fban(64, [8])
        save_checkpoint(tmp_path / "s.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0),
            opt_state=None, epoch=0, rng_state=None))
        calls = []
        real = cban.training.complete
        monkeypatch.setattr(cban.training, "complete",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        code = main(["eval", "--ckpt", str(tmp_path / "s.ckpt"), "--data",
                     str(tmp_path / "small.idx"), "--mask", "bernoulli",
                     "--mask-fraction", "0.5", "--outdir", str(tmp_path / "ev")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: image (8, 8) is smaller than the 11x11 window\n")
        assert calls == []
        assert not (tmp_path / "ev").exists()


class TestVisibleLayout:
    """On a conv visible layer a state must have the layer's (channels,
    height, width), not only its unit count: 1 x 16 x 12 grayscale images
    have the 192 units of a (3, 8, 8) layer and are refused."""

    layers = [{"kind": "conv", "channels": 3, "height": 8, "width": 8, "visible": True},
              {"kind": "conv", "channels": 2, "height": 8, "width": 8}]
    visible = "the network's visible layer has shape (3, 8, 8)"

    @staticmethod
    def _gray_image(path):
        write_pgm(path, np.random.default_rng(0).integers(0, 256, size=(16, 12)).astype(np.uint8))

    def test_train_exits_2(self, tmp_path, capsys):
        folder = tmp_path / "imgs"
        folder.mkdir()
        for i in range(2):
            self._gray_image(folder / f"{i}.pgm")
        cfg = {
            "task": "completion", "seed": 0, "output_dir": str(tmp_path / "o"),
            "arch": {"layers": self.layers, "kernel_sizes": [3]},
            "train": {"epochs": 1, "batch_size": 1},
            "mask": {"kind": "bernoulli", "p": 0.5},
            "data": {"folder": str(folder)},
        }
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: the images give visible states of shape (1, 16, 12); {self.visible}\n")
        assert not (tmp_path / "o").exists()

    def test_complete_exits_2(self, tmp_path, capsys):
        arch = arch_from_dict({"layers": self.layers, "kernel_sizes": [3]})
        save_checkpoint(tmp_path / "c.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0), opt_state=None, epoch=0,
            rng_state=None))
        self._gray_image(tmp_path / "in.pgm")
        code = main(["complete", "--ckpt", str(tmp_path / "c.ckpt"), "--input",
                     str(tmp_path / "in.pgm"), "--mask", "bernoulli",
                     "--outdir", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: evidence of shape (1, 16, 12); {self.visible}\n")
        assert not (tmp_path / "x").exists()

    def test_a_grayscale_image_fits_a_one_channel_layer(self, tmp_path):
        # a 2-d state is one channel: a (16, 12) npz fits a (1, 16, 12) layer
        arch = arch_from_dict({"layers": [
            {"kind": "conv", "channels": 1, "height": 16, "width": 12, "visible": True},
            {"kind": "conv", "channels": 2, "height": 16, "width": 12}], "kernel_sizes": [3]})
        save_checkpoint(tmp_path / "c.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0), opt_state=None, epoch=0,
            rng_state=None))
        mask = np.zeros((16, 12), dtype=bool)
        mask[:4] = True
        np.savez(tmp_path / "ev.npz", values=np.where(mask, 0.5, 0.0), mask=mask)
        code = main(["complete", "--ckpt", str(tmp_path / "c.ckpt"), "--input",
                     str(tmp_path / "ev.npz"), "--outdir", str(tmp_path / "x")])
        assert code in (0, 1)
        assert (tmp_path / "x" / "completed.pgm").exists()


class TestUnwritableOutputs:
    """An output path that cannot be written exits 2 with one error line."""

    def test_train_output_dir_is_a_file(self, tmp_path, capsys):
        config = write_bar_config(tmp_path)
        (tmp_path / "out").write_text("a file")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot write outputs under {tmp_path / 'out'}: "
                       f"{tmp_path / 'out'} is not a directory\n")

    def test_train_latest_ckpt_is_a_directory(self, tmp_path, capsys):
        config = write_bar_config(tmp_path)
        (tmp_path / "out" / "latest.ckpt").mkdir(parents=True)
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "latest.ckpt" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["complete", "eval"])
    def test_outdir_is_a_file_exits_2_before_settling(self, tmp_path, capsys, monkeypatch,
                                                      command):
        import cban.dynamics
        import cban.training

        def refuse(*args, **kwargs):
            raise AssertionError("settled before the output directory was checked")

        monkeypatch.setattr(cban.dynamics, "settle", refuse)
        monkeypatch.setattr(cban.training, "complete", refuse)
        arch = fban(144, [4])
        save_checkpoint(tmp_path / "c.ckpt", Checkpoint(
            arch=arch, weights=init_weights(arch, seed=0),
            opt_state=None, epoch=0, rng_state=None))
        if command == "complete":
            mask = np.arange(144) < 72
            np.savez(tmp_path / "ev.npz", values=np.where(mask, 0.5, 0.0), mask=mask)
            extra = ["--input", str(tmp_path / "ev.npz")]
        else:
            save_idx(tmp_path / "imgs.idx", np.random.default_rng(5).integers(
                0, 256, size=(3, 12, 12)).astype(np.uint8))
            extra = ["--data", str(tmp_path / "imgs.idx"), "--mask", "bernoulli"]
        outdir = tmp_path / "taken"
        outdir.write_text("a file")
        assert main([command, "--ckpt", str(tmp_path / "c.ckpt"),
                     "--outdir", str(outdir)] + extra) == 2
        assert capsys.readouterr().err == (f"error: cannot write outputs under {outdir}: "
                                           f"{outdir} is not a directory\n")


class TestCmdCheck:
    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--suite", "bogus"])

    def test_gradient_suite_covers_pooled_conv(self):
        # per loss kind: 2 tanh clamp trials, then a leaky and an external-bias one
        result = check_gradients(seed=3, per_loss=0)
        assert result.trials == 12 and result.passed, result.failures

    def test_energy_suite_covers_pooled_conv(self):
        # trials=0 leaves the 3 pooled-conv and 4 external-bias fc trials
        result = check_layerwise_descent(seed=3, trials=0)
        assert result.trials == 7 and result.passed, result.failures

    @pytest.mark.parametrize("suite", ["gradients", "energy", "convergence", "bound"])
    def test_suite_passes_at_cli_defaults(self, suite, capsys):
        assert main(["check", "--suite", suite]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_convergence_suite_passes(self, capsys):
        assert main(["check", "--suite", "convergence", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "clamped-settle-convergence" in out


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
