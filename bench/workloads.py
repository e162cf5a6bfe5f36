"""The three benchmark workloads and their output checks.

Each workload has `setup()` (everything before the first timed call),
`op(i)` (one timed operation, returning a record), `check(records)` (one
verdict per operation, plus one per extra check, each True when the
outputs pass checks that any correct program passes) and
`metrics(records)` (the end-to-end metrics it measures).
Checks never compare against golden bytes, so a change that moves results
within the maths, such as an exact pooled adjoint, still passes.

- bar-train: `cban train` on the shipped bar config, in-process, per-op
  Python overhead bound; one op is one training, stopped at the end of
  the first epoch that reaches accuracy 0.99.
- omniglot-complete: `complete()` at the shipped Omniglot shape and
  batch, forward-conv and snapshot-memory bound; one op is one batch.
- cifar-td1: TD(1) training steps at the shipped CIFAR-10 shape, conv
  forward and backward bound; one op is one step.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
import statistics
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import inputs

clock = time.perf_counter


def _median(values):
    return float(statistics.median(values))


def _visible_ok(outputs, examples):
    """Clamped visible units equal the evidence; all outputs finite, |x| < 1."""
    out = np.asarray(outputs)
    if not np.all(np.isfinite(out)) or np.max(np.abs(out)) >= 1.0:
        return False
    for o, e in zip(out, examples):
        evidence = np.clip(e.target, -0.999, 0.999).reshape(o.shape)
        mask = e.mask.reshape(o.shape)
        if not np.array_equal(o[mask], evidence[mask]):
            return False
    return True


class TargetReached(Exception):
    """Raised from the epoch hook to stop a training at its target accuracy."""


@contextlib.contextmanager
def epoch_clock(ends, target_acc):
    """Timestamp each epoch's end; stop at the first accurate enough epoch.

    `cban train` saves latest.ckpt as the last step of every epoch, after
    evaluation and the CSV rewrite, so the save times are the epochs' end
    times. The accuracy it logs is what `cban.metrics.completion_accuracy`
    returned in that epoch's evaluation; once that reaches `target_acc`,
    the save raises TargetReached, with the epoch's log row and checkpoint
    already on disk. These are the only hooks in an untraced bar run; they
    cost one Python call per epoch and one per evaluation.
    """
    from cban import checkpoint, metrics

    save, accuracy = checkpoint.save_checkpoint, metrics.completion_accuracy
    scores = []

    def scored(*args, **kwargs):
        acc = accuracy(*args, **kwargs)
        scores.append(acc)
        return acc

    def timed(*args, **kwargs):
        out = save(*args, **kwargs)
        ends.append(clock())
        reached = any(acc >= target_acc for acc in scores)
        scores.clear()
        if reached:
            raise TargetReached
        return out

    checkpoint.save_checkpoint, metrics.completion_accuracy = timed, scored
    try:
        yield
    finally:
        checkpoint.save_checkpoint, metrics.completion_accuracy = save, accuracy


class Workload:
    """Defaults shared by the workloads."""

    channels = ()  # channels per layer, to name conv pairs in a traced run

    def close(self):
        """Remove what set-up left on disk."""

    def diagnostics(self, records):
        """Bar-only training outcome, reported with the per-layer metrics."""
        return {"training.epochs_to_acc": 0.0}


class BarTrain(Workload):
    """Train the bar task through `cban.cli.main` until it is accurate.

    One operation is the shipped `cban train` run, stopped at the end of
    the first epoch whose logged accuracy reaches the target, as a
    time-to-train benchmark stops at its quality target. Every replica
    trains the shipped config as shipped, seed included; --seed only draws
    the held-out evidence of the output check. Replicas thus repeat one
    training, and their spread is timing noise. A change that alters
    floating-point results can move the epoch at which accuracy is
    reached: read training.epochs_to_acc before reading time_to_result_s
    as a change in speed.
    """

    name = "bar-train"
    exit_check_epochs = 25  # the untimed full `cban train` run of the checks

    def __init__(self, root, seed, epochs=None, eval_every=25, target_acc=0.99):
        self.root = Path(root)
        self.seed = seed
        self.epochs = epochs  # None keeps the shipped config's 800
        self.eval_every = eval_every
        self.target_acc = target_acc
        self.out = None

    def setup(self):
        import cban.cli  # noqa: F401  (the op drives it in-process)

        self.close()
        scratch = self.root / "bench" / "out"
        scratch.mkdir(parents=True, exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="bar-", dir=scratch))

    def close(self):
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out = None

    def _argv(self, prefix, epochs):
        run_dir = Path(tempfile.mkdtemp(prefix=prefix, dir=self.out))
        cfg_path = inputs.bar_config_copy(self.root, run_dir, epochs=epochs)
        argv = ["train", "--config", str(cfg_path), "--eval-every", str(self.eval_every)]
        return argv, run_dir / "run"

    def op(self, i):
        from cban import cli

        argv, run_dir = self._argv(f"replica{i}-", self.epochs)
        ends = []
        reached = False
        with epoch_clock(ends, self.target_acc), contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            try:
                cli.main(argv)
            except TargetReached:
                reached = True
        return {"reached": reached, "ends": [t - start for t in ends], "dir": run_dir}

    def _summary(self, record):
        path = record["dir"] / "train_log.csv"
        if not record["reached"] or not path.exists():
            return None
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if not rows or len(rows) != len(record["ends"]):
            return None
        if float(rows[-1].get("accuracy") or 0.0) < self.target_acc:
            return None
        t_star = [float(r["mean_t_star"]) for r in rows]
        items = 20  # bar patterns per epoch
        wall = record["ends"][-1]
        return {
            "epochs_to_acc": len(rows),
            "time_to_acc": wall,
            "mean_t_star": float(np.mean(t_star)),
            "item_sweeps_per_s": items * sum(t_star) / wall,
        }

    def _exit_check(self):
        """A short full `cban train` run exits 0 and writes its log."""
        from cban import cli

        argv, run_dir = self._argv("exit-check-", self.exit_check_epochs)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        path = run_dir / "train_log.csv"
        if code != 0 or not path.exists() or not (run_dir / "latest.ckpt").exists():
            return False
        with open(path, newline="") as f:
            return len(list(csv.DictReader(f))) == self.exit_check_epochs

    def check(self, records):
        from cban.checkpoint import load_checkpoint
        from cban.data import bar_eval_set
        from cban.training import complete

        verdicts = []
        for i, rec in enumerate(records):
            ok = self._summary(rec) is not None
            if ok:
                ckpt = load_checkpoint(rec["dir"] / "latest.ckpt")
                examples = bar_eval_set(np.random.default_rng([self.seed, i, 1]), 40)
                outputs, _ = complete(examples, ckpt.weights, ckpt.arch)
                ok = _visible_ok(outputs, examples)
            verdicts.append(ok)
        verdicts.append(self._exit_check())
        return verdicts

    def metrics(self, records):
        runs = [s for s in map(self._summary, records) if s is not None]
        if not runs:
            return {}
        return {
            "time_to_result_s": _median([r["time_to_acc"] for r in runs]),
            "item_sweeps_per_s": _median([r["item_sweeps_per_s"] for r in runs]),
            "mean_t_star": _median([r["mean_t_star"] for r in runs]),
        }

    def diagnostics(self, records):
        runs = [s for s in map(self._summary, records) if s is not None]
        if not runs:
            return super().diagnostics(records)
        return {"training.epochs_to_acc": _median([r["epochs_to_acc"] for r in runs])}


# The conv workloads run one fixed network; --seed draws only their inputs.
WEIGHT_SEED = 0


def _conv_config(root, name):
    from cban.config import load_run_config

    return load_run_config(Path(root) / "configs" / name, check_paths=False)


class OmniglotComplete(Workload):
    """Settle batches of masked stroke images at the shipped Omniglot shape.

    With the weights fixed, conv_std 0.006 and theta 1.5e-4 converge every
    batch at t* = 5: over ten batches from five seeds, the batch's largest
    change was 2.4e-4 to 2.6e-4 after sweep 4 and 9.3e-5 to 1.05e-4 after
    sweep 5, so theta sits well clear of both. At 0.0085 the net does not
    converge at all.
    """

    name = "omniglot-complete"
    conv_std = 0.006
    theta = 1.5e-4
    max_iters = 100

    def __init__(self, root, seed, batch=32, n_batches=4, arch=None):
        self.root = root
        self.seed = seed
        self.batch = batch
        self.n_batches = n_batches
        self.arch = arch

    def setup(self):
        from cban.data import Example, square_patch_mask
        from cban.training import init_weights

        cfg = _conv_config(self.root, "omniglot.json")
        self.arch = self.arch or cfg.arch
        self.channels = [spec.channels for spec in self.arch.layers]
        c, h, w = self.arch.visible_shape
        rng = np.random.default_rng(self.seed)
        m = cfg.mask
        batches = []
        for _ in range(self.n_batches):
            batch = []
            for img in inputs.stroke_images(rng, self.batch, size=h):
                pixel = square_patch_mask(img, m.diameter_min, m.diameter_max,
                                          m.white_fraction, rng)
                target = np.broadcast_to(img, (c, h, w))
                batch.append(Example(target=target, mask=np.broadcast_to(pixel, (c, h, w))))
            batches.append(batch)
        self.batches = batches
        self.weights = init_weights(self.arch, WEIGHT_SEED, conv_std=self.conv_std)

    def op(self, i):
        from cban.training import complete

        batch = self.batches[i % len(self.batches)]
        start = clock()
        outputs, report = complete(batch, self.weights, self.arch, theta=self.theta,
                                   max_iters=self.max_iters)
        wall = clock() - start
        return {"wall": wall, "items": len(batch), "t_star": report.t_star,
                "converged": report.converged, "outputs": outputs, "batch": batch}

    def check(self, records):
        return [r["converged"] and _visible_ok(r["outputs"], r["batch"]) for r in records]

    def metrics(self, records):
        return {
            "time_to_result_s": _median([r["wall"] for r in records]),
            "item_sweeps_per_s": _median([r["items"] * r["t_star"] / r["wall"]
                                          for r in records]),
            "mean_t_star": _median([r["t_star"] for r in records]),
        }


class CifarTD1(Workload):
    """Full TD(1) training steps at the shipped CIFAR-10 shape, batch 8.

    The shipped batch of 32 does not fit: the tape keeps every sweep. theta
    is so small that no item stops early, so every step runs `sweeps`
    sweeps for every item; the checks confirm it. Kernels start at std
    0.01, not the shipped 1e-4: at 1e-4 the state change shrinks to exactly
    0.0 within six sweeps, so items would stop early whatever theta is.
    """

    name = "cifar-td1"
    sweeps = 6
    theta = 1e-300
    conv_std = 0.01

    def __init__(self, root, seed, batch=8, n_batches=8, arch=None):
        self.root = root
        self.seed = seed
        self.batch = batch
        self.n_batches = n_batches
        self.arch = arch

    def setup(self):
        from cban.data import Example, perlin_mask
        from cban.training import init_opt_state, init_weights

        cfg = _conv_config(self.root, "cifar10.json")
        self.arch = self.arch or cfg.arch
        self.channels = [spec.channels for spec in self.arch.layers]
        self.train_cfg = replace(cfg.train, max_iters=self.sweeps, theta=self.theta)
        c, h, w = self.arch.visible_shape
        rng = np.random.default_rng(self.seed)
        spec = cfg.mask
        images = inputs.colour_fields(rng, self.batch * self.n_batches, channels=c, size=h)
        examples = []
        for img in images:
            pixel = perlin_mask(h, w, spec.frequency, spec.obscured_fraction, rng)
            examples.append(Example(target=img, mask=np.broadcast_to(pixel, img.shape)))
        self.batches = [examples[k:k + self.batch]
                        for k in range(0, len(examples), self.batch)]
        self.weights = init_weights(self.arch, WEIGHT_SEED, conv_std=self.conv_std)
        self.opt = init_opt_state(self.train_cfg)

    def op(self, i):
        from cban.tensor import GradTape
        from cban.training import optimizer_step, td1_forward

        batch = self.batches[i % len(self.batches)]
        start = clock()
        with GradTape() as tape:
            loss, reports = td1_forward(batch, self.weights, self.arch, self.train_cfg)
        grads = tape.gradient(loss, self.weights.params())
        self.opt, self.weights = optimizer_step(self.opt, self.weights, grads)
        wall = clock() - start
        every_sweep = all(r.t_star == self.sweeps and not r.converged
                          and len(r.max_delta_trace) == self.sweeps for r in reports)
        finite = np.isfinite(loss.item()) and all(np.all(np.isfinite(g)) for g in grads)
        return {"wall": wall, "t_star": [r.t_star for r in reports],
                "ok": bool(every_sweep and finite)}

    def check(self, records):
        from cban.training import complete

        verdicts = [r["ok"] for r in records]
        batch = self.batches[0]
        outputs, _ = complete(batch, self.weights, self.arch, max_iters=2)
        verdicts.append(_visible_ok(outputs, batch))
        verdicts.append(td1_directional_derivative_ok(self.seed))
        return verdicts

    def metrics(self, records):
        return {
            "time_to_result_s": _median([r["wall"] for r in records]),
            "item_sweeps_per_s": _median([sum(r["t_star"]) / r["wall"] for r in records]),
            "mean_t_star": _median([float(np.mean(r["t_star"])) for r in records]),
        }


def td1_directional_derivative_ok(seed, eps=1e-6, rtol=1e-5):
    """Tape gradient of the TD(1) loss against a central difference.

    On a reduced pooled conv net (3x8x8 -> 4x8x8 -> 5x4x4), the tape's
    directional derivative <grad L, d> along a random direction d over all
    parameters must match (L(w + eps d) - L(w - eps d)) / (2 eps).
    """
    from cban.data import Example, perlin_mask
    from cban.dynamics import ArchSpec, conv_layer
    from cban.tensor import GradTape, Tensor
    from cban.training import TrainConfig, init_weights, td1_forward

    arch = ArchSpec(layers=(conv_layer(3, 8, 8, visible=True), conv_layer(4, 8, 8),
                            conv_layer(5, 4, 4, pool_before=True)),
                    kernel_sizes=(3, 3))
    cfg = TrainConfig(epochs=1, loss="se", optimizer="adam", theta=1e-300, max_iters=3)
    rng = np.random.default_rng(seed)
    examples = [Example(target=img, mask=np.broadcast_to(perlin_mask(8, 8, 3, 0.4, rng),
                                                         img.shape))
                for img in inputs.colour_fields(rng, 2, channels=3, size=8)]
    w = init_weights(arch, seed, conv_std=0.2)
    w = w.with_params([Tensor(p.data + rng.normal(scale=0.05, size=p.shape))
                       for p in w.params()])  # nonzero biases too
    with GradTape() as tape:
        loss, _ = td1_forward(examples, w, arch, cfg)
    grads = tape.gradient(loss, w.params())
    direction = [rng.normal(size=p.shape) for p in w.params()]
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))

    def loss_at(scale):
        moved = w.with_params([Tensor(p.data + scale * d)
                               for p, d in zip(w.params(), direction)])
        return td1_forward(examples, moved, arch, cfg)[0].item()

    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    return abs(numeric - analytic) <= rtol * max(1.0, abs(analytic))


WORKLOADS = {cls.name: cls for cls in (BarTrain, OmniglotComplete, CifarTD1)}
