"""Command-line entry points: train, complete, eval, check.

Exit codes: 0 on success, 1 when a check suite fails, settling does not
converge, or training or settling diverges to non-finite values, 2 on
usage, configuration, or i/o errors. `cban eval` settles its set in
batches of 32, so its memory does not grow with the set. All outputs stay
under the configured output directory. Set CBAN_NUM_THREADS before
launching to cap the linear-algebra thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "entry", "cmd_train", "cmd_complete", "cmd_eval", "cmd_check"]

# examples `cban eval` settles in one complete() call
_EVAL_BATCH = 32


def _fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _load_images(path):
    """(c, h, w) images from a folder of PGM/PPM files or an IDX image file."""
    from .data import load_idx, load_image_folder

    if Path(path).is_dir():
        return load_image_folder(path)
    return load_idx(path)[:, None]


def _library_dataset(arch, images, labels, mask):
    """The dataset that lays (c, h, w) images out on this visible layer.

    Labels select the supervised layout: the first channel's rows plus one
    label row, Perlin-masked unless a mask is given. Otherwise a mask is
    required, and a visible layer with twice the images' channels is the
    replicated layout: the masked image is clamped into the input copy and
    the clean image is the output copy's target. Images whose visible
    states do not fit the visible layer are refused.
    """
    from .data import (
        ImageFolderCompletion,
        LabelPlus,
        PerlinMask,
        ReplicatedCompletion,
        SupervisedDigits,
    )

    vis = arch.visible_shape
    image_shapes = {np.shape(img) for img in images}
    if labels is not None:
        mask = mask if mask is not None else LabelPlus(PerlinMask())
        dataset = SupervisedDigits(np.asarray(images)[:, 0], labels, mask)
        states = {(h + 1, w) for _, h, w in image_shapes}
    elif mask is None:
        raise ValueError("image completion needs a mask spec")
    elif len(vis) == 3 and vis[0] == 2 * images[0].shape[0]:
        dataset = ReplicatedCompletion(images, mask)
        states = {(2 * c, h, w) for c, h, w in image_shapes}
    else:
        dataset = ImageFolderCompletion(images, mask)
        states = image_shapes
    for shape in states:
        if int(np.prod(shape)) != int(np.prod(vis)):
            raise ValueError(
                f"the images give visible states of shape {shape}; "
                f"the network's visible layer has shape {vis}")
    return dataset


def _build_dataset(cfg):
    from .data import BarTask, load_idx

    if cfg.task == "bar":
        return BarTask()
    if cfg.task == "mnist-supervised":
        limit = int(cfg.data.get("limit", 0)) or None
        images = _load_images(cfg.data["images"])[:limit]
        labels = load_idx(cfg.data["labels"])[:limit]
    elif "folder" not in cfg.data:
        raise ValueError("completion task needs data.folder")
    else:
        images, labels = _load_images(cfg.data["folder"]), None
    return _library_dataset(cfg.arch, images, labels, cfg.mask)


def _bar_accuracy(w, arch, train_cfg, examples):
    """Completion accuracy of weights `w` on the held-out bar examples.

    `cmd_train` draws the held-out set once per run, as
    `bar_eval_set(np.random.default_rng(7777), 200)`, and every evaluation
    scores the current weights on those same examples.
    """
    from .metrics import completion_accuracy
    from .training import complete

    outputs, _ = complete(examples, w, arch, theta=train_cfg.theta,
                          max_iters=train_cfg.max_iters)
    targets = np.stack([e.target.reshape(-1) for e in examples])
    masks = np.stack([e.mask.reshape(-1) for e in examples])
    return {"accuracy": completion_accuracy(outputs, targets, masks)}


def _write_log_csv(path, log):
    """Write every row of `log` under the union of their keys; returns the
    header, in first-seen order."""
    keys = []
    for row in log:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=keys)
        writer.writeheader()
        writer.writerows(log)
    return keys


def _write_samples(outdir, w, arch, cfg, dataset):
    from .imageio import sample_grid, write_ppm
    from .training import complete

    rng = np.random.default_rng(cfg.seed + 1)
    examples = list(dataset.epoch_examples(rng))[:10]
    outputs, _ = complete(examples, w, arch, theta=cfg.train.theta,
                          max_iters=cfg.train.max_iters)
    targets = [e.target for e in examples]
    completions = [o.reshape(e.target.shape) for o, e in zip(outputs, examples)]
    masks = [e.mask for e in examples]
    write_ppm(outdir / "samples.ppm", sample_grid(targets, completions, masks))


def cmd_train(args):
    from .checkpoint import Checkpoint, save_checkpoint
    from .config import load_run_config
    from .data import bar_eval_set
    from .training import init_opt_state, train

    try:
        cfg = load_run_config(args.config)
        dataset = _build_dataset(cfg)
    except (OSError, ValueError, KeyError) as e:
        return _fail(str(e))
    arch = cfg.arch
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    log_path = outdir / "train_log.csv"
    log_rows, header = [], []
    every = args.eval_every
    held_out = None
    if cfg.task == "bar" and every:
        held_out = bar_eval_set(np.random.default_rng(7777), 200)

    def on_epoch(epoch, w, opt, rng, row):
        """Evaluate when due, log the epoch's row, then checkpoint.

        A bar run with --eval-every N adds the held-out `accuracy` to the
        rows of every N-th epoch and of the last. The row is appended to
        train_log.csv; the whole file is rewritten only when the row brings
        a column the header lacks (`accuracy` at the first evaluation).
        Either way the row is on disk before the epoch's checkpoint is
        saved, and the epoch ends with checkpoint saves.
        """
        nonlocal header
        if held_out is not None and (epoch % every == every - 1
                                     or epoch == cfg.train.epochs - 1):
            row.update(_bar_accuracy(w, arch, cfg.train, held_out))
        log_rows.append(row)
        if all(k in header for k in row):
            with open(log_path, "a", newline="") as f:
                csv.DictWriter(f, fieldnames=header).writerow(row)
        else:
            header = _write_log_csv(log_path, log_rows)
        ckpt = Checkpoint(arch=arch, weights=w, opt_state=opt, epoch=epoch,
                          rng_state=rng.bit_generator.state)
        save_checkpoint(outdir / "latest.ckpt", ckpt)
        if args.keep_every and (epoch + 1) % args.keep_every == 0:
            save_checkpoint(outdir / f"epoch_{epoch:05d}.ckpt", ckpt)

    try:
        # a diverging net overflows before a tensor refuses the result; the
        # error line below reports that, so numpy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            w, _ = train(dataset, arch, cfg.train, on_epoch=on_epoch)
    except ValueError as e:
        if "non-finite" not in str(e):
            raise
        return _fail(f"training diverged: {e}", code=1)
    if not log_rows:  # zero-epoch run still leaves a checkpoint behind
        ckpt = Checkpoint(arch=arch, weights=w, opt_state=init_opt_state(cfg.train),
                          epoch=-1, rng_state=None)
        save_checkpoint(outdir / "latest.ckpt", ckpt)
        _write_log_csv(log_path, [])
    try:
        _write_samples(outdir, w, arch, cfg, dataset)
    except ValueError as e:
        print(f"note: no sample grid written ({e})", file=sys.stderr)
    print(f"trained {cfg.train.epochs} epochs; outputs under {outdir}")
    return 0


def _load_evidence(args, arch):
    """Evidence (values, mask) on the visible layer, plus the shape to render.

    Outputs render in the shape the evidence came in; flat evidence takes
    the visible layer's shape.
    """
    from .data import channel_mask
    from .imageio import bytes_to_activations, read_image

    path = Path(args.input)
    if path.suffix == ".npz":
        with np.load(path) as z:
            values, mask = z["values"], z["mask"].astype(bool)
    else:
        img = bytes_to_activations(read_image(path))
        spec = _mask_from_args(args)
        if spec is None:
            raise ValueError("image input needs --mask to say what is observed")
        mask = channel_mask(spec, img, np.random.default_rng(args.seed))
        values = np.where(mask, img, 0.0)
    vis = arch.visible_shape
    if int(np.prod(values.shape)) != int(np.prod(vis)):
        raise ValueError(
            f"evidence has {values.size} units, the network's visible layer has "
            f"{int(np.prod(vis))}")
    shape = values.shape if values.ndim > 1 else vis
    return values.reshape(vis), mask.reshape(vis), shape


def _mask_from_args(args):
    """The --mask spec, or None without one."""
    from .data import BernoulliMask, PerlinMask, SquarePatches

    if args.mask == "perlin":
        return PerlinMask(args.mask_frequency, args.mask_fraction)
    if args.mask == "patches":
        return SquarePatches(args.patch_min, args.patch_max, args.mask_fraction)
    if args.mask == "bernoulli":
        return BernoulliMask(args.mask_fraction)
    return None


def _write_visible_image(path_base, x, shape):
    """A (3, h, w) shape renders in colour; other shapes render as a gray
    image with channels stacked vertically, and a flat vector as a square
    when its length is a perfect square, else as a 1 x n strip."""
    from .imageio import activations_to_bytes, write_pgm, write_ppm

    img = x.reshape(shape)
    if img.ndim == 1:
        side = int(round(np.sqrt(img.size)))
        img = img.reshape((side, side) if side * side == img.size else (1, img.size))
    if img.ndim == 3 and img.shape[0] == 3:
        write_ppm(f"{path_base}.ppm", activations_to_bytes(img))
    else:
        write_pgm(f"{path_base}.pgm", activations_to_bytes(img.reshape(-1, img.shape[-1])))


def _check_settle_options(args):
    """Refuse the --theta and --max-iters values settle() cannot take."""
    if args.theta <= 0 or args.max_iters < 1:
        raise ValueError("--theta must be positive and --max-iters at least 1")


def cmd_complete(args):
    from .checkpoint import CheckpointError, load_checkpoint
    from .dynamics import EvidenceConstraint, initial_state, settle
    from .training import unclamped_visible

    try:
        _check_settle_options(args)
        ckpt = load_checkpoint(args.ckpt)
        arch = ckpt.arch
        values, mask, shape = _load_evidence(args, arch)
        state = initial_state(arch, EvidenceConstraint(mask=mask, values=values))
    except (OSError, CheckpointError, ValueError, KeyError) as e:
        return _fail(str(e))
    try:
        # as in cmd_train: the error line reports the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            state, report = settle(state, ckpt.weights, arch,
                                   theta=args.theta, max_iters=args.max_iters)
            dream = unclamped_visible(state, ckpt.weights, arch)
    except ValueError as e:  # with valid arguments, only a non-finite state
        return _fail(f"settling diverged: {e}", code=1)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_visible_image(outdir / "completed", state.activations[0].data, shape)
    _write_visible_image(outdir / "dream", dream.data, shape)
    with open(outdir / "trace.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "energy", "max_delta"])
        for i, (e, d) in enumerate(zip(report.energy_trace,
                                       report.max_delta_trace), start=1):
            writer.writerow([i, e, d])
    status = "converged" if report.converged else "did not converge"
    print(f"settled in {report.t_star} iterations: {status}; outputs under {outdir}")
    return 0 if report.converged else 1


def cmd_eval(args):
    from .checkpoint import CheckpointError, load_checkpoint
    from .data import ReplicatedCompletion, SupervisedDigits, load_idx
    from .metrics import check_ssim_extent, label_accuracy, metric_report
    from .training import complete

    try:
        _check_settle_options(args)
        ckpt = load_checkpoint(args.ckpt)
        arch = ckpt.arch
        limit = args.limit or None
        images = _load_images(args.data)[:limit]
        labels = load_idx(args.labels)[:limit] if args.labels else None
        dataset = _library_dataset(arch, images, labels, _mask_from_args(args))
        examples = dataset.epoch_examples(np.random.default_rng(args.seed))
        if len(images):  # every scored image has the images' (h, w)
            check_ssim_extent(*images[0].shape[-2:])
    except (OSError, CheckpointError, ValueError, KeyError) as e:
        return _fail(str(e))
    outputs = []
    try:
        # as in cmd_train: the error line reports the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(examples), _EVAL_BATCH):
                batch, _ = complete(examples[start:start + _EVAL_BATCH], ckpt.weights,
                                    arch, theta=args.theta, max_iters=args.max_iters)
                outputs.extend(batch)
    except ValueError as e:  # with valid arguments, only a non-finite state
        return _fail(f"settling diverged: {e}", code=1)
    outputs = [o.reshape(e.target.shape) for o, e in zip(outputs, examples)]
    targets = [e.target for e in examples]
    extra = []
    if isinstance(dataset, SupervisedDigits):
        # image rows above the label row
        extra.append(["label_accuracy", label_accuracy([o[-1] for o in outputs], labels)])
        outputs, targets = [o[:-1] for o in outputs], [t[:-1] for t in targets]
    elif isinstance(dataset, ReplicatedCompletion):
        # the output copy, after the clamped input copy
        half = arch.visible_shape[0] // 2
        outputs, targets = [o[half:] for o in outputs], [t[half:] for t in targets]
    report = metric_report(outputs, targets)
    rows = [["psnr_mean", report.psnr.mean], ["psnr_stderr", report.psnr.stderr],
            ["ssim_mean", report.ssim.mean], ["ssim_stderr", report.ssim.stderr]] + extra
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "metrics.csv", "w", newline="") as f:
        csv.writer(f).writerows([["metric", "value"]] + rows)
    for name, value in rows:
        print(f"{name}: {value:.4f}")
    return 0


def cmd_check(args):
    from .checks import run_suite

    try:
        results = run_suite(args.suite, seed=args.seed)
    except ValueError as e:
        return _fail(str(e))
    ok = True
    for result in results:
        for line in result.lines():
            print(line)
        ok = ok and result.passed
    return 0 if ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cban",
        description="bipartite attractor networks: train, complete, eval, check")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train per a JSON run config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--eval-every", type=int, default=0)
    p_train.add_argument("--keep-every", type=int, default=0,
                         help="also keep a numbered checkpoint every N epochs")
    p_train.set_defaults(func=cmd_train)

    # what `complete` and `eval` share: the checkpoint, the mask, settling
    settling = argparse.ArgumentParser(add_help=False)
    settling.add_argument("--ckpt", required=True)
    settling.add_argument("--mask", choices=["perlin", "patches", "bernoulli"])
    settling.add_argument("--mask-frequency", type=int, default=7)
    settling.add_argument("--mask-fraction", type=float, default=1 / 3)
    settling.add_argument("--patch-min", type=int, default=3)
    settling.add_argument("--patch-max", type=int, default=6)
    settling.add_argument("--seed", type=int, default=0)
    settling.add_argument("--theta", type=float, default=0.01)
    settling.add_argument("--max-iters", type=int, default=100)

    p_complete = sub.add_parser("complete", parents=[settling],
                                help="settle evidence into a completion")
    p_complete.add_argument("--input", required=True,
                            help="PGM/PPM image or .npz with values+mask")
    p_complete.add_argument("--outdir", default="out/complete")
    p_complete.set_defaults(func=cmd_complete)

    p_eval = sub.add_parser("eval", parents=[settling],
                            help="reconstruction metrics on a dataset")
    p_eval.add_argument("--data", required=True, help="IDX file or image folder")
    p_eval.add_argument("--labels", help="IDX label file (supervised layout)")
    p_eval.add_argument("--outdir", default="out/eval")
    p_eval.add_argument("--limit", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run a randomized invariant suite")
    p_check.add_argument("--suite", required=True,
                         choices=["gradients", "energy", "convergence", "bound"])
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
