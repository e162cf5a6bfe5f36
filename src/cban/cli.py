"""Command-line entry points: train, complete, eval, check.

Exit codes: 0 on success, 1 when a check suite fails or settling does not
converge, 2 on usage, configuration, or i/o errors. All outputs stay under
the configured output directory. Set CBAN_NUM_THREADS before launching to
cap the linear-algebra thread count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "entry", "cmd_train", "cmd_complete", "cmd_eval", "cmd_check"]


def _fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _reshape_visible(flat, arch):
    """Visible vector back to its natural image shape for display/metrics."""
    shape = arch.visible_shape
    if len(shape) == 1:
        n = shape[0]
        if n == 812:
            return flat.reshape(29, 28)
        side = int(round(np.sqrt(n)))
        if side * side == n:
            return flat.reshape(side, side)
        return flat.reshape(1, n)
    return flat.reshape(shape)


def _build_dataset(cfg):
    from .data import (
        ImageFolderCompletion,
        LabelPlus,
        LabelOnly,
        PerlinMask,
        ReplicatedCompletion,
        SupervisedDigits,
        load_idx,
        load_image_folder,
    )

    if cfg.task == "bar":
        from .data import BarTask

        return BarTask()
    if cfg.task == "mnist-supervised":
        images = load_idx(cfg.data["images"])
        labels = load_idx(cfg.data["labels"])
        mask = cfg.mask if cfg.mask is not None else LabelPlus(PerlinMask(7, 1 / 3))
        if not isinstance(mask, (LabelPlus, LabelOnly)):
            mask = LabelPlus(mask)
        limit = cfg.data.get("limit")
        if limit:
            images, labels = images[: int(limit)], labels[: int(limit)]
        return SupervisedDigits(images, labels, mask)
    # generic completion over an image folder
    if "folder" not in cfg.data:
        raise ValueError("completion task needs data.folder")
    if cfg.mask is None:
        raise ValueError("completion task needs a mask spec")
    images = load_image_folder(cfg.data["folder"])
    vis = cfg.arch.visible_shape
    if len(vis) == 3 and images and vis[0] == 2 * images[0].shape[0]:
        # replicated visible state: observation clamped in, completion read out
        return ReplicatedCompletion(images, cfg.mask)
    return ImageFolderCompletion(images, cfg.mask)


def _bar_accuracy(w, arch, theta, max_iters, n=200, seed=7777):
    from .data import bar_eval_set
    from .metrics import completion_accuracy
    from .training import complete

    examples = bar_eval_set(np.random.default_rng(seed), n)
    outputs, _ = complete(examples, w, arch, theta=theta, max_iters=max_iters)
    targets = np.stack([e.target.reshape(25) for e in examples])
    masks = np.stack([e.mask.reshape(25) for e in examples])
    return {"accuracy": completion_accuracy(outputs, targets, masks)}


def _write_log_csv(path, log):
    keys = []
    for row in log:
        for k in row:
            if k not in keys:
                keys.append(k)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=keys)
        writer.writeheader()
        writer.writerows(log)


def _write_samples(outdir, w, arch, cfg):
    from .imageio import sample_grid, write_ppm
    from .training import complete

    rng = np.random.default_rng(cfg.seed + 1)
    dataset = _build_dataset(cfg)
    examples = list(dataset.epoch_examples(rng))[:10]
    outputs, _ = complete(examples, w, arch, theta=cfg.train.theta,
                          max_iters=cfg.train.max_iters)
    targets = [_reshape_visible(e.target.reshape(-1), arch) for e in examples]
    completions = [_reshape_visible(o.reshape(-1), arch) for o in outputs]
    masks = [_reshape_visible(e.mask.reshape(-1).astype(float), arch) > 0.5
             for e in examples]
    write_ppm(outdir / "samples.ppm", sample_grid(targets, completions, masks))


def cmd_train(args):
    from .checkpoint import Checkpoint, save_checkpoint, VERSION
    from .config import load_run_config
    from .training import train

    try:
        cfg = load_run_config(args.config)
        dataset = _build_dataset(cfg)
    except (OSError, ValueError, KeyError) as e:
        return _fail(str(e))
    arch = cfg.arch
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    log_path = outdir / "train_log.csv"
    log_rows = []

    def on_epoch(epoch, w, opt, rng, row):
        log_rows.append(row)
        _write_log_csv(log_path, log_rows)
        ckpt = Checkpoint(version=VERSION, arch=arch, weights=w, opt_state=opt,
                          epoch=epoch, rng_state=rng.bit_generator.state)
        save_checkpoint(outdir / "latest.ckpt", ckpt)
        if args.keep_every and (epoch + 1) % args.keep_every == 0:
            save_checkpoint(outdir / f"epoch_{epoch:05d}.ckpt", ckpt)

    evaluate = None
    if cfg.task == "bar":
        evaluate = lambda w: _bar_accuracy(w, arch, cfg.train.theta,
                                           cfg.train.max_iters)
    w, log = train(dataset, arch, cfg.train, evaluate=evaluate,
                   eval_every=args.eval_every, on_epoch=on_epoch)
    if not log_rows:  # zero-epoch run still leaves a checkpoint behind
        from .training import init_opt_state

        ckpt = Checkpoint(version=VERSION, arch=arch, weights=w,
                          opt_state=init_opt_state(cfg.train), epoch=-1,
                          rng_state=None)
        save_checkpoint(outdir / "latest.ckpt", ckpt)
        _write_log_csv(log_path, [])
    try:
        _write_samples(outdir, w, arch, cfg)
    except ValueError as e:
        print(f"note: no sample grid written ({e})", file=sys.stderr)
    print(f"trained {cfg.train.epochs} epochs; outputs under {outdir}")
    return 0


def _load_evidence(args, arch):
    from .data import generate_mask
    from .imageio import bytes_to_activations, read_image

    path = Path(args.input)
    if path.suffix == ".npz":
        with np.load(path) as z:
            values, mask = z["values"], z["mask"].astype(bool)
    else:
        img = bytes_to_activations(read_image(path))
        if args.mask is None:
            raise ValueError("image input needs --mask to say what is observed")
        from .config import mask_from_dict

        spec = mask_from_dict(_mask_dict_from_args(args))
        rng = np.random.default_rng(args.seed)
        pixel = generate_mask(spec, img.mean(axis=0), rng)
        mask = np.broadcast_to(pixel, img.shape).copy()
        values = np.where(mask, img, 0.0)
    vis = arch.visible_shape
    if int(np.prod(values.shape)) != int(np.prod(vis)):
        raise ValueError(
            f"evidence has {values.size} units, the network's visible layer has "
            f"{int(np.prod(vis))}")
    return values.reshape(vis), mask.reshape(vis)


def _mask_dict_from_args(args):
    if args.mask == "perlin":
        return {"kind": "perlin", "frequency": args.mask_frequency,
                "obscured_fraction": args.mask_fraction}
    if args.mask == "patches":
        return {"kind": "patches", "diameter_min": args.patch_min,
                "diameter_max": args.patch_max,
                "white_fraction": args.mask_fraction}
    if args.mask == "bernoulli":
        return {"kind": "bernoulli", "p": args.mask_fraction}
    raise ValueError(f"unknown mask kind {args.mask!r}")


def _write_visible_image(path_base, flat, arch):
    from .imageio import activations_to_bytes, write_pgm, write_ppm

    img = _reshape_visible(flat, arch)
    if img.ndim == 3 and img.shape[0] == 3:
        write_ppm(f"{path_base}.ppm", activations_to_bytes(img))
        return f"{path_base}.ppm"
    if img.ndim == 3:
        img = img.reshape(-1, img.shape[-1])
    write_pgm(f"{path_base}.pgm", activations_to_bytes(img))
    return f"{path_base}.pgm"


def cmd_complete(args):
    from .checkpoint import CheckpointError, load_checkpoint
    from .dynamics import EvidenceConstraint, initial_state, settle
    from .training import unclamped_visible

    try:
        ckpt = load_checkpoint(args.ckpt)
        arch = ckpt.arch
        values, mask = _load_evidence(args, arch)
    except (OSError, CheckpointError, ValueError, KeyError) as e:
        return _fail(str(e))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ev = EvidenceConstraint(mask=mask, values=values)
    state, report = settle(initial_state(arch, ev), ckpt.weights, arch,
                           theta=args.theta, max_iters=args.max_iters)
    completed = state.activations[0].data.reshape(-1)
    dream = unclamped_visible(state, ckpt.weights, arch).data.reshape(-1)
    _write_visible_image(outdir / "completed", completed, arch)
    _write_visible_image(outdir / "dream", dream, arch)
    with open(outdir / "trace.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "energy", "max_delta"])
        for i, (e, d) in enumerate(zip(report.energy_trace,
                                       report.max_delta_trace), start=1):
            writer.writerow([i, e, d])
    status = "converged" if report.converged else (
        f"did not converge (cycle length {report.cycle_length})")
    print(f"settled in {report.t_star} iterations: {status}; outputs under {outdir}")
    return 0 if report.converged else 1


def cmd_eval(args):
    from .checkpoint import CheckpointError, load_checkpoint
    from .config import mask_from_dict
    from .data import (
        LabelPlus,
        generate_mask,
        load_idx,
        load_image_folder,
        make_supervised_example,
        Example,
    )
    from .metrics import label_accuracy, metric_report
    from .training import complete

    try:
        ckpt = load_checkpoint(args.ckpt)
        arch = ckpt.arch
        data_path = Path(args.data)
        labels = load_idx(args.labels) if args.labels else None
        if data_path.is_dir():
            images = load_image_folder(data_path)
        else:
            images = list(load_idx(data_path))
        if args.limit:
            images = images[: args.limit]
            labels = labels[: args.limit] if labels is not None else None
        spec = mask_from_dict(_mask_dict_from_args(args)) if args.mask else None
    except (OSError, CheckpointError, ValueError, KeyError) as e:
        return _fail(str(e))
    rng = np.random.default_rng(args.seed)
    supervised = labels is not None and int(np.prod(arch.visible_shape)) == 812
    examples = []
    for i, img in enumerate(images):
        img = np.asarray(img, dtype=np.float64)
        if supervised:
            inner = spec if spec is not None else LabelPlus(
                mask_from_dict({"kind": "perlin"}))
            examples.append(make_supervised_example(
                img if img.ndim == 2 else img[0], int(labels[i]), inner, rng))
        else:
            if spec is None:
                return _fail("eval over plain images needs --mask")
            flat_img = img if img.ndim == 3 else img[None]
            pixel = generate_mask(spec, flat_img.mean(axis=0), rng)
            examples.append(Example(target=flat_img,
                                    mask=np.broadcast_to(pixel, flat_img.shape).copy()))
    outputs, _ = complete(examples, ckpt.weights, arch, theta=args.theta,
                          max_iters=args.max_iters)
    out_imgs, tgt_imgs = [], []
    for out, ex in zip(outputs, examples):
        oi = _reshape_visible(out.reshape(-1), arch)
        ti = _reshape_visible(ex.target.reshape(-1), arch)
        if supervised:
            oi, ti = oi[:28], ti[:28]  # metrics on the image part
        out_imgs.append(oi)
        tgt_imgs.append(ti)
    report = metric_report(out_imgs, tgt_imgs)
    rows = [["psnr_mean", report.psnr.mean], ["psnr_stderr", report.psnr.stderr],
            ["ssim_mean", report.ssim.mean], ["ssim_stderr", report.ssim.stderr]]
    if supervised:
        acc = label_accuracy([_reshape_visible(o.reshape(-1), arch)[28]
                              for o in outputs], labels[: len(outputs)])
        rows.append(["label_accuracy", acc])
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

    p_complete = sub.add_parser("complete", help="settle evidence into a completion")
    p_complete.add_argument("--ckpt", required=True)
    p_complete.add_argument("--input", required=True,
                            help="PGM/PPM image or .npz with values+mask")
    p_complete.add_argument("--outdir", default="out/complete")
    p_complete.add_argument("--mask", choices=["perlin", "patches", "bernoulli"])
    p_complete.add_argument("--mask-frequency", type=int, default=7)
    p_complete.add_argument("--mask-fraction", type=float, default=1 / 3)
    p_complete.add_argument("--patch-min", type=int, default=3)
    p_complete.add_argument("--patch-max", type=int, default=6)
    p_complete.add_argument("--seed", type=int, default=0)
    p_complete.add_argument("--theta", type=float, default=0.01)
    p_complete.add_argument("--max-iters", type=int, default=100)
    p_complete.set_defaults(func=cmd_complete)

    p_eval = sub.add_parser("eval", help="reconstruction metrics on a dataset")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True, help="IDX file or image folder")
    p_eval.add_argument("--labels", help="IDX label file (supervised layout)")
    p_eval.add_argument("--outdir", default="out/eval")
    p_eval.add_argument("--mask", choices=["perlin", "patches", "bernoulli"])
    p_eval.add_argument("--mask-frequency", type=int, default=7)
    p_eval.add_argument("--mask-fraction", type=float, default=1 / 3)
    p_eval.add_argument("--patch-min", type=int, default=3)
    p_eval.add_argument("--patch-max", type=int, default=6)
    p_eval.add_argument("--limit", type=int, default=0)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--theta", type=float, default=0.01)
    p_eval.add_argument("--max-iters", type=int, default=100)
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
