"""Traced-run recorder: spans around cban's public functions, from outside.

`Recorder.install()` replaces every public function of the traced modules
with a timing wrapper in each cban namespace that holds a binding to it:
`from .tensor import conv2d_half` gives `cban.dynamics` its own binding,
and that is the one `_up_map` looks up, so that is the one that must be
wrapped. A few methods are patched on their classes. `uninstall()` puts
every original back. Spans are aggregated as they close (inclusive time,
self time, calls), so memory does not grow with the run.

A span's self time is its duration minus the durations of its direct
child spans. Calls are single-threaded and nested, so children never
overlap and their durations add up to the part of the parent they cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("cli", "checkpoint", "data", "training", "dynamics", "tensor")

# mask generators; the sum of their self times is data.mask.s
MASK_FUNCTIONS = ("data.generate_mask", "data.perlin_mask",
                  "data.square_patch_mask", "data.bernoulli_mask")


class Recorder:
    """Aggregated spans and counters for one traced run."""

    def __init__(self, channels=(), clock=time.perf_counter):
        self.clock = clock
        self.channels = tuple(channels)  # per layer, to name conv pairs
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # [name, start, child seconds]
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, label=None, observe=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args, kwargs) if label else name
            rec.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced modules' public functions everywhere they are bound."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        traced = {short: importlib.import_module(f"cban.{short}")
                  for short in TRACED_MODULES}
        namespaces = [sys.modules["cban"]] + [m for n, m in sorted(sys.modules.items())
                                              if n.startswith("cban.")]
        wrappers = {}
        for short, mod in traced.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrapper_for(f"{short}.{attr}", fn)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
        self._patch_methods()
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrapper_for(self, name, fn):
        label = observe = None
        if name == "tensor.conv2d_half":
            label = self._conv_label
        elif name == "dynamics.update_layer":
            label = _update_layer_label
        elif name == "training.td1_forward":
            observe = self._observe_td1
        elif name == "training.complete":
            observe = self._observe_complete
        elif name == "data.gen_bar_evidence":
            observe = lambda a, k, out: self.counts.update(["data.examples"])
        elif name == "training.train":
            return self._train_wrapper(fn)
        return self._wrap(fn, name, label, observe)

    def _train_wrapper(self, fn):
        # the CLI's per-epoch hook is a closure; time it where train() gets it
        inner = self._wrap(fn, "training.train")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = kwargs.get("on_epoch")
            if hook is not None:
                kwargs["on_epoch"] = functools.partial(self.span, "cli.on_epoch", hook)
            return inner(*args, **kwargs)

        return wrapper

    def _patch_methods(self):
        from cban import data, tensor

        self._patch(tensor.GradTape, "gradient", self._wrap(
            tensor.GradTape.gradient, "tensor.GradTape.gradient"))
        for cls in (data.BarTask, data.ImageFolderCompletion,
                    data.ReplicatedCompletion, data.SupervisedDigits):
            self._patch(cls, "epoch_examples", self._wrap(
                cls.epoch_examples, "data.epoch_examples"))
        init = tensor.Tensor.__init__
        counts = self.counts

        def counting_init(obj, data):
            counts["tensor.tensors_created"] += 1
            init(obj, data)

        self._patch(tensor.Tensor, "__init__", counting_init)

    # -- labels and observers ------------------------------------------------

    def _conv_label(self, args, kwargs):
        x, k = args[0], args[1]
        shape = x.shape
        c_in, c_out = shape[-3], k.out_channels
        name = "tensor.conv2d_half"
        for p in range(len(self.channels) - 1):
            lo, hi = self.channels[p], self.channels[p + 1]
            if lo == hi:
                continue  # direction is ambiguous
            if (c_in, c_out) == (lo, hi):
                name = f"tensor.conv.p{p}.up"
            elif (c_in, c_out) == (hi, lo):
                name = f"tensor.conv.p{p}.down"
        n = shape[0] if len(shape) == 4 else 1
        kh, kw = k.shape[2], k.shape[3]
        self.counts[name + ".flop"] += 2 * n * c_out * c_in * kh * kw * shape[-2] * shape[-1]
        return name

    def _observe_td1(self, args, kwargs, out):
        _, reports = out
        t_star = sum(r.t_star for r in reports)
        lockstep = len(reports[0].max_delta_trace) * len(reports)
        self.counts["training.td1_item_t_star"] += t_star
        self.counts["training.td1_lockstep_item_sweeps"] += lockstep
        self._observe_settled(len(reports), t_star,
                              sum(not r.converged for r in reports), lockstep)

    def _observe_complete(self, args, kwargs, out):
        _, report = out
        n = len(args[0])
        self._observe_settled(n, n * report.t_star, 0 if report.converged else n,
                              n * len(report.max_delta_trace))

    def _observe_settled(self, items, t_star_sum, unconverged, item_sweeps):
        self.counts["dynamics.items"] += items
        self.counts["dynamics.item_t_star"] += t_star_sum
        self.counts["dynamics.items_at_max_iters"] += unconverged
        self.counts["dynamics.item_sweeps"] += item_sweeps

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self):
        """The per-layer metrics, by name, as plain floats."""
        tot, own, calls, c = self.total_s, self.self_s, self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "cli.on_epoch.s": tot["cli.on_epoch"],
            "checkpoint.save_checkpoint.s": tot["checkpoint.save_checkpoint"],
            "checkpoint.save_checkpoint.calls": calls["checkpoint.save_checkpoint"],
            "data.epoch_examples.s": tot["data.epoch_examples"],
            "data.bar_consistency_count.calls_per_example": ratio(
                calls["data.bar_consistency_count"], c["data.examples"]),
            "data.mask.s": sum(own[n] for n in MASK_FUNCTIONS),
            "training.td1_forward.s": own["training.td1_forward"],
            "training.optimizer_step.s": tot["training.optimizer_step"],
            "training.complete.s": tot["training.complete"],
            "training.init_weights.s": tot["training.init_weights"],
            "training.lockstep_useful_ratio": ratio(
                c["training.td1_item_t_star"], c["training.td1_lockstep_item_sweeps"]),
            "tensor.GradTape.gradient.s": tot["tensor.GradTape.gradient"],
            "tensor.tensors_created_per_item_sweep": ratio(
                c["tensor.tensors_created"], c["dynamics.item_sweeps"]),
            "tensor.matmul.s": tot["tensor.matmul"],
        }
        for p in range(3):
            for d in ("up", "down"):
                name = f"tensor.conv.p{p}.{d}"
                m[f"{name}.s"] = tot[name]
                m[f"{name}.gflop_per_s"] = ratio(c[name + ".flop"] / 1e9, tot[name])
        m["tensor.avg_pool2.s"] = tot["tensor.avg_pool2"]
        m["tensor.nn_upsample2.s"] = tot["tensor.nn_upsample2"]
        for l in range(4):
            m[f"dynamics.update_layer.l{l}.s"] = tot[f"dynamics.update_layer.l{l}"]
        m["dynamics.activation.s"] = tot["dynamics.activation"]
        m["dynamics.energy.s"] = tot["dynamics.energy"]
        m["dynamics.energy.calls"] = calls["dynamics.energy"]
        m["dynamics.settle.s"] = own["dynamics.settle"]
        m["dynamics.detect_cycle.calls"] = calls["dynamics.detect_cycle"]
        m["dynamics.detect_cycle.s"] = tot["dynamics.detect_cycle"]
        m["dynamics.t_star_mean"] = ratio(c["dynamics.item_t_star"], c["dynamics.items"])
        m["dynamics.max_iters_share"] = ratio(c["dynamics.items_at_max_iters"],
                                              c["dynamics.items"])
        return {k: float(v) for k, v in m.items()}


def _update_layer_label(args, kwargs):
    l = kwargs["l"] if "l" in kwargs else args[3]
    return f"dynamics.update_layer.l{l}"
