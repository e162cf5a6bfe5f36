"""Losses, contrastive states, unrolled TD(1) training, and optimizers.

Training runs the settling loop on a gradient tape and injects the loss
after every sweep up to the stability iteration, so the network learns both
to reach the target completion and to reach it quickly. The energy-based
losses compare the clamped state (visible units at their targets) with the
matched unclamped state (visible units at the values the current hidden
configuration would produce); squared error compares those unclamped values
with the targets directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import ConvKernel, GradTape, Tensor, clip, softplus, tensor_sum
from .dynamics import (
    EvidenceConstraint,
    SettleReport,
    Tanh,
    WeightBundle,
    _max_delta,
    activation,
    barrier,
    energy,
    initial_state,
    inverse_activation,
    layer_preactivation,
    settle,
    update_layer,
)

__all__ = [
    "LOSS_KINDS",
    "OPTIMIZERS",
    "TrainConfig",
    "ContrastivePair",
    "OptState",
    "unclamped_visible",
    "loss_se",
    "loss_delta_e",
    "loss_delta_e_plus",
    "td1_forward",
    "init_opt_state",
    "optimizer_step",
    "init_weights",
    "train",
    "complete",
]

LOSS_KINDS = ("se", "delta_e", "delta_e_plus")
OPTIMIZERS = ("sgd-l2", "sgd-linf", "adam")

# keeps the inverse activation finite when tanh saturates
_TANH_CLIP = 1.0 - 1e-6


@dataclass
class TrainConfig:
    """Everything one training run needs besides the data and architecture."""

    epochs: int
    loss: str = "delta_e_plus"
    optimizer: str = "sgd-l2"
    lr: float = 0.01
    lr_schedule: tuple = ()  # (epoch, multiplier) pairs, applied from that epoch on
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    theta: float = 0.01
    max_iters: int = 100
    batch_size: int = 20
    seed: int = 0
    temperature: float = 1.0
    evidence_mode: str = "clamp"
    conv_init_std: float = 0.01

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.temperature != 1.0:
            raise ValueError("only temperature 1 is supported")

    def lr_at(self, epoch):
        lr = self.lr
        for start, mult in sorted(self.lr_schedule):
            if epoch >= start:
                lr = self.lr * mult
        return lr


@dataclass
class ContrastivePair:
    """Matched clamped/unclamped visible states over a shared hidden config."""

    clamped_visible: Tensor
    unclamped_visible: Tensor
    hidden: tuple

    def __post_init__(self):
        if self.clamped_visible.shape != self.unclamped_visible.shape:
            raise ValueError("clamped and unclamped visible shapes differ")


def unclamped_visible(state, w, arch):
    """Visible values the current hidden configuration would produce.

    The visible preactivation is computed from the adjacent hidden layer
    (plus bias) and activated, with no evidence re-applied afterwards and
    no evidence bias mixed in.
    """
    pre = layer_preactivation(state, w, arch, 0, include_evidence_bias=False)
    return activation(arch.activation, pre)


def _per_item_sum(t, batched):
    if not batched:
        return tensor_sum(t)
    axes = tuple(range(1, t.ndim))
    return tensor_sum(t, axis=axes)


def _se_terms(v_tilde, y):
    d = v_tilde - y
    return d * d


def _delta_e_terms(v_tilde, y, kind):
    if isinstance(kind, Tanh):
        v_tilde = clip(v_tilde, -_TANH_CLIP, _TANH_CLIP)
    f_inv = inverse_activation(kind, v_tilde)
    return f_inv * (v_tilde - y) + barrier(kind, y) - barrier(kind, v_tilde)


def loss_se(v_tilde, y):
    """Summed squared error between unclamped visible values and targets."""
    v_tilde = v_tilde if isinstance(v_tilde, Tensor) else Tensor(v_tilde)
    y = y if isinstance(y, Tensor) else Tensor(y)
    if v_tilde.shape != y.shape:
        raise ValueError(f"shape mismatch: {v_tilde.shape} vs {y.shape}")
    return tensor_sum(_se_terms(v_tilde, y))


def loss_delta_e(pair, kind):
    """Energy gap between the clamped and unclamped states.

    Computed unit-locally as f_inv(v~) * (v~ - y) + barrier(y) - barrier(v~),
    which equals the full network energy difference because both states
    share the hidden configuration. Zero exactly when v~ == y.
    """
    return tensor_sum(_delta_e_terms(pair.unclamped_visible, pair.clamped_visible, kind))


def loss_delta_e_plus(pair, kind):
    """Softplus of the energy gap: a soft hinge that only wants the gap closed."""
    return softplus(loss_delta_e(pair, kind))


def _loss_per_item(loss_kind, act_kind, v_tilde, y, batched):
    if loss_kind == "se":
        return _per_item_sum(_se_terms(v_tilde, y), batched)
    gap = _per_item_sum(_delta_e_terms(v_tilde, y, act_kind), batched)
    if loss_kind == "delta_e":
        return gap
    return softplus(gap)


def _batch_evidence(examples, arch, mode):
    vis_shape = arch.visible_shape
    targets = np.stack([np.clip(e.target.reshape(vis_shape), -0.999, 0.999)
                        for e in examples])
    masks = np.stack([e.mask.reshape(vis_shape) for e in examples])
    values = np.where(masks, targets, 0.0)
    return targets, EvidenceConstraint(mask=masks, values=values, mode=mode)


def td1_forward(examples, w, arch, cfg):
    """Unrolled settling with the loss injected after every sweep.

    Runs the batch in lockstep on the caller's gradient tape. After each
    sweep's upward pass the hidden configuration defines the contrastive
    pair for that iteration; the per-item loss stops accumulating once that
    item's state change drops below theta. Items that never converge
    contribute losses for all max_iters sweeps and are flagged in their
    reports. Returns (mean over items of summed per-sweep losses, reports).
    """
    n = len(examples)
    if n == 0:
        raise ValueError("empty batch")
    targets, evidence = _batch_evidence(examples, arch, cfg.evidence_mode)
    y = Tensor(targets)
    state = initial_state(arch, evidence, batch=n)
    batched = True
    L = arch.n_layers

    total = None
    active = np.ones(n, dtype=bool)
    t_star = np.full(n, cfg.max_iters, dtype=int)
    converged = np.zeros(n, dtype=bool)
    delta_traces = []
    energy_traces = []
    for t in range(1, cfg.max_iters + 1):
        prev = state.activations
        for l in range(1, L):
            state = update_layer(state, w, arch, l)
        v_tilde = unclamped_visible(state, w, arch)
        loss_vec = _loss_per_item(cfg.loss, arch.activation, v_tilde, y, batched)
        contrib = tensor_sum(loss_vec * active.astype(float))
        total = contrib if total is None else total + contrib
        for l in range(L - 2, -1, -1):
            state = update_layer(state, w, arch, l)
        delta = _max_delta(prev, state.activations, batched)
        delta_traces.append(delta)
        energy_traces.append(energy(state, w, arch))
        newly = active & (delta < cfg.theta)
        t_star[newly] = t
        converged |= newly
        active &= ~newly
        if not active.any():
            break
    total = total * (1.0 / n)
    deltas = np.stack(delta_traces)  # (sweeps, items)
    energies = np.stack(energy_traces)
    reports = [
        SettleReport(
            t_star=int(t_star[i]),
            converged=bool(converged[i]),
            cycle_length=0,
            energy_trace=energies[:, i].copy(),
            max_delta_trace=deltas[:, i].copy(),
        )
        for i in range(n)
    ]
    return total, reports


@dataclass
class OptState:
    """Optimizer bookkeeping carried between steps."""

    kind: str
    lr: float
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_opt_state(cfg):
    return OptState(kind=cfg.optimizer, lr=cfg.lr, beta1=cfg.adam_beta1,
                    beta2=cfg.adam_beta2, eps=cfg.adam_eps)


def optimizer_step(opt, w, grads):
    """One parameter update; returns a fresh (OptState, WeightBundle).

    sgd-l2 / sgd-linf renormalize each parameter block's gradient to unit
    L2 / max norm before the step (blocks with zero gradient are stepped
    as-is); adam is the standard bias-corrected moment update. Only the
    tensors in w.params() move, so symmetric-mode reverse weights stay
    derived by construction.
    """
    params = w.params()
    if len(grads) != len(params):
        raise ValueError(f"got {len(grads)} gradients for {len(params)} blocks")
    new_params = []
    if opt.kind in ("sgd-l2", "sgd-linf"):
        for p, g in zip(params, grads):
            norm = np.linalg.norm(g) if opt.kind == "sgd-l2" else np.max(np.abs(g))
            if norm > 0:
                g = g / norm
            new_params.append(Tensor(p.data - opt.lr * g))
        return replace(opt, step=opt.step + 1), w.with_params(new_params)
    # adam
    if not opt.m:
        opt = replace(opt, m=[np.zeros_like(p.data) for p in params],
                      v=[np.zeros_like(p.data) for p in params])
    t = opt.step + 1
    new_m, new_v = [], []
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        m = opt.beta1 * m + (1 - opt.beta1) * g
        v = opt.beta2 * v + (1 - opt.beta2) * g * g
        m_hat = m / (1 - opt.beta1 ** t)
        v_hat = v / (1 - opt.beta2 ** t)
        new_params.append(Tensor(p.data - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)))
        new_m.append(m)
        new_v.append(v)
    return replace(opt, step=t, m=new_m, v=new_v), w.with_params(new_params)


def _fc_init_std(n_lo, n_hi):
    return 0.1 / np.sqrt(0.5 * n_lo + 0.5 * n_hi + 1.0)


def init_weights(arch, seed, conv_std=0.01):
    """Gaussian weights, zero biases, deterministic in the seed.

    Fully connected pairs use std 0.1 / sqrt(n_l/2 + n_{l+1}/2 + 1);
    convolution kernels use conv_std. Asymmetric mode draws independent
    reverse weights with the same recipe.
    """
    rng = np.random.default_rng(seed)
    forward, reverse = [], []
    for pair in range(arch.n_layers - 1):
        lo, hi = arch.layers[pair], arch.layers[pair + 1]
        if lo.kind == "fc":
            std = _fc_init_std(lo.units, hi.units)
            forward.append(Tensor(rng.normal(scale=std, size=(lo.units, hi.units))))
            if not arch.symmetric:
                reverse.append(Tensor(rng.normal(scale=std, size=(hi.units, lo.units))))
        else:
            k = arch.kernel_sizes[pair]
            forward.append(ConvKernel(
                Tensor(rng.normal(scale=conv_std, size=(hi.channels, lo.channels, k, k)))))
            if not arch.symmetric:
                reverse.append(ConvKernel(
                    Tensor(rng.normal(scale=conv_std, size=(lo.channels, hi.channels, k, k)))))
    biases = [Tensor(np.zeros(spec.units if spec.kind == "fc" else spec.channels))
              for spec in arch.layers]
    return WeightBundle(forward=forward, biases=biases,
                        reverse=reverse if not arch.symmetric else None)


def train(dataset, arch, cfg, evaluate=None, eval_every=0, on_epoch=None):
    """Mini-batch training over fresh-masked epochs.

    `dataset.epoch_examples(rng)` must yield the epoch's examples with
    masks regenerated per example. The log gets one row per epoch with the
    mean loss, mean stability iteration, and learning rate; `evaluate`, if
    given, is called every `eval_every` epochs (and on the last) with the
    current weights and its dict merged into the row. `on_epoch`, if given,
    runs after every epoch as on_epoch(epoch, weights, opt_state, rng, row)
    (checkpointing hook).
    """
    rng = np.random.default_rng(cfg.seed)
    w = init_weights(arch, seed=cfg.seed, conv_std=cfg.conv_init_std)
    opt = init_opt_state(cfg)
    log = []
    for epoch in range(cfg.epochs):
        examples = list(dataset.epoch_examples(rng))
        order = rng.permutation(len(examples))
        opt = replace(opt, lr=cfg.lr_at(epoch))
        losses, t_stars = [], []
        for start in range(0, len(examples), cfg.batch_size):
            batch = [examples[i] for i in order[start:start + cfg.batch_size]]
            with GradTape() as tape:
                loss, reports = td1_forward(batch, w, arch, cfg)
            grads = tape.gradient(loss, w.params())
            opt, w = optimizer_step(opt, w, grads)
            losses.append(loss.item())
            t_stars.extend(r.t_star for r in reports)
        row = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "mean_t_star": float(np.mean(t_stars)),
            "lr": opt.lr,
        }
        if evaluate is not None and eval_every and (
                epoch % eval_every == eval_every - 1 or epoch == cfg.epochs - 1):
            row.update(evaluate(w))
        log.append(row)
        if on_epoch is not None:
            on_epoch(epoch, w, opt, rng, row)
    return w, log


def complete(examples, w, arch, theta=0.01, max_iters=100, evidence_mode="clamp"):
    """Settle a batch of evidence states; returns (visible outputs, reports).

    Outputs keep clamped positions at their evidence values; unobserved
    positions carry the settled completion.
    """
    targets, evidence = _batch_evidence(examples, arch, evidence_mode)
    state = initial_state(arch, evidence, batch=len(examples))
    state, report = settle(state, w, arch, theta=theta, max_iters=max_iters,
                           record_energy=False)
    return state.activations[0].data.copy(), report
