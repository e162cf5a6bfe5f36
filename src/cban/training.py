"""Losses, unrolled TD(1) training, and optimizers.

Training runs the settling loop on a gradient tape and injects the loss
after every sweep up to the stability iteration, so the network learns both
to reach the target completion and to reach it quickly. One function,
`loss_per_item`, computes all three losses. The energy-based ones (ΔE, ΔE+)
compare the clamped state (visible units at their targets) with the matched
unclamped state (visible units at the values the current hidden
configuration would produce); squared error compares those unclamped values
with the targets directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .tensor import GradTape, Tensor, clip, softplus, tensor_sum
from .dynamics import (
    EvidenceConstraint,
    NetState,
    SettleReport,
    Tanh,
    WeightBundle,
    _max_delta,
    activation,
    barrier,
    block_shapes,
    initial_state,
    inverse_activation,
    layer_preactivation,
    settle,
    sweep_order,
    update_layer,
)

__all__ = [
    "LOSS_KINDS",
    "OPTIMIZERS",
    "TrainConfig",
    "OptState",
    "unclamped_visible",
    "loss_per_item",
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

# adam's moment decay rates and denominator guard
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Everything one training run needs besides the data and architecture."""

    epochs: int
    loss: str = "delta_e_plus"
    optimizer: str = "sgd-l2"
    lr: float = 0.01
    lr_schedule: tuple = ()  # (epoch, multiplier) pairs, applied from that epoch on
    theta: float = 0.01
    max_iters: int = 100
    batch_size: int = 20
    seed: int = 0
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

    def lr_at(self, epoch):
        lr = self.lr
        for start, mult in sorted(self.lr_schedule):
            if epoch >= start:
                lr = self.lr * mult
        return lr


def unclamped_visible(state, w, arch):
    """Visible values the current hidden configuration would produce.

    The visible preactivation is computed on the state's activations with
    its evidence dropped, from the adjacent hidden layer plus bias, and
    activated: no evidence is re-applied and no evidence bias mixed in.
    """
    pre = layer_preactivation(NetState(state.activations), w, arch, 0)
    return activation(arch.activation, pre)


def loss_per_item(loss_kind, act_kind, v_tilde, y):
    """One loss per item between unclamped visible values v~ and targets y.

    Both are batched (n, ...) states. "se" sums the squared error.
    "delta_e" is the energy gap between the clamped state (visible units at
    y) and the unclamped one (at v~), computed unit-locally as
    f_inv(v~) * (v~ - y) + barrier(y) - barrier(v~). Under clamping this
    equals the full network energy difference, because both states share
    the hidden configuration; under external-bias evidence it is the gap of
    the evidence-free energy, since v~ (unclamped_visible) leaves the
    evidence bias out. It is zero exactly when v~ == y. "delta_e_plus" is
    the softplus of that gap: a soft hinge that only wants the gap closed.
    """
    if v_tilde.shape != y.shape:
        raise ValueError(f"shape mismatch: {v_tilde.shape} vs {y.shape}")
    if loss_kind == "se":
        d = v_tilde - y
        terms = d * d
    else:
        if isinstance(act_kind, Tanh):
            v_tilde = clip(v_tilde, -_TANH_CLIP, _TANH_CLIP)
        f_inv = inverse_activation(act_kind, v_tilde)
        terms = f_inv * (v_tilde - y) + barrier(act_kind, y) - barrier(act_kind, v_tilde)
    per_item = tensor_sum(terms, axis=tuple(range(1, terms.ndim)))
    return softplus(per_item) if loss_kind == "delta_e_plus" else per_item


def _batch_evidence(examples, arch):
    vis_shape = arch.visible_shape
    targets = np.stack([np.clip(e.target.reshape(vis_shape), -0.999, 0.999)
                        for e in examples])
    masks = np.stack([e.mask.reshape(vis_shape) for e in examples])
    values = np.where(masks, targets, 0.0)
    return targets, EvidenceConstraint(mask=masks, values=values)


def td1_forward(examples, w, arch, cfg):
    """Unrolled settling with the loss injected after every sweep.

    Runs the batch in lockstep on the caller's gradient tape. After each
    sweep's upward pass the hidden configuration defines the contrastive
    pair for that iteration; the per-item loss stops accumulating once that
    item's state change drops below theta. Items that never converge
    contribute losses for all max_iters sweeps and are flagged in their
    reports, whose energy_trace is empty: no energy is evaluated. Returns
    (mean over items of summed per-sweep losses, reports).
    """
    n = len(examples)
    if n == 0:
        raise ValueError("empty batch")
    targets, evidence = _batch_evidence(examples, arch)
    y = Tensor(targets)
    state = initial_state(arch, evidence, batch=n)
    # the sweep's upward half ends on the top layer, where the pair is read
    order = sweep_order(arch.n_layers)
    up, down = order[:arch.n_layers - 1], order[arch.n_layers - 1:]

    total = None
    active = np.ones(n, dtype=bool)
    t_star = np.full(n, cfg.max_iters, dtype=int)
    converged = np.zeros(n, dtype=bool)
    delta_traces = []
    for t in range(1, cfg.max_iters + 1):
        prev = state.activations
        for l in up:
            state = update_layer(state, w, arch, l)
        v_tilde = unclamped_visible(state, w, arch)
        loss_vec = loss_per_item(cfg.loss, arch.activation, v_tilde, y)
        contrib = tensor_sum(loss_vec * active.astype(float))
        total = contrib if total is None else total + contrib
        for l in down:
            state = update_layer(state, w, arch, l)
        delta = _max_delta(prev, state.activations, batched=True)
        delta_traces.append(delta)
        newly = active & (delta < cfg.theta)
        t_star[newly] = t
        converged |= newly
        active &= ~newly
        if not active.any():
            break
    total = total * (1.0 / n)
    deltas = np.stack(delta_traces)  # (sweeps, items)
    reports = [
        SettleReport(
            t_star=int(t_star[i]),
            converged=bool(converged[i]),
            energy_trace=np.empty(0),
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
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_opt_state(cfg):
    return OptState(kind=cfg.optimizer, lr=cfg.lr)


def optimizer_step(opt, w, grads):
    """One parameter update; returns a fresh (OptState, WeightBundle).

    sgd-l2 / sgd-linf renormalize each parameter block's gradient to unit
    L2 / max norm before the step (blocks with zero gradient are stepped
    as-is); adam is the standard bias-corrected moment update, with
    beta1 0.9, beta2 0.999 and eps 1e-8. Only the tensors in w.params()
    move, and the downward weights are derived from them, so every step
    keeps the net symmetric.
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
        m = _ADAM_BETA1 * m + (1 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * v + (1 - _ADAM_BETA2) * g * g
        m_hat = m / (1 - _ADAM_BETA1 ** t)
        v_hat = v / (1 - _ADAM_BETA2 ** t)
        new_params.append(Tensor(p.data - opt.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)))
        new_m.append(m)
        new_v.append(v)
    return replace(opt, step=t, m=new_m, v=new_v), w.with_params(new_params)


def _fc_init_std(n_lo, n_hi):
    return 0.1 / np.sqrt(0.5 * n_lo + 0.5 * n_hi + 1.0)


def init_weights(arch, seed, conv_std=0.01):
    """Gaussian weights, zero biases, deterministic in the seed.

    One block is drawn per block_shapes(arch) entry, in params() order.
    Matrices (n_a, n_b) use std 0.1 / sqrt(n_a/2 + n_b/2 + 1); convolution
    kernels use conv_std; biases are zero.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        std = conv_std if len(shape) == 4 else _fc_init_std(*shape)
        return rng.normal(scale=std, size=shape)

    return WeightBundle.from_params([Tensor(draw(s)) for s in block_shapes(arch)],
                                    arch.n_layers)


def _train_step(batch, w, opt, arch, cfg):
    """One TD(1) step; returns (opt, weights, loss value, t* per item).

    The step's tape and graph go out of scope on return, so they are freed
    before the next step's forward.
    """
    with GradTape() as tape:
        loss, reports = td1_forward(batch, w, arch, cfg)
    grads = tape.gradient(loss, w.params())
    opt, w = optimizer_step(opt, w, grads)
    return opt, w, loss.item(), [r.t_star for r in reports]


def train(dataset, arch, cfg, on_epoch=None):
    """Mini-batch training over fresh-masked epochs; returns (weights, log).

    `dataset.epoch_examples(rng)` must yield the epoch's examples with
    masks regenerated per example. The log gets one row per epoch with the
    mean loss, mean stability iteration, and learning rate. `on_epoch`, if
    given, is the one per-epoch hook: it runs after every epoch as
    on_epoch(epoch, weights, opt_state, rng, row), with the row already in
    the log, so entries it adds to the row (such as a held-out evaluation)
    are logged too.
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
            opt, w, loss, batch_t_stars = _train_step(batch, w, opt, arch, cfg)
            losses.append(loss)
            t_stars.extend(batch_t_stars)
        row = {
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "mean_t_star": float(np.mean(t_stars)),
            "lr": opt.lr,
        }
        log.append(row)
        if on_epoch is not None:
            on_epoch(epoch, w, opt, rng, row)
    return w, log


def complete(examples, w, arch, theta=0.01, max_iters=100):
    """Settle a batch of evidence states; returns (visible outputs, reports).

    Under clamping, outputs keep observed positions at their evidence
    values and unobserved positions carry the settled completion; under
    external-bias evidence every position carries the settled value.
    """
    targets, evidence = _batch_evidence(examples, arch)
    state = initial_state(arch, evidence, batch=len(examples))
    state, report = settle(state, w, arch, theta=theta, max_iters=max_iters,
                           record_energy=False)
    return state.activations[0].data.copy(), report
