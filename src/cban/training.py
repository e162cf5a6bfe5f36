"""Losses, unrolled TD(1) training, and optimizers.

Training unrolls the settling loop and injects the loss after every sweep
up to the stability iteration, so the network learns both to reach the
target completion and to reach it quickly. One function, `_loss`,
computes all three losses and their closed-form gradients on ndarrays.
The energy-based ones (ΔE, ΔE+) compare the clamped state (visible units
at their targets) with the matched unclamped state (visible units at the
values the current hidden configuration would produce); squared error
compares those unclamped values with the targets directly. ΔE+ applies
the softplus to each item's ΔE, the sum over all its visible units, not
to each unit's term. Each unit's ΔE term, f_inv(v~)(v~ - y) + B(y) -
B(v~), is a Bregman divergence of the barrier B, and B' = f_inv, so its
gradient in v~ is f_inv'(v~)(v~ - y).

Under a bounded kind (tanh), f_inv and B need their input strictly inside
(-1, 1). The targets are clipped to +/-TARGET_BOUND (_batch_evidence),
and their barrier is evaluated once per step by dynamics.barrier, which
checks the domain. _loss clips v~ to +/-_TANH_CLIP, which guarantees it,
and calls the kind's own inverse and barrier, which check nothing. Under
the leaky sigmoid nothing is clipped, and its barrier checks its result
for overflow.

The TD(1) gradient is back-propagation through time written out for a
symmetric bipartite stack (Werbos 1990); it is the only gradient the
package takes. td1_forward sweeps through settle's runners
(dynamics._Lockstep, dynamics._ShardRun) with a hook after the upward
half that computes v~ by unclamped_visible and the loss. It keeps per
activation op its output and the records of the neighbor values it read,
but no term arrays, and which terms the runner reused shows nowhere in
them. The loss is the one op it records on the active GradTape, with the
weights' vector (dynamics.WeightBundle.flat) as its one parent; its
backward, _td1_backward, walks the records back. A symmetric pair's down
map is the adjoint of its up map, so an up term's cotangent goes through
the pair's dynamics._down_map and a down term's through its
dynamics._up_map, and both terms' weight gradients are
dynamics._up_weight_grad, with the two sides swapped for a down term. How
a pair maps (matrix transpose, kernel reversal, pooling and its
transpose) is stated in dynamics alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor import GradTape, Tensor, _check_finite, _record
from .dynamics import (
    EvidenceConstraint,
    NetState,
    SettleReport,
    WeightBundle,
    _Lockstep,
    _ShardRun,
    _down_map,
    _layer_terms,
    _up_map,
    _up_weight_grad,
    activation,
    barrier,
    block_shapes,
    initial_state,
    settle,
    update_layer,  # noqa: F401  (bench/tests/test_spans.py wraps this binding)
)
from .imageio import TARGET_BOUND

__all__ = [
    "LOSS_KINDS",
    "OPTIMIZERS",
    "TrainConfig",
    "OptState",
    "unclamped_visible",
    "td1_forward",
    "init_opt_state",
    "optimizer_step",
    "init_weights",
    "train",
    "complete",
]

LOSS_KINDS = ("se", "delta_e", "delta_e_plus")
OPTIMIZERS = ("sgd-l2", "sgd-linf", "adam")

# keeps the inverse activation finite when a bounded kind saturates
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
    # (epoch, multiplier) pairs, applied from that epoch on
    lr_schedule: tuple[tuple[int, float], ...] = ()
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
        # written so that NaN, which JSON loads, fails each comparison
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not all(0 < m < np.inf for _, m in self.lr_schedule):
            raise ValueError("lr_schedule multipliers must be positive and finite, "
                             f"got {[m for _, m in self.lr_schedule]}")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not 0 <= self.conv_init_std < np.inf:
            raise ValueError(f"conv_init_std must be >= 0 and finite, got {self.conv_init_std}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def lr_at(self, epoch):
        lr = self.lr
        for start, mult in sorted(self.lr_schedule):
            if epoch >= start:
                lr = self.lr * mult
        return lr


def unclamped_visible(state, w, arch, terms=None):
    """Visible values the current hidden configuration would produce.

    The visible preactivation is computed on the state's activations with
    its evidence dropped, from the adjacent hidden layer plus bias, and
    activated: no evidence is re-applied and no evidence bias mixed in.
    terms, if given, is the down term of the adjacent hidden layer already
    in hand, in a list, as td1_forward's runner maps it (see
    dynamics._layer_terms). The terms are summed and activated as one op,
    as in update_layer.
    """
    return activation(arch.activation,
                      _layer_terms(NetState(state.activations), w, arch, 0, terms))


def _softplus(x):
    """log(1 + exp(x)), overflow-safe: x itself once x > 30."""
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def _sigmoid(x):
    """1 / (1 + exp(-x)), the slope of _softplus, without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _loss(loss_kind, act_kind, v, y, barrier_y):
    """One loss per item between unclamped visible values v (v~) and
    targets y, with its closed-form vjp, on ndarrays.

    Both are batched (n, ...) arrays; the loss differentiates v only, y is
    the constant target. "se" sums the squared error. "delta_e" is the
    energy gap between the clamped state (visible units at y) and the
    unclamped one (at v), computed unit-locally as f_inv(v) * (v - y) +
    barrier(y) - barrier(v), with v clipped to +/-_TANH_CLIP under tanh.
    Under clamping this equals the full network energy difference, because
    both states share the hidden configuration; under external-bias
    evidence it is the gap of the evidence-free energy, since v
    (unclamped_visible) leaves the evidence bias out. It is zero exactly
    when v == y. "delta_e_plus" is the softplus of each item's gap, summed
    over all its visible units: a soft hinge that only wants the gap
    closed.

    Returns (loss per item, vjp), where vjp maps a cotangent per item to
    the cotangent of v: f_inv'(v) * (v - y) per unit, that is (v - y)
    divided by the activation's slope read off v (act_kind.slope), and
    zero where the clip holds v; under "delta_e_plus" times the sigmoid of
    the item's gap. "se" gives g*d + g*d for d = v - y. barrier_y is
    barrier(act_kind, y); "se" does not read it, and a caller whose
    targets stay fixed evaluates it once.

    Under a bounded kind the clip puts v strictly inside (-1, 1), so the
    kind's unchecked inverse and barrier run (see the module docstring);
    it is np.maximum then np.minimum, np.clip's bits for the finite v an
    activation op hands over.
    """
    units = tuple(range(1, v.ndim))
    per_unit = (-1,) + (1,) * len(units)  # an item's cotangent over its units
    if loss_kind == "se":
        d = v - y

        def vjp(c):
            gd = c.reshape(per_unit) * d
            return gd + gd

        return (d * d).sum(axis=units), vjp
    bounded = act_kind.bounded
    if bounded:
        inside = (v > -_TANH_CLIP) & (v < _TANH_CLIP)
        v = np.minimum(np.maximum(v, -_TANH_CLIP), _TANH_CLIP)
    d = v - y
    gap = (act_kind.inverse(v) * d + barrier_y - act_kind.barrier(v)).sum(axis=units)
    plus = loss_kind == "delta_e_plus"

    def vjp(c):
        if plus:
            c = c * _sigmoid(gap)
        slope_d = d / act_kind.slope(v)
        if bounded:
            slope_d = np.where(inside, slope_d, 0.0)
        return c.reshape(per_unit) * slope_d

    return (_softplus(gap) if plus else gap), vjp


def _batch_evidence(examples, arch):
    """The batch's targets, stacked in the visible shape and clipped once to
    +/-TARGET_BOUND, and its evidence: the masks, and the targets where
    observed."""
    vis_shape = arch.visible_shape
    targets = np.clip(np.stack([e.target.reshape(vis_shape) for e in examples]),
                      -TARGET_BOUND, TARGET_BOUND)
    masks = np.stack([e.mask.reshape(vis_shape) for e in examples])
    values = np.where(masks, targets, 0.0)
    return targets, EvidenceConstraint(mask=masks, values=values)


class _TD1Run(_ShardRun):
    """td1_forward's runner of one shard: settle's shard runner, whose hook
    after the upward half computes v~ and the loss, plus the records of
    the shard's activation ops.

    rows is the shard's slice of the batch, or None for the whole batch;
    targets, barrier_y and the active mask a sweep gets are the whole
    batch's, and the runner reads its rows of them. item_weight is 1/n for
    the whole batch's n items.
    """

    def __init__(self, state, w, arch, cfg, targets, barrier_y, item_weight, rows):
        super().__init__(state, w, arch)
        self.cfg, self.evidence = cfg, state.evidence
        self.rows, self.item_weight = rows, item_weight
        if rows is not None:
            targets = targets[rows]
            barrier_y = None if barrier_y is None else barrier_y[rows]
        self.targets, self.barrier_y = targets, barrier_y
        self.records = [(l, None if zero else x, None, None)
                        for l, (x, zero) in enumerate(zip(state.activations, self.zero))]
        self.current = list(range(arch.n_layers))  # the record of each layer's value

    def updated(self, l, state):
        self.records.append((l, state.activations[l], None,
                             [self.current[s] for s in (l - 1, l + 1) if 0 <= s <= self.top]))
        self.current[l] = len(self.records) - 1

    def after_up(self, state):
        kind = self.arch.activation
        v_tilde = unclamped_visible(state, self.w, self.arch, [self.visible_term(state)])
        loss_vec, loss_vjp = _loss(self.cfg.loss, kind, v_tilde, self.targets, self.barrier_y)
        _check_finite(loss_vec)
        loss_gz = kind.slope(v_tilde)
        loss_gz *= loss_vjp(self.active * self.item_weight)
        self.records.append((0, None, loss_gz, [self.current[1]]))
        self.loss_vec = loss_vec

    def sweep(self, active):
        """One sweep with the loss injected after its upward half; returns
        (loss per item, largest activation change per item) of the shard's
        rows. active is the whole batch's mask of items still active."""
        self.active = active if self.rows is None else active[self.rows]
        delta = super().sweep()
        return self.loss_vec, delta


def _summed(vectors):
    """The shards' gradient vectors, summed in shard order into the first."""
    total = vectors[0]
    for g in vectors[1:]:
        total += g
    return total


def td1_forward(examples, w, arch, cfg):
    """Unrolled settling with the loss injected after every sweep.

    Runs the batch in lockstep. After each sweep's upward pass the hidden
    configuration defines the contrastive pair for that iteration; the
    per-item loss stops accumulating once that item's state change drops
    below theta. Items that never converge contribute losses for all
    max_iters sweeps and are flagged in their reports. No energy is
    evaluated, so every report shares one empty energy_trace, and each
    max_delta_trace is a view of one (sweeps, items) array. Returns (mean
    over items of summed per-sweep losses, as a Tensor, reports).

    The sweeps run through settle's lockstep runner (dynamics._Lockstep):
    a batch of a conv net sweeps on row shards, each with its own runner,
    state and records, and after every sweep the shards' per-item losses
    and changes are joined in row order, so the loss, t_star and the
    traces are those of one unsharded run, byte for byte. A shard's runner
    is settle's (dynamics._ShardRun) with v~ and the loss computed after
    the upward half, so it maps one more down term per sweep than settle:
    2L-1 maps, 7 on a 4-layer net. On a 2-layer net the visible update
    reuses v~'s down term, which leaves 2.

    The loss is recorded on the active GradTape, if there is one, as its
    one op, whose one parent is w.flat and whose backward runs
    _td1_backward over each shard's records, the shards in parallel, and
    sums their gradients in shard order. The loss bookkeeping is plain
    numpy: each sweep's np.sum of its losses on active items, added to the
    running total, which is scaled by 1/n at the end. The targets' barrier,
    which the energy losses read, is evaluated once. The forward keeps one
    record per start state and per activation op, (layer, output, loss
    cotangent, sources):
    - a start state has no sources, and an all-zero one keeps no output,
      since the terms it feeds add exactly zero;
    - a layer update keeps its output;
    - v~ keeps no output but its preactivation cotangent, which the loss
      fixes in the forward: the loss's vjp at the item weights (1/n on
      items still active) times the activation's slope;
    - sources are the indices of the neighbors' records current at the
      op: the values its pair terms were mapped from.
    """
    n = len(examples)
    if n == 0:
        raise ValueError("empty batch")
    targets, evidence = _batch_evidence(examples, arch)
    barrier_y = None if cfg.loss == "se" else barrier(arch.activation, targets)
    run = _Lockstep(arch, initial_state(arch, evidence, batch=n),
                    lambda rows, state: _TD1Run(state, w, arch, cfg, targets, barrier_y,
                                                1.0 / n, rows))
    total = None
    active = np.ones(n, dtype=bool)
    t_star = np.full(n, cfg.max_iters, dtype=int)
    converged = np.zeros(n, dtype=bool)
    delta_traces = []
    for t in range(1, cfg.max_iters + 1):
        loss_vec, delta = run.run(lambda shard: shard.sweep(active))
        contrib = np.sum(loss_vec * active)
        total = contrib if total is None else total + contrib
        delta_traces.append(delta)
        newly = active & (delta < cfg.theta)
        t_star[newly] = t
        converged |= newly
        active &= ~newly
        if not active.any():
            break
    for shard in run.shards:
        # the backward reads the records and the evidence only, and frees
        # each record once it has passed it
        shard.state = shard.held = None
    loss = Tensor(total * (1.0 / n))
    _record(loss, w.params(), lambda: [run.run(
        lambda shard: _td1_backward(shard.records, w, arch, shard.evidence),
        merge=_summed)])
    no_energy = np.empty(0)
    reports = [SettleReport(t_star=t, converged=c, energy_trace=no_energy, max_delta_trace=d)
               for t, c, d in zip(t_star.tolist(), converged.tolist(),
                                  np.stack(delta_traces).T)]  # views of (sweeps, items)
    return loss, reports


def _td1_backward(records, w, arch, evidence):
    """The TD(1) loss's gradient, a vector of w.flat's layout, by one
    reverse walk over td1_forward's records.

    Each record is dropped once the walk has passed it. A layer update's
    output cotangent, zeroed on clamped units, times the activation's
    slope is its preactivation cotangent; v~ brings its own. That
    cotangent adds into the layer's bias gradient and into the pending
    cotangent of each term the op read, one per source record and reader
    layer. When the walk reaches a source record, each of its pending
    terms goes through _term_vjp once, which adds the pair's weight
    gradient in place (dynamics._up_weight_grad) and hands the record the
    cotangent mapped by the pair's other map: dynamics._down_map for an up
    term, dynamics._up_map for a down term. A start state takes the weight
    gradient only, and an all-zero start, which keeps no output, feeds no
    term. A record whose output fed no loss, such as the last sweep's
    downward updates, gets no cotangent and is skipped.
    Every gradient adds into its block's view of one zero vector.
    """
    grad = np.zeros(w.flat.shape)
    grads = w.blocks(grad)
    bias_grads = grads[len(w.forward):]
    clamped = evidence.mask if arch.evidence == "clamp" else None
    kind = arch.activation
    # record i's terms' summed cotangents, into the layer below at 2i, above at 2i + 1
    pending = [None] * (2 * len(records))
    for i in range(len(records) - 1, -1, -1):
        l, out, gz, sources = records[i]
        records[i] = None
        g = None  # stays None at a start state, which gets no cotangent
        for side in (0, 1):
            g_t, pending[2 * i + side] = pending[2 * i + side], None
            if g_t is not None:
                gx = _term_vjp(g_t, out, w, arch, l - 1 + 2 * side, l, grads,
                               need_input=sources is not None)
                g = gx if g is None else g + gx
        if gz is None:
            if g is None:
                continue
            if l == 0 and clamped is not None:
                g = np.where(clamped, 0.0, g)
            gz = kind.slope(out)
            gz *= g
        bias_grads[l] += gz.sum(axis=(0,) + tuple(range(2, gz.ndim)))
        for src in sources:
            source, x = records[src][:2]
            if x is not None:  # an all-zero start feeds no term
                slot = 2 * src + (l > source)
                pending[slot] = gz if pending[slot] is None else pending[slot] + gz
    return grad


def _term_vjp(g, x, w, arch, reader, source, grads, need_input):
    """The backward map of the pair term (reader, source) at its summed
    cotangent g, with x the source activations the term was mapped from.

    Adds the pair's weight gradient in place into grads[pair], its view of
    the gradient vector, and returns the cotangent of x by the pair's other
    map (see the module docstring), or None unless need_input.
    """
    pair = min(reader, source)
    up = source < reader
    grads[pair] += _up_weight_grad(*((x, g) if up else (g, x)), w, arch, pair)
    if not need_input:
        return None
    return (_down_map if up else _up_map)(g, w, arch, pair)


@dataclass
class OptState:
    """Optimizer bookkeeping carried between steps: under adam, the first
    and second moments, vectors of the parameter vector's layout, or None
    until the first step."""

    kind: str
    lr: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def init_opt_state(cfg):
    return OptState(kind=cfg.optimizer, lr=cfg.lr)


def optimizer_step(opt, w, grads):
    """One parameter update; returns a fresh (OptState, WeightBundle).

    grads is [g], g the gradient of the parameter vector w.flat, as
    GradTape.gradient returns it for w.params(). sgd-l2 / sgd-linf
    renormalize each block's gradient to unit L2 / max norm before the
    step (blocks with zero gradient are stepped as-is), on the blocks'
    views of a copy of g; adam is the standard bias-corrected moment
    update on the whole vector, with beta1 0.9, beta2 0.999 and eps 1e-8.
    Only w.flat moves, and the downward weights are derived from it, so
    every step keeps the net symmetric.
    """
    p = w.flat.data
    if len(grads) != 1 or np.shape(grads[0]) != p.shape:
        raise ValueError(f"expected [g], one gradient of shape {p.shape}, got "
                         f"{len(grads)} of shapes {[np.shape(g) for g in grads]}")
    g = np.asarray(grads[0], dtype=np.float64)
    if opt.kind in ("sgd-l2", "sgd-linf"):
        g = g.copy()
        for block in w.blocks(g):
            norm = np.linalg.norm(block) if opt.kind == "sgd-l2" else np.max(np.abs(block))
            if norm > 0:
                block /= norm
        return replace(opt, step=opt.step + 1), w.with_params([Tensor(p - opt.lr * g)])
    # adam
    t = opt.step + 1
    m = _ADAM_BETA1 * (np.zeros_like(p) if opt.m is None else opt.m) + (1 - _ADAM_BETA1) * g
    v = _ADAM_BETA2 * (np.zeros_like(p) if opt.v is None else opt.v) + (1 - _ADAM_BETA2) * g * g
    m_hat = m / (1 - _ADAM_BETA1 ** t)
    v_hat = v / (1 - _ADAM_BETA2 ** t)
    new = Tensor(p - opt.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS))
    return replace(opt, step=t, m=m, v=v), w.with_params([new])


def _fc_init_std(n_lo, n_hi):
    return 0.1 / np.sqrt(0.5 * n_lo + 0.5 * n_hi + 1.0)


def init_weights(arch, seed, conv_std=0.01):
    """Gaussian weights, zero biases, deterministic in the seed.

    One block is drawn per block_shapes(arch) entry, in order.
    Matrices (n_a, n_b) use std 0.1 / sqrt(n_a/2 + n_b/2 + 1); convolution
    kernels use conv_std; biases are zero.
    """
    rng = np.random.default_rng(seed)

    def draw(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        std = conv_std if len(shape) == 4 else _fc_init_std(*shape)
        return rng.normal(scale=std, size=shape)

    return WeightBundle.from_blocks([draw(s) for s in block_shapes(arch)])


def _train_step(batch, w, opt, arch, cfg):
    """One TD(1) step; returns (opt, weights, loss value, t* per item).

    The step's tape and the forward's records go out of scope on return,
    so they are freed before the next step's forward.
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
    """Settle a batch of evidence states; returns (visible outputs, report).

    Under clamping, outputs keep observed positions at their evidence
    values and unobserved positions carry the settled completion; under
    external-bias evidence every position carries the settled value.
    """
    _, evidence = _batch_evidence(examples, arch)
    # passed unbound, so the start state is freed once settle moves past it
    state, report = settle(initial_state(arch, evidence, batch=len(examples)), w, arch,
                           theta=theta, max_iters=max_iters, record_energy=False)
    return state.activations[0], report
