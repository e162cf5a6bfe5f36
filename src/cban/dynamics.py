"""Bipartite attractor networks: architecture, settling dynamics, energy.

A network is a stack of layers with bidirectional connections between
adjacent layers only. Units within a layer never connect, so a whole layer
updates in parallel while the network energy never increases; repeatedly
sweeping the layers settles the state into a local energy minimum
conditioned on whatever evidence is clamped into the visible layer.

Layer indices are 0-based with layer 0 the visible layer. One iteration is
a sweep 1, 2, ..., L-1, L-2, ..., 0 (2L-2 layer updates), ending on the
visible layer so the read-out is current after every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    ConvKernel,
    Tensor,
    atanh,
    avg_pool2,
    barrier_leaky,
    barrier_tanh,
    conv2d_half,
    leaky_sigmoid,
    leaky_sigmoid_inverse,
    matmul,
    nn_upsample2,
    reshape,
    reverse_kernel,
    tanh,
    transpose,
    where,
)

__all__ = [
    "Tanh",
    "LeakySigmoid",
    "LayerSpec",
    "ArchSpec",
    "WeightBundle",
    "EvidenceConstraint",
    "NetState",
    "SettleReport",
    "fc_layer",
    "conv_layer",
    "fban",
    "activation",
    "inverse_activation",
    "barrier",
    "initial_state",
    "layer_preactivation",
    "update_layer",
    "sweep",
    "energy",
    "settle",
    "detect_cycle",
    "norm_1inf",
    "synchronous_step",
]


@dataclass(frozen=True)
class Tanh:
    """Hyperbolic tangent activation."""


@dataclass(frozen=True)
class LeakySigmoid:
    """Identity on [-1, 1] with slope alpha outside; alpha strictly in (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")


def activation(kind, z):
    """Elementwise activation of a Tensor (or array); returns a Tensor."""
    if isinstance(kind, Tanh):
        return tanh(z)
    return leaky_sigmoid(z, kind.alpha)


def inverse_activation(kind, x):
    """Inverse of the activation; tanh demands |x| < 1 strictly.

    A value outside the domain raises DomainError naming its index.
    """
    if isinstance(kind, Tanh):
        return atanh(x)
    return leaky_sigmoid_inverse(x, kind.alpha)


def barrier(kind, x):
    """Integral of the inverse activation from 0 to x, as a Tensor.

    For tanh this is 0.5*(1+x)ln(1+x) + 0.5*(1-x)ln(1-x) on [-1, 1]; for
    the leaky sigmoid it is x^2/2 inside [-1, 1] and a steeper quadratic
    outside. In both cases the derivative is exactly the inverse
    activation, which is what makes layer updates minimize the energy.
    A tanh value with |x| > 1 raises DomainError naming its index.
    """
    if isinstance(kind, Tanh):
        return barrier_tanh(x)
    return barrier_leaky(x, kind.alpha)


@dataclass(frozen=True)
class LayerSpec:
    """One layer: flat ("fc") or a feature map ("conv").

    pool_before puts 2x2 average pooling on the upward map into this layer
    and nearest-neighbor upsampling on the downward map out of it.
    """

    kind: str
    units: int = 0
    channels: int = 0
    height: int = 0
    width: int = 0
    pool_before: bool = False
    visible: bool = False

    @property
    def shape(self):
        if self.kind == "fc":
            return (self.units,)
        return (self.channels, self.height, self.width)

    @property
    def size(self):
        return int(np.prod(self.shape))


def fc_layer(units, visible=False):
    if units < 1:
        raise ValueError("fc layer needs at least one unit")
    return LayerSpec(kind="fc", units=units, visible=visible)


def conv_layer(channels, height, width, pool_before=False, visible=False):
    if min(channels, height, width) < 1:
        raise ValueError("conv layer extents must be >= 1")
    return LayerSpec(kind="conv", channels=channels, height=height, width=width,
                     pool_before=pool_before, visible=visible)


@dataclass(frozen=True)
class ArchSpec:
    """Layer stack plus activation kind and connection structure.

    kernel_sizes gives the (odd) convolution extent per adjacent layer
    pair; fc pairs carry 0. symmetric=False stores independent reverse
    weights instead of deriving them, which forfeits the energy guarantee
    and exists for limit-cycle experiments.
    """

    layers: tuple
    activation: object = field(default_factory=Tanh)
    kernel_sizes: tuple = ()
    symmetric: bool = True

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) < 2:
            raise ValueError("an architecture needs at least 2 layers")
        if not layers[0].visible or any(l.visible for l in layers[1:]):
            raise ValueError("exactly the first layer must be visible")
        ksz = tuple(self.kernel_sizes) if self.kernel_sizes else ()
        if not ksz:
            ksz = tuple(0 for _ in range(len(layers) - 1))
        if len(ksz) == 1 and len(layers) > 2:
            ksz = ksz * (len(layers) - 1)
        if len(ksz) != len(layers) - 1:
            raise ValueError("need one kernel size per adjacent layer pair")
        object.__setattr__(self, "kernel_sizes", ksz)
        if layers[0].pool_before:
            raise ValueError("the first layer cannot be pooled")
        for l, (lo, hi) in enumerate(zip(layers[:-1], layers[1:])):
            if lo.kind != hi.kind:
                raise ValueError(f"layers {l} and {l + 1} mix fc and conv connectivity")
            if lo.kind == "conv":
                k = ksz[l]
                if k < 1 or k % 2 == 0:
                    raise ValueError(f"conv pair {l} needs an odd kernel size, got {k}")
                if hi.pool_before:
                    if lo.height % 2 or lo.width % 2:
                        raise ValueError(f"pooled layer {l + 1} needs even predecessor dims")
                    if (hi.height, hi.width) != (lo.height // 2, lo.width // 2):
                        raise ValueError(f"layer {l + 1} dims must be half of layer {l}")
                elif (hi.height, hi.width) != (lo.height, lo.width):
                    raise ValueError(f"layer {l + 1} dims must match layer {l} when unpooled")
            elif hi.pool_before:
                raise ValueError("pool_before is only valid on conv layers")

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def visible_shape(self):
        return self.layers[0].shape


def fban(visible_units, hidden_units, activation_kind=None, symmetric=True):
    """Fully connected bipartite attractor net: visible + stack of hidden sizes."""
    layers = [fc_layer(visible_units, visible=True)]
    layers += [fc_layer(int(h)) for h in hidden_units]
    return ArchSpec(layers=tuple(layers),
                    activation=activation_kind or Tanh(),
                    symmetric=symmetric)


@dataclass
class WeightBundle:
    """Forward weights per adjacent pair plus one bias tensor per layer.

    In symmetric mode the downward weights are always derived from the
    forward ones (matrix transpose / kernel reversal) and never stored;
    `reverse` holds independent downward weights only in asymmetric mode.
    Matrices map (lower units, upper units); biases are per-unit for fc
    layers and per-channel for conv layers.
    """

    forward: list
    biases: list
    reverse: list | None = None

    def params(self):
        """Trainable tensors, in declaration order (forward, reverse, biases)."""
        out = [w.weights if isinstance(w, ConvKernel) else w for w in self.forward]
        if self.reverse is not None:
            out += [w.weights if isinstance(w, ConvKernel) else w for w in self.reverse]
        out += list(self.biases)
        return out

    def with_params(self, tensors):
        """Rebuild the bundle around replacement tensors from params() order."""
        tensors = list(tensors)
        n_fwd = len(self.forward)
        n_rev = len(self.reverse) if self.reverse is not None else 0

        def rewrap(blocks, flat):
            return [ConvKernel(t) if isinstance(b, ConvKernel) else t
                    for b, t in zip(blocks, flat)]

        fwd = rewrap(self.forward, tensors[:n_fwd])
        rev = rewrap(self.reverse, tensors[n_fwd:n_fwd + n_rev]) if n_rev else None
        return WeightBundle(forward=fwd, biases=tensors[n_fwd + n_rev:], reverse=rev)

    def down_weights(self, pair):
        """Weights for the map from layer pair+1 down to pair."""
        if self.reverse is not None:
            return self.reverse[pair]
        w = self.forward[pair]
        if isinstance(w, ConvKernel):
            return reverse_kernel(w)
        return transpose(w)


_EVIDENCE_MODES = ("clamp", "convex_mix", "external_bias")


@dataclass
class EvidenceConstraint:
    """Observed values pinned onto the visible layer.

    mask is boolean over the visible units (True = observed) and values
    holds the observations at masked positions (zero elsewhere). Modes:
    clamp overwrites masked units after every visible update; convex_mix
    blends observation and computed value with weight mix_weight (1.0
    reproduces clamping); external_bias adds scale * observation to the
    visible preactivation instead of overwriting. A replicated visible
    layout (an input copy and an output copy of the image) is clamping with
    a mask that observes only the input copy.
    """

    mask: np.ndarray
    values: np.ndarray
    mode: str = "clamp"
    mix_weight: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.mask.shape:
            raise ValueError(f"values shape {vals.shape} != mask shape {self.mask.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("evidence values must be finite")
        self.values = np.where(self.mask, vals, 0.0)
        if self.mode not in _EVIDENCE_MODES:
            raise ValueError(f"unknown evidence mode {self.mode!r}")
        if not 0.0 <= self.mix_weight <= 1.0:
            raise ValueError("mix_weight must lie in [0, 1]")


@dataclass
class NetState:
    """One activation tensor per layer plus the visible-layer evidence."""

    activations: list
    evidence: EvidenceConstraint | None = None

    def batched(self, arch):
        return self.activations[0].ndim > len(arch.layers[0].shape)

    def snapshot(self):
        """Full state flattened to one vector."""
        return np.concatenate([a.data.ravel() for a in self.activations])


@dataclass
class SettleReport:
    """Settling summary: iterations, convergence, cycle, traces."""

    t_star: int
    converged: bool
    cycle_length: int
    energy_trace: np.ndarray
    max_delta_trace: np.ndarray


def _check_evidence_range(evidence, kind):
    if evidence is None:
        return
    if isinstance(kind, Tanh):
        vals = evidence.values[evidence.mask]
        if vals.size and np.max(np.abs(vals)) >= 1.0:
            raise ValueError("tanh evidence values must satisfy |v| < 1")


def initial_state(arch, evidence=None, batch=None):
    """Start state: unobserved units at 0, observed units at their evidence."""
    _check_evidence_range(evidence, arch.activation)
    acts = []
    for spec in arch.layers:
        shape = spec.shape if batch is None else (batch,) + spec.shape
        acts.append(Tensor(np.zeros(shape)))
    state = NetState(activations=acts, evidence=evidence)
    if evidence is not None and evidence.mode in ("clamp", "convex_mix"):
        vis = state.activations[0]
        state.activations[0] = where(evidence.mask, Tensor(evidence.values), vis)
    elif evidence is not None and evidence.mode == "external_bias":
        pass  # bias enters through the preactivation; start from zero
    return state


def _up_map(x, w, arch, pair):
    """Map layer `pair` activation up into layer pair+1 (pooling included)."""
    upper = arch.layers[pair + 1]
    if upper.kind == "fc":
        return matmul(x, w.forward[pair])
    h = avg_pool2(x) if upper.pool_before else x
    return conv2d_half(h, w.forward[pair])


def _down_map(x, w, arch, pair):
    """Map layer pair+1 activation down into layer `pair` (upsampling included)."""
    upper = arch.layers[pair + 1]
    down_w = w.down_weights(pair)
    if upper.kind == "fc":
        return matmul(x, down_w)
    y = conv2d_half(x, down_w)
    return nn_upsample2(y) if upper.pool_before else y


def _bias_term(b, spec):
    if spec.kind == "fc":
        return b
    return reshape(b, (spec.channels, 1, 1))


def layer_preactivation(state, w, arch, l, include_evidence_bias=True):
    """Total input to layer l: neighbor contributions plus the layer bias.

    End layers receive one neighbor contribution, interior layers two.
    fc pairs use the weight matrix and its transpose; conv pairs use the
    forward kernel upward and its reversed kernel downward.
    """
    if not 0 <= l < arch.n_layers:
        raise IndexError(f"layer index {l} out of range for {arch.n_layers} layers")
    spec = arch.layers[l]
    total = None
    if l > 0:
        total = _up_map(state.activations[l - 1], w, arch, l - 1)
    if l < arch.n_layers - 1:
        down = _down_map(state.activations[l + 1], w, arch, l)
        total = down if total is None else total + down
    total = total + _bias_term(w.biases[l], spec)
    ev = state.evidence
    if (include_evidence_bias and l == 0 and ev is not None
            and ev.mode == "external_bias"):
        total = total + Tensor(ev.scale * ev.values)
    return total


def update_layer(state, w, arch, l):
    """Activate layer l from its preactivation, then re-apply evidence."""
    pre = layer_preactivation(state, w, arch, l)
    x = activation(arch.activation, pre)
    ev = state.evidence
    if l == 0 and ev is not None:
        if ev.mode == "clamp":
            x = where(ev.mask, Tensor(ev.values), x)
        elif ev.mode == "convex_mix":
            mixed = ev.mix_weight * Tensor(ev.values) + (1.0 - ev.mix_weight) * x
            x = where(ev.mask, mixed, x)
    acts = list(state.activations)
    acts[l] = x
    return NetState(activations=acts, evidence=ev)


def sweep_order(n_layers):
    """Layer update order for one iteration: 1..L-1 then L-2..0."""
    return list(range(1, n_layers)) + list(range(n_layers - 2, -1, -1))


def sweep(state, w, arch):
    """One full iteration: 2L-2 layer updates, ending on the visible layer."""
    for l in sweep_order(arch.n_layers):
        state = update_layer(state, w, arch, l)
    return state


def _pair_energy(x_lo, x_hi, w, arch, pair, batched):
    up = _up_map(x_lo, w, arch, pair)
    prod = x_hi.data * up.data
    axes = tuple(range(1, prod.ndim)) if batched else None
    return prod.sum(axis=axes)


def energy(state, w, arch):
    """Network energy: cross-layer coupling plus barrier and bias terms.

    E = -sum_pairs <x_upper, up(x_lower)> + sum_layers sum_units
    (barrier(x) - b * x), with each cross-layer product counted once.
    Returns a scalar for an unbatched state, one energy per item for a
    batched state. In asymmetric mode this quantity is computed from the
    forward weights and is no longer guaranteed to decrease.
    """
    batched = state.batched(arch)
    total = 0.0
    for pair in range(arch.n_layers - 1):
        total = total - _pair_energy(state.activations[pair],
                                     state.activations[pair + 1],
                                     w, arch, pair, batched)
    for l, spec in enumerate(arch.layers):
        x = state.activations[l].data
        rho = barrier(arch.activation, state.activations[l]).data
        b = w.biases[l].data
        if spec.kind == "conv":
            b = b.reshape(spec.channels, 1, 1)
        site = rho - b * x
        axes = tuple(range(1, x.ndim)) if batched else None
        total = total + site.sum(axis=axes)
    return total if batched else float(total)


def _max_delta(prev, new, batched):
    """Largest absolute activation change, per item when batched."""
    if not batched:
        return max(float(np.max(np.abs(n.data - p.data))) for p, n in zip(prev, new))
    per = None
    for p, n in zip(prev, new):
        d = np.abs(n.data - p.data).reshape(n.data.shape[0], -1).max(axis=1)
        per = d if per is None else np.maximum(per, d)
    return per


def settle(state, w, arch, theta=0.01, max_iters=100, record_energy=True,
           cycle_window=24):
    """Sweep until the largest activation change in one iteration is < theta.

    Returns the settled state and a report with the stability iteration
    t_star, per-iteration energy and delta traces, and, when the state
    fails to converge, the period of any limit cycle found in the trailing
    window of states. Intended for inference; do not call under an active
    GradTape (unrolled training has its own loop).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    batched = state.batched(arch)
    energies = []
    deltas = []
    # only states that can still lie in the trailing window at max_iters are
    # kept: t >= max_iters + 1 - cycle_window
    first_kept = max_iters + 1 - cycle_window
    history = [state.snapshot()] if first_kept <= 0 else []
    converged = False
    t_star = max_iters
    for t in range(1, max_iters + 1):
        prev = state.activations
        try:
            state = sweep(state, w, arch)
        except ValueError as e:
            raise ValueError(f"state diverged during iteration {t}: {e}") from e
        d = _max_delta(prev, state.activations, batched)
        deltas.append(d)
        if record_energy:
            energies.append(energy(state, w, arch))
        if t >= first_kept:
            history.append(state.snapshot())
        if float(np.max(d)) < theta:
            converged = True
            t_star = t
            break
    cycle = 0
    if not converged:
        p = detect_cycle(history, tol=theta)
        cycle = p if p >= 2 else 0
    report = SettleReport(
        t_star=t_star,
        converged=converged,
        cycle_length=cycle,
        energy_trace=np.asarray(energies),
        max_delta_trace=np.asarray(deltas),
    )
    return state, report


def detect_cycle(trailing_states, tol):
    """Smallest period p >= 1 repeating across the window, or 0 if none.

    States are compared elementwise: period p holds when every pair of
    states p apart in the window differs by less than tol everywhere.
    """
    states = [np.asarray(s) for s in trailing_states]
    n = len(states)
    if n < 2:
        raise ValueError("need at least two states to detect a cycle")
    for p in range(1, n):
        ok = all(np.max(np.abs(states[t] - states[t - p])) < tol
                 for t in range(p, n))
        if ok:
            return p
    return 0


def _block_l1_in(w):
    """Per-unit (or per-channel) L1 of incoming weights for the upper layer."""
    if isinstance(w, ConvKernel):
        return np.abs(w.weights.data).sum(axis=(1, 2, 3))  # per out-channel
    return np.abs(w.data).sum(axis=0)  # per column = per upper unit


def _block_l1_out(w):
    """Per-unit (or per-channel) L1 of incoming weights for the lower layer."""
    if isinstance(w, ConvKernel):
        return np.abs(w.weights.data).sum(axis=(0, 2, 3))  # per in-channel
    return np.abs(w.data).sum(axis=1)  # per row = per lower unit


def norm_1inf(w):
    """Max over units of the L1 norm of that unit's incoming weight row.

    Taken over the full bipartite connection structure: each unit receives
    from the adjacent layer below and above. For conv layers the bound is
    per channel (interior units see the whole kernel); pooling does not
    change it because averaging spreads each weight over four inputs of a
    quarter magnitude each.
    """
    n_pairs = len(w.forward)
    per_layer_in = {}
    for pair in range(n_pairs):
        up_w = w.forward[pair]
        down_w = w.reverse[pair] if w.reverse is not None else None
        incoming_upper = _block_l1_in(up_w)
        if down_w is None:
            incoming_lower = _block_l1_out(up_w)
        else:
            # reverse weights map upper -> lower; their "in" side is the lower layer
            incoming_lower = _block_l1_in(down_w)
        per_layer_in.setdefault(pair, np.zeros_like(incoming_lower))
        per_layer_in[pair] = per_layer_in[pair] + incoming_lower
        per_layer_in.setdefault(pair + 1, np.zeros_like(incoming_upper))
        per_layer_in[pair + 1] = per_layer_in[pair + 1] + incoming_upper
    return float(max(np.max(v) for v in per_layer_in.values()))


def synchronous_step(x, W, b, kind):
    """One parallel full-state update x <- f(x W + b) on a dense weight matrix.

    This is the classical discrete-time iteration whose trajectories, for
    symmetric W with nonnegative diagonal and a saturating activation,
    always end in a fixed point or a period-2 cycle.
    """
    x = np.asarray(x, dtype=np.float64)
    return activation(kind, x @ W + b).data
