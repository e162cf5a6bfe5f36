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
    avg_pool2_adjoint,
    barrier_leaky,
    barrier_tanh,
    conv2d_half,
    leaky_sigmoid,
    leaky_sigmoid_inverse,
    matmul,
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
    "block_shapes",
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
    and its exact transpose (avg_pool2_adjoint) on the downward map out of
    it, so the two maps stay adjoint and layer updates descend the energy.
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


_EVIDENCE_MODES = ("clamp", "external_bias")


@dataclass(frozen=True)
class ArchSpec:
    """Layer stack plus activation kind, connection structure and evidence rule.

    kernel_sizes gives the (odd) convolution extent per adjacent layer
    pair; fc pairs carry 0. symmetric=False stores independent reverse
    weights instead of deriving them, which forfeits the energy guarantee
    and exists for limit-cycle experiments. evidence says how observed
    values enter the visible layer: "clamp" overwrites the observed units
    after every visible update; "external_bias" adds the observations to
    the visible preactivation and leaves every unit free, which adds
    -<values, x_visible> to the energy.
    """

    layers: tuple
    activation: object = field(default_factory=Tanh)
    kernel_sizes: tuple = ()
    symmetric: bool = True
    evidence: str = "clamp"

    def __post_init__(self):
        if self.evidence not in _EVIDENCE_MODES:
            raise ValueError(f"evidence must be one of {_EVIDENCE_MODES}, "
                             f"got {self.evidence!r}")
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


def block_shapes(arch):
    """The shape of each parameter block, in WeightBundle.params() order.

    Forward blocks per pair, then (asymmetric only) reverse blocks, then one
    bias per layer. A matrix maps (lower units, upper units); a kernel is
    (receiving channels, sending channels, k, k).
    """
    pairs = list(zip(arch.layers[:-1], arch.layers[1:], arch.kernel_sizes))
    if not arch.symmetric:  # reverse blocks map each upper layer a to its lower b
        pairs += [(hi, lo, k) for lo, hi, k in pairs]
    return [(a.units, b.units) if a.kind == "fc" else (b.channels, a.channels, k, k)
            for a, b, k in pairs] + [spec.shape[:1] for spec in arch.layers]


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

    @classmethod
    def from_params(cls, tensors, n_layers):
        """The bundle of a net with n_layers layers, from tensors in params()
        order (see block_shapes); 4-d blocks are convolution kernels."""
        tensors = list(tensors)
        blocks = [ConvKernel(t) if t.ndim == 4 else t for t in tensors[:-n_layers]]
        n_pairs = n_layers - 1
        return cls(forward=blocks[:n_pairs], biases=tensors[-n_layers:],
                   reverse=blocks[n_pairs:] or None)

    def with_params(self, tensors):
        """Rebuild the bundle around replacement tensors from params() order."""
        return WeightBundle.from_params(tensors, len(self.biases))

    def down_weights(self, pair):
        """Weights for the map from layer pair+1 down to pair."""
        if self.reverse is not None:
            return self.reverse[pair]
        w = self.forward[pair]
        if isinstance(w, ConvKernel):
            return reverse_kernel(w)
        return transpose(w)


@dataclass
class EvidenceConstraint:
    """Observed values on the visible layer.

    mask is boolean over the visible units (True = observed) and values
    holds the observations at masked positions (zero elsewhere). How they
    enter the dynamics is the architecture's evidence rule (ArchSpec). A
    replicated visible layout (an input copy and an output copy of the
    image) is clamping with a mask that observes only the input copy.
    """

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.mask.shape:
            raise ValueError(f"values shape {vals.shape} != mask shape {self.mask.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("evidence values must be finite")
        self.values = np.where(self.mask, vals, 0.0)


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
    """Start state at 0, with observed units at their evidence under clamping."""
    _check_evidence_range(evidence, arch.activation)
    acts = []
    for spec in arch.layers:
        shape = spec.shape if batch is None else (batch,) + spec.shape
        acts.append(Tensor(np.zeros(shape)))
    state = NetState(activations=acts, evidence=evidence)
    if evidence is not None and arch.evidence == "clamp":
        vis = state.activations[0]
        state.activations[0] = where(evidence.mask, Tensor(evidence.values), vis)
    return state


def _up_map(x, w, arch, pair):
    """Map layer `pair` activation up into layer pair+1 (pooling included)."""
    block = w.forward[pair]
    if not isinstance(block, ConvKernel):
        return matmul(x, block)
    return conv2d_half(avg_pool2(x) if arch.layers[pair + 1].pool_before else x, block)


def _down_map(x, w, arch, pair):
    """Map layer pair+1 activation down into layer `pair`; with symmetric
    weights, the exact adjoint of _up_map (pooling's transpose included)."""
    block = w.down_weights(pair)
    if not isinstance(block, ConvKernel):
        return matmul(x, block)
    y = conv2d_half(x, block)
    return avg_pool2_adjoint(y) if arch.layers[pair + 1].pool_before else y


def _bias_term(b, spec):
    if spec.kind == "fc":
        return b
    return reshape(b, (spec.channels, 1, 1))


def layer_preactivation(state, w, arch, l):
    """Total input to layer l: neighbor contributions plus the layer bias.

    End layers receive one neighbor contribution, interior layers two.
    fc pairs use the weight matrix and its transpose; conv pairs use the
    forward kernel upward and its reversed kernel downward. Under
    external-bias evidence the visible layer also receives the state's
    evidence values; a state without evidence receives none.
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
    if l == 0 and ev is not None and arch.evidence == "external_bias":
        total = total + Tensor(ev.values)
    return total


def update_layer(state, w, arch, l):
    """Activate layer l from its preactivation, then re-clamp any evidence."""
    pre = layer_preactivation(state, w, arch, l)
    x = activation(arch.activation, pre)
    ev = state.evidence
    if l == 0 and ev is not None and arch.evidence == "clamp":
        x = where(ev.mask, Tensor(ev.values), x)
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


def energy(state, w, arch):
    """Network energy: cross-layer coupling plus barrier and bias terms.

    E = -sum_pairs <x_upper, up(x_lower)> + sum_layers sum_units
    (barrier(x) - b * x), with each cross-layer product counted once, and
    under external-bias evidence also -<values, x_visible>, so that every
    layer update minimizes E over its layer. Clamped units are held fixed
    instead and add no term. Returns a scalar for an unbatched state, one
    energy per item for a batched state. In asymmetric mode this quantity
    is computed from the forward weights and is no longer guaranteed to
    decrease.
    """
    batched = state.batched(arch)
    acts = state.activations

    def summed(a):
        return a.sum(axis=tuple(range(1, a.ndim)) if batched else None)

    total = 0.0
    for pair in range(arch.n_layers - 1):
        total = total - summed(acts[pair + 1].data * _up_map(acts[pair], w, arch, pair).data)
    for l, spec in enumerate(arch.layers):
        rho = barrier(arch.activation, acts[l]).data
        total = total + summed(rho - _bias_term(w.biases[l], spec).data * acts[l].data)
    if state.evidence is not None and arch.evidence == "external_bias":
        total = total - summed(state.evidence.values * acts[0].data)
    return total if batched else float(total)


# states a non-converging settle keeps for cycle detection
_CYCLE_WINDOW = 24


def _max_delta(prev, new, batched):
    """Largest absolute activation change, per item when batched."""
    if not batched:
        return max(float(np.max(np.abs(n.data - p.data))) for p, n in zip(prev, new))
    per = None
    for p, n in zip(prev, new):
        d = np.abs(n.data - p.data).reshape(n.data.shape[0], -1).max(axis=1)
        per = d if per is None else np.maximum(per, d)
    return per


def settle(state, w, arch, theta=0.01, max_iters=100, record_energy=True):
    """Sweep until the largest activation change in one iteration is < theta.

    Returns the settled state and a report with the stability iteration
    t_star, per-iteration energy and delta traces, and, when the state
    fails to converge, the period of any limit cycle found in the trailing
    window of states: the last _CYCLE_WINDOW states (24), or all of them
    when fewer were swept. Intended for inference; do not call under an
    active GradTape (unrolled training has its own loop).
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    batched = state.batched(arch)
    energies = []
    deltas = []
    # only states that can still lie in the trailing window at max_iters are
    # kept: t >= max_iters + 1 - _CYCLE_WINDOW
    first_kept = max_iters + 1 - _CYCLE_WINDOW
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


def _block_l1_in(block):
    """Per-unit (or per-channel) L1 of the weights a block's outputs receive."""
    if isinstance(block, ConvKernel):
        return np.abs(block.weights.data).sum(axis=(1, 2, 3))  # per out-channel
    return np.abs(block.data).sum(axis=0)  # per column = per receiving unit


def norm_1inf(w):
    """Max over units of the L1 norm of that unit's incoming weight row.

    Taken over the full bipartite connection structure: each unit receives
    from the adjacent layer below and above. For conv layers the bound is
    per channel (interior units see the whole kernel). On a pooled pair the
    upper side is exact: pooling spreads each weight over four inputs at a
    quarter magnitude. The lower side is quartered by the pooling's
    transpose but counted whole here, so the result is an upper bound.
    """
    per_layer_in = [0.0] * (len(w.forward) + 1)
    for pair, block in enumerate(w.forward):
        per_layer_in[pair + 1] = per_layer_in[pair + 1] + _block_l1_in(block)
        per_layer_in[pair] = per_layer_in[pair] + _block_l1_in(w.down_weights(pair))
    return float(max(np.max(v) for v in per_layer_in))


def synchronous_step(x, W, b, kind):
    """One parallel full-state update x <- f(x W + b) on a dense weight matrix.

    This is the classical discrete-time iteration whose trajectories, for
    symmetric W with nonnegative diagonal and a saturating activation,
    always end in a fixed point or a period-2 cycle.
    """
    x = np.asarray(x, dtype=np.float64)
    return activation(kind, x @ W + b).data
