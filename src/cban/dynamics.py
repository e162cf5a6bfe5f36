"""Bipartite attractor networks: architecture, settling dynamics, energy.

A network is a stack of layers with bidirectional connections between
adjacent layers only. Units within a layer never connect, so a whole layer
updates in parallel while the network energy never increases; repeatedly
sweeping the layers settles the state into a local energy minimum
conditioned on whatever evidence is clamped into the visible layer.

Layer indices are 0-based with layer 0 the visible layer. One iteration is
a sweep 1, 2, ..., L-1, L-2, ..., 0 (2L-2 layer updates), ending on the
visible layer so the read-out is current after every iteration.

A state's layers are plain float64 ndarrays, and a net's weights are one
Tensor (see tensor), whose blocks are ndarray views (WeightBundle). A
layer update makes a fresh array and a new NetState, and writes none of
its inputs.

A layer's preactivation is the sum of its terms: the up map of the layer
below, the down map of the layer above, the bias, and on the visible layer
any external-bias evidence. A layer update is one activation op over that
list, summed into one buffer and activated in place.

A pair term only changes when its source layer does, and a layer reads
only its two neighbors, so sweep_order fixes which terms an update can
reuse. settle and the unrolled TD(1) step sweep through one runner per
shard, _ShardRun, which holds one term per layer. The upward update of an
interior layer l maps x[l-1] afresh and reads the down term its last
downward update mapped, as x[l+1] has not changed since; it holds its up
term, which its downward update reads while mapping x[l+1] afresh, and
that down term is held for the next sweep. The top and visible layers map
their one term. The first sweep maps the down terms from the start state
instead, and skips the maps of a source layer still at an all-zero start,
which add exactly zero. From the first sweep of a run from zero hidden
layers that is 2L-2 maps per sweep instead of 4L-6: 6 instead of 10 on a
4-layer net. sweep() and update_layer without terms map every term afresh.

settle and the unrolled TD(1) step run their sweeps through one lockstep
runner, _Lockstep. A batched run of a conv net splits its batch into
min(_workers, batch) contiguous row shards, each with its own state rows,
evidence rows and _ShardRun: a layer update reads only its own item's
units, so a shard settles exactly as its rows of the whole batch do. Shard
0 sweeps on the calling thread and the others on a persistent thread pool,
and _Lockstep joins after every sweep, so the caller decides convergence
and t_star for the whole batch, as one unsharded run would (lockstep).
_workers is CBAN_NUM_THREADS, by default the number of usable cores; the
package pins BLAS to one thread (see cban), so each shard's GEMMs run on
its own core. Flat nets, unbatched states and batches of one sweep
unsharded on the calling thread.

An activation kind is one class, Tanh or LeakySigmoid, that states its
maths once. Called on an array or a list of terms, it sums them into one
fresh buffer (tensor._summed), checked finite, and activates that buffer
in place. inverse and barrier compute on values already in their domain
and do not check it; slope reads the activation's slope off an output,
into a fresh buffer. A bounded kind's outputs lie in (-1, 1), so its
inverse needs |x| < 1 and its barrier |x| <= 1: the public
inverse_activation and barrier, which energy() calls, check that first.
The TD(1) losses (training._loss) clip a bounded kind's values inside
and call the kind.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    ConvKernel,
    DomainError,
    Tensor,
    _check_finite,
    _conv_weight_grad_np,
    _first_bad_index,
    _pool2_np,
    _summed,
    avg_pool2,
    avg_pool2_adjoint,
    conv2d_half,
    matmul,
    reverse_kernel,
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
    "update_layer",
    "sweep",
    "energy",
    "settle",
    "norm_1inf",
]


def _xlogx(t):
    """t ln t, with 0 ln 0 := 0."""
    return t * np.log(np.where(t > 0.0, t, 1.0))


@dataclass(frozen=True)
class Tanh:
    """Hyperbolic tangent activation; bounded, its outputs lie in (-1, 1)."""

    bounded = True

    def __call__(self, z):
        y = _summed(z)
        np.tanh(y, out=y)
        return y

    def inverse(self, x):
        return np.arctanh(x)

    def barrier(self, x):
        """0.5*(1+x)ln(1+x) + 0.5*(1-x)ln(1-x) on [-1, 1]."""
        return 0.5 * _xlogx(1.0 + x) + 0.5 * _xlogx(1.0 - x)

    def slope(self, y):
        """1 - y^2 in one buffer and with no numpy call: -(y*y) + 1 has the
        bits of 1 - y*y."""
        s = y * y
        s *= -1.0
        s += 1.0
        return s


@dataclass(frozen=True)
class LeakySigmoid:
    """Identity on [-1, 1] with slope alpha outside; alpha strictly in (0, 1)."""

    alpha: float
    bounded = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")

    def __call__(self, z):
        y = _summed(z)
        hi, lo = y > 1.0, y < -1.0
        y[hi] = self.alpha * (y[hi] - 1.0) + 1.0
        y[lo] = self.alpha * (y[lo] + 1.0) - 1.0
        return y

    def inverse(self, x):
        a = self.alpha
        return np.where(x > 1.0, (x - 1.0) / a + 1.0, np.where(x < -1.0, (x + 1.0) / a - 1.0, x))

    def barrier(self, x):
        """x^2/2 inside [-1, 1] and a steeper quadratic outside, checked
        finite: x * x overflows once |x| passes 1e154, long before x does."""
        a = self.alpha
        hi = (x * x + (1.0 - a) * (1.0 - 2.0 * x)) / (2.0 * a)
        lo = (x * x + (1.0 - a) * (1.0 + 2.0 * x)) / (2.0 * a)
        return _check_finite(np.where(x > 1.0, hi, np.where(x < -1.0, lo, 0.5 * x * x)))

    def slope(self, y):
        """alpha where |y| > 1, else 1."""
        return np.where(np.abs(y) > 1.0, self.alpha, 1.0)


Activation = Tanh | LeakySigmoid


def activation(kind, z):
    """Elementwise activation of an array, or of the sum of a list of
    arrays, as one op over one buffer; returns a fresh array. A sum that is
    not finite raises ValueError naming its index."""
    return kind(z)


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


def fc_layer(units: int, visible: bool = False, pool_before: bool = False):
    """An fc layer; config files may carry pool_before, which ArchSpec refuses when true."""
    if units < 1:
        raise ValueError("fc layer needs at least one unit")
    return LayerSpec(kind="fc", units=units, pool_before=pool_before, visible=visible)


def conv_layer(channels: int, height: int, width: int, pool_before: bool = False,
               visible: bool = False):
    if min(channels, height, width) < 1:
        raise ValueError("conv layer extents must be >= 1")
    return LayerSpec(kind="conv", channels=channels, height=height, width=width,
                     pool_before=pool_before, visible=visible)


_EVIDENCE_MODES = ("clamp", "external_bias")


@dataclass(frozen=True)
class ArchSpec:
    """Layer stack plus activation kind, kernel sizes and evidence rule.

    Every pair of adjacent layers is connected symmetrically: the downward
    map is the exact adjoint of the upward one, so no layer update raises
    the energy. kernel_sizes gives the (odd) convolution extent per
    adjacent layer pair; fc pairs carry 0. evidence says how observed
    values enter the visible layer: "clamp" overwrites the observed units
    after every visible update; "external_bias" adds the observations to
    the visible preactivation and leaves every unit free, which adds
    -<values, x_visible> to the energy.
    """

    layers: tuple[LayerSpec, ...]
    activation: Activation = field(default_factory=Tanh)
    kernel_sizes: tuple[int, ...] = ()
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
    """The shape of each parameter block, in the order WeightBundle.flat
    holds them.

    One forward block per adjacent pair, then one bias per layer. A matrix
    maps (lower units, upper units); a kernel is (upper channels, lower
    channels, k, k).
    """
    pairs = zip(arch.layers[:-1], arch.layers[1:], arch.kernel_sizes)
    return [(lo.units, hi.units) if lo.kind == "fc" else (hi.channels, lo.channels, k, k)
            for lo, hi, k in pairs] + [spec.shape[:1] for spec in arch.layers]


def fban(visible_units, hidden_units, activation_kind=None):
    """Fully connected bipartite attractor net: visible + stack of hidden sizes."""
    layers = [fc_layer(visible_units, visible=True)]
    layers += [fc_layer(int(h)) for h in hidden_units]
    return ArchSpec(layers=tuple(layers), activation=activation_kind or Tanh())


class WeightBundle:
    """A net's weights: one float64 Tensor, flat, holding the blocks of
    block_shapes in order, L-1 forward blocks then L biases for L layers.

    WeightBundle(flat, shapes) holds flat as blocks of these shapes, and
    from_blocks copies a list of blocks into a new vector. forward[pair]
    is a view of flat, the matrix mapping (lower units, upper units) or a
    ConvKernel over the kernel, and biases[l] a view, per unit or per
    channel. The downward maps derive their weights from these views and
    are never parameters. params() is [flat], and with_params([flat]) the
    bundle around a replacement vector.
    """

    __slots__ = ("flat", "shapes", "forward", "biases")

    def __init__(self, flat, shapes):
        n_pairs = len(shapes) // 2
        if len(shapes) % 2 == 0 or any(len(s) != 1 for s in shapes[n_pairs:]):
            raise ValueError(f"expected L-1 forward blocks, then L 1-d biases, got {shapes}")
        self.flat, self.shapes = flat, tuple(shapes)
        views = self.blocks(flat.data)
        self.forward = [v if v.ndim == 2 else ConvKernel(v) for v in views[:n_pairs]]
        self.biases = views[n_pairs:]

    @classmethod
    def from_blocks(cls, blocks):
        """The bundle of a list of blocks, copied in order into a new vector."""
        blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        return cls(Tensor(np.concatenate([b.ravel() for b in blocks])), [b.shape for b in blocks])

    def blocks(self, vector):
        """Views of an ndarray of flat's layout, one per block, in order."""
        sizes = [math.prod(s) for s in self.shapes]
        if vector.shape != (sum(sizes),):
            raise ValueError(f"expected a vector of shape ({sum(sizes)},), got {vector.shape}")
        return [vector[end - size:end].reshape(shape)
                for shape, size, end in zip(self.shapes, sizes, itertools.accumulate(sizes))]

    def params(self):
        """The trainable Tensors: the one parameter vector, in a list."""
        return [self.flat]

    def with_params(self, tensors):
        """The bundle around a replacement parameter vector, [flat]."""
        (flat,) = tensors
        return WeightBundle(flat if isinstance(flat, Tensor) else Tensor(flat), self.shapes)


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
    """One plain float64 ndarray per layer plus the visible-layer evidence."""

    activations: list
    evidence: EvidenceConstraint | None = None

    def batched(self, arch):
        return self.activations[0].ndim > len(arch.layers[0].shape)


@dataclass
class SettleReport:
    """Settling summary: iterations, convergence, traces."""

    t_star: int
    converged: bool
    energy_trace: np.ndarray
    max_delta_trace: np.ndarray


def _check_evidence_range(evidence, kind):
    if evidence is None:
        return
    if kind.bounded:
        vals = evidence.values[evidence.mask]
        if vals.size and np.max(np.abs(vals)) >= 1.0:
            raise ValueError("tanh evidence values must satisfy |v| < 1")


def initial_state(arch, evidence=None, batch=None):
    """Start state at 0, with observed units at their evidence under clamping."""
    _check_evidence_range(evidence, arch.activation)
    acts = [np.zeros(spec.shape if batch is None else (batch,) + spec.shape)
            for spec in arch.layers]
    if evidence is not None and arch.evidence == "clamp":
        acts[0] = np.where(evidence.mask, evidence.values, acts[0])
    return NetState(activations=acts, evidence=evidence)


def _up_map(x, w, arch, pair):
    """Map layer `pair` activation up into layer pair+1 (pooling included)."""
    block = w.forward[pair]
    if not isinstance(block, ConvKernel):
        return matmul(x, block)
    return conv2d_half(avg_pool2(x) if arch.layers[pair + 1].pool_before else x, block)


def _down_map(x, w, arch, pair):
    """Map layer pair+1 activation down into layer `pair`: the exact adjoint
    of _up_map, pooling's transpose included. Its weights are a strided view
    of the forward ones, the matrix's transpose or the reversed kernel, so
    deriving them copies nothing."""
    block = w.forward[pair]
    if not isinstance(block, ConvKernel):
        return matmul(x, block.T)
    y = conv2d_half(x, reverse_kernel(block))
    return avg_pool2_adjoint(y) if arch.layers[pair + 1].pool_before else y


def _up_weight_grad(lower, upper, w, arch, pair):
    """The gradient of <upper, _up_map(lower)> with respect to the pair's
    forward block, for batched lower and upper: lower.T @ upper for a
    matrix, and for a kernel the conv's weight gradient at the lower side,
    pooled first on a pooled pair. As _down_map is _up_map's adjoint, it is
    also the gradient of <lower, _down_map(upper)>."""
    block = w.forward[pair]
    if not isinstance(block, ConvKernel):
        return lower.T @ upper
    if arch.layers[pair + 1].pool_before:
        lower = _pool2_np(lower)
    return _conv_weight_grad_np(lower, upper, *block.shape[2:])


def _bias_term(b, spec):
    return b if spec.kind == "fc" else b.reshape(spec.channels, 1, 1)


def _layer_terms(state, w, arch, l, terms=None):
    """The terms of layer l's preactivation, in the order they are summed.

    The neighbor contributions come first, the one from below before the
    one from above; end layers have one, interior layers two. fc pairs use
    the weight matrix and its transpose; conv pairs use the forward kernel
    upward and its reversed kernel downward. terms, if given, are the
    neighbor contributions already in hand, in that order, with any that
    adds exactly zero left out; if they are all left out, the bias is
    broadcast to the layer's shape. The layer bias follows, and under
    external-bias evidence the visible layer also receives the state's
    evidence values; a state without evidence receives none.
    """
    if not 0 <= l < arch.n_layers:
        raise IndexError(f"layer index {l} out of range for {arch.n_layers} layers")
    if terms is None:
        x = state.activations
        terms = [_up_map(x[l - 1], w, arch, l - 1)] if l else []
        if l < arch.n_layers - 1:
            terms.append(_down_map(x[l + 1], w, arch, l))
    bias = _bias_term(w.biases[l], arch.layers[l])
    out = [*terms, bias if terms else np.broadcast_to(bias, state.activations[l].shape)]
    ev = state.evidence
    if l == 0 and ev is not None and arch.evidence == "external_bias":
        out.append(ev.values)
    return out


def update_layer(state, w, arch, l, terms=None):
    """Activate layer l from its preactivation, then re-clamp any evidence.

    The preactivation's terms are summed and activated as one op. terms
    are the neighbor contributions already in hand (see _layer_terms);
    without them every one is mapped from the state.
    """
    x = activation(arch.activation, _layer_terms(state, w, arch, l, terms))
    ev = state.evidence
    if l == 0 and ev is not None and arch.evidence == "clamp":
        x = np.where(ev.mask, ev.values, x)
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


def inverse_activation(kind, x):
    """Inverse of the activation on an ndarray. A bounded kind demands
    |x| < 1 strictly: a value outside raises DomainError naming its index."""
    x = np.asarray(x, dtype=np.float64)
    if kind.bounded:
        ok = np.abs(x) < 1.0
        if not ok.all():
            raise DomainError(
                f"atanh domain violation (|x| >= 1) at index {_first_bad_index(ok)}")
    return kind.inverse(x)


def barrier(kind, x):
    """Integral of the inverse activation from 0 to x, on an ndarray.

    A bounded kind's barrier is defined on [-1, 1]: a value with |x| > 1
    raises DomainError naming its index. The leaky sigmoid's is checked for
    overflow (LeakySigmoid.barrier). The derivative is exactly the inverse
    activation, which is what makes layer updates minimize the energy.
    """
    x = np.asarray(x, dtype=np.float64)
    if kind.bounded:
        ok = np.abs(x) <= 1.0
        if not ok.all():
            raise DomainError(
                f"barrier domain violation (|x| > 1) at index {_first_bad_index(ok)}")
    return kind.barrier(x)


def energy(state, w, arch):
    """Network energy: cross-layer coupling plus barrier and bias terms.

    E = -sum_pairs <x_upper, up(x_lower)> + sum_layers sum_units
    (barrier(x) - b * x), with each cross-layer product counted once, and
    under external-bias evidence also -<values, x_visible>, so that every
    layer update minimizes E over its layer. Clamped units are held fixed
    instead and add no term. Returns a scalar for an unbatched state, one
    energy per item for a batched state.
    """
    batched = state.batched(arch)
    acts = state.activations

    def summed(a):
        return a.sum(axis=tuple(range(1, a.ndim)) if batched else None)

    total = 0.0
    for pair in range(arch.n_layers - 1):
        total = total - summed(acts[pair + 1] * _up_map(acts[pair], w, arch, pair))
    for l, spec in enumerate(arch.layers):
        rho = barrier(arch.activation, acts[l])
        total = total + summed(rho - _bias_term(w.biases[l], spec) * acts[l])
    if state.evidence is not None and arch.evidence == "external_bias":
        total = total - summed(state.evidence.values * acts[0])
    return total if batched else float(total)


def _max_delta(prev, new, batched):
    """Largest absolute activation change, per item when batched."""
    per = None
    for p, n in zip(prev, new):
        d = np.subtract(n, p)
        np.abs(d, out=d)
        d = d.max() if not batched else d.reshape(d.shape[0], -1).max(axis=1)
        per = d if per is None else np.maximum(per, d)
    return per if batched else float(per)


def _workers_setting():
    """CBAN_NUM_THREADS as a count of batch shards; by default the number of
    cores this process may run on."""
    value = os.environ.get("CBAN_NUM_THREADS", "").strip()
    if not value:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not value.isdigit() or int(value) < 1:
        raise ValueError(f"CBAN_NUM_THREADS must be a positive integer, got {value!r}")
    return int(value)


# the most row shards a batched run of a conv net is split into
_workers = _workers_setting()
# the threads of shards 1, 2, ...: one single-thread executor per shard
# index, made when a run first needs it and kept for the next runs
_pool = []


def _shard_pool(shards):
    """The executors of shards 1 to shards-1, in order: shard i always
    sweeps on the same thread, which keeps its buffers in one allocator
    arena from sweep to sweep."""
    while len(_pool) < shards - 1:
        _pool.append(concurrent.futures.ThreadPoolExecutor(
            1, thread_name_prefix=f"cban-shard-{len(_pool) + 1}"))
    return _pool[:shards - 1]


def _forget_pool():
    global _pool
    _pool = []


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads: it makes its own
    os.register_at_fork(after_in_child=_forget_pool)


def _joined(results):
    """Per-shard results joined in row order: arrays are concatenated,
    tuples joined entry by entry."""
    if isinstance(results[0], tuple):
        return tuple(map(_joined, zip(*results)))
    return np.concatenate(results)


class _Lockstep:
    """The lockstep runner of settle's and td1_forward's sweeps: one run's
    shards, stepped together.

    make(rows, state) makes the runner of one shard, where rows is a slice
    of the batch, or None for the whole batch, and state is the shard's
    start state. A runner keeps its current state as `state` and replaces it
    only once a sweep is done. A batched run of a conv net is split into
    min(_workers, batch) contiguous row shards, whose start states are views
    of the caller's rows with their evidence rows; any other run is one
    shard, made from the caller's state itself and run on the calling
    thread alone.
    """

    def __init__(self, arch, state, make):
        self.make = make
        self.evidence = ev = state.evidence
        acts = state.activations
        k = 1
        if arch.layers[0].kind == "conv" and state.batched(arch):
            n = acts[0].shape[0]
            k = min(_workers, n)
        if k < 2:
            self.shards = [make(None, state)]
        else:
            self.shards = []
            for i in range(k):
                rows = slice(n * i // k, n * (i + 1) // k)
                rows_ev = (None if ev is None
                           else EvidenceConstraint(ev.mask[rows], ev.values[rows]))
                self.shards.append(make(rows, NetState([a[rows] for a in acts], rows_ev)))
        self.first, self.rest = self.shards[0], self.shards[1:]

    def run(self, fn, merge=_joined):
        """fn(runner) for every shard; shard 0 runs on this thread, the others
        on the pool, and all of them end before this returns or raises.

        Returns fn's result for a single shard, else merge(the results in
        row order). If a shard raises, the step fails as the unsharded run
        does: a ValueError is replayed by fn on one runner of the whole
        batch, made from the shards' current states, which raises the
        error the first failing op of the whole batch raises. The shards'
        values are the whole batch's, so the same op fails on the same
        item, named by its index in the batch.
        """
        if not self.rest:
            return fn(self.first)
        # each shard runs in a copy of this thread's context, so numpy's
        # errstate holds on every shard as it does here
        futures = [thread.submit(contextvars.copy_context().run, fn, shard)
                   for thread, shard in zip(_shard_pool(len(self.shards)), self.rest)]
        try:
            results, error = [fn(self.first)], None
        except Exception as e:  # raised below, once every shard has ended
            results, error = None, e
        concurrent.futures.wait(futures)
        for future in futures:
            error = error or future.exception()
        if error is None:
            return merge(results + [future.result() for future in futures])
        if isinstance(error, ValueError):
            fn(self.make(None, self.state()))
        raise error

    def state(self):
        """The run's current state: its one shard's, or the shards' rows
        joined in order."""
        if not self.rest:
            return self.first.state
        layers = zip(*(shard.state.activations for shard in self.shards))
        return NetState([np.concatenate(a) for a in layers], self.evidence)


class _ShardRun:
    """One shard's sweeps: its state, and one held pair term per layer.

    held[l] is the term layer l's next update reads instead of mapping it
    (see _update), or None; zero marks the layers still at an all-zero
    start. A sweep runs the upward half 1..L-1, then the hook
    after_up(state), then the downward half L-2..0, and after every update
    the hook updated(l, state, reads). Both hooks do nothing here;
    td1_forward's runner computes v~ and the loss in the first and records
    each update in the second.
    """

    def __init__(self, state, w, arch):
        self.state, self.w, self.arch = state, w, arch
        self.batched = state.batched(arch)
        n = arch.n_layers
        order = sweep_order(n)
        self.up, self.down = order[:n - 1], order[n - 1:]
        self.top = n - 1
        # the layers still at an all-zero start: maps from them are skipped
        self.zero = [not x.any() for x in state.activations]
        self.held = [None] * n

    def term(self, state, reader, source):
        """The map of layer source into layer reader, or None while source
        is at an all-zero start."""
        if self.zero[source]:
            return None
        x = state.activations[source]
        if source < reader:
            return _up_map(x, self.w, self.arch, source)
        return _down_map(x, self.w, self.arch, reader)

    def visible_term(self, state):
        """The visible layer's down term, mapped after the upward half. On a
        2-layer net x[1] is the top, which the downward half leaves as it
        is, so the visible update reads this term too."""
        term = self.term(state, 0, 1)
        if self.top == 1:
            self.held[0] = term
        return term

    def _update(self, state, l, upward):
        """Layer l's update in the upward or the downward half of a sweep.

        The neighbor the sweep has changed since l's last update is mapped
        afresh: the one below on the way up, the one above on the way down.
        An interior layer's other neighbor is as l's last update found it,
        so l reads the term it held from then instead; the first sweep's
        upward updates hold none yet and map that down term from the start
        state. An interior layer then holds the term it mapped, for its
        next update. The visible layer reads a term visible_term held
        instead of mapping it. reads lists, per term read, (source layer,
        whether it was mapped for this update).
        """
        held = self.held
        kept, held[l] = held[l], None
        reused = None if kept is None else l + 1 if upward or not l else l - 1
        below = kept if reused == l - 1 else self.term(state, l, l - 1) if l else None
        above = kept if reused == l + 1 else self.term(state, l, l + 1) if l < self.top else None
        state = update_layer(state, self.w, self.arch, l,
                             [t for t in (below, above) if t is not None])
        self.zero[l] = False
        if 0 < l < self.top:
            held[l] = below if upward else above
        self.updated(l, state, [(s, s != reused) for s, t in ((l - 1, below), (l + 1, above))
                                if t is not None])
        return state

    def after_up(self, state):
        pass

    def updated(self, l, state, reads):
        pass

    def sweep(self):
        """One sweep; returns the largest activation change, per item when
        batched."""
        state = self.state
        for l in self.up:
            state = self._update(state, l, True)
        self.after_up(state)
        for l in self.down:
            state = self._update(state, l, False)
        prev, self.state = self.state.activations, state
        return _max_delta(prev, state.activations, self.batched)


def settle(state, w, arch, theta=0.01, max_iters=100, record_energy=True):
    """Sweep until the largest activation change in one iteration is < theta.

    Returns the settled state and a report with the stability iteration
    t_star and per-iteration energy and delta traces. Every layer update
    minimizes the energy over its layer, so a run that stops at max_iters
    without converging has still lowered or kept its energy at every sweep.
    The sweeps are those of sweep(), run by one _ShardRun per shard, which
    holds one pair term per layer between updates, as sweep_order fixes:
    each up or down map is computed once per change of its source layer
    and skipped while that layer is at an all-zero start, so 2L-2 maps per
    sweep from the first sweep of a run from zero hidden layers, and each
    term is dropped right after its last read. A batched state of a conv
    net is swept on row shards in lockstep (see _Lockstep), each shard's
    energy evaluated on its own rows; every number, t_star and the traces
    are those of the unsharded run, byte for byte, and so is the error of
    a state that diverges.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    run = _Lockstep(arch, state, lambda rows, s: _ShardRun(s, w, arch))
    state = None  # the runners hold the start state until their first sweep ends
    energies, deltas = [], []
    for t in range(1, max_iters + 1):
        try:
            d = run.run(_ShardRun.sweep)
        except ValueError as e:
            raise ValueError(f"state diverged during iteration {t}: {e}") from e
        deltas.append(d)
        if record_energy:
            energies.append(run.run(lambda shard: energy(shard.state, w, arch)))
        if float(np.max(d)) < theta:
            break
    return run.state(), SettleReport(t_star=t, converged=float(np.max(d)) < theta,
                                     energy_trace=np.asarray(energies),
                                     max_delta_trace=np.asarray(deltas))


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
    for pair, block in enumerate(w.blocks(w.flat.data)[:len(w.forward)]):
        a = np.abs(block)
        # a matrix is (lower, upper) units, a kernel (upper, lower, k, k) channels
        lower, upper = ((0,), (1,)) if a.ndim == 2 else ((1, 2, 3), (0, 2, 3))
        per_layer_in[pair + 1] = per_layer_in[pair + 1] + a.sum(axis=lower)
        per_layer_in[pair] = per_layer_in[pair] + a.sum(axis=upper)
    return float(max(np.max(v) for v in per_layer_in))
