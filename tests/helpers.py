"""Shared test utilities: the central finite-difference gradient oracle,
the per-op tape reference of the TD(1) step, the bar draw's loop
reference, memory tracing and C-call counting."""

import functools
import operator
import sys
import tracemalloc

import numpy as np

from cban.data import Example
from cban.dynamics import (
    _layer_terms,
    _max_delta,
    barrier,
    initial_state,
    sweep_order,
    update_layer,
)
from cban.tensor import GradTape, Tensor, _from_op, tensor_sum
from cban.training import _batch_evidence, _loss, unclamped_visible


def finite_difference(f, x, step=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return g


def relative_error(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / denom


def tape_gradients(build, inputs):
    """Run `build(*inputs)` under a fresh tape; return (value, grads)."""
    with GradTape() as tape:
        out = build(*inputs)
    return out, tape.gradient(out, list(inputs))


def layer_preactivation(state, w, arch, l, terms=None):
    """Total input to layer l: neighbor contributions plus the layer bias,
    and external-bias evidence on the visible layer (see _layer_terms)."""
    return functools.reduce(operator.add, _layer_terms(state, w, arch, l, terms))


def loss_per_item(loss_kind, act_kind, v_tilde, y):
    """training._loss between tensors v~ and y, recorded as one tape op
    that differentiates v~ only: y is the constant target."""
    if v_tilde.shape != y.shape:
        raise ValueError(f"shape mismatch: {v_tilde.shape} vs {y.shape}")
    barrier_y = None if loss_kind == "se" else barrier(act_kind, y.data)
    value, vjp = _loss(loss_kind, act_kind, v_tilde.data, y.data, barrier_y)
    return _from_op(value, (v_tilde,), lambda g: (vjp(g),))


def td1_reference(examples, w, arch, cfg):
    """td1_forward's loop on the per-op tape: cache-less update_layer and
    unclamped_visible, loss_per_item, and the loss bookkeeping as tape ops.

    Returns (loss, per-sweep deltas of shape (sweeps, items)). Under an
    active GradTape every op is recorded, so the tape's gradient of the
    loss is the reference for td1_forward's reverse sweep.
    """
    n = len(examples)
    targets, evidence = _batch_evidence(examples, arch)
    y = Tensor(targets)
    state = initial_state(arch, evidence, batch=n)
    order = sweep_order(arch.n_layers)
    up, down = order[:arch.n_layers - 1], order[arch.n_layers - 1:]
    total = None
    active = np.ones(n, dtype=bool)
    deltas = []
    for _ in range(cfg.max_iters):
        prev = state.activations
        for l in up:
            state = update_layer(state, w, arch, l)
        loss_vec = loss_per_item(cfg.loss, arch.activation,
                                 unclamped_visible(state, w, arch), y)
        contrib = tensor_sum(loss_vec * active.astype(float))
        total = contrib if total is None else total + contrib
        for l in down:
            state = update_layer(state, w, arch, l)
        delta = _max_delta(prev, state.activations, batched=True)
        deltas.append(delta)
        active &= ~(delta < cfg.theta)
        if not active.any():
            break
    return total * (1.0 / n), np.stack(deltas)


def traced_bytes(fn):
    """Call fn() under tracemalloc; return (its result, bytes kept, peak bytes).

    Both counts are relative to the start of the call and cover only blocks
    allocated during it: "kept" is what is still allocated when fn returns,
    the peak the most that was at any one time.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
        return out, current - base, peak - base
    finally:
        tracemalloc.stop()


def bar_consistency_count_reference(values, mask, patterns):
    """The earlier data.bar_consistency_count: the observed columns of the
    (n, 25) pattern matrix against the observed evidence, per row."""
    patterns = np.asarray(patterns)
    stack = patterns.reshape(len(patterns), -1)
    observed = np.asarray(mask, dtype=bool).reshape(-1)
    evidence = np.asarray(values).reshape(-1)[observed]
    return int((stack[:, observed] == evidence).all(axis=1).sum())


def gen_bar_evidence_reference(pattern, rng, patterns, max_tries=100000):
    """The earlier data.gen_bar_evidence, on the reference count: the
    random stream it reads is the one the library's draw must keep."""
    for _ in range(max_tries):
        k = int(rng.integers(1, 25))
        idx = rng.choice(25, size=k, replace=False)
        mask = np.zeros(25, dtype=bool)
        mask[idx] = True
        mask = mask.reshape(5, 5)
        if bar_consistency_count_reference(pattern, mask, patterns) == 1:
            return Example(target=pattern, mask=mask)
    raise RuntimeError("no uniquely-consistent evidence found")


def cban_c_calls(fn):
    """Call fn(); return (its result, the C-level calls made directly from
    code in the cban package while it ran).

    A call counts when sys.setprofile reports a "c_call" event whose frame
    belongs to a module named cban or cban.*: builtins, numpy's C functions
    such as np.asarray and np.empty, and array methods, called from cban's
    own lines. Calls made inside numpy's Python wrappers are not counted,
    so the count does not move with the numpy version's wrapper internals.
    The profiler reports no event for ufunc calls or arithmetic operators,
    so those are not counted either.
    """
    count = [0]

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_globals.get("__name__", "").startswith("cban"):
            count[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(previous)
    return out, count[0]
