"""Shared test utilities: the central finite-difference gradient oracle,
the cache-less reference of the TD(1) step and the frozen gradients of the
per-op tape it once ran on, the bar draw's loop reference, an IDX writer,
memory tracing, and C-call, numpy-call and Tensor counting."""

import functools
import json
import operator
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np

import cban.dynamics
from cban.data import _IDX_IMAGE_TYPE, Example
from cban.dynamics import (
    _layer_terms,
    _max_delta,
    barrier,
    block_shapes,
    initial_state,
    sweep_order,
    update_layer,
)
from cban.tensor import Tensor
from cban.training import _batch_evidence, _loss, unclamped_visible

FROZEN_TD1 = Path(__file__).with_name("td1_frozen_gradients.npz")


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


def layer_preactivation(state, w, arch, l, terms=None):
    """Total input to layer l: neighbor contributions plus the layer bias,
    and external-bias evidence on the visible layer (see _layer_terms)."""
    return functools.reduce(operator.add, _layer_terms(state, w, arch, l, terms))


def loss_per_item(loss_kind, act_kind, v_tilde, y):
    """training._loss between arrays v~ and y, as an array of per-item
    losses."""
    if v_tilde.shape != y.shape:
        raise ValueError(f"shape mismatch: {v_tilde.shape} vs {y.shape}")
    barrier_y = None if loss_kind == "se" else barrier(act_kind, y)
    return _loss(loss_kind, act_kind, v_tilde, y, barrier_y)[0]


def td1_reference(examples, w, arch, cfg):
    """td1_forward's loop without its held pair terms: update_layer and
    unclamped_visible mapping every term afresh, and _loss's values.

    Returns (loss, per-sweep deltas of shape (sweeps, items)), the
    references for td1_forward's loss and deltas, byte for byte.
    """
    n = len(examples)
    targets, evidence = _batch_evidence(examples, arch)
    barrier_y = None if cfg.loss == "se" else barrier(arch.activation, targets)
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
        v_tilde = unclamped_visible(state, w, arch)
        loss_vec, _ = _loss(cfg.loss, arch.activation, v_tilde, targets, barrier_y)
        contrib = np.sum(loss_vec * active)
        total = contrib if total is None else total + contrib
        for l in down:
            state = update_layer(state, w, arch, l)
        delta = _max_delta(prev, state.activations, batched=True)
        deltas.append(delta)
        active &= ~(delta < cfg.theta)
        if not active.any():
            break
    return total * (1.0 / n), np.stack(deltas)


def gradient_projections(grads, seed, directions):
    """Per block, the inner products of its gradient with `directions`
    standard normal arrays of its shape, drawn from default_rng([seed, block])."""
    out = []
    for block, g in enumerate(grads):
        d = np.random.default_rng([seed, block]).standard_normal((directions, g.size))
        out.append(d @ g.ravel())
    return out


def frozen_td1_gradients(case, arch):
    """The per-op tape's gradient of the TD(1) loss for one test case.

    The file holds, per case, the gradient of helpers.td1_reference as a
    tape with one op per tensor operation took it, recorded at the commit
    its "meta" entry names, with the numpy and BLAS it ran on. An entry
    holds every block in full, or for a large net each block's
    gradient_projections, drawn as "meta" says. Returns (arrays,
    projection): projection is None for full blocks, else the keyword
    arguments of gradient_projections that map a gradient onto arrays.
    Raises LookupError naming the case when it has no entry, and
    ValueError naming it when the entry's block shapes differ from
    block_shapes(arch).
    """
    with np.load(FROZEN_TD1) as frozen:
        meta = json.loads(str(frozen["meta"]))
        entry = meta["cases"].get(case)
        if entry is None:
            raise LookupError(f"no frozen TD(1) gradient for case {case!r} in {FROZEN_TD1.name}")
        arrays = [frozen[f"{case}/{b}"] for b in range(len(entry["shapes"]))]
    projection = meta["projection"] if entry["kind"] == "projections" else None
    shapes = [tuple(s) for s in entry["shapes"]] if projection else [a.shape for a in arrays]
    if shapes != [tuple(s) for s in block_shapes(arch)]:
        raise ValueError(f"frozen TD(1) gradient for case {case!r} has block shapes "
                         f"{shapes}, but the net's are {block_shapes(arch)}")
    return arrays, projection


def save_idx(path, array):
    """Write a uint8 array (1-d labels or 3-d images) in IDX format, as
    data.load_idx reads it."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    if arr.ndim not in (1, 3):
        raise ValueError("IDX writer handles 1-d or 3-d uint8 arrays")
    with open(path, "wb") as f:
        f.write(bytes([0, 0, _IDX_IMAGE_TYPE, arr.ndim]))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


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


def _drop_shard_threads():
    """Shut down the batch-shard threads; the next sharded run starts new ones."""
    for executor in cban.dynamics._pool:
        executor.shutdown()
    cban.dynamics._pool.clear()


def tensors_made(fn):
    """Call fn(); return (its result, the Tensors made while it ran, in this
    thread and in the batch-shard threads).

    A Tensor is made through Tensor.__init__, which checks its data, or by
    a direct call of Tensor.__new__ (object.__new__), which skips it. A
    profile hook counts the calls of __init__, and the calls of
    object.__new__ made from code in the cban package. Patching
    Tensor.__new__ would not do: CPython keeps the patched constructor
    slot once the patch is undone, and the class then refuses its data.
    A thread takes the hook only when it starts, so the shard threads are
    shut down before the call and after it, and the ones it starts run
    with the hook.
    """
    made = []  # one entry per Tensor; list.append is atomic across threads
    init = Tensor.__init__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is init:
            made.append(None)
        elif (event == "c_call" and arg is object.__new__
              and frame.f_globals.get("__name__", "").startswith("cban")):
            made.append(None)

    previous, previous_threads = sys.getprofile(), threading.getprofile()
    _drop_shard_threads()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
        _drop_shard_threads()
    return out, len(made)


class _CountingNumpy:
    """numpy as a module sees it through the name `np`, with each call of a
    function or ufunc it hands out counted. Classes (np.ndarray, np.float64)
    and values (np.inf) pass through unwrapped, so isinstance checks and
    constants behave as they do on numpy itself."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def numpy_calls(fn, modules):
    """Call fn() with each module's name `np` bound to a counting stand-in;
    return (its result, the numpy calls made through those names).

    Unlike cban_c_calls this sees ufuncs (np.add, np.where, np.tanh) called
    by name. It does not see array methods or arithmetic operators on
    arrays, nor calls made inside numpy itself.
    """
    counting = _CountingNumpy()
    saved = [module.np for module in modules]
    for module in modules:
        module.np = counting
    try:
        out = fn()
    finally:
        for module, real in zip(modules, saved):
            module.np = real
    return out, counting.calls
