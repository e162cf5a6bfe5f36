"""Shared test utilities: the central finite-difference gradient oracle."""

import tracemalloc

import numpy as np

from cban.tensor import GradTape


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
