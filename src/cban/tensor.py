"""Dense float64 tensors with a reverse-mode gradient tape.

Everything the settling dynamics and the unrolled training loop need lives
here: elementwise arithmetic, matrix products, the half-padded convolution
and its index-reversed counterpart, 2x2 average pooling and its exact
transpose, and a GradTape that differentiates any scalar built from these
operations with respect to any tensor that fed it.

Convolution (forward, input gradient, weight gradient) is one matrix
product per map plus kh*kw shifted copies or adds. The shift is applied to
whichever side of the map has fewer channels: im2col of the input when the
map has more output than input channels, otherwise the product first and a
shift-add of its kh*kw output blocks. For q output and r input channels,
the expanded buffer (the im2col, or the product's kh*kw blocks) holds
kh*kw*min(q, r)*N*H*W floats.

Tensors are immutable values; every operation returns a fresh tensor. A
batch dimension, when present, is leading and optional: feature maps are
(channels, height, width) or (batch, channels, height, width), flat layers
are (units,) or (batch, units). Construction rejects NaN/Inf outright so a
numerical blow-up surfaces at the operation that produced it.

The tape keeps only what its backward reads. A recorded tensor points at a
small graph node (its parents' nodes and its vjp), not at the tensors that
made it, and each vjp closes over the arrays it reads and nothing else: add,
sub and where keep operand shapes, not operands. An intermediate that no
vjp reads is therefore freed as soon as the caller drops it. The backward
frees each cotangent and vjp once it has run, so a tape's gradient can be
taken once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "Tensor",
    "ConvKernel",
    "GradTape",
    "matmul",
    "transpose",
    "reshape",
    "tensor_sum",
    "tanh",
    "atanh",
    "leaky_sigmoid",
    "leaky_sigmoid_inverse",
    "barrier_tanh",
    "barrier_leaky",
    "softplus",
    "clip",
    "where",
    "conv2d_half",
    "reverse_kernel",
    "avg_pool2",
    "avg_pool2_adjoint",
]


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


_ACTIVE_TAPE = None


def _first_bad_index(arr, good):
    return tuple(int(i) for i in np.argwhere(~good)[0])


class Tensor:
    """Immutable dense float64 array, optionally recorded on a GradTape."""

    __slots__ = ("data", "_node")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("tensors must have at least one element")
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(
                f"non-finite value at index {_first_bad_index(arr, finite)} "
                f"in tensor of shape {arr.shape}"
            )
        self.data = arr
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def __add__(self, other):
        return _binary_elementwise(self, other, np.add, _add_vjp)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary_elementwise(self, other, np.subtract, _sub_vjp)

    def __rsub__(self, other):
        return _binary_elementwise(self, other, np.subtract, _sub_vjp, swap=True)

    def __mul__(self, other):
        return _binary_elementwise(self, other, np.multiply, _mul_vjp)

    __rmul__ = __mul__

    def __neg__(self):
        return _from_op(-self.data, (self,), lambda g: (-g,))

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    """One tensor's place in a tape's graph: its parents' nodes and its vjp.

    A leaf (a tensor made off the tape) gets a node with no parents, no vjp
    and no tape the first time an op on the tape uses it; the tape holds
    that node, and a leaf node holding the tape back would make a cycle
    that only the garbage collector frees.
    """

    __slots__ = ("parents", "vjp", "tape")

    def __init__(self, parents, vjp, tape):
        self.parents = parents
        self.vjp = vjp
        self.tape = tape


def _from_op(data, parents, vjp):
    out = Tensor(data)
    tape = _ACTIVE_TAPE
    if tape is not None:
        out._node = _Node(tuple(tape._node_of(p) for p in parents), vjp, tape)
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _add_vjp(a, b):
    sa, sb = a.shape, b.shape
    return lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb))


def _sub_vjp(a, b):
    sa, sb = a.shape, b.shape
    return lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb))


def _mul_vjp(a, b):
    return lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


def _binary_elementwise(a, b, fwd, make_vjp, swap=False):
    at = _as_tensor(a)
    bt = _as_tensor(b)
    if swap:
        at, bt = bt, at
    data = fwd(at.data, bt.data)
    return _from_op(data, (at, bt), make_vjp(at.data, bt.data))


def matmul(a, b):
    """a @ b with a of shape (n,) or (batch, n) and b a 2-d matrix."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if b.ndim != 2:
        raise ValueError(f"matmul expects a 2-d right operand, got {b.shape}")
    if a.ndim not in (1, 2):
        raise ValueError(f"matmul expects a 1-d or 2-d left operand, got {a.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        ga = g @ bd.T
        gb = np.outer(ad, g) if ad.ndim == 1 else ad.T @ g
        return ga, gb

    return _from_op(data, (a, b), vjp)


def transpose(a):
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"transpose expects a 2-d tensor, got {a.shape}")
    return _from_op(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.shape
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def tensor_sum(a, axis=None):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)
    in_shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _from_op(data, (a,), vjp)


def tanh(a):
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _from_op(y, (a,), lambda g: (g * (1.0 - y * y),))


def atanh(a):
    """Inverse tanh; strict domain |x| < 1, error names the offending index."""
    a = _as_tensor(a)
    ok = np.abs(a.data) < 1.0
    if not ok.all():
        raise DomainError(
            f"atanh domain violation (|x| >= 1) at index {_first_bad_index(a.data, ok)}"
        )
    x = a.data
    return _from_op(np.arctanh(x), (a,), lambda g: (g / (1.0 - x * x),))


def _leaky_inverse(x, alpha):
    return np.where(x > 1.0, (x - 1.0) / alpha + 1.0,
                    np.where(x < -1.0, (x + 1.0) / alpha - 1.0, x))


def leaky_sigmoid(a, alpha):
    """Identity on [-1, 1], slope alpha outside, continuous at +/-1."""
    a = _as_tensor(a)
    x = a.data
    slope = np.where(np.abs(x) > 1.0, alpha, 1.0)
    y = np.where(x > 1.0, alpha * (x - 1.0) + 1.0,
                 np.where(x < -1.0, alpha * (x + 1.0) - 1.0, x))
    return _from_op(y, (a,), lambda g: (g * slope,))


def leaky_sigmoid_inverse(a, alpha):
    a = _as_tensor(a)
    x = a.data
    slope = np.where(np.abs(x) > 1.0, 1.0 / alpha, 1.0)
    return _from_op(_leaky_inverse(x, alpha), (a,), lambda g: (g * slope,))


def _xlogx(t):
    out = np.zeros_like(t)
    pos = t > 0.0
    out[pos] = t[pos] * np.log(t[pos])
    return out


def barrier_tanh(a):
    """Integral of atanh from 0 to x; domain |x| <= 1 (endpoints by continuity)."""
    a = _as_tensor(a)
    ok = np.abs(a.data) <= 1.0
    if not ok.all():
        raise DomainError(
            f"barrier domain violation (|x| > 1) at index {_first_bad_index(a.data, ok)}"
        )
    x = a.data
    # 0.5*(1+x)ln(1+x) + 0.5*(1-x)ln(1-x), with 0*ln(0) := 0 at the endpoints
    y = 0.5 * _xlogx(1.0 + x) + 0.5 * _xlogx(1.0 - x)
    return _from_op(y, (a,), lambda g: (g * np.arctanh(x),))


def barrier_leaky(a, alpha):
    """Integral of the leaky-sigmoid inverse from 0 to x; defined on all reals."""
    a = _as_tensor(a)
    x = a.data
    hi = (x * x + (1.0 - alpha) * (1.0 - 2.0 * x)) / (2.0 * alpha)
    lo = (x * x + (1.0 - alpha) * (1.0 + 2.0 * x)) / (2.0 * alpha)
    y = np.where(x > 1.0, hi, np.where(x < -1.0, lo, 0.5 * x * x))
    return _from_op(y, (a,), lambda g: (g * _leaky_inverse(x, alpha),))


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a):
    """log(1 + exp(x)), overflow-safe: returns x directly once x > 30."""
    a = _as_tensor(a)
    x = a.data
    safe = np.minimum(x, 30.0)
    y = np.where(x > 30.0, x, np.log1p(np.exp(safe)))
    return _from_op(y, (a,), lambda g: (g * _sigmoid_np(x),))


def clip(a, lo, hi):
    a = _as_tensor(a)
    x = a.data
    inside = (x > lo) & (x < hi)
    return _from_op(np.clip(x, lo, hi), (a,), lambda g: (g * inside,))


def where(mask, a, b):
    """Elementwise select: mask is a fixed boolean array, not differentiated."""
    mask = np.asarray(mask, dtype=bool)
    a = _as_tensor(a)
    b = _as_tensor(b)
    data = np.where(mask, a.data, b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return (
            _unbroadcast(np.where(mask, g, 0.0), sa),
            _unbroadcast(np.where(mask, 0.0, g), sb),
        )

    return _from_op(data, (a, b), vjp)


class ConvKernel:
    """Convolution weights of shape (out_channels, in_channels, kh, kw).

    Kernel extents must be odd: half padding preserves spatial dimensions
    only for odd kernels.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = weights if isinstance(weights, Tensor) else Tensor(weights)
        if w.ndim != 4:
            raise ValueError(f"kernel must be 4-d (q, r, kh, kw), got {w.shape}")
        if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
            raise ValueError(f"kernel extents must be odd, got {w.shape[2:]}")
        self.weights = w

    @property
    def shape(self):
        return self.weights.shape

    @property
    def out_channels(self):
        return self.weights.shape[0]

    @property
    def in_channels(self):
        return self.weights.shape[1]

    def __repr__(self):
        return f"ConvKernel(shape={self.shape})"


def _flip_kernel_np(w):
    return np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


def reverse_kernel(k):
    """Swap channel axes and reverse both spatial axes; an involution.

    A kernel and its reverse implement transposed linear maps under
    half-padded convolution (see conv2d_half), which is how bidirectional
    symmetric connectivity is realized without storing reverse weights.
    """
    w = k.weights
    out = _from_op(_flip_kernel_np(w.data), (w,), lambda g: (_flip_kernel_np(g),))
    return ConvKernel(out)


def _taps(ka, kb, H, W):
    """Yield (tap, dst, src) for each offset of a half-padded ka x kb kernel.

    Tap t = u * kb + v reads the map at offset (u - (ka-1)/2, v - (kb-1)/2).
    `dst` indexes the positions whose shifted read lands inside the map and
    `src` the positions they read; the reads that fall outside are the zero
    padding, which is never materialized. A tap offset by the map's full
    extent or more reads only padding and is skipped.
    """
    pa, pb = (ka - 1) // 2, (kb - 1) // 2
    for u in range(ka):
        di = u - pa
        if abs(di) >= H:
            continue
        dst_i = slice(max(0, -di), H - max(0, di))
        src_i = slice(max(0, di), H + min(0, di))
        for v in range(kb):
            dj = v - pb
            if abs(dj) >= W:
                continue
            dst_j = slice(max(0, -dj), W - max(0, dj))
            src_j = slice(max(0, dj), W + min(0, dj))
            yield u * kb + v, (..., dst_i, dst_j), (..., src_i, src_j)


def _channels_first(x):
    """(n, c, H, W) -> contiguous (c, n*H*W)."""
    n, c, h, w = x.shape
    return x.transpose(1, 0, 2, 3).reshape(c, n * h * w)


def _im2col(x, ka, kb):
    """(n, c, H, W) -> (ka*kb*c, n*H*W): row (tap, channel) holds the shifted map."""
    n, c, h, w = x.shape
    cols = np.zeros((ka * kb, c, n, h, w))
    xt = x.transpose(1, 0, 2, 3)
    for t, dst, src in _taps(ka, kb, h, w):
        cols[t][dst] = xt[src]
    return cols.reshape(ka * kb * c, n * h * w)


def _conv_half_np(x, w):
    # x: (n, r, H, W), w: (q, r, ka, kb) -> (n, q, H, W), zero padding (k-1)/2.
    # One GEMM; the k^2 shifted copies expand whichever side has fewer channels.
    n, r, h, wd = x.shape
    q, _, ka, kb = w.shape
    if q > r:
        out = w.transpose(0, 2, 3, 1).reshape(q, ka * kb * r) @ _im2col(x, ka, kb)
        return np.ascontiguousarray(out.reshape(q, n, h, wd).transpose(1, 0, 2, 3))
    y = w.transpose(2, 3, 0, 1).reshape(ka * kb * q, r) @ _channels_first(x)
    y = y.reshape(ka * kb, q, n, h, wd).transpose(0, 2, 1, 3, 4)
    out = np.zeros((n, q, h, wd))
    for t, dst, src in _taps(ka, kb, h, wd):
        out[dst] += y[t][src]
    return out


def _conv_weight_grad_np(x, g, ka, kb):
    # d<g, conv(x, w)>/dw, shape (q, r, ka, kb), by the same rule as the forward.
    q, r = g.shape[1], x.shape[1]
    if q > r:
        m = _channels_first(g) @ _im2col(x, ka, kb).T
        return m.reshape(q, ka, kb, r).transpose(0, 3, 1, 2)
    # shifting g by -offset pairs it with x exactly as shifting x by +offset
    # pairs it with g, so the taps of im2col(g) come out in reverse order
    m = _im2col(g, ka, kb) @ _channels_first(x).T
    return m.reshape(ka, kb, q, r)[::-1, ::-1].transpose(2, 3, 0, 1)


def conv2d_half(x, k):
    """Half-padded 2-d convolution preserving spatial dims.

    out[q, i, j] = sum_{r,a,b} k[q, r, a, b] * x_padded[r, i + a, j + b],
    with zero padding of (extent - 1) / 2 on each side. Accepts an optional
    leading batch dimension.

    Forward, input gradient and weight gradient are each one matrix product
    plus kh*kw shifted copies or adds, expanding the side of the map with
    fewer channels: with q output and r input channels, q > r builds the
    im2col of x, (kh*kw*r, N*H*W), and multiplies the (q, kh*kw*r) weights
    into it; q <= r multiplies the (kh*kw*q, r) weights into x first and
    shift-adds the kh*kw output blocks. The expanded buffer therefore holds
    kh*kw*min(q, r)*N*H*W floats. The input gradient is the convolution of
    the output gradient with the reversed kernel, so it follows the same
    rule with the roles of q and r swapped.
    """
    x = _as_tensor(x)
    if x.ndim not in (3, 4):
        raise ValueError(f"conv input must be (c, H, W) or (batch, c, H, W), got {x.shape}")
    batched = x.ndim == 4
    if x.shape[-3] != k.in_channels:
        raise ValueError(
            f"channel mismatch: input has {x.shape[-3]}, kernel expects {k.in_channels}"
        )
    w = k.weights
    xd = x.data if batched else x.data[None]
    wd = w.data
    out = _conv_half_np(xd, wd)

    def vjp(g):
        gb = g if batched else g[None]
        gx = _conv_half_np(gb, _flip_kernel_np(wd))
        gw = _conv_weight_grad_np(xd, gb, wd.shape[2], wd.shape[3])
        return (gx if batched else gx[0]), gw

    return _from_op(out if batched else out[0], (x, w), vjp)


def _pool2_np(d):
    return 0.25 * ((d[..., 0::2, 0::2] + d[..., 0::2, 1::2])
                   + (d[..., 1::2, 0::2] + d[..., 1::2, 1::2]))


def _spread2_np(g):
    # a quarter of each value over its 2x2 block: the transpose of _pool2_np
    *lead, h, w = g.shape
    quarter = np.broadcast_to(0.25 * g[..., :, None, :, None], (*lead, h, 2, w, 2))
    return quarter.reshape(*lead, 2 * h, 2 * w)


def avg_pool2(x):
    """2x2 average pooling; spatial extents must be even."""
    x = _as_tensor(x)
    if x.ndim not in (3, 4):
        raise ValueError(f"pool input must be (c, H, W) or (batch, c, H, W), got {x.shape}")
    H, W = x.shape[-2], x.shape[-1]
    if H % 2 or W % 2:
        raise ValueError(f"avg_pool2 requires even spatial extents, got {(H, W)}")
    return _from_op(_pool2_np(x.data), (x,), lambda g: (_spread2_np(g),))


def avg_pool2_adjoint(x):
    """The transpose of avg_pool2: each value spread as a quarter over a 2x2 block.

    <y, avg_pool2(x)> == <avg_pool2_adjoint(y), x> for any x and y of
    matching shapes; avg_pool2 is in turn this op's gradient map.
    """
    x = _as_tensor(x)
    if x.ndim not in (3, 4):
        raise ValueError(f"adjoint input must be (c, h, w) or (batch, c, h, w), got {x.shape}")
    return _from_op(_spread2_np(x.data), (x,), lambda g: (_pool2_np(g),))


class GradTape:
    """Records tensor operations for reverse-mode differentiation.

    Single-owner: at most one tape is active at a time, entered with a
    `with` block. Every operation executed inside the block is recorded;
    `gradient` then returns d(output)/d(input) for a scalar output and any
    tensors that participated.

    The graph keeps only what the backward reads: the arrays each op's vjp
    needs, the shapes of add, sub and where operands, and the leaves (the
    tensors made off the tape that recorded ops used). `gradient` frees
    each cotangent and vjp as soon as it has run, so it can be taken once.
    """

    def __init__(self):
        self._leaves = {}  # id -> (leaf, node); holding the leaf keeps its id unique
        self._entered = False
        self._taken = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a GradTape is already active; tapes do not nest")
        if self._entered:
            raise RuntimeError("a GradTape cannot be reused")
        self._entered = True
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _node_of(self, t):
        """The node of a tensor an op records, made on first use for a leaf."""
        node = t._node
        if node is None:
            entry = self._leaves.get(id(t))
            if entry is None:
                entry = self._leaves[id(t)] = (t, _Node((), None, None))
            return entry[1]
        if node.tape is not self:
            raise RuntimeError("tensor recorded on a different tape")
        return node

    def _recorded(self, t):
        """The node of a tensor on this tape, or None."""
        if t._node is not None:
            return t._node if t._node.tape is self else None
        entry = self._leaves.get(id(t))
        return None if entry is None else entry[1]

    def gradient(self, output, inputs):
        """Gradients of a recorded scalar with respect to recorded inputs.

        Can be called once per tape: the backward frees the graph it reads.
        """
        if self._taken:
            raise RuntimeError("a GradTape's gradient can be taken only once")
        if isinstance(output, ConvKernel):
            output = output.weights
        if output.size != 1:
            raise ValueError(f"gradient output must be scalar, got shape {output.shape}")
        root = output._node
        if root is None or root.tape is not self:
            raise ValueError("output was not recorded on this tape")
        targets = [t.weights if isinstance(t, ConvKernel) else t for t in inputs]
        target_nodes = [self._recorded(t) for t in targets]
        if any(n is None for n in target_nodes):
            raise ValueError("an input was not recorded on this tape")
        self._taken = True

        topo = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:  # a leaf has no vjp and nothing to visit
                if p.vjp is not None and id(p) not in visited:
                    stack.append((p, False))

        keep = {id(n) for n in target_nodes}
        grads = {id(root): np.ones_like(output.data)}
        for node in reversed(topo):
            g = grads.get(id(node)) if id(node) in keep else grads.pop(id(node), None)
            vjp, node.vjp = node.vjp, None
            if g is None:
                continue
            for parent, pg in zip(node.parents, vjp(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        return [grads.get(id(n), np.zeros_like(t.data))
                for t, n in zip(targets, target_nodes)]
