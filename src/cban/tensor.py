"""Dense float64 tensors with a reverse-mode gradient tape.

The ops: elementwise add and mul; matmul and the views transpose, reshape
and broadcast_to; the activations tanh and leaky_sigmoid and the select
where; conv2d_half and its reversed kernel (reverse_kernel); avg_pool2 and
its transpose, avg_pool2_adjoint. A GradTape differentiates any scalar
built from them with respect to any tensor that fed it. Another module may
record an op of its own through _from_op. training.td1_forward does: it
runs its forward with the tape paused (_paused_tape) and records the whole
TD(1) loss as one op, whose vjp is an explicit reverse sweep over the
numpy kernels below. In a training step the tape therefore holds that one
op; the per-op vjps here serve as the reference the tests compare it with.
Inverse activations and barriers are ndarray functions in dynamics, off
the tape.

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
numerical blow-up surfaces at the operation that produced it, on the tape
or off it. The check reads each value once (through min and max). The ops
that cannot make a non-finite value from finite inputs skip it:
- the views transpose, reshape, broadcast_to and reverse_kernel;
- avg_pool2_adjoint, which spreads a quarter of each value;
- where, which selects among its inputs;
- tanh and leaky_sigmoid, whose output is finite wherever their input
  is. They take a tensor or a list of terms, sum it into one fresh
  buffer, check that sum, and activate it in place: a layer update is one
  op over one buffer, and a sum that overflows fails at this op even
  where tanh would saturate it.

The tape keeps only what its backward reads. A recorded tensor points at a
small graph node (its parents' nodes and its vjp), not at the tensors that
made it, and each vjp closes over the arrays it reads and nothing else: add
and where keep operand shapes, not operands. An intermediate that no
vjp reads is therefore freed as soon as the caller drops it. The backward
frees each cotangent and vjp once it has run, so a tape's gradient can be
taken once.

The downward weights of a symmetric net hold no data of their own:
transpose and reverse_kernel return strided views of the forward weights,
so deriving them copies nothing, on or off the tape, and their vjps hand
back views of the cotangent. The backward copies no kernel either: the
conv input gradient flips its kernel as a view, and each GEMM copies its
operand into layout. A tensor read by many ops, such as a map's output
read twice (dynamics.PairTerms reuses a pair term until its source layer
changes), has its cotangents summed before its one vjp.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "DomainError",
    "Tensor",
    "ConvKernel",
    "GradTape",
    "matmul",
    "transpose",
    "reshape",
    "broadcast_to",
    "tanh",
    "leaky_sigmoid",
    "where",
    "conv2d_half",
    "reverse_kernel",
    "avg_pool2",
    "avg_pool2_adjoint",
]


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


_ACTIVE_TAPE = None


@contextlib.contextmanager
def _paused_tape():
    """Run a block with no tape active.

    The ops inside are computed and checked as usual but not recorded, so
    the caller can record what they compute as one op of its own once the
    block has ended.
    """
    global _ACTIVE_TAPE
    tape, _ACTIVE_TAPE = _ACTIVE_TAPE, None
    try:
        yield
    finally:
        _ACTIVE_TAPE = tape


def _first_bad_index(good):
    """The index of the first False in a boolean array."""
    return tuple(int(i) for i in np.argwhere(~good)[0])


def _check_finite(arr):
    """Raise ValueError naming the first NaN or infinity in arr, if any."""
    # min and max propagate NaN and show any infinity, and unlike
    # isfinite they allocate no boolean copy of the array
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValueError(
            f"non-finite value at index {_first_bad_index(np.isfinite(arr))} "
            f"in tensor of shape {arr.shape}"
        )


class Tensor:
    """Immutable dense float64 array, optionally recorded on a GradTape."""

    __slots__ = ("data", "_node")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("tensors must have at least one element")
        _check_finite(arr)
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

    def __mul__(self, other):
        return _binary_elementwise(self, other, np.multiply, _mul_vjp)

    __rmul__ = __mul__

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


def _unchecked(data):
    """A tensor around a float64 array known to be finite, made without the
    finiteness check or a copy."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out._node = None
    return out


def _from_op(data, parents, vjp, check=True):
    """The tensor an op made, recorded on the active tape if there is one.

    check=False skips the finiteness check, for ops whose finite inputs
    cannot give a non-finite float64 result (see the module docstring).
    """
    out = Tensor(data) if check else _unchecked(data)
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


def _mul_vjp(a, b):
    return lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


def _binary_elementwise(a, b, fwd, make_vjp):
    at = _as_tensor(a)
    bt = _as_tensor(b)
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
    return _from_op(a.data.T, (a,), lambda g: (g.T,), check=False)


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.shape
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),),
                    check=False)


def broadcast_to(a, shape):
    """a broadcast to `shape` as a read-only view: no copy is made."""
    a = _as_tensor(a)
    old = a.shape
    return _from_op(np.broadcast_to(a.data, shape), (a,),
                    lambda g: (_unbroadcast(g, old),), check=False)


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


def _summed(a):
    """An activation's input: (its terms, their sum in one fresh buffer).

    `a` is one tensor (or array) or a list or tuple of them. The terms are
    summed in order, ((t0 + t1) + t2) + ..., into a C-ordered buffer of
    their broadcast shape, and that sum is checked for finiteness once.
    One term is copied; otherwise np.add allocates the sum of the first two
    and each later term is added into it in place, unless that term is
    larger, when the sum moves to a new buffer of the broadcast shape.
    """
    terms = tuple(map(_as_tensor, a)) if isinstance(a, (list, tuple)) else (_as_tensor(a),)
    if not terms:
        raise ValueError("an activation needs at least one term")
    data = [t.data for t in terms]
    if len(data) == 1:
        z = np.array(data[0], order="C")
    else:
        z = np.add(data[0], data[1], order="C")
        if not isinstance(z, np.ndarray):  # two 0-d terms add to a scalar
            z = np.array(z)
    for d in data[2:]:
        if np.broadcast_shapes(z.shape, d.shape) == z.shape:
            np.add(z, d, out=z)
        else:
            z = np.add(z, d, order="C")
    _check_finite(z)
    return terms, z


def _activated(y, terms, slope_times):
    """The activation output y of terms, on the tape as one op.

    Its vjp forms slope_times(g), g times the activation's slope, once and
    hands each term that cotangent summed down to the term's shape.
    """
    shapes = [t.shape for t in terms]

    def vjp(g):
        gz = slope_times(g)
        return tuple(_unbroadcast(gz, s) for s in shapes)

    return _from_op(y, terms, vjp, check=False)


def tanh(a):
    """tanh of a tensor, or of the sum of a list of terms (see _summed),
    computed in place: one buffer and one tape op."""
    terms, y = _summed(a)
    np.tanh(y, out=y)
    return _activated(y, terms, lambda g: g * (1.0 - y * y))


def leaky_sigmoid(a, alpha):
    """Identity on [-1, 1], slope alpha outside, continuous at +/-1.

    Takes a tensor or a list of terms, as tanh does.
    """
    terms, y = _summed(a)
    hi, lo = y > 1.0, y < -1.0
    y[hi] = alpha * (y[hi] - 1.0) + 1.0
    y[lo] = alpha * (y[lo] + 1.0) - 1.0
    outside = hi | lo
    return _activated(y, terms, lambda g: g * np.where(outside, alpha, 1.0))


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

    return _from_op(data, (a, b), vjp, check=False)


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
    """The reversed kernel as a strided view of w: no copy is made."""
    return w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def reverse_kernel(k):
    """Swap channel axes and reverse both spatial axes; an involution.

    A kernel and its reverse implement transposed linear maps under
    half-padded convolution (see conv2d_half), which is how bidirectional
    symmetric connectivity is realized without storing reverse weights.
    Forward and vjp are strided views, of the kernel and of the cotangent:
    neither copies.
    """
    w = k.weights
    return ConvKernel(_from_op(_flip_kernel_np(w.data), (w,),
                               lambda g: (_flip_kernel_np(g),), check=False))


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


def _conv_half_np(x, w, x_laid=None):
    # x: (n, r, H, W), w: (q, r, ka, kb) -> (n, q, H, W), zero padding (k-1)/2.
    # One GEMM; the k^2 shifted copies expand whichever side has fewer channels.
    # The reshape copies w into the GEMM's layout, so w may be a strided view.
    # x_laid, if given, is x already laid out for the GEMM: the im2col of x
    # when q > r, else its channels-first copy.
    n, r, h, wd = x.shape
    q, _, ka, kb = w.shape
    if q > r:
        cols = _im2col(x, ka, kb) if x_laid is None else x_laid
        out = w.transpose(0, 2, 3, 1).reshape(q, ka * kb * r) @ cols
        return np.ascontiguousarray(out.reshape(q, n, h, wd).transpose(1, 0, 2, 3))
    xc = _channels_first(x) if x_laid is None else x_laid
    y = w.transpose(2, 3, 0, 1).reshape(ka * kb * q, r) @ xc
    y = y.reshape(ka * kb, q, n, h, wd).transpose(0, 2, 1, 3, 4)
    out = np.zeros((n, q, h, wd))
    for t, dst, src in _taps(ka, kb, h, wd):
        out[dst] += y[t][src]
    return out


def _conv_weight_grad_np(x, g, ka, kb, g_laid=None):
    # d<g, conv(x, w)>/dw, shape (q, r, ka, kb), by the same rule as the forward.
    # g_laid, if given, is the channels-first copy of g when q > r, else its im2col.
    q, r = g.shape[1], x.shape[1]
    if q > r:
        gc = _channels_first(g) if g_laid is None else g_laid
        m = gc @ _im2col(x, ka, kb).T
        return m.reshape(q, ka, kb, r).transpose(0, 3, 1, 2)
    # shifting g by -offset pairs it with x exactly as shifting x by +offset
    # pairs it with g, so the taps of im2col(g) come out in reverse order
    gcols = _im2col(g, ka, kb) if g_laid is None else g_laid
    m = gcols @ _channels_first(x).T
    return m.reshape(ka, kb, q, r)[::-1, ::-1].transpose(2, 3, 0, 1)


def _conv_vjp_np(x, w, g):
    """(input gradient, weight gradient) of a batched map at cotangent g.

    The input gradient is the map with the reversed kernel, a strided view
    that its GEMM copies into layout. When q != r, both GEMMs read g in the
    same layout (channels-first when q > r, the im2col when q < r), so it
    is built once.
    """
    q, r, ka, kb = w.shape
    g_laid = None
    if q > r:
        g_laid = _channels_first(g)
    elif q < r:
        g_laid = _im2col(g, ka, kb)
    gx = _conv_half_np(g, _flip_kernel_np(w), g_laid)
    return gx, _conv_weight_grad_np(x, g, ka, kb, g_laid)


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
        gx, gw = _conv_vjp_np(xd, wd, g if batched else g[None])
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
    return _from_op(_spread2_np(x.data), (x,), lambda g: (_pool2_np(g),), check=False)


class GradTape:
    """Records tensor operations for reverse-mode differentiation.

    Single-owner: at most one tape is active at a time, entered with a
    `with` block. Every operation executed inside the block is recorded;
    `gradient` then returns d(output)/d(input) for a scalar output and any
    tensors that participated.

    The graph keeps only what the backward reads: the arrays each op's vjp
    needs, the shapes of add and where operands, and the leaves (the
    tensors made off the tape that recorded ops used). A tensor that many
    ops read is kept once and its cotangents are summed before its own vjp
    runs. `gradient` frees each cotangent and vjp as soon as it has run, so
    it can be taken once.
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
