"""The float64 ops of a layer update, the Tensor that holds the weights'
vector and the recorded loss, and the tape that records the TD(1) loss.

The ops: matmul; conv2d_half and its reversed kernel (reverse_kernel);
avg_pool2 and its transpose, avg_pool2_adjoint. They compute forward
only. An activation's input is the sum of its terms (_summed); the
activation kinds, each with its inverse, barrier and slope, are classes in
dynamics (Tanh, LeakySigmoid). The one gradient the package takes, of the
TD(1) loss, is an explicit reverse sweep (training._td1_backward): a pair
term's input cotangent is the pair's other map, made of these same ops,
and its weight gradient is the conv weight-gradient kernel below or a
matrix product (dynamics._up_weight_grad). A GradTape is the recorder of
that loss: training.td1_forward records it as the tape's one op, whose one
parent is the weights' vector, and GradTape.gradient runs the sweep.

Convolution and its weight gradient are each one matrix product plus
kh*kw shifted copies or adds. The shift is applied to whichever side of
the map has fewer channels: im2col of the input when the map has more
output than input channels, otherwise the product first and a shift-add
of its kh*kw output blocks. For q output and r input channels,
the expanded buffer (the im2col, or the product's kh*kw blocks) holds
kh*kw*min(q, r)*N*H*W floats. The GEMM's N*H*W columns are padded with
zeros to a multiple of 8 (_COLUMN_BLOCK), so an item's values do not depend
on how many items share the product.

Ops take ndarrays and check what they make. A batch dimension, when
present, is leading and optional: feature maps are (channels, height,
width) or (batch, channels, height, width), flat layers are (units,) or
(batch, units). Every op but reverse_kernel returns a fresh array, and
none writes its inputs. An op that can make a non-finite value from finite
inputs rejects NaN/Inf in its result, so a numerical blow-up surfaces at
the op that made it: matmul, conv2d_half and avg_pool2. The check reads
each value once (through min and max). The other ops skip it:
- reverse_kernel, a view of its kernel;
- avg_pool2_adjoint, which spreads a quarter of each value.
_summed checks the sum it makes, before an activation kind activates it in
place: a layer update is one op over one buffer, and a sum that overflows
fails there even where tanh would saturate it.

A Tensor is a float64 array checked finite when it is made: a net's
weights, one vector (dynamics.WeightBundle.flat), and the recorded loss.
A weight block is an ndarray view of that vector, and a ConvKernel wraps
one. The downward weights of a symmetric net hold no data of their own:
the down map reads the forward matrix's transpose, and reverse_kernel
returns a strided view of the forward kernel, so deriving them copies
nothing; each GEMM copies its operands into layout. The conv input
gradient is conv2d_half with the reversed kernel, so it lays out its
cotangent for its own GEMM, and the weight gradient lays out the same
cotangent again for its own: no layout is shared between the two.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError",
    "Tensor",
    "ConvKernel",
    "GradTape",
    "matmul",
    "conv2d_half",
    "reverse_kernel",
    "avg_pool2",
    "avg_pool2_adjoint",
]


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


_ACTIVE_TAPE = None


def _first_bad_index(good):
    """The index of the first False in a boolean array."""
    return tuple(int(i) for i in np.argwhere(~good)[0])


def _check_finite(arr):
    """arr, after raising ValueError naming its first NaN or infinity, if any."""
    # min and max propagate NaN and show any infinity, and unlike
    # isfinite they allocate no boolean copy of the array
    if not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValueError(
            f"non-finite value at index {_first_bad_index(np.isfinite(arr))} "
            f"in tensor of shape {arr.shape}"
        )
    return arr


class Tensor:
    """A float64 array checked finite when it is made: a net's parameter
    vector or the recorded TD(1) loss."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("tensors must have at least one element")
        _check_finite(arr)
        self.data = arr

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)


def matmul(a, b):
    """a @ b with a of shape (n,) or (batch, n) and b a 2-d matrix."""
    if b.ndim != 2:
        raise ValueError(f"matmul expects a 2-d right operand, got {b.shape}")
    if a.ndim not in (1, 2):
        raise ValueError(f"matmul expects a 1-d or 2-d left operand, got {a.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _check_finite(a @ b)


def _summed(a):
    """An activation's input: the sum of its terms in one fresh buffer.

    `a` is one array or a list or tuple of them. The terms are summed in
    order, ((t0 + t1) + t2) + ..., into a C-ordered float64 buffer of their
    broadcast shape, and that sum is checked for finiteness once. One term
    is copied; otherwise np.add allocates the sum of the first two and each
    later term is added into it in place, unless that term is larger, when
    the sum moves to a new buffer of the broadcast shape.
    """
    terms = a if isinstance(a, (list, tuple)) else (a,)
    if not terms:
        raise ValueError("an activation needs at least one term")
    if len(terms) == 1:
        z = np.array(terms[0], dtype=np.float64, order="C")
    else:
        z = np.add(terms[0], terms[1], order="C")
        if not isinstance(z, np.ndarray):  # two 0-d terms add to a scalar
            z = np.array(z)
    for d in terms[2:]:
        if np.broadcast_shapes(z.shape, d.shape) == z.shape:
            np.add(z, d, out=z)
        else:
            z = np.add(z, d, order="C")
    return _check_finite(z)


class ConvKernel:
    """Convolution weights, an ndarray (out_channels, in_channels, kh, kw).

    Kernel extents must be odd: half padding preserves spatial dimensions
    only for odd kernels.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
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


def reverse_kernel(k):
    """Swap channel axes and reverse both spatial axes; an involution.

    A kernel and its reverse implement transposed linear maps under
    half-padded convolution (see conv2d_half), which is how bidirectional
    symmetric connectivity is realized without storing reverse weights.
    The result is a strided view of the kernel: nothing is copied.
    """
    return ConvKernel(k.weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])


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


# A conv GEMM's columns are the batch's positions, n*H*W of them. OpenBLAS
# computes every column in a whole block of its kernels the same way, however
# many columns there are, but the columns past the last whole block go
# through narrower kernels, which can round differently. So the laid-out
# operands end in zero columns up to a multiple of _COLUMN_BLOCK: an item's
# values then depend neither on the batch's size nor on the item's place in
# it, and a row shard of a batch (see dynamics._Lockstep) computes its items
# exactly as the whole batch does. A batch whose n*H*W is already a multiple
# of the block is laid out as before, with no padding.
_COLUMN_BLOCK = 8


def _padded(cols):
    """cols rounded up to a whole number of column blocks."""
    return -(-cols // _COLUMN_BLOCK) * _COLUMN_BLOCK


def _channels_first(x):
    """(n, c, H, W) -> contiguous (c, n*H*W), ending in zero columns up to
    whole column blocks."""
    n, c, h, w = x.shape
    cols = n * h * w
    if _padded(cols) == cols:
        return x.transpose(1, 0, 2, 3).reshape(c, cols)
    out = np.zeros((c, _padded(cols)))
    out[:, :cols].reshape(c, n, h, w)[...] = x.transpose(1, 0, 2, 3)
    return out


def _im2col(x, ka, kb):
    """(n, c, H, W) -> (ka*kb*c, n*H*W): row (tap, channel) holds the shifted
    map, ending in zero columns up to whole column blocks."""
    n, c, h, w = x.shape
    cols = np.zeros((ka * kb, c, _padded(n * h * w)))
    maps = cols[:, :, :n * h * w].reshape(ka * kb, c, n, h, w)
    xt = x.transpose(1, 0, 2, 3)
    for t, dst, src in _taps(ka, kb, h, w):
        maps[t][dst] = xt[src]
    return cols.reshape(ka * kb * c, -1)


def _conv_half_np(x, w):
    # x: (n, r, H, W), w: (q, r, ka, kb) -> (n, q, H, W), zero padding (k-1)/2.
    # One GEMM; the k^2 shifted copies expand whichever side has fewer channels.
    # The reshape copies w into the GEMM's layout, so w may be a strided view.
    n, r, h, wd = x.shape
    q, _, ka, kb = w.shape
    cols = n * h * wd  # the columns past these are padding
    if q > r:
        out = w.transpose(0, 2, 3, 1).reshape(q, ka * kb * r) @ _im2col(x, ka, kb)
        return np.ascontiguousarray(out[:, :cols].reshape(q, n, h, wd).transpose(1, 0, 2, 3))
    y = w.transpose(2, 3, 0, 1).reshape(ka * kb * q, r) @ _channels_first(x)
    y = y[:, :cols].reshape(ka * kb, q, n, h, wd).transpose(0, 2, 1, 3, 4)
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

    The map is one matrix product plus kh*kw shifted copies or adds,
    expanding the side with fewer channels: with q output and r input
    channels, q > r builds the im2col of x, (kh*kw*r, N*H*W), and
    multiplies the (q, kh*kw*r) weights into it; q <= r multiplies the
    (kh*kw*q, r) weights into x first and shift-adds the kh*kw output
    blocks. The expanded buffer therefore holds kh*kw*min(q, r)*N*H*W
    floats. Its input gradient is this map with the reversed kernel
    (reverse_kernel) at the output gradient, which swaps the roles of q and
    r; its weight gradient (_conv_weight_grad_np) follows the same rule.
    Each builds its own layout of the output gradient: none is shared.
    """
    if x.ndim not in (3, 4):
        raise ValueError(f"conv input must be (c, H, W) or (batch, c, H, W), got {x.shape}")
    if x.shape[-3] != k.in_channels:
        raise ValueError(
            f"channel mismatch: input has {x.shape[-3]}, kernel expects {k.in_channels}"
        )
    if x.ndim == 4:
        return _check_finite(_conv_half_np(x, k.weights))
    return _check_finite(_conv_half_np(x[None], k.weights)[0])


def _pool2_np(d):
    return 0.25 * ((d[..., 0::2, 0::2] + d[..., 0::2, 1::2])
                   + (d[..., 1::2, 0::2] + d[..., 1::2, 1::2]))


def avg_pool2(x):
    """2x2 average pooling; spatial extents must be even."""
    if x.ndim not in (3, 4):
        raise ValueError(f"pool input must be (c, H, W) or (batch, c, H, W), got {x.shape}")
    H, W = x.shape[-2], x.shape[-1]
    if H % 2 or W % 2:
        raise ValueError(f"avg_pool2 requires even spatial extents, got {(H, W)}")
    return _check_finite(_pool2_np(x))


def avg_pool2_adjoint(x):
    """The transpose of avg_pool2: each value spread as a quarter over a 2x2 block.

    <y, avg_pool2(x)> == <avg_pool2_adjoint(y), x> for any x and y of
    matching shapes.
    """
    if x.ndim not in (3, 4):
        raise ValueError(f"adjoint input must be (c, h, w) or (batch, c, h, w), got {x.shape}")
    *lead, h, w = x.shape
    quarter = 0.25 * x
    out = np.empty((*lead, 2 * h, 2 * w))
    out[..., 0::2, 0::2] = quarter
    out[..., 0::2, 1::2] = quarter
    out[..., 1::2, 0::2] = quarter
    out[..., 1::2, 1::2] = quarter
    return out


def _record(output, parents, backward):
    """Record output as the active tape's one op, if a tape is active.

    backward() returns d(output)/d(parent) for each parent, in order.
    """
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._record(output, parents, backward)


class GradTape:
    """The recorder of one op: the TD(1) loss, as training.td1_forward
    makes it.

    Single-owner: at most one tape is active at a time, entered with a
    `with` block, and a tape is entered once. A td1_forward run inside the
    block records its loss as the tape's op, whose one parent is the
    weights' vector and whose backward is the explicit reverse sweep over
    the unrolled forward (training._td1_backward). No other op records.
    `gradient` then runs that sweep, once, and returns d(loss)/d(input)
    for each input, each of which must be one of the op's parents.
    """

    def __init__(self):
        self._op = None  # (output, parents, backward)
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

    def _record(self, output, parents, backward):
        if self._op is not None:
            raise RuntimeError("a GradTape records one op")
        self._op = (output, tuple(parents), backward)

    def gradient(self, output, inputs):
        """Gradients of the recorded output with respect to its parents.

        Can be called once per tape: the backward frees what it reads.
        """
        if self._taken:
            raise RuntimeError("a GradTape's gradient can be taken only once")
        if self._op is None or self._op[0] is not output:
            raise ValueError("output was not recorded on this tape")
        _, parents, backward = self._op
        position = {id(p): i for i, p in enumerate(parents)}
        if any(id(t) not in position for t in inputs):
            raise ValueError("an input was not recorded on this tape")
        self._taken = True
        self._op = None
        grads = backward()
        return [grads[position[id(t)]] for t in inputs]
