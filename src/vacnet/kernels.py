"""Dense rank-4 tensors and primitive differentiable operations.

All activations and weights are numpy arrays. Activations are rank-4 with
layout (batch, channels, rows, cols); convolution weights are
(c_out, c_in/groups, kh, kw). Every op is a pure function, except that
``relu_forward(x, out=x)`` rectifies a fresh conv output in place: forward ops
return new arrays, backward ops take saved forward inputs or outputs explicitly.
``fc_forward`` forms each row as its own product, so a row's bits do not
depend on the batch around it.
Max-pool picks the lowest flat offset among equal maxima, and a NaN wins only
as its window's first tap. Its backward is the unpool scatter:
``maxpool2d_backward`` is bound to ``unpool2d_forward`` rather than calling it,
so a tracer times each apart.
A conv unfolds its im2col patches one chunk of whole images at a time, at
most ``PATCH_BYTES`` of them (at least one image), so they are still in L2
when their products are formed. ``conv2d_backward``, and ``conv2d_forward``
when a batch takes more than one chunk, unfold into a per-thread scratch
array that never grows past one chunk's patches; nothing returned aliases it.
A one-image forward unfolds with one gather, not a copy per tap. Each
image's GEMM is its own, so no output depends on the chunking or the unfold.
Conv and pool shape work is done once per layer and input size, on first use.
A ``ConvSpec`` checks its channels, kernel, stride, padding and groups when
built, and ``conv2d_forward`` checks its input's rank and channels, so a block
made of convs restates neither; ``check_finite`` is the divergence scan.
A layer spec states its parameters once, as the ``param_shapes()`` table that
the ``ParamTable`` mixin counts and initialises. A block's conv ``<name>`` holds
``<name>_w``/``<name>_b``, shaped by ``conv_param_shapes`` and run by
``named_conv_forward``/``named_conv_backward``.
Forward ops keep their input's dtype, except ``softmax`` and the losses,
which compute in float64. Training and gradient checking run in float64;
``Network.predict`` runs the forward ops in float32 and gets float64
probabilities from ``softmax``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Tensor dimensions do not satisfy an operation's contract."""


class ConfigError(ValueError):
    """A layer configuration is internally inconsistent."""


class IntegrityError(ValueError):
    """Saved state (pool indices, caches) does not match its consumer."""


class NonFiniteError(ArithmeticError):
    """An activation holds NaN or infinity: the run has diverged."""


def check_finite(x, name):
    """Raise NonFiniteError if ``x`` holds a NaN or infinity."""
    if not np.isfinite(x).all():  # the method form skips np.all's dispatch
        raise NonFiniteError(f"{name} contains non-finite values")


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract for one convolution: channels, kernel, stride, padding, groups.

    groups == c_in with integer multiplier c_out/c_in is depthwise;
    kernel (1,1) with groups == 1 is pointwise.
    """

    c_in: int
    c_out: int
    kernel: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    groups: int = 1

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1:
            raise ConfigError(f"channel counts must be >= 1, got {self.c_in}->{self.c_out}")
        if self.groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.groups}")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ConfigError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}")
        if min(self.kernel) < 1 or min(self.stride) < 1 or min(self.padding) < 0:
            raise ConfigError(f"bad kernel/stride/padding: {self}")

    def out_hw(self, h, w):
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"kernel {self.kernel} does not fit {h}x{w} input "
                             f"with padding {self.padding}")
        return oh, ow

    def weight_shape(self):
        return (self.c_out, self.c_in // self.groups, *self.kernel)

    @functools.cached_property
    def _geometries(self):
        return {}

    def geometry(self, h, w):
        """This conv's ``ConvGeometry`` at an h x w input, made on first use and
        kept on the spec: a cache keyed on the spec would hash it in Python."""
        geo = self._geometries.get((h, w))
        return geo or self._geometries.setdefault((h, w), ConvGeometry(self, h, w))

    def mult_adds(self, h, w):
        """Forward mult-adds of one image at an h x w input."""
        oh, ow = self.out_hw(h, w)
        kh, kw = self.kernel
        return kh * kw * (self.c_in // self.groups) * self.c_out * oh * ow


class ParamTable:
    """Mixin for a layer spec whose ``param_shapes()`` is its ordered
    parameter name -> shape table; the count and the initial values follow
    from it. ``init_params(rng)`` draws in table order: a weight of rank >= 2
    gets U(-sqrt(6/fan_in), +sqrt(6/fan_in)), fan_in being the product of its
    trailing axes, or 0 when ``rng`` is None; ``scale`` starts at 1 and every
    other parameter at 0."""

    def param_count(self):
        return sum(math.prod(shape) for shape in self.param_shapes().values())

    def init_params(self, rng):
        p = {}
        for name, shape in self.param_shapes().items():
            if len(shape) >= 2 and rng is not None:
                bound = np.sqrt(6.0 / math.prod(shape[1:]))
                p[name] = rng.uniform(-bound, bound, size=shape)
            else:
                p[name] = (np.ones if name == "scale" else np.zeros)(shape)
        return p


def conv_param_shapes(convs):
    """``<name>_w``/``<name>_b`` shapes of each spec in ``convs``, in its order."""
    return {f"{name}_{kind}": shape for name, spec in convs.items()
            for kind, shape in (("w", spec.weight_shape()), ("b", (spec.c_out,)))}


def _taps(h, w, oh, ow, kernel, stride, padding):
    """Slices (i, j, out_rows, out_cols, in_rows, in_cols) for each kernel tap:
    the outputs (r, c) whose read of input pixel (r*sh + i - ph, c*sw + j - pw)
    lands inside the unpadded input, and those reads. Taps wholly in the padding
    are left out."""
    def axis(size, osize, k, s, p):
        spans = {}
        for t in range(k):
            lo, hi = max(0, -((t - p) // s)), min(osize, (size - 1 + p - t) // s + 1)
            if lo < hi:
                spans[t] = slice(lo, hi), slice(lo * s + t - p, (hi - 1) * s + t - p + 1, s)
        return spans
    rows = axis(h, oh, kernel[0], stride[0], padding[0])
    cols = axis(w, ow, kernel[1], stride[1], padding[1])
    return tuple((i, j, ro, co, ri, ci)
                 for i, (ro, ri) in rows.items() for j, (co, ci) in cols.items())


class ConvGeometry:
    """A conv's shape work at one h x w input: output size, weight shapes, one
    image's patch shape and size, and ``taps`` (None for a 1x1/s1/p0 conv)."""

    def __init__(self, spec, h, w):
        self.h, self.w = h, w
        self.oh, self.ow = oh, ow = spec.out_hw(h, w)
        self.groups, self.weight_shape = spec.groups, spec.weight_shape()
        self.group_shape = (spec.groups, spec.c_out // spec.groups, -1)
        self.cols_shape = (spec.c_in, *spec.kernel, oh, ow)
        self.elems = math.prod(self.cols_shape)
        self.padded = any(spec.padding)
        identity = spec.kernel == spec.stride == (1, 1) and not self.padded
        self.taps = None if identity else _taps(h, w, oh, ow, spec.kernel, spec.stride,
                                                spec.padding)

    def chunk(self, itemsize):
        """Images per patch chunk: as many as PATCH_BYTES of patches hold, at least one."""
        return max(1, PATCH_BYTES // (self.elems * itemsize))

    @functools.cached_property
    def index(self):
        """Read-only offset of each (i, j, r, c) patch element in a plane of
        h*w pixels and then a zero, which every read of the padding takes."""
        idx = np.full(self.cols_shape[1:], self.h * self.w)
        pixels = np.arange(self.h * self.w).reshape(self.h, self.w)
        for i, j, ro, co, ri, ci in self.taps:
            idx[i, j, ro, co] = pixels[ri, ci]
        idx.flags.writeable = False
        return idx.ravel()


@functools.lru_cache(maxsize=256)
def _pool_geometry(n, c, h, w, kh, kw, sh, sw):
    """Max-pool shape work for an (n, c, h, w) input: x's first tap, the other
    taps with their in-window offsets in ``dtype``, and the read-only flat
    offsets of each window in its plane (oh, ow) and of each plane (n, c, 1, 1)."""
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    first, *taps = _taps(h, w, oh, ow, (kh, kw), (sh, sw), (0, 0))
    dtype = np.min_scalar_type((kh - 1) * w + kw - 1)
    steps = tuple((np.s_[:, :, ri, ci], dtype.type(i * w + j)) for i, j, _, _, ri, ci in taps)
    starts = np.arange(oh)[:, None] * (sh * w) + np.arange(ow) * sw
    planes = np.arange(0, n * c * h * w, h * w).reshape(n, c, 1, 1)
    starts.flags.writeable = planes.flags.writeable = False
    return np.s_[:, :, first[4], first[5]], steps, dtype, starts, planes


# Bytes of im2col patches a conv unfolds at once. A chunk's patches, their
# column gradient and its slices of the output or input gradient then stay
# inside a 2 MiB L2 cache while they are used.
PATCH_BYTES = 1 << 20

_scratch = threading.local()


def _workspace(shape, dtype):
    """A view of this thread's scratch array, grown to the largest request so
    far; it holds whatever the last user left in it."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < nbytes:
        buf = _scratch.buf = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def _im2col(x, geo, scratch=False):
    """Channel-major, per-image patch matrix (n, g, (c_in/g)*kh*kw, oh*ow) of
    the conv whose ``ConvGeometry`` at x's size is ``geo``.

    Row (c, i, j) of group g is input channel g*(c_in/g) + c at tap (i, j), so
    W.reshape(g, og, -1) @ cols is NCHW already. A 1x1/s1/p0 conv on a
    contiguous input needs no copy: the reshape is a view of x. One image is
    gathered by one ``take`` through ``geo.index`` from its planes, each ended
    by a zero that the padding reads; a batch is unfolded by one strided copy
    per tap from the unpadded x. ``scratch`` fills the thread's workspace
    instead of a new array: the backward always does, the forward only when
    its batch takes more than one chunk, as a one-chunk batch runs no faster
    through the workspace.
    """
    n, c, h, w = x.shape
    if geo.taps is None:
        return x.reshape(n, geo.groups, -1, geo.oh * geo.ow)
    if n == 1 and not scratch:
        plane = np.zeros((1, c, h * w + 1), dtype=x.dtype)
        plane[:, :, :-1] = x.reshape(1, c, h * w)
        cols = plane.take(geo.index, axis=2)
    else:
        shape = (n, *geo.cols_shape)
        if scratch:
            cols = _workspace(shape, x.dtype)
            if geo.padded:
                cols.fill(0)
        else:
            cols = (np.zeros if geo.padded else np.empty)(shape, dtype=x.dtype)
        for i, j, ro, co, ri, ci in geo.taps:
            cols[:, :, i, j, ro, co] = x[:, :, ri, ci]
    return cols.reshape(n, geo.groups, -1, geo.oh * geo.ow)


def conv2d_forward(x, weights, bias, spec):
    """Every conv kind (dense, grouped, depthwise, pointwise) is one batched
    matmul of the group weights (g, og, (c_in/g)*kh*kw) with the _im2col
    patches, one image chunk at a time, each written into its slice of the
    output."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if x.ndim != 4 or x.shape[1] != spec.c_in:
        raise ShapeError(f"input shape {x.shape} does not match c_in={spec.c_in}")
    n, _, h, w = x.shape
    geo = spec.geometry(h, w)
    if weights.shape != geo.weight_shape:
        raise ShapeError(f"weights shape {weights.shape}, expected {geo.weight_shape}")
    if bias.shape != (spec.c_out,):
        raise ShapeError(f"bias shape {bias.shape}, expected ({spec.c_out},)")
    wg = weights.reshape(geo.group_shape)
    step = n if geo.taps is None else geo.chunk(x.itemsize)
    if step >= n:
        out = np.matmul(wg, _im2col(x, geo))
    else:
        out = np.empty((n, *wg.shape[:2], geo.oh * geo.ow), dtype=np.result_type(x, weights))
        for lo in range(0, n, step):
            np.matmul(wg, _im2col(x[lo:lo + step], geo, scratch=True),
                      out=out[lo:lo + step])
    out = out.reshape(n, spec.c_out, geo.oh, geo.ow)
    out += bias[:, None, None]
    return out


def conv2d_backward(grad_out, saved_input, weights, spec, input_grad=True):
    """grad_weights sums each image's go @ cols^T product, kept in an
    (n, g, og, (c_in/g)*kh*kw) array, over all images at once, so the
    chunking does not change its bits. A 1x1/s1/p0 conv's cols is a view of
    x. Any other conv unfolds one image chunk at a time into the workspace;
    once the chunk's products are formed, dcols = W^T @ go, laid out
    (n, c_in, kh, kw, oh, ow), overwrites the spent patches there, and each
    tap (i, j) adds its in-bounds part into the chunk's unpadded input
    gradient over the same ranges _im2col read from. ``input_grad=False``
    forms neither dcols nor the input gradient, and returns None in its
    place; the weight and bias gradients keep their bits."""
    grad_out = np.asarray(grad_out)
    x = np.asarray(saved_input)
    n, _, h, w = x.shape
    geo = spec.geometry(h, w)
    oh, ow = geo.oh, geo.ow
    if grad_out.shape != (n, spec.c_out, oh, ow):
        raise ShapeError(f"grad_out shape {grad_out.shape}, "
                         f"expected {(n, spec.c_out, oh, ow)}")
    g, og = spec.groups, spec.c_out // spec.groups
    grad_bias = grad_out.sum(axis=(0, 2, 3))

    go = grad_out.reshape(n, g, og, oh * ow)
    wgt = weights.reshape(g, og, -1).transpose(0, 2, 1)
    grad_input = None
    if geo.taps is None:
        prods = np.matmul(go, _im2col(x, geo).transpose(0, 1, 3, 2))
        if input_grad:
            grad_input = np.matmul(wgt, go).reshape(x.shape)
    else:
        prods = np.empty((n, g, og, wgt.shape[1]), dtype=np.result_type(grad_out, x))
        if input_grad:
            grad_input = np.zeros(x.shape, dtype=x.dtype)
        step = geo.chunk(x.itemsize)
        for lo in range(0, n, step):
            chunk = slice(lo, lo + step)
            cols = _im2col(x[chunk], geo, scratch=True)
            np.matmul(go[chunk], cols.transpose(0, 1, 3, 2), out=prods[chunk])
            if not input_grad:
                continue
            dcols = np.matmul(wgt, go[chunk], out=cols).reshape(len(cols), *geo.cols_shape)
            gi = grad_input[chunk]
            for i, j, ro, co, ri, ci in geo.taps:
                gi[:, :, ri, ci] += dcols[:, :, i, j, ro, co]
    grad_weights = prods.sum(axis=0).reshape(geo.weight_shape)
    return grad_input, grad_weights, grad_bias


def named_conv_forward(x, p, convs, name):
    """Conv ``convs[name]`` on parameters ``p[<name>_w]``, ``p[<name>_b]``."""
    return conv2d_forward(x, p[f"{name}_w"], p[f"{name}_b"], convs[name])


def named_conv_backward(grad_out, saved_input, p, convs, name, grads, input_grad=True):
    """The input gradient of conv ``convs[name]`` (None without ``input_grad``);
    its others go into ``grads``."""
    gx, grads[f"{name}_w"], grads[f"{name}_b"] = conv2d_backward(
        grad_out, saved_input, p[f"{name}_w"], convs[name], input_grad=input_grad)
    return gx


def maxpool2d_forward(x, kernel, stride):
    """Max over each window plus the flat input offset of every selected maximum.

    Ties break to the lowest flat offset (first occurrence in row-major window
    order, which coincides with input memory order), and a NaN wins only as
    its window's first tap. Nothing branches per element: taps come in
    increasing offset order, a running ``fmax`` skips NaN (a NaN first tap
    runs as +inf, so nothing beats it), and each tap that beats the running
    max raises ``best`` to its in-window offset. The value is gathered at the
    chosen offset, so -0.0 and NaN come out exactly.
    """
    x = np.asarray(x)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    if min(kh, kw, sh, sw) < 1:
        raise ConfigError(f"pool kernel {kernel} and stride {stride} must be >= 1")
    if kh > h or kw > w:
        raise ShapeError(f"pool kernel {kernel} larger than input {h}x{w}")
    first, steps, dtype, starts, planes = _pool_geometry(n, c, h, w, kh, kw, sh, sw)
    run = np.fmin(x[first], np.inf)
    nxt = np.empty_like(run)
    # The narrowest unsigned dtype that holds every in-window offset keeps the
    # per-tap product and maximum cheap; the product keeps that dtype.
    best = np.zeros(run.shape, dtype=dtype)
    for tap, offset in steps:
        # The tap beats the running max exactly when fmax(run, tap) > run;
        # comparing the two dense arrays reads the strided tap only once.
        np.fmax(run, x[tap], out=nxt)
        np.maximum(best, (nxt > run) * offset, out=best)
        run, nxt = nxt, run
    indices = best + starts
    indices += planes
    return x.take(indices), indices


def unpool2d_forward(x, indices, out_shape):
    """Scatter-add each value to its recorded flat offset; everything else is zero."""
    x = np.asarray(x)
    indices = np.asarray(indices)
    if indices.shape != x.shape:
        raise IntegrityError(f"indices shape {indices.shape} != input shape {x.shape}")
    total = math.prod(out_shape)
    if indices.size and (indices.min() < 0 or indices.max() >= total):
        raise IntegrityError("unpool index out of bounds for target shape")
    out = np.zeros(total, dtype=x.dtype)
    np.add.at(out, indices.ravel(), x.ravel())
    return out.reshape(out_shape)


maxpool2d_backward = unpool2d_forward


def unpool2d_backward(grad_out, indices):
    return np.asarray(grad_out).ravel()[np.asarray(indices)]


def relu_forward(x, out=None):
    """max(x, 0); ``out=x`` rectifies a fresh array in place."""
    return np.maximum(np.asarray(x), 0.0, out=out)


def relu_backward(grad_out, saved):
    """``saved`` may be the ReLU's input or its output: relu(x) > 0 exactly
    when x > 0 (NaN included), so both give the same mask."""
    return np.asarray(grad_out) * (np.asarray(saved) > 0)


def sigmoid_forward(x):
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below zero.
    # e lies in [0, 1] or is NaN, so max(e, x >= 0) picks the numerator
    # without a per-element branch.
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid_backward(grad_out, saved_output):
    y = np.asarray(saved_output)
    return np.asarray(grad_out) * y * (1.0 - y)


def global_avg_pool_forward(x):
    x = np.asarray(x)
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(grad_out, in_shape):
    _, _, h, w = in_shape
    return np.broadcast_to(np.asarray(grad_out) / (h * w), in_shape).copy()


def fc_forward(x, weights, bias):
    """x: (n, in) rows; weights: (out, in); returns (n, out). Each row is its
    own (1, in) @ (in, out) product: a single (n, in) GEMM rounds a row
    differently for different n, so its result would depend on the batch."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc shapes incompatible: x {x.shape}, W {weights.shape}")
    if np.asarray(bias).shape != (weights.shape[0],):
        raise ShapeError(f"fc bias shape {np.asarray(bias).shape}")
    return np.matmul(x[:, None, :], weights.T)[:, 0] + bias


def fc_backward(grad_out, saved_input, weights):
    grad_out = np.asarray(grad_out)
    grad_input = grad_out @ weights
    grad_weights = grad_out.T @ np.asarray(saved_input)
    grad_bias = grad_out.sum(axis=0)
    return grad_input, grad_weights, grad_bias


def softmax(logits):
    """Row-wise softmax of (n, k) logits, with max subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ConfigError("softmax of an empty vector")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def nll(probs, labels):
    """Negative log-likelihood of each (n, k) row's true class, its
    probability floored at 1e-300."""
    p = np.asarray(probs, dtype=np.float64)
    picked = p[np.arange(p.shape[0]), labels]
    return -np.log(np.maximum(picked, 1e-300))


def cross_entropy(probs, labels):
    """Mean negative log-likelihood of the true classes, floored as in ``nll``."""
    return float(nll(probs, labels).mean())


def softmax_xent_backward(probs, labels, batch=None):
    """Gradient of mean cross-entropy wrt (n, k) logits: (probs - one_hot) /
    batch, where ``batch`` (default n) is the size of the batch whose mean
    loss these rows share."""
    p = np.array(probs, dtype=np.float64)
    p[np.arange(p.shape[0]), labels] -= 1.0
    return p / (batch or p.shape[0])

