"""Dense rank-4 tensors and primitive differentiable operations.

All activations and weights are numpy arrays. Activations are rank-4 with
layout (batch, channels, rows, cols); convolution weights are
(c_out, c_in/groups, kh, kw). Every op is a pure function: forward ops
return new arrays, backward ops take the saved forward inputs explicitly.
Training and gradient checking run in float64; float32 is acceptable for
inference only.
"""

from __future__ import annotations

import functools
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


def check_tensor(x, name="tensor"):
    """Validate the rank-4 activation contract (rank, positive dims, finite)."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeError(f"{name} must be rank-4 (n, c, h, w), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has an empty dimension: {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return x


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

    def param_count(self):
        kh, kw = self.kernel
        return self.c_out * (self.c_in // self.groups) * kh * kw + self.c_out

    def mult_adds(self, h, w, bias=False):
        """Forward mult-adds of one image at an h x w input; ``bias`` adds one
        per output element."""
        oh, ow = self.out_hw(h, w)
        kh, kw = self.kernel
        return (kh * kw * (self.c_in // self.groups) + bias) * self.c_out * oh * ow

    def init_params(self, rng):
        """Fan-in-scaled uniform weights and zero biases."""
        kh, kw = self.kernel
        fan_in = (self.c_in // self.groups) * kh * kw
        return init_weights(self.weight_shape(), fan_in, rng), np.zeros(self.c_out)


@functools.lru_cache(maxsize=256)
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


def _is_identity_unfold(spec):
    return spec.kernel == spec.stride == (1, 1) and spec.padding == (0, 0)


def _im2col(x, spec, oh, ow):
    """Channel-major, per-image patch matrix (n, g, (c_in/g)*kh*kw, oh*ow).

    Row (c, i, j) of group g is input channel g*(c_in/g) + c at tap (i, j), so
    W.reshape(g, og, -1) @ cols is NCHW already. Each tap is one strided copy
    from the unpadded x. A 1x1/s1/p0 conv on a contiguous input needs no copy:
    the reshape is a view of x.
    """
    n, c, h, w = x.shape
    if _is_identity_unfold(spec):
        return x.reshape(n, spec.groups, -1, oh * ow)
    alloc = np.zeros if any(spec.padding) else np.empty
    cols = alloc((n, c, *spec.kernel, oh, ow), dtype=x.dtype)
    for i, j, ro, co, ri, ci in _taps(h, w, oh, ow, spec.kernel, spec.stride, spec.padding):
        cols[:, :, i, j, ro, co] = x[:, :, ri, ci]
    return cols.reshape(n, spec.groups, -1, oh * ow)


def conv2d_forward(x, weights, bias, spec):
    """Every conv kind (dense, grouped, depthwise, pointwise) is one batched
    matmul of the group weights (g, og, (c_in/g)*kh*kw) with the _im2col patches."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if x.ndim != 4 or x.shape[1] != spec.c_in:
        raise ShapeError(f"input shape {x.shape} does not match c_in={spec.c_in}")
    if weights.shape != spec.weight_shape():
        raise ShapeError(f"weights shape {weights.shape}, expected {spec.weight_shape()}")
    if bias.shape != (spec.c_out,):
        raise ShapeError(f"bias shape {bias.shape}, expected ({spec.c_out},)")
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    wg = weights.reshape(spec.groups, spec.c_out // spec.groups, -1)
    out = np.matmul(wg, _im2col(x, spec, oh, ow)).reshape(n, spec.c_out, oh, ow)
    out += bias[None, :, None, None]
    return out


def conv2d_backward(grad_out, saved_input, weights, spec):
    """grad_weights sums go @ cols^T over images; dcols = W^T @ go is laid out
    (n, c_in, kh, kw, oh, ow) and each tap (i, j) adds its in-bounds part into
    the unpadded input gradient over the same ranges _im2col read from."""
    grad_out = np.asarray(grad_out)
    x = np.asarray(saved_input)
    n, _, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    if grad_out.shape != (n, spec.c_out, oh, ow):
        raise ShapeError(f"grad_out shape {grad_out.shape}, "
                         f"expected {(n, spec.c_out, oh, ow)}")
    g = spec.groups
    grad_bias = grad_out.sum(axis=(0, 2, 3))

    go = grad_out.reshape(n, g, spec.c_out // g, oh * ow)
    cols = _im2col(x, spec, oh, ow)
    grad_weights = np.matmul(go, cols.transpose(0, 1, 3, 2)).sum(axis=0)
    grad_weights = grad_weights.reshape(spec.weight_shape())

    wg = weights.reshape(g, spec.c_out // g, -1)
    dcols = np.matmul(wg.transpose(0, 2, 1), go)
    if _is_identity_unfold(spec):
        return dcols.reshape(x.shape), grad_weights, grad_bias
    dcols = dcols.reshape(n, spec.c_in, *spec.kernel, oh, ow)
    grad_input = np.zeros(x.shape, dtype=x.dtype)
    for i, j, ro, co, ri, ci in _taps(h, w, oh, ow, spec.kernel, spec.stride, spec.padding):
        grad_input[:, :, ri, ci] += dcols[:, :, i, j, ro, co]
    return grad_input, grad_weights, grad_bias


def maxpool2d_forward(x, kernel, stride):
    """Max over each window plus the flat input offset of every selected maximum.

    Ties break to the lowest flat offset (first occurrence in row-major window
    order, which coincides with input memory order).
    """
    x = np.asarray(x)
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    if sh < 1 or sw < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if kh > h or kw > w:
        raise ShapeError(f"pool kernel {kernel} larger than input {h}x{w}")
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    flat = np.arange(x.size).reshape(x.shape)
    (_, _, _, _, ri, ci), *taps = _taps(h, w, oh, ow, (kh, kw), (sh, sw), (0, 0))
    out, indices = x[:, :, ri, ci].copy(), flat[:, :, ri, ci].copy()
    for _, _, _, _, ri, ci in taps:
        tap = x[:, :, ri, ci]
        better = tap > out
        np.copyto(out, tap, where=better)
        np.copyto(indices, flat[:, :, ri, ci], where=better)
    return out, indices


def maxpool2d_backward(grad_out, indices, in_shape):
    grad = np.zeros(int(np.prod(in_shape)), dtype=np.asarray(grad_out).dtype)
    np.add.at(grad, np.asarray(indices).ravel(), np.asarray(grad_out).ravel())
    return grad.reshape(in_shape)


def unpool2d_forward(x, indices, out_shape):
    """Scatter each value to its recorded flat offset; everything else is zero."""
    x = np.asarray(x)
    indices = np.asarray(indices)
    if indices.shape != x.shape:
        raise IntegrityError(f"indices shape {indices.shape} != input shape {x.shape}")
    total = int(np.prod(out_shape))
    if indices.size and (indices.min() < 0 or indices.max() >= total):
        raise IntegrityError("unpool index out of bounds for target shape")
    out = np.zeros(total, dtype=x.dtype)
    np.add.at(out, indices.ravel(), x.ravel())
    return out.reshape(out_shape)


def unpool2d_backward(grad_out, indices):
    return np.asarray(grad_out).ravel()[np.asarray(indices)]


def relu_forward(x):
    return np.maximum(np.asarray(x), 0.0)


def relu_backward(grad_out, saved_input):
    return np.asarray(grad_out) * (np.asarray(saved_input) > 0)


def sigmoid_forward(x):
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below zero.
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    """x: (n, in) rows; weights: (out, in); returns (n, out)."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ShapeError(f"fc shapes incompatible: x {x.shape}, W {weights.shape}")
    if np.asarray(bias).shape != (weights.shape[0],):
        raise ShapeError(f"fc bias shape {np.asarray(bias).shape}")
    return x @ weights.T + bias


def fc_backward(grad_out, saved_input, weights):
    grad_out = np.asarray(grad_out)
    grad_input = grad_out @ weights
    grad_weights = grad_out.T @ np.asarray(saved_input)
    grad_bias = grad_out.sum(axis=0)
    return grad_input, grad_weights, grad_bias


def softmax(logits):
    """Row-wise softmax with max subtraction; accepts (n, k) or (k,)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ConfigError("softmax of an empty vector")
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if squeeze else p


def cross_entropy(probs, labels, eps=1e-300):
    """Mean negative log-likelihood of the true classes."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    picked = p[np.arange(p.shape[0]), labels]
    return float(-np.log(np.maximum(picked, eps)).mean())


def softmax_xent_backward(probs, labels):
    """Gradient of mean cross-entropy wrt logits: (probs - one_hot) / n."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64)).copy()
    labels = np.atleast_1d(np.asarray(labels))
    p[np.arange(p.shape[0]), labels] -= 1.0
    return p / p.shape[0]


def init_weights(shape, fan_in, rng):
    """Fan-in-scaled uniform init: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
