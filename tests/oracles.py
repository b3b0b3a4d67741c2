"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: explicit Python loops, no shared code
with the package's optimized paths. ``MulCounter`` instances are threaded
through to literally count scalar multiplications one at a time.
"""

import numpy as np

from vacnet.netbuilder import (ConvLayer, FcLayer, GapLayer, ResidualGroup,
                               SoftmaxLayer)
from vacnet.pepe import PepeConfig
from vacnet.vac import VacConfig


class MulCounter:
    def __init__(self):
        self.n = 0


def naive_conv2d(x, w, b, stride=(1, 1), padding=(0, 0), groups=1, counter=None):
    """Direct seven-nested-loop convolution."""
    n, c_in, h, ww = x.shape
    c_out, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    assert cg == c_in // groups
    xp = np.zeros((n, c_in, h + 2 * ph, ww + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + ww] = x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (ww + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, oh, ow))
    og = c_out // groups
    for bi in range(n):
        for oc in range(c_out):
            g = oc // og
            for oy in range(oh):
                for ox in range(ow):
                    acc = b[oc]
                    for ic in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (w[oc, ic, ky, kx]
                                        * xp[bi, g * cg + ic, oy * sh + ky, ox * sw + kx])
                                if counter is not None:
                                    counter.n += 1
                    out[bi, oc, oy, ox] = acc
    return out


def naive_conv2d_backward(grad_out, x, w, stride=(1, 1), padding=(0, 0), groups=1):
    """Gradients (input, weights, bias) of naive_conv2d, one product at a time.

    Every forward product w[oc, ic, ky, kx] * xp[...] sends grad_out times
    the other factor to each side; taps that land in the padding are dropped.
    """
    n, c_in, h, ww = x.shape
    c_out, cg, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    sh, sw = stride
    ph, pw = padding
    og = c_out // groups
    gx = np.zeros((n, c_in, h, ww))
    gw = np.zeros((c_out, cg, kh, kw))
    gb = np.zeros(c_out)
    for bi in range(n):
        for oc in range(c_out):
            g = oc // og
            for oy in range(oh):
                for ox in range(ow):
                    go = grad_out[bi, oc, oy, ox]
                    gb[oc] += go
                    for ic in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                y = oy * sh + ky - ph
                                xx = ox * sw + kx - pw
                                if 0 <= y < h and 0 <= xx < ww:
                                    c = g * cg + ic
                                    gw[oc, ic, ky, kx] += go * x[bi, c, y, xx]
                                    gx[bi, c, y, xx] += go * w[oc, ic, ky, kx]
    return gx, gw, gb


def naive_maxpool(x, kernel, stride):
    """Brute-force per-window max plus flat argmax offsets (lowest offset wins;
    a NaN wins only as its window's first tap, since nothing is > NaN and NaN
    is > nothing), in the input's dtype."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    idx = np.zeros((n, c, oh, ow), dtype=np.int64)
    for bi in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = None
                    best_off = -1
                    for ky in range(kh):
                        for kx in range(kw):
                            y, xx = oy * sh + ky, ox * sw + kx
                            v = x[bi, ci, y, xx]
                            if best is None or v > best:
                                best = v
                                best_off = ((bi * c + ci) * h + y) * w + xx
                    out[bi, ci, oy, ox] = best
                    idx[bi, ci, oy, ox] = best_off
    return out, idx


def naive_unpool(x, idx, out_shape):
    out = np.zeros(int(np.prod(out_shape)))
    for v, i in zip(x.ravel(), idx.ravel()):
        out[i] += v
    return out.reshape(out_shape)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def naive_network_forward(spec, params, x, counter):
    """Run a compiled network's parameters through the naive kernels,
    counting every multiplication. ``params`` maps qualified names to arrays
    (from Network.parameters())."""
    def conv(prefix, x, conv_spec, relu):
        y = naive_conv2d(x, params[prefix + "w"], params[prefix + "b"],
                         conv_spec.stride, conv_spec.padding, conv_spec.groups,
                         counter)
        return np.maximum(y, 0.0) if relu else y

    def run_vac(name, cfg, x):
        vd = naive_conv2d(x, params[f"{name}.down_w"], params[f"{name}.down_b"],
                          counter=counter)
        pk = cfg.pool
        q, idx = naive_maxpool(vd, (pk, pk), (pk, pk))
        gs = cfg.embed_grouped_spec()
        e = naive_conv2d(q, params[f"{name}.embed_grouped_w"],
                         params[f"{name}.embed_grouped_b"], gs.stride, gs.padding,
                         gs.groups, counter)
        e = np.maximum(e, 0.0)
        k = naive_conv2d(e, params[f"{name}.embed_pointwise_w"],
                         params[f"{name}.embed_pointwise_b"], counter=counter)
        attn = naive_unpool(_sigmoid(k), idx, vd.shape)
        scale = params[f"{name}.scale"]  # shape () or one per down-mixed channel
        gated = np.zeros_like(vd)
        for i in np.ndindex(*vd.shape):
            gated[i] = vd[i] * attn[i]
            counter.n += 1
            gated[i] = gated[i] * (scale[i[1]] if scale.ndim else scale)
            counter.n += 1
        return naive_conv2d(gated, params[f"{name}.up_w"], params[f"{name}.up_b"],
                            counter=counter)

    def run_pepe(name, cfg, x):
        for spec_i, pname in zip(cfg.specs(), ("proj1", "dwexp", "proj2", "pwexp")):
            x = naive_conv2d(x, params[f"{name}.{pname}_w"],
                             params[f"{name}.{pname}_b"], spec_i.stride,
                             spec_i.padding, spec_i.groups, counter)
            x = np.maximum(x, 0.0)
        return x

    def run_layers(layers, x, prefix=""):
        for i, layer in enumerate(layers):
            name = f"{prefix}{i}"
            if isinstance(layer, ConvLayer):
                x = conv(f"{name}.conv.", x, layer.spec, relu=True)
            elif isinstance(layer, VacConfig):
                x = run_vac(f"{name}.vac", layer, x)
            elif isinstance(layer, PepeConfig):
                x = run_pepe(f"{name}.pepe", layer, x)
            elif isinstance(layer, ResidualGroup):
                x = x + run_layers(layer.body, x, f"{name}.res.")
            elif isinstance(layer, GapLayer):
                x = x.mean(axis=(2, 3), keepdims=True)
            elif isinstance(layer, FcLayer):
                w = params[f"{name}.fc.w"]
                bb = params[f"{name}.fc.b"]
                flat = x.reshape(x.shape[0], -1)
                y = np.zeros((flat.shape[0], w.shape[0]))
                for bi in range(flat.shape[0]):
                    for o in range(w.shape[0]):
                        acc = bb[o]
                        for j in range(w.shape[1]):
                            acc += w[o, j] * flat[bi, j]
                            counter.n += 1
                        y[bi, o] = acc
                x = y
            elif isinstance(layer, SoftmaxLayer):
                e = np.exp(x - x.max(axis=1, keepdims=True))
                x = e / e.sum(axis=1, keepdims=True)
        return x

    return run_layers(spec.layers, x)


def numeric_grad(f, arr, eps=1e-6):
    """Central finite differences of scalar f() wrt arr, mutating arr in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def assert_close_grad(analytic, numeric, tol):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / denom
    assert err.max() <= tol, f"gradient mismatch: max rel err {err.max():.3e} > {tol}"
