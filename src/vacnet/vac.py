"""Visual attention condenser: a stand-alone spatial-channel self-attention block.

Pipeline: pointwise down-mixing -> max-pool condensation -> two-layer
embedding (grouped conv + ReLU, then pointwise conv + sigmoid) -> max-unpool
expansion back to the down-mixed grid -> elementwise gating by the expanded
attention values and a learned scale -> pointwise up-mixing back to the input
channel count. Output shape always equals input shape, so the block is a
drop-in layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import ConfigError, ConvSpec, IntegrityError, ShapeError


@dataclass(frozen=True)
class VacConfig(K.ParamTable):
    c_in: int
    c_down: int
    e1: int
    e2: int
    c_up: int
    pool: tuple[int, int] = (2, 2)          # (kernel, stride), square
    embed_kernel: int = 3
    embed_groups: int = 1
    per_channel_scale: bool = False
    expand_mode: str = "unpool"             # "unpool" | "nearest"
    kind = "vac"

    def __post_init__(self):
        if self.c_down > self.c_in:
            raise ConfigError(f"c_down={self.c_down} must not exceed c_in={self.c_in}")
        if self.c_up != self.c_in:
            raise ConfigError(f"c_up={self.c_up} must equal c_in={self.c_in}")
        if self.e2 != self.c_down:
            raise ConfigError(f"e2={self.e2} must equal c_down={self.c_down} "
                              "so attention values live on the down-mixed grid")
        if self.embed_kernel % 2 == 0:
            raise ConfigError(f"embed_kernel={self.embed_kernel} must be odd, so that "
                              "the padded embedding keeps the pooled grid")
        if self.pool[0] < 1 or self.pool[1] < 1:
            raise ConfigError(f"bad pool {self.pool}")
        if self.expand_mode not in ("unpool", "nearest"):
            raise ConfigError(f"unknown expand_mode {self.expand_mode!r}")
        self.convs  # each ConvSpec checks its channels, kernel and groups

    @functools.cached_property
    def convs(self):
        """ConvSpecs of the four learned layers by name, in pipeline order."""
        k = self.embed_kernel
        return {"down": ConvSpec(self.c_in, self.c_down),
                "embed_grouped": ConvSpec(self.c_down, self.e1, kernel=(k, k),
                                          padding=(k // 2, k // 2), groups=self.embed_groups),
                "embed_pointwise": ConvSpec(self.e1, self.e2),
                "up": ConvSpec(self.c_down, self.c_up)}

    def down_spec(self):
        return self.convs["down"]

    def embed_grouped_spec(self):
        return self.convs["embed_grouped"]

    def embed_pointwise_spec(self):
        return self.convs["embed_pointwise"]

    def up_spec(self):
        return self.convs["up"]

    def out_shape(self, c, h, w):
        if self.pool[0] > min(h, w):
            raise ShapeError(f"pool kernel {self.pool[0]} larger than {h}x{w} input")
        return c, h, w

    def param_shapes(self):
        """``<conv>_w``/``<conv>_b`` for each conv in pipeline order, then ``scale``."""
        return {**K.conv_param_shapes(self.convs),
                "scale": (self.c_down,) if self.per_channel_scale else ()}

    def mult_adds(self, h, w):
        """The four convolutions (the embedding runs on the pooled grid) plus
        the gating: one multiply for the attention product and one for the
        scale, per element of the down-mixed activation."""
        pk, ps = self.pool
        qh, qw = (h - pk) // ps + 1, (w - pk) // ps + 1
        c = self.convs
        return (c["down"].mult_adds(h, w) + c["embed_grouped"].mult_adds(qh, qw)
                + c["embed_pointwise"].mult_adds(qh, qw)
                + 2 * self.c_down * h * w + c["up"].mult_adds(h, w))


def _expand_nearest_maps(h, w, qh, qw, stride):
    rows = np.minimum(np.arange(h) // stride, qh - 1)
    cols = np.minimum(np.arange(w) // stride, qw - 1)
    return rows, cols


def vac_forward(v, p, config):
    """Run the block on parameters ``p`` (from ``config.init_params``);
    returns (output, cache) where cache feeds vac_backward."""
    K.check_finite(v, "vac input")
    pk, ps = config.pool
    convs = config.convs

    v_down = K.named_conv_forward(v, p, convs, "down")
    q, idx = K.maxpool2d_forward(v_down, (pk, pk), (ps, ps))
    e_act = K.relu_forward(K.named_conv_forward(q, p, convs, "embed_grouped"))
    k_sig = K.sigmoid_forward(K.named_conv_forward(e_act, p, convs, "embed_pointwise"))
    if config.expand_mode == "unpool":
        attn = K.unpool2d_forward(k_sig, idx, v_down.shape)
        nearest_maps = None
    else:
        (h, w), (qh, qw) = v_down.shape[2:], k_sig.shape[2:]
        rows, cols = _expand_nearest_maps(h, w, qh, qw, ps)
        attn = k_sig[:, :, rows[:, None], cols[None, :]]
        nearest_maps = (rows, cols)

    gated = v_down * attn
    gated *= p["scale"].reshape(-1, 1, 1)  # in place: a broadcast product allocates
    out = K.named_conv_forward(gated, p, convs, "up")

    cache = {
        "config": config, "input": v, "v_down": v_down, "pool_idx": idx,
        "e_act": e_act, "k_sig": k_sig, "attn": attn,
        "gated": gated, "nearest_maps": nearest_maps, "q": q,
    }
    return out, cache


def vac_backward(grad_out, cache, p, config):
    """Gradients for the input and every parameter; returns (grad_input,
    grads), with grads keyed and ordered like ``p``."""
    if cache.get("config") is not config and cache.get("config") != config:
        raise IntegrityError("cache was produced by a different configuration")
    v = cache["input"]
    v_down = cache["v_down"]
    attn = cache["attn"]
    grad_out = np.asarray(grad_out)
    if grad_out.shape != v.shape:
        raise IntegrityError(f"grad shape {grad_out.shape} does not match cached "
                             f"forward output {v.shape}")

    grads = {}
    convs = config.convs
    g_gated = K.named_conv_backward(grad_out, cache["gated"], p, convs, "up", grads)

    s = p["scale"].reshape(-1, 1, 1)
    g_vdown_f = g_gated * attn
    g_vdown_f *= s
    g_attn = g_gated * v_down
    # a scalar scale keeps a plain sum; a per-channel one of size 1 keeps shape (1,)
    axes = (0, 2, 3) if p["scale"].ndim else None
    grads["scale"] = np.asarray((g_attn * attn).sum(axis=axes))
    g_attn *= s

    if config.expand_mode == "unpool":
        g_ksig = K.unpool2d_backward(g_attn, cache["pool_idx"])
    else:
        rows, cols = cache["nearest_maps"]
        g_ksig = np.zeros_like(cache["k_sig"])
        np.add.at(g_ksig, (slice(None), slice(None), rows[:, None], cols[None, :]), g_attn)

    g_kpre = K.sigmoid_backward(g_ksig, cache["k_sig"])
    g_eact = K.named_conv_backward(g_kpre, cache["e_act"], p, convs, "embed_pointwise", grads)
    g_epre = K.relu_backward(g_eact, cache["e_act"])
    g_q = K.named_conv_backward(g_epre, cache["q"], p, convs, "embed_grouped", grads)
    g_vdown = g_vdown_f + K.maxpool2d_backward(g_q, cache["pool_idx"], v_down.shape)
    g_v = K.named_conv_backward(g_vdown, v, p, convs, "down", grads)
    return g_v, {name: grads[name] for name in p}
