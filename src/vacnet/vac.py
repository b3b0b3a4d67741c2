"""Visual attention condenser: a stand-alone spatial-channel self-attention block.

Pipeline: pointwise down-mixing -> max-pool condensation -> two-layer
embedding (grouped conv + ReLU, then pointwise conv + sigmoid) -> max-unpool
expansion back to the down-mixed grid -> elementwise gating by the expanded
attention values and a learned scale -> pointwise up-mixing back to the input
channel count. Output shape always equals input shape, so the block is a
drop-in layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import ConfigError, ConvSpec, IntegrityError, ShapeError


@dataclass(frozen=True)
class VacConfig:
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
        if min(self.c_down, self.e1, self.embed_kernel, self.embed_groups) < 1:
            raise ConfigError("c_down, e1, embed_kernel and embed_groups must be >= 1, "
                              f"got {self}")
        if self.c_down > self.c_in:
            raise ConfigError(f"c_down={self.c_down} must not exceed c_in={self.c_in}")
        if self.c_up != self.c_in:
            raise ConfigError(f"c_up={self.c_up} must equal c_in={self.c_in}")
        if self.e2 != self.c_down:
            raise ConfigError(f"e2={self.e2} must equal c_down={self.c_down} "
                              "so attention values live on the down-mixed grid")
        if self.c_down % self.embed_groups or self.e1 % self.embed_groups:
            raise ConfigError(f"embed_groups={self.embed_groups} must divide "
                              f"c_down={self.c_down} and e1={self.e1}")
        if self.pool[0] < 1 or self.pool[1] < 1:
            raise ConfigError(f"bad pool {self.pool}")
        if self.expand_mode not in ("unpool", "nearest"):
            raise ConfigError(f"unknown expand_mode {self.expand_mode!r}")

    # ConvSpecs of the four learned layers, in pipeline order.
    def down_spec(self):
        return ConvSpec(self.c_in, self.c_down)

    def embed_grouped_spec(self):
        k = self.embed_kernel
        return ConvSpec(self.c_down, self.e1, kernel=(k, k), padding=(k // 2, k // 2),
                        groups=self.embed_groups)

    def embed_pointwise_spec(self):
        return ConvSpec(self.e1, self.e2)

    def up_spec(self):
        return ConvSpec(self.c_down, self.c_up)

    def specs(self):
        return (self.down_spec(), self.embed_grouped_spec(),
                self.embed_pointwise_spec(), self.up_spec())

    def out_shape(self, c, h, w):
        if self.pool[0] > min(h, w):
            raise ShapeError(f"pool kernel {self.pool[0]} larger than {h}x{w} input")
        return c, h, w

    def param_count(self):
        """Exact learnable scalar count of one block."""
        scales = self.c_down if self.per_channel_scale else 1
        return sum(spec.param_count() for spec in self.specs()) + scales

    def mult_adds(self, h, w, bias=False):
        """The four convolutions (the embedding runs on the pooled grid) plus
        the gating: one multiply for the attention product and one for the
        scale, per element of the down-mixed activation."""
        pk, ps = self.pool
        qh, qw = (h - pk) // ps + 1, (w - pk) // ps + 1
        return (self.down_spec().mult_adds(h, w, bias)
                + self.embed_grouped_spec().mult_adds(qh, qw, bias)
                + self.embed_pointwise_spec().mult_adds(qh, qw, bias)
                + 2 * self.c_down * h * w + self.up_spec().mult_adds(h, w, bias))


@dataclass
class VacParams:
    down_w: np.ndarray
    down_b: np.ndarray
    embed_grouped_w: np.ndarray
    embed_grouped_b: np.ndarray
    embed_pointwise_w: np.ndarray
    embed_pointwise_b: np.ndarray
    up_w: np.ndarray
    up_b: np.ndarray
    scale: np.ndarray  # shape () or (c_down,)

    def as_list(self):
        return [("down_w", self.down_w), ("down_b", self.down_b),
                ("embed_grouped_w", self.embed_grouped_w),
                ("embed_grouped_b", self.embed_grouped_b),
                ("embed_pointwise_w", self.embed_pointwise_w),
                ("embed_pointwise_b", self.embed_pointwise_b),
                ("up_w", self.up_w), ("up_b", self.up_b), ("scale", self.scale)]


def init_vac_params(config, rng):
    """Allocate parameters with fan-in-scaled uniform weights, zero biases, scale 1."""
    convs = [arr for spec in config.specs() for arr in spec.init_params(rng)]
    scale = np.ones(config.c_down) if config.per_channel_scale else np.ones(())
    return VacParams(*convs, scale)


def _expand_nearest_maps(h, w, qh, qw, stride):
    rows = np.minimum(np.arange(h) // stride, qh - 1)
    cols = np.minimum(np.arange(w) // stride, qw - 1)
    return rows, cols


def vac_forward(v, params, config):
    """Run the block; returns (output, cache) where cache feeds vac_backward."""
    v = K.check_tensor(v, "vac input")
    if v.shape[1] != config.c_in:
        raise ConfigError(f"input has {v.shape[1]} channels, config expects {config.c_in}")
    n, _, h, w = v.shape
    pk, ps = config.pool

    v_down = K.conv2d_forward(v, params.down_w, params.down_b, config.down_spec())
    q, idx = K.maxpool2d_forward(v_down, (pk, pk), (ps, ps))
    e_pre = K.conv2d_forward(q, params.embed_grouped_w, params.embed_grouped_b,
                             config.embed_grouped_spec())
    e_act = K.relu_forward(e_pre)
    k_pre = K.conv2d_forward(e_act, params.embed_pointwise_w, params.embed_pointwise_b,
                             config.embed_pointwise_spec())
    k_sig = K.sigmoid_forward(k_pre)
    if config.expand_mode == "unpool":
        attn = K.unpool2d_forward(k_sig, idx, v_down.shape)
        nearest_maps = None
    else:
        qh, qw = k_sig.shape[2:]
        rows, cols = _expand_nearest_maps(h, w, qh, qw, ps)
        attn = k_sig[:, :, rows[:, None], cols[None, :]]
        nearest_maps = (rows, cols)

    s = params.scale if params.scale.ndim == 0 else params.scale[None, :, None, None]
    gated = v_down * attn * s
    out = K.conv2d_forward(gated, params.up_w, params.up_b, config.up_spec())

    cache = {
        "config": config, "input": v, "v_down": v_down, "pool_idx": idx,
        "e_pre": e_pre, "e_act": e_act, "k_sig": k_sig, "attn": attn,
        "gated": gated, "nearest_maps": nearest_maps, "q": q,
    }
    return out, cache


def vac_backward(grad_out, cache, params, config):
    """Gradients for the input and every parameter; returns (grad_input, VacParams)."""
    if cache.get("config") is not config and cache.get("config") != config:
        raise IntegrityError("cache was produced by a different configuration")
    v = cache["input"]
    v_down = cache["v_down"]
    attn = cache["attn"]
    grad_out = np.asarray(grad_out)
    expected = v.shape
    if grad_out.shape != expected:
        raise IntegrityError(f"grad shape {grad_out.shape} does not match cached "
                             f"forward output {expected}")

    g_gated, g_up_w, g_up_b = K.conv2d_backward(
        grad_out, cache["gated"], params.up_w, config.up_spec())

    s = params.scale if params.scale.ndim == 0 else params.scale[None, :, None, None]
    g_vdown_f = g_gated * attn * s
    g_attn = g_gated * v_down * s
    if params.scale.ndim == 0:
        g_scale = np.asarray((g_gated * v_down * attn).sum())
    else:
        g_scale = (g_gated * v_down * attn).sum(axis=(0, 2, 3))

    if config.expand_mode == "unpool":
        g_ksig = K.unpool2d_backward(g_attn, cache["pool_idx"])
    else:
        rows, cols = cache["nearest_maps"]
        g_ksig = np.zeros_like(cache["k_sig"])
        np.add.at(g_ksig, (slice(None), slice(None), rows[:, None], cols[None, :]), g_attn)

    g_kpre = K.sigmoid_backward(g_ksig, cache["k_sig"])
    g_eact, g_ep_w, g_ep_b = K.conv2d_backward(
        g_kpre, cache["e_act"], params.embed_pointwise_w, config.embed_pointwise_spec())
    g_epre = K.relu_backward(g_eact, cache["e_pre"])
    g_q, g_eg_w, g_eg_b = K.conv2d_backward(
        g_epre, cache["q"], params.embed_grouped_w, config.embed_grouped_spec())
    g_vdown = g_vdown_f + K.maxpool2d_backward(g_q, cache["pool_idx"], v_down.shape)
    g_v, g_down_w, g_down_b = K.conv2d_backward(
        g_vdown, v, params.down_w, config.down_spec())

    grads = VacParams(g_down_w, g_down_b, g_eg_w, g_eg_b, g_ep_w, g_ep_b,
                      g_up_w, g_up_b, g_scale)
    return g_v, grads


vac_param_count = VacConfig.param_count
