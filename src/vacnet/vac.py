"""Visual attention condenser: a stand-alone spatial-channel self-attention block.

Pipeline: pointwise down-mixing -> max-pool condensation -> two-layer
embedding (grouped conv + ReLU, then pointwise conv + sigmoid) -> max-unpool
expansion back to the down-mixed grid -> elementwise gating by the expanded
attention values and a learned scale -> pointwise up-mixing back to the input
channel count. Output shape always equals input shape, so the block is a
drop-in layer.

The pool's kernel is also its stride, so its windows tile the map. Unpool
expansion leaves the attention zero except at the max-pool's picks, where
the down-mixed value is the pooled one, so the block gates on the condensed
grid, ``gated = unpool(q * k_sig * scale)``, and backward scatters the
gating's and the embedding's pooled-grid gradients in one pass.

The cache holds the block input, the pool picks, ``q``, the embedding's
ReLU output and ``k_sig``. It holds neither the expanded attention nor
``gated``, the up-mix's input: backward rebuilds ``gated`` with
``gating_map``, which runs the forward's own ops, so its bits are the
forward's.
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
    pool: int = 2                           # square max-pool kernel, also its stride
    embed_kernel: int = 3
    embed_groups: int = 1
    per_channel_scale: bool = False
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
        if self.pool < 1:
            raise ConfigError(f"bad pool {self.pool}")
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
        if self.pool > min(h, w):
            raise ShapeError(f"pool kernel {self.pool} larger than {h}x{w} input")
        return c, h, w

    def param_shapes(self):
        """``<conv>_w``/``<conv>_b`` for each conv in pipeline order, then ``scale``."""
        return {**K.conv_param_shapes(self.convs),
                "scale": (self.c_down,) if self.per_channel_scale else ()}

    def mult_adds(self, h, w):
        """The four convolutions (the embedding runs on the pooled grid) plus
        the gating: one multiply for the attention product and one for the
        scale, per element of the down-mixed activation, as the expanded
        formulation counts them; unpool expansion computes them at the picks
        alone."""
        qh, qw = h // self.pool, w // self.pool
        c = self.convs
        return (c["down"].mult_adds(h, w) + c["embed_grouped"].mult_adds(qh, qw)
                + c["embed_pointwise"].mult_adds(qh, qw)
                + 2 * self.c_down * h * w + c["up"].mult_adds(h, w))


def gating_map(cache, p):
    """The up-mix's input, from a ``vac_forward`` cache and the parameters
    ``p`` it ran on: ``unpool(q * k_sig * scale)`` onto the down-mixed grid."""
    v = cache["input"]
    gated = cache["q"] * cache["k_sig"]
    gated *= p["scale"].reshape(-1, 1, 1)  # in place: a broadcast product allocates
    return K.unpool2d_forward(gated, cache["pool_idx"],
                              (len(v), cache["config"].c_down, *v.shape[2:]))


def vac_forward(v, p, config):
    """Run the block on parameters ``p`` (from ``config.init_params``);
    returns (output, cache) where cache feeds vac_backward."""
    K.check_finite(v, "vac input")
    pk = config.pool
    convs = config.convs

    v_down = K.named_conv_forward(v, p, convs, "down")
    q, idx = K.maxpool2d_forward(v_down, (pk, pk), (pk, pk))
    e_act = K.named_conv_forward(q, p, convs, "embed_grouped")
    K.relu_forward(e_act, out=e_act)
    k_sig = K.sigmoid_forward(K.named_conv_forward(e_act, p, convs, "embed_pointwise"))
    cache = {"config": config, "input": v, "pool_idx": idx, "q": q,
             "e_act": e_act, "k_sig": k_sig}
    return K.named_conv_forward(gating_map(cache, p), p, convs, "up"), cache


def vac_backward(grad_out, cache, p, config, input_grad=True):
    """Gradients for the input and every parameter; returns (grad_input,
    grads), with grads keyed and ordered like ``p``. ``input_grad=False``
    returns None for the input gradient and skips the down-mix's share of
    it; the parameter gradients keep their bits."""
    if cache.get("config") is not config and cache.get("config") != config:
        raise IntegrityError("cache was produced by a different configuration")
    v = cache["input"]
    k_sig = cache["k_sig"]
    idx = cache["pool_idx"]
    grad_out = np.asarray(grad_out)
    if grad_out.shape != v.shape:
        raise IntegrityError(f"grad shape {grad_out.shape} does not match cached "
                             f"forward output {v.shape}")

    grads = {}
    convs = config.convs
    g_gated = K.named_conv_backward(grad_out, gating_map(cache, p), p, convs, "up", grads)

    s = p["scale"].reshape(-1, 1, 1)
    # a scalar scale keeps a plain sum; a per-channel one of size 1 keeps shape (1,)
    axes = (0, 2, 3) if p["scale"].ndim else None
    g_pick = K.unpool2d_backward(g_gated, idx)
    g_q_gate = g_pick * k_sig
    g_q_gate *= s
    g_ksig = g_pick * cache["q"]
    grads["scale"] = np.asarray((g_ksig * k_sig).sum(axis=axes))
    g_ksig *= s

    g_kpre = K.sigmoid_backward(g_ksig, k_sig)
    g_eact = K.named_conv_backward(g_kpre, cache["e_act"], p, convs, "embed_pointwise", grads)
    g_epre = K.relu_backward(g_eact, cache["e_act"])
    g_q = K.named_conv_backward(g_epre, cache["q"], p, convs, "embed_grouped", grads)
    # the gating's and the embedding's pooled-grid gradients, in one scatter
    g_q += g_q_gate
    g_vdown = K.maxpool2d_backward(g_q, idx, g_gated.shape)
    g_v = K.named_conv_backward(g_vdown, v, p, convs, "down", grads, input_grad)
    return g_v, {name: grads[name] for name in p}
