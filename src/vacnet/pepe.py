"""Projection-expansion-projection-expansion block.

Four convolutions: pointwise reduce (c_in -> p1), depthwise expand with an
integer channel multiplier (p1 -> e1, optional spatial stride), pointwise
reduce (e1 -> p2), pointwise expand (p2 -> e2). ReLU after each layer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import ConfigError, ConvSpec, IntegrityError


@dataclass(frozen=True)
class PepeConfig:
    c_in: int
    p1: int
    e1: int
    p2: int
    e2: int
    dw_kernel: int = 3
    stride: int = 1
    kind = "pepe"

    def __post_init__(self):
        if min(self.p1, self.p2, self.dw_kernel, self.stride) < 1:
            raise ConfigError(f"p1, p2, dw_kernel and stride must be >= 1: {self}")
        if not self.p1 < self.c_in:
            raise ConfigError(f"first projection must reduce: p1={self.p1} >= c_in={self.c_in}")
        if not self.p2 < self.e1:
            raise ConfigError(f"second projection must reduce: p2={self.p2} >= e1={self.e1}")
        if self.e1 < self.p1 or self.e2 < self.p2:
            raise ConfigError("expansions must not reduce channel count")
        if self.e1 % self.p1:
            raise ConfigError(f"depthwise multiplier e1/p1 must be an integer, "
                              f"got {self.e1}/{self.p1}")

    @functools.cached_property
    def convs(self):
        """ConvSpecs of the four convolutions by name, in pipeline order."""
        k = self.dw_kernel
        return {"proj1": ConvSpec(self.c_in, self.p1),
                "dwexp": ConvSpec(self.p1, self.e1, kernel=(k, k),
                                  stride=(self.stride, self.stride),
                                  padding=(k // 2, k // 2), groups=self.p1),
                "proj2": ConvSpec(self.e1, self.p2),
                "pwexp": ConvSpec(self.p2, self.e2)}

    def specs(self):
        return tuple(self.convs.values())

    def out_shape(self, c, h, w):
        for spec in self.convs.values():
            h, w = spec.out_hw(h, w)
        return self.e2, h, w

    def param_count(self):
        return sum(spec.param_count() for spec in self.convs.values())

    def mult_adds(self, h, w, bias=False):
        total = 0
        for spec in self.convs.values():
            total += spec.mult_adds(h, w, bias)
            h, w = spec.out_hw(h, w)
        return total

    def init_params(self, rng):
        """``<conv>_w``/``<conv>_b`` for each conv in pipeline order."""
        p = {}
        for name, spec in self.convs.items():
            p[f"{name}_w"], p[f"{name}_b"] = spec.init_params(rng)
        return p


def pepe_forward(x, p, config):
    x = K.check_tensor(x, "pepe input")
    if x.shape[1] != config.c_in:
        raise ConfigError(f"input has {x.shape[1]} channels, config expects {config.c_in}")
    acts = [x]
    for name, spec in config.convs.items():
        acts.append(K.relu_forward(
            K.conv2d_forward(acts[-1], p[f"{name}_w"], p[f"{name}_b"], spec)))
    cache = {"config": config, "acts": acts}
    return acts[-1], cache


def pepe_backward(grad_out, cache, p, config):
    """Returns (grad_input, grads), with grads keyed and ordered like ``p``."""
    if cache.get("config") != config:
        raise IntegrityError("cache was produced by a different configuration")
    acts = cache["acts"]
    grad = np.asarray(grad_out)
    if grad.shape != acts[-1].shape:
        raise IntegrityError(f"grad shape {grad.shape} does not match forward "
                             f"output {acts[-1].shape}")
    grads = {}
    for i, (name, spec) in reversed(list(enumerate(config.convs.items()))):
        grad = K.relu_backward(grad, acts[i + 1])
        grad, grads[f"{name}_w"], grads[f"{name}_b"] = K.conv2d_backward(
            grad, acts[i], p[f"{name}_w"], spec)
    return grad, {name: grads[name] for name in p}
