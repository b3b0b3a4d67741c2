"""Projection-expansion-projection-expansion block.

Four convolutions: pointwise reduce (c_in -> p1), depthwise expand with an
integer channel multiplier (p1 -> e1, optional spatial stride), pointwise
reduce (e1 -> p2), pointwise expand (p2 -> e2). ReLU after each layer.
"""

from __future__ import annotations

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

    def specs(self):
        k = self.dw_kernel
        return (
            ConvSpec(self.c_in, self.p1),
            ConvSpec(self.p1, self.e1, kernel=(k, k), stride=(self.stride, self.stride),
                     padding=(k // 2, k // 2), groups=self.p1),
            ConvSpec(self.e1, self.p2),
            ConvSpec(self.p2, self.e2),
        )

    def out_shape(self, c, h, w):
        for spec in self.specs():
            h, w = spec.out_hw(h, w)
        return self.e2, h, w

    def param_count(self):
        return sum(spec.param_count() for spec in self.specs())

    def mult_adds(self, h, w, bias=False):
        total = 0
        for spec in self.specs():
            total += spec.mult_adds(h, w, bias)
            h, w = spec.out_hw(h, w)
        return total


@dataclass
class PepeParams:
    weights: list  # four (w, b) pairs in pipeline order

    def as_list(self):
        names = ("proj1", "dwexp", "proj2", "pwexp")
        out = []
        for name, (w, b) in zip(names, self.weights):
            out.append((f"{name}_w", w))
            out.append((f"{name}_b", b))
        return out


def init_pepe_params(config, rng):
    return PepeParams([spec.init_params(rng) for spec in config.specs()])


def pepe_forward(x, params, config):
    x = K.check_tensor(x, "pepe input")
    if x.shape[1] != config.c_in:
        raise ConfigError(f"input has {x.shape[1]} channels, config expects {config.c_in}")
    acts = [x]
    pres = []
    for spec, (w, b) in zip(config.specs(), params.weights):
        pre = K.conv2d_forward(acts[-1], w, b, spec)
        pres.append(pre)
        acts.append(K.relu_forward(pre))
    cache = {"config": config, "acts": acts, "pres": pres}
    return acts[-1], cache


def pepe_backward(grad_out, cache, params, config):
    if cache.get("config") != config:
        raise IntegrityError("cache was produced by a different configuration")
    acts, pres = cache["acts"], cache["pres"]
    grad = np.asarray(grad_out)
    if grad.shape != acts[-1].shape:
        raise IntegrityError(f"grad shape {grad.shape} does not match forward "
                             f"output {acts[-1].shape}")
    grad_pairs = []
    layers = zip(config.specs(), params.weights, acts, pres)
    for spec, (w, _), act, pre in reversed(list(layers)):
        grad = K.relu_backward(grad, pre)
        grad, gw, gb = K.conv2d_backward(grad, act, w, spec)
        grad_pairs.append((gw, gb))
    return grad, PepeParams(grad_pairs[::-1])


pepe_param_count = PepeConfig.param_count
