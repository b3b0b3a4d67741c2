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
class PepeConfig(K.ParamTable):
    c_in: int
    p1: int
    e1: int
    p2: int
    e2: int
    dw_kernel: int = 3
    stride: int = 1
    kind = "pepe"

    def __post_init__(self):
        if not self.p1 < self.c_in:
            raise ConfigError(f"first projection must reduce: p1={self.p1} >= c_in={self.c_in}")
        if not self.p2 < self.e1:
            raise ConfigError(f"second projection must reduce: p2={self.p2} >= e1={self.e1}")
        if self.e2 < self.p2:
            raise ConfigError("expansions must not reduce channel count")
        self.convs  # each ConvSpec checks its channels, kernel, stride and groups

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

    def param_shapes(self):
        """``<conv>_w``/``<conv>_b`` for each conv in pipeline order."""
        return K.conv_param_shapes(self.convs)

    def mult_adds(self, h, w):
        total = 0
        for spec in self.convs.values():
            total += spec.mult_adds(h, w)
            h, w = spec.out_hw(h, w)
        return total


def pepe_forward(x, p, config):
    K.check_finite(x, "pepe input")
    acts = [x]
    for name in config.convs:
        acts.append(K.relu_forward(K.named_conv_forward(acts[-1], p, config.convs, name)))
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
    for i, name in reversed(list(enumerate(config.convs))):
        grad = K.named_conv_backward(K.relu_backward(grad, acts[i + 1]), acts[i], p,
                                     config.convs, name, grads)
    return grad, {name: grads[name] for name in p}
