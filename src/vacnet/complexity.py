"""Exact parameter / mult-add / weight-memory accounting and ratio comparison.

Mult-add convention: one mult-add per scalar multiplication in the forward
pass. Convolution contributes kh*kw*(c_in/g)*c_out*h_out*w_out, a
fully-connected layer in*out, and the attention gating two multiplications
per gated element (value product and scale product). Comparisons, max, exp,
and division are excluded, so pooling, unpooling, GAP, ReLU, sigmoid, and
softmax count zero. Biases are additions only: counted in params, not in
mult-adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import ConfigError
from .netbuilder import NetworkSpec


@dataclass
class LayerRow:
    name: str
    params: int
    mult_adds: int
    bytes_at_bits: int


@dataclass
class ComplexityReport:
    rows: list
    total_params: int
    total_mult_adds: int
    total_bytes: int
    bits: int

    def to_csv(self):
        lines = ["name,params,mult_adds,bits,bytes"]
        for r in self.rows:
            lines.append(f"{r.name},{r.params},{r.mult_adds},{self.bits},{r.bytes_at_bits}")
        lines.append(f"total,{self.total_params},{self.total_mult_adds},"
                     f"{self.bits},{self.total_bytes}")
        return "\n".join(lines) + "\n"

    def to_text(self):
        header = f"{'layer':<24}{'params':>12}{'mult-adds':>14}{'bytes':>12}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.name:<24}{r.params:>12}{r.mult_adds:>14}"
                         f"{r.bytes_at_bits:>12}")
        lines.append("-" * len(header))
        lines.append(f"{'total':<24}{self.total_params:>12}"
                     f"{self.total_mult_adds:>14}{self.total_bytes:>12}")
        return "\n".join(lines)


def _walk(layers, shape, prefix=""):
    """(name, params, mult-adds) rows of one image entering ``layers`` at
    ``shape``; a residual group contributes its inner layers' rows. Each
    layer checks the shape it gets before it is counted at that shape, so a
    map too small for a layer is reported by that layer."""
    rows = []
    for i, layer in enumerate(layers):
        name = f"{prefix}{i}"
        out = layer.out_shape(*shape)
        if layer.kind == "res":
            rows += _walk(layer.body, shape, f"{name}.res.")
        else:
            rows.append((f"{name}.{layer.kind}", layer.param_count(),
                         layer.mult_adds(*shape[1:])))
        shape = out
    return rows


def count_mult_adds(spec, input_shape=None, bits=32):
    """Per-layer and total accounting for one forward pass of a single sample."""
    if not isinstance(spec, NetworkSpec):
        raise ConfigError("count_mult_adds expects a NetworkSpec")
    if bits < 1:
        raise ConfigError(f"bits must be >= 1, got {bits}")
    input_shape = tuple(spec.input_shape if input_shape is None else input_shape)
    if input_shape[0] != spec.input_shape[0]:
        raise ConfigError(f"input shape {input_shape} disagrees with spec "
                          f"channels {spec.input_shape[0]}")
    raw = _walk(spec.layers, input_shape)
    rows = [LayerRow(name, p, ma, math.ceil(p * bits / 8)) for name, p, ma in raw]
    return ComplexityReport(
        rows=rows,
        total_params=sum(r.params for r in rows),
        total_mult_adds=sum(r.mult_adds for r in rows),
        total_bytes=sum(r.bytes_at_bits for r in rows),
        bits=bits)


@dataclass(frozen=True)
class ModelRow:
    name: str
    params: float
    mult_adds: float
    bits: int


@dataclass(frozen=True)
class RatioEntry:
    a: str
    b: str
    params_ratio: float
    mult_adds_ratio: float
    memory_ratio: float


def compare(models):
    """All ordered pairwise ratios A/B of params, mult-adds, and weight memory
    (params * bits) of a sequence of ``ModelRow`` with distinct names. Full
    precision; round only for display."""
    if len(models) < 2:
        raise ConfigError("compare needs at least two models")
    names = [r.name for r in models]
    for r in models:
        if names.count(r.name) > 1:
            raise ConfigError(f"model {r.name!r} is named more than once")
        if not (0 < r.params < math.inf and 0 < r.mult_adds < math.inf
                and 1 <= r.bits < math.inf):
            raise ConfigError(f"{r.name}: params and mult-adds must be finite and > 0, "
                              "and bits finite and >= 1")
    entries = []
    for a in models:
        for b in models:
            if a is b:
                continue
            entries.append(RatioEntry(
                a.name, b.name,
                a.params / b.params,
                a.mult_adds / b.mult_adds,
                (a.params * a.bits) / (b.params * b.bits)))
    return entries


def compare_to_csv(entries):
    lines = ["model_a,model_b,params_ratio,mult_adds_ratio,memory_ratio"]
    for e in entries:
        lines.append(f"{e.a},{e.b},{e.params_ratio:.2f},"
                     f"{e.mult_adds_ratio:.2f},{e.memory_ratio:.2f}")
    return "\n".join(lines) + "\n"


def compare_to_text(entries):
    header = (f"{'model A':<16}{'model B':<16}{'params':>9}"
              f"{'mult-adds':>11}{'memory':>9}")
    lines = [header, "-" * len(header)]
    for e in entries:
        lines.append(f"{e.a:<16}{e.b:<16}{e.params_ratio:>8.2f}x"
                     f"{e.mult_adds_ratio:>10.2f}x{e.memory_ratio:>8.2f}x")
    return "\n".join(lines)
