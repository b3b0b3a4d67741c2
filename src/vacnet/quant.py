"""Symmetric 8-bit weight quantization with reference (dequantize) inference.

Weights are stored as signed int8 with one positive scale per group
(whole tensor, or one per output channel for rank >= 2 weights). Biases stay
at full precision; every other parameter counts as a weight. A quantized
network is an ordinary ``netbuilder.Network``: ``net.blobs`` keeps each int8
weight as a ``QuantizedBlob`` and the parameter holds its dequantized values,
so inference runs the ordinary float kernels. The claim under test is weight
memory, not integer throughput.
"""

from __future__ import annotations

import math

import numpy as np

from . import netbuilder
from .kernels import ConfigError

PER_TENSOR = "per_tensor"
PER_CHANNEL = "per_channel"


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_array(arr, mode):
    """Quantize one weight tensor: scale = max|w|/127 per group (the whole
    tensor, or each output channel). A group whose scale comes out 0 (all
    zeros, or max|w|/127 underflows) gets scale 1, so its values stay 0."""
    arr = np.asarray(arr, dtype=np.float64)
    per_channel = mode == PER_CHANNEL and arr.ndim >= 2
    flat = arr.reshape(arr.shape[0] if per_channel else 1, -1)
    with np.errstate(under="ignore"):
        scales = np.abs(flat).max(axis=1, initial=0.0) / 127.0
        scales[scales == 0] = 1.0
        q = _round_half_away(flat / scales[:, None]).reshape(arr.shape)
    values = np.clip(q, -127, 127).astype(np.int8)
    return netbuilder.QuantizedBlob(values, scales, per_channel)


def is_bias(name):
    leaf = name.rsplit(".", 1)[-1]
    return leaf == "b" or leaf.endswith("_b")


def quantize_weights(net, mode=PER_CHANNEL):
    if mode not in (PER_TENSOR, PER_CHANNEL):
        raise ConfigError(f"unknown quantization mode {mode!r}")
    qnet = netbuilder.compile_spec(net.spec, seed=None)
    params = dict(qnet.parameters())
    for name, arr in net.parameters():
        if is_bias(name):
            params[name][...] = arr
            continue
        blob = qnet.blobs[name] = quantize_array(arr, mode)
        params[name][...] = blob.dequantize()
    return qnet


def weight_memory_bytes(net, bits_per_weight, include_scales=False):
    """ceil(params * bits / 8); optionally adds 4 bytes per stored scale."""
    if bits_per_weight not in (8, 32):
        raise ConfigError(f"bits must be 8 or 32, got {bits_per_weight}")
    nbytes = math.ceil(net.param_count() * bits_per_weight / 8)
    if include_scales:
        nbytes += 4 * sum(b.scales.size for b in net.blobs.values())
    return nbytes


# .acnk8 files are netbuilder model files whose int8 weights are tag-1 blobs.
# The names are bound to the netbuilder functions themselves, not wrapped, so a
# tracer that wraps module attributes sees one call, not a nested save or load.
save_quantized = netbuilder.save
load_quantized = netbuilder.load
