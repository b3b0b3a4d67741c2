"""Symmetric 8-bit weight quantization with reference (dequantize) inference.

Weights are stored as signed int8 with one positive scale per group
(whole tensor, or one per output channel for rank >= 2 weights). Biases stay
at full precision; every other parameter counts as a weight. Inference
dequantizes and runs the ordinary float kernels: the claim under test is
weight memory, not integer throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netbuilder
from .kernels import ConfigError

PER_TENSOR = "per_tensor"
PER_CHANNEL = "per_channel"


@dataclass
class QuantizedBlob:
    values: np.ndarray   # int8, original weight shape
    scales: np.ndarray   # (1,) for per-tensor, (c_out,) for per-channel
    per_channel: bool

    def dequantize(self):
        return netbuilder.dequantize(self.values, self.scales, self.per_channel)


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize_array(arr, mode):
    """Quantize one weight tensor. scale = max|w|/127 per group; zero groups
    get scale 1 so values stay 0 without dividing by zero."""
    arr = np.asarray(arr, dtype=np.float64)
    per_channel = mode == PER_CHANNEL and arr.ndim >= 2
    if per_channel:
        flat = arr.reshape(arr.shape[0], -1)
        maxabs = np.abs(flat).max(axis=1)
        scales = np.where(maxabs > 0, maxabs / 127.0, 1.0)
        q = _round_half_away(flat / scales[:, None]).reshape(arr.shape)
    else:
        maxabs = float(np.abs(arr).max()) if arr.size else 0.0
        scales = np.array([maxabs / 127.0 if maxabs > 0 else 1.0])
        q = _round_half_away(arr / scales[0])
    values = np.clip(q, -127, 127).astype(np.int8)
    return QuantizedBlob(values, scales, per_channel)


def is_bias(name):
    leaf = name.rsplit(".", 1)[-1]
    return leaf == "b" or leaf.endswith("_b")


class QuantizedNetwork:
    """A network whose weights were replaced by dequantized int8 values.

    ``network`` carries the dequantized float weights, so its forward IS the
    reference quantized forward; ``blobs`` keeps the int8 payloads for
    serialization and memory accounting.
    """

    def __init__(self, network, blobs, mode):
        self.network = network
        self.blobs = blobs  # name -> QuantizedBlob, insertion-ordered
        self.mode = mode

    @property
    def spec(self):
        return self.network.spec

    def param_count(self):
        return self.network.param_count()

    def forward(self, batch):
        return self.network.forward(batch)


def quantize_weights(net, mode=PER_CHANNEL):
    if mode not in (PER_TENSOR, PER_CHANNEL):
        raise ConfigError(f"unknown quantization mode {mode!r}")
    source = net.network if isinstance(net, QuantizedNetwork) else net
    qnet = netbuilder.compile_spec(source.spec, seed=source.seed)
    blobs = {}
    params = dict(qnet.parameters())
    for name, arr in source.parameters():
        if is_bias(name):
            params[name][...] = arr
            continue
        blob = quantize_array(arr, mode)
        blobs[name] = blob
        params[name][...] = blob.dequantize()
    return QuantizedNetwork(qnet, blobs, mode)


def weight_memory_bytes(net_or_qnet, bits_per_weight, include_scales=False):
    """ceil(params * bits / 8); optionally adds 4 bytes per stored scale."""
    if bits_per_weight not in (8, 32):
        raise ConfigError(f"bits must be 8 or 32, got {bits_per_weight}")
    total = net_or_qnet.param_count()
    nbytes = math.ceil(total * bits_per_weight / 8)
    if include_scales and isinstance(net_or_qnet, QuantizedNetwork):
        nbytes += 4 * sum(b.scales.size for b in net_or_qnet.blobs.values())
    return nbytes


# ---------------------------------------------------------------------------
# Quantized model container: the netbuilder format, with weight blobs stored
# as tag 1 (int8 values + scales) and biases as tag 0 (float64).

def save_quantized(qnet, path):
    netbuilder.write_model(qnet.network, path, qnet.blobs)


def load_quantized(path):
    net, raw = netbuilder.read_model(path)
    blobs = {name: QuantizedBlob(*blob) for name, blob in raw.items()}
    # scalar weights always store one scale, so any per-channel blob marks
    # the whole file as per-channel
    mode = PER_CHANNEL if any(b.per_channel for b in blobs.values()) else PER_TENSOR
    return QuantizedNetwork(net, blobs, mode)
