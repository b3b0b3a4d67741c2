"""Span tracer for the traced benchmark run, installed from outside vacnet.

The tracer replaces public vacnet functions at the attribute each caller
looks up: blocks call ``K.conv2d_forward`` through the ``kernels`` module,
``netbuilder`` imports ``vac_forward`` and friends by name, and the network
and trainer entry points are looked up on their module or class. Each call
becomes a span (name, start, end, parent id, mult-adds). Spans stay in
memory until the run ends; self time is a span's duration minus the time
its child spans cover.

Mult-adds follow the convention of the ``vacnet.complexity`` docstring: one
per scalar multiplication of the forward pass, so a convolution counts
kh*kw*(c_in/g)*c_out*oh*ow per image, a fully-connected layer in*out, and
the VAC gating 2*c_down*h*w. A backward call counts twice its forward
(input gradient plus weight gradient).
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np


class JoinError(AssertionError):
    """Traced mult-adds disagree with the analytic count."""


def conv_kind(spec):
    """pointwise (k=1, g=1), dense (k>1, g=1), depthwise (g=c_in), else grouped."""
    if spec.groups == 1:
        return "pointwise" if spec.kernel == (1, 1) else "dense"
    if spec.groups == spec.c_in:
        return "depthwise"
    return "grouped"


def conv_mult_adds(x_shape, spec):
    n, _, h, w = x_shape
    oh, ow = spec.out_hw(h, w)
    kh, kw = spec.kernel
    return n * kh * kw * (spec.c_in // spec.groups) * spec.c_out * oh * ow


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# A labeller maps one call's (args, kwargs) to its span name and mult-adds.

def _fixed(name):
    return lambda args, kwargs: (name, 0)


def _conv(phase, input_pos, input_key, factor):
    def label(args, kwargs):
        spec = _arg(args, kwargs, 3, "spec")
        x = _arg(args, kwargs, input_pos, input_key)
        return (f"kernels.conv_{conv_kind(spec)}.{phase}",
                factor * conv_mult_adds(np.shape(x), spec))
    return label


def _fc(phase, input_pos, input_key, factor):
    def label(args, kwargs):
        x = _arg(args, kwargs, input_pos, input_key)
        w = _arg(args, kwargs, 2 if phase == "bwd" else 1, "weights")
        return f"kernels.fc.{phase}", factor * np.shape(x)[0] * np.size(w)
    return label


def _vac(phase, input_pos, input_key, factor):
    # The gating is the only VAC arithmetic outside its convolutions.
    def label(args, kwargs):
        config = _arg(args, kwargs, 3 if phase == "bwd" else 2, "config")
        n, _, h, w = np.shape(_arg(args, kwargs, input_pos, input_key))
        return f"vac.{phase}", factor * 2 * config.c_down * h * w * n
    return label


# (module, owner attribute or None, function attribute, labeller)
HOOKS = (
    ("kernels", None, "conv2d_forward", _conv("fwd", 0, "x", 1)),
    ("kernels", None, "conv2d_backward", _conv("bwd", 1, "saved_input", 2)),
    ("kernels", None, "maxpool2d_forward", _fixed("kernels.maxpool.fwd")),
    ("kernels", None, "maxpool2d_backward", _fixed("kernels.maxpool.bwd")),
    ("kernels", None, "unpool2d_forward", _fixed("kernels.unpool.fwd")),
    ("kernels", None, "unpool2d_backward", _fixed("kernels.unpool.bwd")),
    ("kernels", None, "relu_forward", _fixed("kernels.relu.fwd")),
    ("kernels", None, "relu_backward", _fixed("kernels.relu.bwd")),
    ("kernels", None, "sigmoid_forward", _fixed("kernels.sigmoid.fwd")),
    ("kernels", None, "sigmoid_backward", _fixed("kernels.sigmoid.bwd")),
    ("kernels", None, "fc_forward", _fc("fwd", 0, "x", 1)),
    ("kernels", None, "fc_backward", _fc("bwd", 1, "saved_input", 2)),
    ("kernels", None, "softmax", _fixed("kernels.xent.fwd")),
    ("kernels", None, "cross_entropy", _fixed("kernels.xent.fwd")),
    ("kernels", None, "softmax_xent_backward", _fixed("kernels.xent.bwd")),
    ("netbuilder", None, "vac_forward", _vac("fwd", 0, "v", 1)),
    ("netbuilder", None, "vac_backward", _vac("bwd", 0, "grad_out", 2)),
    ("netbuilder", None, "pepe_forward", _fixed("pepe.fwd")),
    ("netbuilder", None, "pepe_backward", _fixed("pepe.bwd")),
    ("netbuilder", "Network", "forward", _fixed("netbuilder.forward")),
    ("netbuilder", "Network", "loss_and_backward", _fixed("netbuilder.backward")),
    ("netbuilder", None, "parse_dsl", _fixed("netbuilder.parse")),
    ("netbuilder", None, "compile_spec", _fixed("netbuilder.compile")),
    ("netbuilder", None, "save", _fixed("netbuilder.save")),
    ("netbuilder", None, "load", _fixed("netbuilder.load")),
    ("quant", None, "quantize_weights", _fixed("quant.quantize")),
    ("quant", None, "save_quantized", _fixed("quant.save")),
    ("quant", None, "load_quantized", _fixed("quant.load")),
    ("trainer", None, "train", _fixed("trainer.train")),
    ("trainer", None, "evaluate", _fixed("trainer.evaluate")),
)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.macs = []
        self._stack = []
        self._undo = []

    def _open(self, name, macs):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.macs.append(macs)
        self.ends.append(None)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _close(self, i):
        self.ends[i] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, macs=0):
        i = self._open(name, macs)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr, label):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = self._open(*label(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self._close(i)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, mods):
        """Wrap every HOOKS entry on the given module namespace."""
        for module, owner, attr, label in HOOKS:
            target = getattr(mods, module)
            self.wrap(getattr(target, owner) if owner else target, attr, label)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path, names=np.array(table),
            name_id=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts), end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
            macs=np.array(self.macs, dtype=np.int64))


def summarise(tracer):
    """Totals per (root span name, span name): calls, duration, self time and
    mult-adds of the span's whole subtree. Times in seconds."""
    n = len(tracer.names)
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    subtree = list(tracer.macs)
    for i in range(n - 1, -1, -1):   # children always follow their parent
        p = tracer.parents[i]
        if p >= 0:
            child[p] += dur[i]
            subtree[p] += subtree[i]
    root = [0] * n
    for i in range(n):
        p = tracer.parents[i]
        root[i] = i if p < 0 else root[p]
    totals = {}
    for i in range(n):
        key = (tracer.names[root[i]], tracer.names[i])
        t = totals.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0, "macs": 0})
        t["calls"] += 1
        t["s"] += dur[i]
        t["self_s"] += dur[i] - child[i]
        t["macs"] += subtree[i]
    return totals


def forward_mult_adds(tracer):
    """Forward-pass mult-adds in the trace: conv and fc calls plus VAC gating."""
    total = 0
    for name, macs in zip(tracer.names, tracer.macs):
        if name.endswith(".fwd") and (name.startswith("kernels.conv_")
                                      or name in ("kernels.fc.fwd", "vac.fwd")):
            total += macs
    return total


def join_mult_adds(mods, spec_name, batch=2):
    """Trace one forward pass of a reference spec and check that its mult-adds
    equal batch * count_mult_adds(spec).total_mult_adds. Returns the count
    per image; raises JoinError on a mismatch."""
    spec = mods.netbuilder.reference_spec(spec_name)
    net = mods.netbuilder.compile_spec(spec, seed=0)
    x = np.random.Generator(np.random.PCG64(0)).random((batch, *spec.input_shape))
    tracer = Tracer()
    tracer.install(mods)
    try:
        net.forward(x)
    finally:
        tracer.uninstall()
    traced = forward_mult_adds(tracer)
    analytic = batch * mods.complexity.count_mult_adds(spec).total_mult_adds
    if traced != analytic:
        raise JoinError(f"{spec_name}: traced forward mult-adds {traced} != "
                        f"batch {batch} x count_mult_adds {analytic // batch}")
    return analytic // batch
