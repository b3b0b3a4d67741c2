"""Architecture DSL, network compilation, and model (de)serialization.

The DSL is line-oriented, one directive per line:

    input C H W
    conv c8 [k1] [s1] [p0|same] [g1]
    vac dm4 e1:8 e2:4 um8 [pool2] [ek3] [g1] [spc0|1]
    pepe p1:8 e1:16 p2:8 e2:32 [k3] [s1]
    res{
    ...
    }res
    gap
    fc 10
    softmax

``OPTIONS`` gives each option of conv, vac and pepe with its default, or
REQUIRED. Options come in any order, once each, as either `key:value` or
`keyvalue` (``dm4`` == ``dm:4``). ``ARG_COUNTS`` gives how many positive
integers each other directive takes, so ``res{`` and ``}res`` stand on lines
of their own. A '#' starts a comment that runs to the end of its line. A
network starts with one input line and ends with ``TAIL``: gap, fc and
softmax, once each, in that order, at top level. Channel counts chain
automatically: every layer reads its input channels from its predecessor.
"""

from __future__ import annotations

import copy
import os
import re
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import ConfigError, ConvSpec, ShapeError
from .pepe import PepeConfig, pepe_backward, pepe_forward  # noqa: F401
from .vac import VacConfig, vac_backward, vac_forward  # noqa: F401

MAGIC = b"ACNK"
FORMAT_VERSION = 1
# Images per pass of Network.forward and Network.predict, and their unit of
# parallel work. A micro-a chunk's transients (im2col patches, conv, ReLU and
# pool outputs) peak at 1.7 MiB, inside a 2 MiB L2 cache, and are reused from
# the heap instead of being mapped afresh.
PREDICT_CHUNK = 32


def _predict_threads():
    """Threads that share a multi-chunk Network.forward or Network.predict,
    and the two sub-batches of a ``trainer.train`` step: 2, the calling
    thread and one helper, when the process's affinity mask holds a second
    CPU and the BLAS pool was pinned to one thread; else 1. The BLAS pool's
    size is read as OpenBLAS reads it when it loads: the first of its thread
    variables that holds a positive count, else one thread per CPU. Beside a
    threaded BLAS, which already spreads the larger products over the CPUs,
    a helper made micro-b passes slower. Two is the only count whose speed
    and memory were measured; each thread holds its own chunk's or
    sub-batch's transients."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return 2 if cpus > 1 and int(value) == 1 else 1
    return 1  # a BLAS thread per CPU


PREDICT_THREADS = _predict_threads()  # read once, at import; train shares it


class ParseError(ValueError):
    def __init__(self, message, line, col=1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class FormatError(ValueError):
    """Model file is corrupt or has an unsupported version."""


# Layer specs. Each one answers the same questions: ``kind`` (its name in
# parameter and report rows), ``out_shape(c, h, w)``, ``mult_adds(h, w)``
# for one image and ``param_shapes()``, its parameters as an ordered name ->
# shape table, from which the ``ParamTable`` mixin derives ``param_count()``
# and ``init_params(rng)``; VacConfig and PepeConfig answer them in their own
# modules.

@dataclass(frozen=True)
class ConvLayer(K.ParamTable):
    spec: ConvSpec
    kind = "conv"

    def out_shape(self, c, h, w):
        return (self.spec.c_out, *self.spec.out_hw(h, w))

    def param_shapes(self):
        return {"w": self.spec.weight_shape(), "b": (self.spec.c_out,)}

    def mult_adds(self, h, w):
        return self.spec.mult_adds(h, w)


class _Weightless(K.ParamTable):
    def param_shapes(self):
        return {}

    def mult_adds(self, h, w):
        return 0


@dataclass(frozen=True)
class GapLayer(_Weightless):
    kind = "gap"

    def out_shape(self, c, h, w):
        return c, 1, 1


@dataclass(frozen=True)
class FcLayer(K.ParamTable):
    c_in: int
    out: int
    kind = "fc"

    def out_shape(self, c, h, w):
        return self.out, 1, 1

    def param_shapes(self):
        return {"w": (self.out, self.c_in), "b": (self.out,)}

    def mult_adds(self, h, w):
        return self.c_in * self.out


@dataclass(frozen=True)
class SoftmaxLayer(_Weightless):
    kind = "softmax"

    def out_shape(self, c, h, w):
        return c, h, w


@dataclass(frozen=True)
class ResidualGroup:
    body: tuple
    kind = "res"

    def out_shape(self, c, h, w):
        for layer in self.body:
            c, h, w = layer.out_shape(c, h, w)
        return c, h, w

    def param_count(self):
        return sum(layer.param_count() for layer in self.body)


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple  # (c, h, w)
    layers: tuple
    class_count: int
    text: str


# ---------------------------------------------------------------------------
# Parsing

REQUIRED = object()  # an option a directive cannot do without

# Each configurable directive's options, key -> default. Every value is an
# integer, except that conv's ``p`` also takes ``same``.
OPTIONS = {
    "conv": {"k": 1, "s": 1, "p": 0, "c": REQUIRED, "g": 1},
    "vac": {"dm": REQUIRED, "e1": REQUIRED, "e2": REQUIRED, "um": REQUIRED, "pool": 2,
            "ek": 3, "g": 1, "spc": 0},
    "pepe": {"p1": REQUIRED, "e1": REQUIRED, "p2": REQUIRED, "e2": REQUIRED, "k": 3, "s": 1},
}
# How many positive integers each other directive takes.
ARG_COUNTS = {"input": 3, "res{": 0, "}res": 0, "gap": 0, "fc": 1, "softmax": 0}
TAIL = ("gap", "fc", "softmax")


def _int_value(key, value, line, col):
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"option {key!r} needs an integer, got {value!r}", line, col)


def _parse_options(word, tokens, line, col):
    """The options of the ``word`` directive at ``line``, ``col``, from its
    (token, column) pairs, as key -> value with every default filled in."""
    table = OPTIONS[word]
    opts = {}
    for token, tcol in tokens:
        if ":" in token:
            key, _, value = token.partition(":")
            if key not in table:
                raise ParseError(f"unknown option {key!r}", line, tcol)
        else:
            key = max((k for k in table if token.startswith(k) and len(token) > len(k)),
                      key=len, default=None)
            if key is None:
                raise ParseError(f"cannot parse option {token!r}", line, tcol)
            value = token[len(key):]
        if key in opts:
            raise ParseError(f"duplicate option {key!r}", line, tcol)
        same = (key, value) == ("p", "same")
        opts[key] = value if same else _int_value(key, value, line, tcol)
    for key, default in table.items():
        if default is REQUIRED and key not in opts:
            raise ParseError(f"{word} requires option {key!r}", line, col)
    return {**table, **opts}


def _configured_layer(word, o, c_in):
    """The conv, vac or pepe layer that options ``o`` describe, reading c_in channels."""
    if word == "conv":
        k, s = o["k"], o["s"]
        p = k // 2 if o["p"] == "same" else o["p"]
        return ConvLayer(ConvSpec(c_in, o["c"], kernel=(k, k), stride=(s, s),
                                  padding=(p, p), groups=o["g"]))
    if word == "vac":
        if o["spc"] not in (0, 1):
            raise ConfigError(f"spc must be 0 or 1, got {o['spc']}")
        return VacConfig(
            c_in=c_in, c_down=o["dm"], e1=o["e1"], e2=o["e2"], c_up=o["um"],
            pool=o["pool"], embed_kernel=o["ek"], embed_groups=o["g"],
            per_channel_scale=bool(o["spc"]))
    return PepeConfig(c_in=c_in, p1=o["p1"], e1=o["e1"], p2=o["p2"], e2=o["e2"],
                      dw_kernel=o["k"], stride=o["s"])


def parse_dsl(text):
    """Parse DSL text into a validated NetworkSpec."""
    input_shape = shape = None
    stack = [[]]  # the network's layers, then the body of each open 'res{'
    opened = []  # (line, shape) of each open 'res{'
    tail = 0  # how many of TAIL have been read
    tail_rule = "network must end with gap, fc, softmax: once each, in order, at top level"

    def fail(message):  # at the directive being read
        raise ParseError(message, line_no, col)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(), m.start() + 1)
                  for m in re.finditer(r"\S+", raw.partition("#")[0])]
        if not tokens:
            continue
        (word, col), args = tokens[0], tokens[1:]
        if (word == "input") != (input_shape is None):
            fail("a network starts with one 'input C H W' line")
        if word not in OPTIONS and word not in ARG_COUNTS:
            fail(f"unknown directive {word!r}")
        if word in TAIL or tail:
            if tail == len(TAIL) or word != TAIL[tail] or len(stack) > 1:
                fail(tail_rule)
            tail += 1
        if word not in OPTIONS:
            if len(args) != ARG_COUNTS[word]:
                fail(f"{word!r} takes {ARG_COUNTS[word]} argument(s), got {len(args)}")
            nums = [_int_value(word, arg, line_no, acol) for arg, acol in args]
            if min(nums, default=1) < 1:
                fail(f"{word!r} arguments must be >= 1")

        if word == "input":
            input_shape = shape = tuple(nums)
            continue
        if word == "res{":
            stack.append([])
            opened.append((line_no, shape))
            continue
        if word == "}res":
            if not opened:
                fail("'}res' without matching 'res{'")
            body = stack.pop()
            open_line, open_shape = opened.pop()
            if not body:
                fail("empty residual group")
            if shape != open_shape:
                fail(f"residual group opened at line {open_line} must preserve shape: "
                     f"({','.join(map(str, open_shape))}) vs ({','.join(map(str, shape))})")
            stack[-1].append(ResidualGroup(tuple(body)))
            continue

        try:
            if word in OPTIONS:
                layer = _configured_layer(word, _parse_options(word, args, line_no, col),
                                          shape[0])
            elif word == "fc":
                layer = FcLayer(c_in=shape[0], out=nums[0])
            else:
                layer = GapLayer() if word == "gap" else SoftmaxLayer()
            shape = layer.out_shape(*shape)
        except (ConfigError, ShapeError) as e:
            fail(str(e))
        stack[-1].append(layer)

    if input_shape is None:
        raise ParseError("missing 'input' directive", 1)
    if opened:
        raise ParseError("unclosed 'res{' group", opened[-1][0])
    if tail < len(TAIL):
        raise ParseError(tail_rule, len(text.splitlines()) or 1)
    return NetworkSpec(input_shape=input_shape, layers=tuple(stack[0]),
                       class_count=shape[0], text=text)


# ---------------------------------------------------------------------------
# Compiled blocks

# Each layer kind runs as ``<kind>_forward(x, p, layer) -> (out, cache)`` and
# ``<kind>_backward(grad, cache, p, layer, input_grad=True) -> (grad_input,
# grads)``, with the gradients keyed like the parameters ``p``. With
# ``input_grad=False`` nothing reads the input gradient: the backward returns
# None for it and skips the work only it needs. Softmax has no backward:
# ``Network.loss_and_backward`` fuses its gradient with the cross-entropy's.

def conv_forward(x, p, layer):
    y = K.conv2d_forward(x, p["w"], p["b"], layer.spec)
    K.relu_forward(y, out=y)
    return y, (x, y)


def conv_backward(grad, cache, p, layer, input_grad=True):
    x, y = cache
    gx, gw, gb = K.conv2d_backward(K.relu_backward(grad, y), x, p["w"], layer.spec,
                                   input_grad=input_grad)
    return gx, {"w": gw, "b": gb}


def gap_forward(x, p, layer):
    return K.global_avg_pool_forward(x), x.shape


def gap_backward(grad, in_shape, p, layer, input_grad=True):
    return K.global_avg_pool_backward(grad, in_shape) if input_grad else None, {}


def fc_forward(x, p, layer):
    flat = x.reshape(x.shape[0], -1)
    return K.fc_forward(flat, p["w"], p["b"]), (flat, x.shape)


def fc_backward(grad, cache, p, layer, input_grad=True):
    flat, in_shape = cache
    gx, gw, gb = K.fc_backward(grad, flat, p["w"])
    return gx.reshape(in_shape) if input_grad else None, {"w": gw, "b": gb}


def softmax_forward(x, p, layer):
    return K.softmax(x), None


class Block:
    """One compiled layer: its parameters ``p`` and the module-level
    ``<kind>_forward``/``<kind>_backward`` pair, looked up on every call so
    that a wrapper installed on this module's attribute sees each pass. A
    block keeps no pass state: ``forward`` returns the cache that its
    ``backward`` reads, and ``backward`` returns the gradients."""

    def __init__(self, layer, rng):
        self.layer = layer
        self.kind = layer.kind
        self.p = layer.init_params(rng)

    def forward(self, x, old=None):
        """``(out, cache)``. ``old``, the cache in this block's tape slot,
        is not read; a residual group's ``forward`` takes its nested tape
        there."""
        return globals()[f"{self.kind}_forward"](x, self.p, self.layer)

    def predict(self, x):
        """The same forward on ``p``, its cache dropped."""
        return globals()[f"{self.kind}_forward"](x, self.p, self.layer)[0]

    def cast(self, dtype):
        """A copy on ``dtype`` copies of ``p``. Under ``np.errstate(over="raise")``
        a parameter that overflows ``dtype`` raises NonFiniteError naming it."""
        r = copy.copy(self)
        r.p = {}
        for name, arr in self.p.items():
            try:
                r.p[name] = arr.astype(dtype)
            except FloatingPointError:
                raise K.NonFiniteError(f"parameter {name} overflows {np.dtype(dtype)}") from None
        return r

    def backward(self, grad, cache, input_grad=True):
        """``(grad_input, grads)``, the gradients listed in ``p``'s order."""
        gx, grads = globals()[f"{self.kind}_backward"](grad, cache, self.p, self.layer,
                                                       input_grad)
        return gx, list(grads.values())


class ResidualBlock:
    """The body's blocks plus the identity shortcut; ``p`` holds the body's
    entries under ``index.kind.name``. Its tape slot is a nested tape, one
    slot per body block."""
    kind = "res"

    def __init__(self, group, rng):
        self.children = [_compile_layer(l, rng) for l in group.body]
        self.p = dict(_named(self.children, lambda c: c.p.items()))

    def forward(self, x, tape=None):
        y, tape = _record(self.children, x, tape)
        return x + y, tape

    def predict(self, x):
        return x + _chain(self.children, "predict", x)

    def cast(self, dtype):
        """A copy on its children's ``cast(dtype)``, named as ``_chain`` names them."""
        r = copy.copy(self)
        r.children = _cast(self.children, dtype)
        return r

    def backward(self, grad, tape, input_grad=True):
        g, grads = _backward(self.children, tape, grad, input_grad)
        return grad + g if input_grad else None, grads


def _chain(blocks, method, x):
    """``x`` through each block's ``method`` in turn. A NonFiniteError gains
    the index and kind of the block it came from, at each level it passes."""
    for i, b in enumerate(blocks):
        try:
            x = getattr(b, method)(x)
        except K.NonFiniteError as e:
            raise K.NonFiniteError(f"block {i} ({b.kind}): {e}") from e
    return x


def _record(blocks, x, tape):
    """``(out, tape)``: ``x`` through each block's caching ``forward``, whose
    cache replaces the block's slot of ``tape`` only once it exists, so a
    kept tape frees each old cache as the new one takes its place. A tape of
    None is a fresh one; a short one gains empty slots. A NonFiniteError is
    named as in ``_chain``."""
    tape = [] if tape is None else tape
    tape.extend([None] * (len(blocks) - len(tape)))
    for i, b in enumerate(blocks):
        try:
            x, tape[i] = b.forward(x, tape[i])
        except K.NonFiniteError as e:
            raise K.NonFiniteError(f"block {i} ({b.kind}): {e}") from e
    return x, tape


def _cast(blocks, dtype):
    """Each block's ``cast(dtype)``; a NonFiniteError is named as in ``_chain``."""
    cast = []
    for i, b in enumerate(blocks):
        try:
            cast.append(b.cast(dtype))
        except K.NonFiniteError as e:
            raise K.NonFiniteError(f"block {i} ({b.kind}): {e}") from e
    return cast


def _run(blocks, method, x):
    x = _chain(blocks, method, x)
    K.check_finite(x, "network output")
    return x


def _backward(blocks, tape, grad, input_grad):
    """``(grad_input, grads)``: ``grad`` back through ``blocks``, last first,
    each reading its cache from its slot of ``tape``, and the blocks'
    gradients in parameter order. The first block forms an input gradient
    only when ``input_grad`` asks for one."""
    grads = [None] * len(blocks)
    for i in range(len(blocks) - 1, -1, -1):
        grad, grads[i] = blocks[i].backward(grad, tape[i], input_grad or i > 0)
    return grad, [g for block_grads in grads for g in block_grads]


def _named(blocks, items):
    """(index.kind.name, array) pairs of each block's ``items(block)``."""
    return [(f"{i}.{b.kind}.{name}", arr)
            for i, b in enumerate(blocks) for name, arr in items(b)]


def _compile_layer(layer, rng):
    return (ResidualBlock if layer.kind == "res" else Block)(layer, rng)


# The helper threads of Network.forward, Network.predict and trainer.train,
# shared by every network in the process.

_helpers = None  # ThreadPoolExecutor, made by the first shared pass or train step
_helpers_lock = threading.Lock()


def _helper_pool():
    """The process's PREDICT_THREADS - 1 helper threads, made on first use."""
    global _helpers
    # imported here, so that a process which never shares a batch does not
    # load concurrent.futures and logging (about 4 ms of `import vacnet`)
    from concurrent.futures import ThreadPoolExecutor
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(PREDICT_THREADS - 1,
                                          thread_name_prefix="vacnet-predict")
        return _helpers


def _drop_helpers():
    """A forked child has only the thread that forked: forget the parent's
    helpers, whose threads it lacks, so that its first predict makes its own."""
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers)


def _map_chunks(run, chunks):
    """``[run(c) for c in chunks]``. With more than one chunk and more than
    one thread, the calling thread and up to ``len(chunks) - 1`` pool
    helpers each take the next unclaimed chunk until none is left. It
    returns or raises only once every helper has stopped; if chunks fail,
    the lowest failing one's error is raised, whatever the threads' timing.
    A failure, or an interrupt of the calling thread, stops all claiming:
    chunks are claimed in index order, so every chunk below the failing one
    is already running and still finishes."""
    n_helpers = min(PREDICT_THREADS, len(chunks)) - 1
    if n_helpers < 1:
        return [run(c) for c in chunks]
    results, errors = [None] * len(chunks), {}
    unclaimed = iter(range(len(chunks)))
    lock, stop = threading.Lock(), threading.Event()

    def take_chunks():
        while True:
            with lock:
                i = None if stop.is_set() else next(unclaimed, None)
            if i is None:
                return
            try:
                results[i] = run(chunks[i])
            except Exception as e:  # raised in chunk order by the caller, below
                errors[i] = e
                stop.set()

    pool = _helper_pool()
    helpers = [pool.submit(take_chunks) for _ in range(n_helpers)]
    try:
        take_chunks()
    except BaseException:  # a KeyboardInterrupt in this thread
        stop.set()
        raise
    finally:
        for h in helpers:
            h.exception()  # waits until the helper stops; take_chunks keeps its errors
    if errors:
        raise errors[min(errors)]
    return results


class Network:
    """Compiled network: ordered blocks with allocated parameters. ``blobs``
    maps the name of each int8 weight to its QuantizedBlob, whose dequantized
    values that parameter holds; it is empty for a float network."""

    def __init__(self, spec, seed):
        self.spec = spec
        rng = None if seed is None else np.random.Generator(np.random.PCG64(seed))
        self.blocks = [_compile_layer(l, rng) for l in spec.layers]
        self.blobs = {}

    def parameters(self):
        """All (qualified_name, array) pairs in deterministic order."""
        return _named(self.blocks, lambda b: b.p.items())

    def param_count(self):
        return sum(arr.size for _, arr in self.parameters())

    def forward(self, x):
        """Float64 inference: ``predict``'s pass on the parameters themselves,
        giving the bits of ``loss_and_backward``'s probabilities."""
        return self._infer(x, np.float64)

    def predict(self, x):
        """Inference in float32 (input and parameters cast). Softmax returns
        float64 probabilities."""
        return self._infer(x, np.float32)

    def _infer(self, x, dtype):
        """The blocks' cache-free pass in ``dtype``.

        The batch shape is checked once, and at float32 the parameters are
        cast once, for every chunk; one that overflows float32 raises
        NonFiniteError naming its block and itself. Then at most
        ``PREDICT_CHUNK`` images at a time are cast and run through the
        blocks, so that each transient is a chunk's size, not the batch's.
        A batch of more than one chunk is shared by this thread and
        ``PREDICT_THREADS - 1`` helper threads (at most one, see
        ``_predict_threads``), each running whole chunks; a one-chunk batch,
        or any batch when ``PREDICT_THREADS`` is 1, runs on this thread alone.
        No block mixes images, and ``fc`` forms each row on its own, so an
        image's probabilities do not depend on the batch, chunk or thread
        it shares. If chunks fail, the lowest one's error is raised."""
        x = self._checked(np.asarray(x))
        blocks = self.blocks
        if dtype != np.float64:
            with np.errstate(over="raise"):
                blocks = _cast(blocks, dtype)
        chunks = [x[i:i + PREDICT_CHUNK] for i in range(0, len(x), PREDICT_CHUNK)]
        return np.concatenate(_map_chunks(
            lambda c: _run(blocks, "predict", np.asarray(c, dtype=dtype)), chunks))

    def _checked(self, x):
        c, h, w = self.spec.input_shape
        if x.ndim != 4 or x.shape[1:] != (c, h, w) or not len(x):
            raise ShapeError(f"batch shape {x.shape} does not match "
                             f"network input (n, {c}, {h}, {w})")
        return x

    def loss_and_backward(self, x, labels, batch=None, tape=None):
        """The training pass: the float64 forward of ``x``, each block's cache
        written to ``tape``, then the backward of the mean cross-entropy,
        which reads them. Returns ``(probs, grads)``, the gradients listed in
        ``parameters()`` order. Nothing reads the network's input gradient,
        so the first block forms none. Given ``batch``, the images are part
        of a batch of that many, and the grads are those of their summed loss
        over ``batch``: the sub-batches' grads add up to the whole batch's.

        The network keeps nothing of the pass, so threads may run it at once,
        each on its own tape: the caller's list, which the pass fills with
        one slot per block, a residual group's slot a nested tape. Each slot
        is replaced by this pass's cache only once that exists. A tape of
        None is a fresh one, dropped at return; a kept tape holds the last
        pass's caches between calls, and so spares the heap freeing and
        faulting them in again."""
        probs, tape = _record(self.blocks, self._checked(np.asarray(x, dtype=np.float64)),
                              tape)
        K.check_finite(probs, "network output")
        grad = K.softmax_xent_backward(probs, labels, batch)
        # softmax, the last block, has its gradient fused with the loss's above
        return probs, _backward(self.blocks[:-1], tape, grad, False)[1]


def compile_spec(spec, seed=0):
    """Weights drawn from PCG64(seed); ``seed=None`` draws nothing and leaves
    them at zero, for a caller that overwrites every parameter."""
    return Network(spec, seed)


# ---------------------------------------------------------------------------
# Serialization, shared by .acnk and .acnk8 files: magic "ACNK", u32 version,
# u32 spec-text length, spec text, u32 blob count, then one blob per parameter
# in Network.parameters() order. Blob tag 0 is (u64 byte count, float64
# little-endian values); tag 1, an int8 weight, is (u8 per-channel flag, u32
# scale count, u64 value count, float64 scales, int8 values).

@dataclass
class QuantizedBlob:
    """An int8 weight as a tag-1 blob stores it."""
    values: np.ndarray   # int8, original weight shape
    scales: np.ndarray   # (c_out,) if per_channel (one per first-axis slice), else (1,)
    per_channel: bool

    def dequantize(self):
        shape = (-1,) + (1,) * (self.values.ndim - 1) if self.per_channel else ()
        return self.values.astype(np.float64) * self.scales.reshape(shape)


def save(net, path):
    """Write the network's parameters as tag-0 blobs, except its int8 weights
    (those named in ``net.blobs``): tag 1."""
    raw = net.spec.text.encode("utf-8")
    params = net.parameters()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(raw)) + raw)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params:
            blob = net.blobs.get(name)
            if blob is None:
                payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
                fh.write(struct.pack("<BQ", 0, len(payload)) + payload)
            else:
                values = blob.values.tobytes()
                fh.write(struct.pack("<BBIQ", 1, int(blob.per_channel),
                                     blob.scales.size, len(values)))
                fh.write(np.ascontiguousarray(blob.scales, dtype="<f8").tobytes() + values)


def load(path):
    """Read a .acnk or .acnk8 model file into a network. Each int8 weight is
    dequantized into its parameter and kept in ``net.blobs``. Any size is
    checked against the bytes left in the file before it is used; a corrupt
    file, a non-finite float64 value or int8 scale included, raises
    FormatError."""
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    pos = 0

    def take(n, what):
        nonlocal pos
        if n > len(data) - pos:
            raise FormatError(f"truncated model file while reading {what}")
        pos += n
        return data[pos - n:pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    magic, version, text_len = unpack("<4sII", "header")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    text = take(text_len, "spec text")
    try:
        spec = parse_dsl(str(text, "utf-8"))
    except (UnicodeDecodeError, ParseError) as e:
        raise FormatError(f"model file holds a bad spec: {e}") from e
    (n_blobs,) = unpack("<I", "blob count")
    n_params = sum(layer.param_count() for layer in spec.layers)
    if n_params > len(data) - pos:  # even int8 blobs need a byte per value
        raise FormatError(f"spec needs {n_params} values, file has "
                          f"{len(data) - pos} bytes left")
    net = compile_spec(spec, seed=None)
    params = net.parameters()
    if n_blobs != len(params):
        raise FormatError(f"file has {n_blobs} blobs, spec needs {len(params)}")
    for name, arr in params:
        (tag,) = unpack("<B", name)
        if tag == 0:
            (nbytes,) = unpack("<Q", name)
            if nbytes != 8 * arr.size:
                raise FormatError(f"blob {name} has {nbytes} bytes, "
                                  f"expected {8 * arr.size}")
            values = np.frombuffer(take(nbytes, name), dtype="<f8")
            if not np.isfinite(values).all():
                raise FormatError(f"blob {name} has a value that is not finite")
            arr[...] = values.reshape(arr.shape)
        elif tag == 1:
            per_channel, n_scales, n_values = unpack("<BIQ", name)
            if per_channel > 1 or (per_channel and arr.ndim < 2):
                raise FormatError(f"blob {name} has per-channel flag {per_channel} "
                                  f"on a rank-{arr.ndim} weight")
            want = arr.shape[0] if per_channel else 1
            if n_scales != want or n_values != arr.size:
                raise FormatError(f"blob {name} has {n_scales} scales and {n_values} "
                                  f"values, expected {want} and {arr.size}")
            scales = np.frombuffer(take(8 * n_scales, name), dtype="<f8").copy()
            if not ((scales > 0) & (scales < np.inf)).all():
                raise FormatError(f"blob {name} has a scale that is not finite and > 0")
            values = np.frombuffer(take(n_values, name), dtype=np.int8).reshape(arr.shape)
            blob = net.blobs[name] = QuantizedBlob(values.copy(), scales, bool(per_channel))
            arr[...] = blob.dequantize()
        else:
            raise FormatError(f"blob {name} has unknown tag {tag}")
    if pos != len(data):
        raise FormatError("trailing bytes after final blob")
    return net


# ---------------------------------------------------------------------------
# Reference architectures. The macro-layout keeps attention blocks early and
# projection-expansion blocks late; channel plans are sized for 28x28 / 32x32
# inputs, not for any published large-scale network.

REFERENCE_SPECS = {
    "attendnet-micro-a": """\
input 1 28 28
conv k3 s2 p1 c16
vac dm8 e1:16 e2:8 um16 g2
vac dm8 e1:16 e2:8 um16 g2
conv k3 s2 p1 c32
pepe p1:16 e1:32 p2:16 e2:32
res{
pepe p1:16 e1:32 p2:16 e2:32
}res
gap
fc 10
softmax
""",
    "attendnet-micro-b": """\
input 3 32 32
conv k3 s1 p1 c16
vac dm8 e1:16 e2:8 um16 g2
conv k3 s2 p1 c32
vac dm16 e1:32 e2:16 um32 g4
conv k3 s2 p1 c48
pepe p1:24 e1:48 p2:24 e2:48
res{
pepe p1:24 e1:48 p2:24 e2:48
}res
gap
fc 10
softmax
""",
}


def reference_spec(name):
    try:
        return parse_dsl(REFERENCE_SPECS[name])
    except KeyError:
        raise KeyError(f"unknown reference spec {name!r}; "
                       f"available: {sorted(REFERENCE_SPECS)}")
