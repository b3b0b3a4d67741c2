"""Architecture DSL, network compilation, and model (de)serialization.

The DSL is line-oriented, one directive per line:

    input C H W
    conv k3 s1 p1 c8 [g1]
    vac dm4 e1:8 e2:4 um8 [pool2] [ps2] [ek3] [g1] [expand:unpool|nearest] [spc0|1]
    pepe p1:8 e1:16 p2:8 e2:32 [k3] [s1]
    res{ ... }res
    gap
    fc 10
    softmax

Options accept either `key:value` or `keyvalue` (``dm4`` == ``dm:4``).
Comment lines start with '#'. A network must end with exactly one
gap -> fc -> softmax tail. Channel counts chain automatically: every layer
reads its input channels from its predecessor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import ConfigError, ConvSpec, ShapeError
from .pepe import PepeConfig, pepe_backward, pepe_forward  # noqa: F401
from .vac import VacConfig, vac_backward, vac_forward  # noqa: F401

MAGIC = b"ACNK"
FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message, line, col=1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class FormatError(ValueError):
    """Model file is corrupt or has an unsupported version."""


# Layer specs. Each one answers the same questions: ``kind`` (its name in
# parameter and report rows), ``out_shape(c, h, w)``, ``param_count()``,
# ``mult_adds(h, w, bias)`` for one image and ``init_params(rng)``, its
# parameters as a name -> array dict; VacConfig and PepeConfig answer them in
# their own modules.

@dataclass(frozen=True)
class ConvLayer:
    spec: ConvSpec
    kind = "conv"

    def out_shape(self, c, h, w):
        return (self.spec.c_out, *self.spec.out_hw(h, w))

    def param_count(self):
        return self.spec.param_count()

    def mult_adds(self, h, w, bias=False):
        return self.spec.mult_adds(h, w, bias)

    def init_params(self, rng):
        return dict(zip(("w", "b"), self.spec.init_params(rng)))


class _Weightless:
    def param_count(self):
        return 0

    def mult_adds(self, h, w, bias=False):
        return 0

    def init_params(self, rng):
        return {}


@dataclass(frozen=True)
class GapLayer(_Weightless):
    kind = "gap"

    def out_shape(self, c, h, w):
        return c, 1, 1


@dataclass(frozen=True)
class FcLayer:
    c_in: int
    out: int
    kind = "fc"

    def out_shape(self, c, h, w):
        return self.out, 1, 1

    def param_count(self):
        return (self.c_in + 1) * self.out

    def mult_adds(self, h, w, bias=False):
        return (self.c_in + bias) * self.out

    def init_params(self, rng):
        return {"w": K.init_weights((self.out, self.c_in), self.c_in, rng),
                "b": np.zeros(self.out)}


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

_OPTION_KEYS = {
    "conv": ("k", "s", "p", "c", "g"),
    "vac": ("dm", "e1", "e2", "um", "pool", "ps", "ek", "g", "expand", "spc"),
    "pepe": ("p1", "e1", "p2", "e2", "k", "s"),
}
_REQUIRED_KEYS = {"conv": ("c",), "vac": ("dm", "e1", "e2", "um"),
                  "pepe": ("p1", "e1", "p2", "e2")}


def _split_option(token, keys, line, col):
    if ":" in token:
        key, _, value = token.partition(":")
        if key not in keys:
            raise ParseError(f"unknown option {key!r}", line, col)
        return key, value
    for key in sorted(keys, key=len, reverse=True):
        if token.startswith(key) and len(token) > len(key):
            return key, token[len(key):]
    raise ParseError(f"cannot parse option {token!r}", line, col)


def _int_value(key, value, line, col):
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"option {key!r} needs an integer, got {value!r}", line, col)


def _parse_options(directive, tokens, line):
    keys = _OPTION_KEYS[directive]
    opts = {}
    for token, col in tokens:
        key, value = _split_option(token, keys, line, col)
        if key in opts:
            raise ParseError(f"duplicate option {key!r}", line, col)
        if key in ("expand",):
            opts[key] = value
        elif key == "p" and value == "same":
            opts[key] = "same"
        else:
            opts[key] = _int_value(key, value, line, col)
    return opts


def _configured_layer(word, o, c_in):
    """The conv, vac or pepe layer that options ``o`` describe, reading c_in channels."""
    if word == "conv":
        k, s, p = o.get("k", 1), o.get("s", 1), o.get("p", 0)
        p = k // 2 if p == "same" else p
        return ConvLayer(ConvSpec(c_in, o["c"], kernel=(k, k), stride=(s, s),
                                  padding=(p, p), groups=o.get("g", 1)))
    if word == "vac":
        return VacConfig(
            c_in=c_in, c_down=o["dm"], e1=o["e1"], e2=o["e2"], c_up=o["um"],
            pool=(o.get("pool", 2), o.get("ps", o.get("pool", 2))),
            embed_kernel=o.get("ek", 3), embed_groups=o.get("g", 1),
            per_channel_scale=bool(o.get("spc", 0)), expand_mode=o.get("expand", "unpool"))
    return PepeConfig(c_in=c_in, p1=o["p1"], e1=o["e1"], p2=o["p2"], e2=o["e2"],
                      dw_kernel=o.get("k", 3), stride=o.get("s", 1))


def parse_dsl(text):
    """Parse DSL text into a validated NetworkSpec."""
    input_shape = shape = None
    layers = []
    stack = [layers]
    res_open = []  # (line, shape) of each open 'res{'
    tail = []  # seen tail directives, in order

    def err(msg, line, col=1):
        raise ParseError(msg, line, col)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = []
        pos = 0
        for tok in raw.split():
            col = raw.index(tok, pos) + 1
            pos = col + len(tok) - 1
            parts.append((tok, col))
        word, wcol = parts[0]
        args = parts[1:]

        if word != "input" and input_shape is None:
            err("first directive must be 'input C H W'", line_no, wcol)
        if tail and word not in ("fc", "softmax", "gap"):
            err(f"{word!r} may not follow the gap/fc/softmax tail", line_no, wcol)

        if word == "input":
            if input_shape is not None:
                err("duplicate 'input' directive", line_no, wcol)
            if len(args) != 3:
                err("'input' takes exactly three integers: C H W", line_no, wcol)
            c, h, w = (_int_value("input", a, line_no, col) for a, col in args)
            if min(c, h, w) < 1:
                err("input dimensions must be >= 1", line_no, wcol)
            input_shape = shape = (c, h, w)
            continue

        if word == "res{":
            stack.append([])
            res_open.append((line_no, shape))
            continue

        if word == "}res":
            if len(stack) == 1:
                err("'}res' without matching 'res{'", line_no, wcol)
            body = stack.pop()
            open_line, open_shape = res_open.pop()
            if not body:
                err("empty residual group", line_no, wcol)
            if shape != open_shape:
                err(f"residual group opened at line {open_line} must preserve shape: "
                    f"({','.join(map(str, open_shape))}) vs ({','.join(map(str, shape))})",
                    line_no, wcol)
            stack[-1].append(ResidualGroup(tuple(body)))
            continue

        if word in _OPTION_KEYS:
            opts = _parse_options(word, args, line_no)
            for req in _REQUIRED_KEYS[word]:
                if req not in opts:
                    err(f"{word} requires option {req!r}", line_no, wcol)
        elif word == "gap":
            if len(stack) > 1:
                err("tail layers may not sit inside a residual group", line_no, wcol)
            if tail:
                err("duplicate 'gap'", line_no, wcol)
            layer = GapLayer()
        elif word == "fc":
            if tail != ["gap"]:
                err("'fc' must directly follow 'gap'", line_no, wcol)
            if len(args) != 1:
                err("'fc' takes exactly one integer", line_no, wcol)
            out = _int_value("fc", args[0][0], line_no, args[0][1])
            if out < 1:
                err("fc output size must be >= 1", line_no, wcol)
            layer = FcLayer(c_in=shape[0], out=out)
        elif word == "softmax":
            if tail != ["gap", "fc"]:
                err("'softmax' must directly follow 'fc'", line_no, wcol)
            layer = SoftmaxLayer()
        else:
            err(f"unknown directive {word!r}", line_no, wcol)

        try:
            if word in _OPTION_KEYS:
                layer = _configured_layer(word, opts, shape[0])
            shape = layer.out_shape(*shape)
        except (ConfigError, ShapeError) as e:
            err(str(e), line_no, wcol)
        if layer.kind in ("gap", "fc", "softmax"):
            tail.append(layer.kind)
        stack[-1].append(layer)

    if input_shape is None:
        raise ParseError("missing 'input' directive", 1)
    if res_open:
        raise ParseError("unclosed 'res{' group", res_open[-1][0])
    if tail != ["gap", "fc", "softmax"]:
        missing = [t for t in ("gap", "fc", "softmax") if t not in tail]
        raise ParseError(
            f"network must end with gap -> fc -> softmax (missing: {', '.join(missing)})",
            len(text.splitlines()) or 1)

    return NetworkSpec(input_shape=input_shape, layers=tuple(layers),
                       class_count=shape[0], text=text)


# ---------------------------------------------------------------------------
# Compiled blocks

# Each layer kind runs as ``<kind>_forward(x, p, layer) -> (out, cache)`` and
# ``<kind>_backward(grad, cache, p, layer) -> (grad_input, grads)``, with the
# gradients keyed like the parameters ``p``.

def conv_forward(x, p, layer):
    pre = K.conv2d_forward(x, p["w"], p["b"], layer.spec)
    return K.relu_forward(pre), (x, pre)


def conv_backward(grad, cache, p, layer):
    x, pre = cache
    gx, gw, gb = K.conv2d_backward(K.relu_backward(grad, pre), x, p["w"], layer.spec)
    return gx, {"w": gw, "b": gb}


def gap_forward(x, p, layer):
    return K.global_avg_pool_forward(x), x.shape


def gap_backward(grad, in_shape, p, layer):
    return K.global_avg_pool_backward(grad, in_shape), {}


def fc_forward(x, p, layer):
    flat = x.reshape(x.shape[0], -1)
    return K.fc_forward(flat, p["w"], p["b"]), (flat, x.shape)


def fc_backward(grad, cache, p, layer):
    flat, in_shape = cache
    gx, gw, gb = K.fc_backward(grad, flat, p["w"])
    return gx.reshape(in_shape), {"w": gw, "b": gb}


def softmax_forward(x, p, layer):
    return K.softmax(x), None


def softmax_backward(grad, cache, p, layer):  # pragma: no cover - fused path
    raise NotImplementedError("softmax gradient is fused with cross-entropy")


class Block:
    """One compiled layer: its parameters ``p`` and the module-level
    ``<kind>_forward``/``<kind>_backward`` pair, looked up on every call so
    that a wrapper installed on this module's attribute sees each pass."""

    def __init__(self, layer, rng):
        self.layer = layer
        self.kind = layer.kind
        self.p = layer.init_params(rng)
        self.grads = {}
        self._cache = None

    def forward(self, x):
        out, self._cache = globals()[f"{self.kind}_forward"](x, self.p, self.layer)
        return out

    def backward(self, grad):
        gx, self.grads = globals()[f"{self.kind}_backward"](grad, self._cache, self.p,
                                                            self.layer)
        return gx


class ResidualBlock:
    """The body's blocks plus the identity shortcut; ``p`` and ``grads`` hold
    the body's entries under ``index.kind.name``."""
    kind = "res"

    def __init__(self, group, rng):
        self.children = [_compile_layer(l, rng) for l in group.body]
        self.p = dict(_named(self.children, lambda c: c.p.items()))
        self.grads = {}

    def forward(self, x):
        y = x
        for c in self.children:
            y = c.forward(y)
        return x + y

    def backward(self, grad):
        g = grad
        for c in reversed(self.children):
            g = c.backward(g)
        self.grads = dict(_named(self.children, lambda c: c.grads.items()))
        return grad + g


def _named(blocks, items):
    """(index.kind.name, array) pairs of each block's ``items(block)``."""
    return [(f"{i}.{b.kind}.{name}", arr)
            for i, b in enumerate(blocks) for name, arr in items(b)]


def _compile_layer(layer, rng):
    return (ResidualBlock if layer.kind == "res" else Block)(layer, rng)


class Network:
    """Compiled network: ordered blocks with allocated parameters."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.seed = seed
        rng = np.random.Generator(np.random.PCG64(seed))
        self.blocks = [_compile_layer(l, rng) for l in spec.layers]
        self._probs = None

    def parameters(self):
        """All (qualified_name, array) pairs in deterministic order."""
        return _named(self.blocks, lambda b: b.p.items())

    def gradients(self):
        return _named(self.blocks, lambda b: b.grads.items())

    def param_count(self):
        return sum(arr.size for _, arr in self.parameters())

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        c, h, w = self.spec.input_shape
        if x.ndim != 4 or x.shape[1:] != (c, h, w):
            raise ShapeError(f"batch shape {x.shape} does not match "
                             f"network input (n, {c}, {h}, {w})")
        for i, b in enumerate(self.blocks):
            try:
                x = b.forward(x)
            except K.NonFiniteError as e:
                raise K.NonFiniteError(f"block {i} ({b.kind}): {e}") from e
        self._probs = x
        return x

    def loss_and_backward(self, labels):
        """Mean cross-entropy of the last forward batch, populating block grads."""
        if self._probs is None:
            raise K.IntegrityError("call forward before loss_and_backward")
        loss = K.cross_entropy(self._probs, labels)
        grad = K.softmax_xent_backward(self._probs, labels)
        for b in reversed(self.blocks[:-1]):  # softmax gradient is fused above
            grad = b.backward(grad)
        return loss


def compile_spec(spec, seed=0):
    return Network(spec, seed)


# ---------------------------------------------------------------------------
# Serialization, shared by .acnk and .acnk8 files: magic "ACNK", u32 version,
# u32 spec-text length, spec text, u32 blob count, then one blob per parameter
# in Network.parameters() order. Blob tag 0 is (u64 byte count, float64
# little-endian values); tag 1, an int8 weight, is (u8 per-channel flag, u32
# scale count, u64 value count, float64 scales, int8 values).

def dequantize(values, scales, per_channel):
    """Float64 weights from int8 values and their scales: one per output
    channel (along the first axis), or one for the whole tensor."""
    shape = (-1,) + (1,) * (values.ndim - 1) if per_channel else ()
    return values.astype(np.float64) * scales.reshape(shape)


def write_model(net, path, blobs):
    """Write the network's parameters as tag-0 blobs, except those named in
    ``blobs`` (int8 ``values``, ``scales`` and a ``per_channel`` flag): tag 1."""
    raw = net.spec.text.encode("utf-8")
    params = net.parameters()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(raw)) + raw)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params:
            blob = blobs.get(name)
            if blob is None:
                payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
                fh.write(struct.pack("<BQ", 0, len(payload)) + payload)
            else:
                values = blob.values.tobytes()
                fh.write(struct.pack("<BBIQ", 1, int(blob.per_channel),
                                     blob.scales.size, len(values)))
                fh.write(np.ascontiguousarray(blob.scales, dtype="<f8").tobytes() + values)


def read_model(path):
    """Read a model file into a network; returns (network, blobs). Each int8
    weight is dequantized into the network and kept in ``blobs[name]`` as
    (values, scales, per_channel). Any size is checked against the bytes left
    in the file before it is used; a corrupt file raises FormatError."""
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
    net = compile_spec(spec, seed=0)
    params = net.parameters()
    if n_blobs != len(params):
        raise FormatError(f"file has {n_blobs} blobs, spec needs {len(params)}")
    blobs = {}
    for name, arr in params:
        (tag,) = unpack("<B", name)
        if tag == 0:
            (nbytes,) = unpack("<Q", name)
            if nbytes != 8 * arr.size:
                raise FormatError(f"blob {name} has {nbytes} bytes, "
                                  f"expected {8 * arr.size}")
            arr[...] = np.frombuffer(take(nbytes, name), dtype="<f8").reshape(arr.shape)
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
            values = np.frombuffer(take(n_values, name), dtype=np.int8).reshape(arr.shape)
            blobs[name] = (values.copy(), scales, bool(per_channel))
            arr[...] = dequantize(values, scales, per_channel)
        else:
            raise FormatError(f"blob {name} has unknown tag {tag}")
    if pos != len(data):
        raise FormatError("trailing bytes after final blob")
    return net, blobs


def save(net, path):
    write_model(net, path, {})


def load(path):
    """Load a .acnk model, or a .acnk8 one with its int8 weights dequantized."""
    return read_model(path)[0]


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
