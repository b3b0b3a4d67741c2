"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL/SKIP" line. Criteria that
need the MNIST IDX files skip with a reason when the files are absent
(set VACNET_MNIST_DIR or place them under ./data); an always-run analog on
the bundled scikit-learn digits images covers the same properties at a
smaller scale.
"""

import csv
import io
import json
import os
import re
import struct
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from oracles import MulCounter, naive_conv2d, naive_network_forward, numeric_grad
from vacnet import cli, complexity, explore, quant
from vacnet import kernels as K
from vacnet import netbuilder as nb
from vacnet.pepe import PepeConfig, pepe_backward, pepe_forward
from vacnet.trainer import Dataset, TrainConfig, evaluate, train
from vacnet.vac import VacConfig, gating_map, vac_backward, vac_forward

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _verdict(num, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {state}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _skip(num, reason):
    print(f"criterion {num}: SKIP ({reason})")
    pytest.skip(reason)


def _mnist_dir():
    root = Path(os.environ.get("VACNET_MNIST_DIR", Path(__file__).parent.parent / "data"))
    if all((root / f).exists() for f in MNIST_FILES):
        return root
    return None


def _rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max()) if analytic.size else 0.0


# ---------------------------------------------------------------------------
# criterion 1: published-row ratio arithmetic through the compare command

TABLE_CSV = """\
name,params,mult_adds,bits
mobilenet-v1,3260000,567500000,32
mobilenet-v2,2290000,299700000,32
attonet-a,2970000,424800000,32
attonet-b,1870000,277500000,32
attendnet-a,1386000,276800000,8
attendnet-b,782000,191300000,8
"""

Claim = namedtuple("Claim", "a b column published erratum", defaults=(False,))

# (model A, model B, ratio column, published value[, erratum])
# An erratum is a published value that the published rows do not give; it is
# checked against the exact ratio of TABLE_CSV instead, and kept here as quoted.
RATIO_CLAIMS = [Claim(*c) for c in (
    ("mobilenet-v1", "attendnet-b", "params", 4.17),
    ("mobilenet-v1", "attendnet-b", "memory", 16.7),
    ("mobilenet-v1", "attendnet-b", "mult_adds", 3.0),
    ("attonet-b", "attendnet-b", "params", 2.4),
    ("attonet-b", "attendnet-b", "memory", 9.6),
    ("attonet-b", "attendnet-b", "mult_adds", 1.45),
    ("mobilenet-v1", "attendnet-a", "params", 2.35),
    ("mobilenet-v1", "attendnet-a", "memory", 9.4),
    ("mobilenet-v1", "attendnet-a", "mult_adds", 2.1),
    ("mobilenet-v2", "attendnet-a", "params", 1.65),
    ("mobilenet-v2", "attendnet-a", "memory", 6.6),
    ("mobilenet-v2", "attendnet-a", "mult_adds", 1.1),
    ("attonet-a", "attendnet-a", "params", 2.1),
    # published 8.4 = 4 x the rounded 2.1x params ratio; the rows give 8.57
    ("attonet-a", "attendnet-a", "memory", 8.4, True),
    ("attonet-a", "attendnet-a", "mult_adds", 1.53),
)]
# 1e-9 slack keeps display rounding from tipping exact-boundary cases
RATIO_TOL = 0.05 + 1e-9


def _table_rows():
    return {r["name"]: {k: int(r[k]) for k in ("params", "mult_adds", "bits")}
            for r in csv.DictReader(io.StringIO(TABLE_CSV))}


def _exact_ratio(rows, a, b, column):
    def value(name):
        r = rows[name]
        return r["params"] * r["bits"] if column == "memory" else r[column]
    return value(a) / value(b)


def test_criterion_1_ratio_arithmetic(tmp_path, capsys):
    start = time.time()
    path = tmp_path / "rows.csv"
    path.write_text(TABLE_CSV)
    assert cli.main(["compare", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    ratios = {}
    for line in out.splitlines():
        parts = line.split(",")
        if len(parts) == 5 and parts[0] != "model_a":
            ratios[(parts[0], parts[1])] = {"params": float(parts[2]),
                                            "mult_adds": float(parts[3]),
                                            "memory": float(parts[4])}
    elapsed = time.time() - start
    rows = _table_rows()
    published = {(c.a, c.b, c.column): c.published for c in RATIO_CLAIMS}
    failures = []
    for c in RATIO_CLAIMS:
        got = ratios[(c.a, c.b)][c.column]
        if c.erratum:
            expected = _exact_ratio(rows, c.a, c.b, c.column)
            if abs(expected - c.published) <= RATIO_TOL:
                failures.append(f"erratum {c.a}/{c.b} {c.column}: exact "
                                f"{expected:.2f} is within tolerance of published "
                                f"{c.published}")
        else:
            expected = c.published
        if abs(got - expected) > RATIO_TOL:
            failures.append(f"ratio {c.a}/{c.b} {c.column}: got {got}, "
                            f"expected {expected:.2f} (published {c.published})")
        if c.column == "memory":
            # the paper quotes memory as bits_A/bits_B x its rounded params ratio
            bits = rows[c.a]["bits"] / rows[c.b]["bits"]
            derived = round(bits * published[(c.a, c.b, "params")], 1)
            if derived != c.published:
                failures.append(f"provenance {c.a}/{c.b} memory: published "
                                f"{c.published} != {bits:g} x published params "
                                f"ratio = {derived}")
    if not elapsed < 1.0:
        failures.append(f"time: {elapsed:.2f}s, bound 1.0s")
    errata = sum(c.erratum for c in RATIO_CLAIMS)
    with capsys.disabled():
        _verdict(1, not failures,
                 "; ".join(failures) or f"{len(RATIO_CLAIMS)} ratios, "
                 f"{errata} erratum, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: finite-difference gradient fidelity for every layer type

def _fd_conv(rng, spec, tol):
    h = int(rng.integers(spec.kernel[0], 7))
    w = int(rng.integers(spec.kernel[1], 7))
    x = rng.standard_normal((int(rng.integers(1, 3)), spec.c_in, h, w))
    wt = rng.standard_normal(spec.weight_shape())
    b = rng.standard_normal(spec.c_out)
    out = K.conv2d_forward(x, wt, b, spec)
    gout = rng.standard_normal(out.shape)

    def loss():
        return float((K.conv2d_forward(x, wt, b, spec) * gout).sum())

    gx, gw, gb = K.conv2d_backward(gout, x, wt, spec)
    worst = max(_rel_err(gx, numeric_grad(loss, x)),
                _rel_err(gw, numeric_grad(loss, wt)),
                _rel_err(gb, numeric_grad(loss, b)))
    return worst <= tol


def _conv_variant_specs(rng):
    c = int(rng.integers(2, 5))
    return {
        "standard": K.ConvSpec(c, int(rng.integers(2, 5)), kernel=(3, 3)),
        "pointwise": K.ConvSpec(c, int(rng.integers(2, 5))),
        "depthwise": K.ConvSpec(c, c * int(rng.integers(1, 3)),
                                kernel=(3, 3), padding=(1, 1), groups=c),
        "grouped": K.ConvSpec(4, 4, kernel=(3, 3), groups=2),
        "strided": K.ConvSpec(c, 3, kernel=(3, 3), stride=(2, 2), padding=(1, 1)),
        "padded": K.ConvSpec(c, 3, kernel=(3, 3), padding=(1, 1)),
    }


def _fd_pool_unpool(rng, tol):
    x = rng.standard_normal((2, 2, int(rng.integers(4, 8)), int(rng.integers(4, 8))))
    out, idx = K.maxpool2d_forward(x, (2, 2), (2, 2))
    gout = rng.standard_normal(out.shape)

    def pool_loss():
        return float((K.maxpool2d_forward(x, (2, 2), (2, 2))[0] * gout).sum())

    ok = _rel_err(K.maxpool2d_backward(gout, idx, x.shape),
                  numeric_grad(pool_loss, x)) <= tol

    vals = rng.standard_normal(out.shape)
    gup = rng.standard_normal(x.shape)

    def unpool_loss():
        return float((K.unpool2d_forward(vals, idx, x.shape) * gup).sum())

    ok &= _rel_err(K.unpool2d_backward(gup, idx),
                   numeric_grad(unpool_loss, vals)) <= 1e-5
    return ok


def _fd_gap_fc_softmax(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    gout = rng.standard_normal((2, 3, 1, 1))

    def gap_loss():
        return float((K.global_avg_pool_forward(x) * gout).sum())

    ok = _rel_err(K.global_avg_pool_backward(gout, x.shape),
                  numeric_grad(gap_loss, x)) <= 1e-5

    xf = rng.standard_normal((3, 5))
    wt = rng.standard_normal((4, 5))
    b = rng.standard_normal(4)
    gf = rng.standard_normal((3, 4))

    def fc_loss():
        return float((K.fc_forward(xf, wt, b) * gf).sum())

    gi, gw, gb = K.fc_backward(gf, xf, wt)
    ok &= max(_rel_err(gi, numeric_grad(fc_loss, xf)),
              _rel_err(gw, numeric_grad(fc_loss, wt)),
              _rel_err(gb, numeric_grad(fc_loss, b))) <= 1e-5

    logits = rng.standard_normal((3, 5))
    labels = rng.integers(0, 5, size=3)

    def ce_loss():
        return K.cross_entropy(K.softmax(logits), labels)

    analytic = K.softmax_xent_backward(K.softmax(logits), labels)
    ok &= _rel_err(analytic, numeric_grad(ce_loss, logits)) <= 1e-5
    return ok


def _fd_vac(rng):
    cfg = VacConfig(c_in=4, c_down=2, e1=2, e2=2, c_up=4,
                    embed_groups=int(rng.integers(1, 3)),
                    per_channel_scale=bool(rng.integers(2)))
    params = cfg.init_params(rng)
    for _, arr in params.items():
        arr += rng.normal(0.0, 0.05, size=arr.shape)
    x = rng.standard_normal((1, 4, 6, 6))
    out, cache = vac_forward(x, params, cfg)
    gout = rng.standard_normal(out.shape)

    def loss():
        return float((vac_forward(x, params, cfg)[0] * gout).sum())

    gx, gp = vac_backward(gout, cache, params, cfg)
    worst = _rel_err(gx, numeric_grad(loss, x))
    for (_, g), (_, p) in zip(gp.items(), params.items()):
        worst = max(worst, _rel_err(g, numeric_grad(loss, p)))
    return worst <= 1e-4


def _fd_pepe(rng):
    cfg = PepeConfig(c_in=4, p1=2, e1=4, p2=2, e2=4,
                     stride=int(rng.integers(1, 3)))
    params = cfg.init_params(rng)
    for arr in params.values():
        arr += rng.normal(0.0, 0.05, size=arr.shape)
    x = rng.standard_normal((1, 4, 5, 5))
    out, cache = pepe_forward(x, params, cfg)
    gout = rng.standard_normal(out.shape)

    def loss():
        return float((pepe_forward(x, params, cfg)[0] * gout).sum())

    gx, gp = pepe_backward(gout, cache, params, cfg)
    worst = _rel_err(gx, numeric_grad(loss, x))
    for name, arr in params.items():
        worst = max(worst, _rel_err(gp[name], numeric_grad(loss, arr)))
    return worst <= 1e-4


MICRO_TEXT = ("input 1 8 8\nconv k3 s2 p1 c4\nvac dm2 e1:2 e2:2 um4\n"
              "res{\npepe p1:2 e1:4 p2:2 e2:4\n}res\ngap\nfc 3\nsoftmax\n")


def _fd_micro_network(rng, seed):
    net = nb.compile_spec(nb.parse_dsl(MICRO_TEXT), seed=seed)
    for _, arr in net.parameters():
        arr += rng.normal(0.0, 0.05, size=arr.shape)
    x = rng.random((2, 1, 8, 8))
    labels = rng.integers(0, 3, size=2)

    def loss():
        return K.cross_entropy(net.forward(x), labels)

    net.loss_and_backward(x, labels)
    grads = dict(net.gradients())
    worst = 0.0
    for name, arr in net.parameters():
        picks = rng.choice(arr.size, size=min(3, arr.size), replace=False)
        for i in picks:
            old = arr.ravel()[i]
            arr.ravel()[i] = old + 1e-6
            fp = loss()
            arr.ravel()[i] = old - 1e-6
            fm = loss()
            arr.ravel()[i] = old
            numeric = (fp - fm) / 2e-6
            worst = max(worst, _rel_err(grads[name].ravel()[i], numeric))
    return worst <= 1e-4


def test_criterion_2_gradient_fidelity(capsys):
    start = time.time()
    rng = np.random.default_rng(2024)
    failures = []
    for variant in ("standard", "pointwise", "depthwise", "grouped",
                    "strided", "padded"):
        for i in range(20):
            if not _fd_conv(rng, _conv_variant_specs(rng)[variant], 1e-5):
                failures.append(f"conv/{variant} instance {i}")
    for i in range(20):
        if not _fd_pool_unpool(rng, 1e-4):
            failures.append(f"pool/unpool instance {i}")
        if not _fd_gap_fc_softmax(rng):
            failures.append(f"gap/fc/softmax instance {i}")
        if not _fd_vac(rng):
            failures.append(f"vac instance {i}")
        if not _fd_pepe(rng):
            failures.append(f"pepe instance {i}")
        if not _fd_micro_network(rng, seed=i):
            failures.append(f"micro network instance {i}")
    elapsed = time.time() - start
    with capsys.disabled():
        _verdict(2, not failures and elapsed < 120.0,
                 "; ".join(failures[:5]) or f"all layer types, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence (naive conv loops, multiplication counter)

def test_criterion_3_oracle_equivalence(capsys):
    start = time.time()
    rng = np.random.default_rng(33)
    failures = []
    for i in range(100):
        c_in = int(rng.integers(1, 5))
        groups = int(rng.choice([g for g in (1, 2, c_in) if c_in % g == 0]))
        mult = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        spec = K.ConvSpec(c_in, groups * mult * (c_in // groups) if groups > 1
                          else int(rng.integers(1, 5)),
                          kernel=(k, k),
                          stride=(int(rng.integers(1, 3)),) * 2,
                          padding=(int(rng.integers(0, 2)),) * 2,
                          groups=groups)
        h = int(rng.integers(k, 7))
        w = int(rng.integers(k, 7))
        x = rng.uniform(-1, 1, (int(rng.integers(1, 3)), c_in, h, w))
        wt = rng.uniform(-1, 1, spec.weight_shape())
        b = rng.uniform(-1, 1, spec.c_out)
        got = K.conv2d_forward(x, wt, b, spec)
        want = naive_conv2d(x, wt, b, spec.stride, spec.padding, spec.groups)
        if np.abs(got - want).max() > 1e-12:
            failures.append(f"conv instance {i}: {np.abs(got - want).max():.2e}")
    for name in sorted(nb.REFERENCE_SPECS):
        spec = nb.reference_spec(name)
        net = nb.compile_spec(spec, seed=0)
        counter = MulCounter()
        naive_network_forward(spec, dict(net.parameters()),
                              np.random.default_rng(0).random((1,) + spec.input_shape),
                              counter)
        counted = complexity.count_mult_adds(spec).total_mult_adds
        if counter.n != counted:
            failures.append(f"{name}: counter {counter.n} != report {counted}")
    elapsed = time.time() - start
    with capsys.disabled():
        _verdict(3, not failures and elapsed < 60.0,
                 "; ".join(failures[:5]) or f"100 conv + 2 specs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: attention block structural invariants

def _random_vac_config(rng):
    c_in = int(rng.choice([2, 3, 4, 6, 8]))
    c_down = int(rng.integers(1, c_in + 1))
    divisors = [g for g in (1, 2, 3) if c_down % g == 0]
    g = int(rng.choice(divisors))
    e1 = g * int(rng.integers(1, 4))
    return VacConfig(c_in=c_in, c_down=c_down, e1=e1, e2=c_down, c_up=c_in,
                     embed_kernel=int(rng.choice([1, 3])),
                     embed_groups=g,
                     per_channel_scale=bool(rng.integers(2)))


def test_criterion_4_vac_invariants(capsys):
    rng = np.random.default_rng(4)
    failures = []
    for i in range(50):
        cfg = _random_vac_config(rng)
        params = cfg.init_params(rng)
        for _, arr in params.items():
            arr += rng.normal(0.0, 0.1, size=arr.shape)
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        x = rng.standard_normal((int(rng.integers(1, 3)), cfg.c_in, h, w))
        out, cache = vac_forward(x, params, cfg)
        if out.shape != x.shape:
            failures.append(f"config {i}: shape {out.shape} != {x.shape}")
            continue
        qh = h // cfg.pool
        qw = w // cfg.pool
        bound = x.shape[0] * cfg.c_down * qh * qw
        attn = K.unpool2d_forward(cache["k_sig"], cache["pool_idx"],
                                  gating_map(cache, params).shape)
        nonzeros = int(np.count_nonzero(attn))
        if nonzeros > bound:
            failures.append(f"config {i}: attention nonzeros {nonzeros} > {bound}")
        params["scale"][...] = 0.0
        out0, cache0 = vac_forward(x, params, cfg)
        gated0 = gating_map(cache0, params)
        bias_only = K.conv2d_forward(np.zeros_like(gated0),
                                     params["up_w"], params["up_b"], cfg.up_spec())
        if np.any(gated0) or np.abs(out0 - bias_only).max() > 0:
            failures.append(f"config {i}: zero scale does not annihilate gating")
    with capsys.disabled():
        _verdict(4, not failures, "; ".join(failures[:5]) or "50 configs")


# ---------------------------------------------------------------------------
# criteria 5 and 6: desk-scale learning and quantization. The MNIST variants
# skip when the IDX files are absent; the digits analog always runs.

def _train_recipe(spec, dataset, seed=42):
    net = nb.compile_spec(spec, seed=seed)
    train(net, dataset, TrainConfig(lr=0.02, momentum=0.9, batch_size=32,
                                    epochs=30, seed=seed))
    train(net, dataset, TrainConfig(lr=0.004, momentum=0.9, batch_size=32,
                                    epochs=10, seed=seed + 1))
    return net


def _ablated_spec_text():
    """Reference spec with each attention block replaced by a pointwise conv
    of equal output channel count."""
    lines = []
    for line in nb.REFERENCE_SPECS["attendnet-micro-a"].strip().split("\n"):
        if line.startswith("vac"):
            channels = re.search(r"um(\d+)", line).group(1)
            line = f"conv k1 c{channels}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def digits_split():
    sklearn = pytest.importorskip("sklearn.datasets")
    d = sklearn.load_digits()
    imgs = d.images / 16.0                             # (n, 8, 8) in [0, 1]
    big = np.repeat(np.repeat(imgs, 3, axis=1), 3, axis=2)   # 24x24
    big = np.pad(big, ((0, 0), (2, 2), (2, 2)))[:, None]     # (n, 1, 28, 28)
    perm = np.random.default_rng(0).permutation(len(d.target))
    tr, te = perm[:1437], perm[1437:]
    return (Dataset(big[tr], d.target[tr]), Dataset(big[te], d.target[te]))


@pytest.fixture(scope="module")
def digits_model(digits_split):
    train_ds, test_ds = digits_split
    net = _train_recipe(nb.reference_spec("attendnet-micro-a"), train_ds)
    top1, _ = evaluate(net, test_ds)
    return net, test_ds, top1


@pytest.fixture(scope="module")
def mnist_model():
    root = _mnist_dir()
    if root is None:
        return None
    from vacnet.trainer import load_idx
    train_ds = load_idx(root / MNIST_FILES[0], root / MNIST_FILES[1])
    test_ds = load_idx(root / MNIST_FILES[2], root / MNIST_FILES[3])
    net = nb.compile_spec(nb.reference_spec("attendnet-micro-a"), seed=42)
    train(net, train_ds, TrainConfig(lr=0.02, momentum=0.9, batch_size=32,
                                     epochs=5, seed=42))
    top1, _ = evaluate(net, test_ds)
    return net, train_ds, test_ds, top1


def test_criterion_5_desk_scale_learning_mnist(mnist_model, capsys):
    if mnist_model is None:
        with capsys.disabled():
            _skip(5, "MNIST IDX files not found; set VACNET_MNIST_DIR or "
                     "place them under ./data")
    net, train_ds, test_ds, top1 = mnist_model
    control = nb.compile_spec(nb.parse_dsl(_ablated_spec_text()), seed=42)
    report = train(control, train_ds,
                   TrainConfig(lr=0.02, momentum=0.9, batch_size=32,
                               epochs=5, seed=42))
    ctrl_top1, _ = evaluate(control, test_ds)
    ok = top1 >= 0.97 and report.epochs[-1][1] < report.epochs[0][1] \
        and ctrl_top1 >= 0.90
    with capsys.disabled():
        _verdict(5, ok, f"top1 {top1:.4f}, ablated control {ctrl_top1:.4f}")


def test_criterion_5_analog_digits(digits_split, digits_model, capsys):
    train_ds, test_ds = digits_split
    _, _, top1 = digits_model
    control = _train_recipe(nb.parse_dsl(_ablated_spec_text()), train_ds)
    ctrl_top1, _ = evaluate(control, test_ds)
    ok = top1 >= 0.97 and ctrl_top1 >= 0.90
    with capsys.disabled():
        _verdict("5-analog", ok, f"top1 {top1:.4f}, ablated control {ctrl_top1:.4f}")


def _quantization_checks(net, test_ds, top1):
    qnet = quant.quantize_weights(net, quant.PER_CHANNEL)
    q_top1, _ = evaluate(qnet, test_ds)
    drop_pp = (top1 - q_top1) * 100.0
    four_x = quant.weight_memory_bytes(net, 32) == 4 * quant.weight_memory_bytes(net, 8)
    again = quant.quantize_weights(qnet, quant.PER_CHANNEL)
    idempotent = all(
        qnet.blobs[name].values.tobytes() == again.blobs[name].values.tobytes()
        and qnet.blobs[name].scales.tobytes() == again.blobs[name].scales.tobytes()
        for name in qnet.blobs)
    return drop_pp, four_x, idempotent


def test_criterion_6_quantization_mnist(mnist_model, capsys):
    if mnist_model is None:
        with capsys.disabled():
            _skip(6, "MNIST IDX files not found; set VACNET_MNIST_DIR or "
                     "place them under ./data")
    net, _, test_ds, top1 = mnist_model
    drop_pp, four_x, idempotent = _quantization_checks(net, test_ds, top1)
    with capsys.disabled():
        _verdict(6, drop_pp <= 1.0 and four_x and idempotent,
                 f"drop {drop_pp:.2f}pp, 4x={four_x}, idempotent={idempotent}")


def test_criterion_6_analog_digits(digits_model, capsys):
    net, test_ds, top1 = digits_model
    drop_pp, four_x, idempotent = _quantization_checks(net, test_ds, top1)
    with capsys.disabled():
        _verdict("6-analog", drop_pp <= 1.0 and four_x and idempotent,
                 f"drop {drop_pp:.2f}pp, 4x={four_x}, idempotent={idempotent}")


# ---------------------------------------------------------------------------
# criterion 7: constrained-search harness vs exhaustive enumeration

def test_criterion_7_search_harness(capsys):
    start = time.time()
    texts, metrics = [], {}
    top1s = [0.50, 0.68, 0.71, 0.74, 0.77, 0.80, 0.83, 0.90]
    for i, top1 in enumerate(top1s):
        text = f"input 1 8 8\nconv k1 c{i + 2}\ngap\nfc 2\nsoftmax\n"
        texts.append(text)
        metrics[explore.spec_hash(text)] = {
            "top1": top1, "bits": 8 if i % 2 == 0 else 32,
            "params": 1000 * (i + 1), "mult_adds": 50_000 * (i + 1)}
    space = explore.SearchSpace(candidates=texts, metrics=metrics)
    icfg = explore.IndicatorConfig(tau=0.71, bits=8)
    pf = explore.PerformanceFunction()
    eval_fn = explore.cached_eval_fn(metrics)

    expected = []
    for text in texts:
        m = metrics[explore.spec_hash(text)]
        if explore.indicator({"top1": m["top1"], "bits": m["bits"]}, icfg):
            u = explore.score(m["top1"], m["params"], m["mult_adds"], pf)
            expected.append((-u, m["params"], text))
    expected.sort()

    failures = []
    result = explore.search(space, 8, icfg, pf, eval_fn, seed=0)
    if [c.spec_text for c in result.feasible] != [t for _, _, t in expected]:
        failures.append("ranking differs from exhaustive enumeration")
    for seed in range(100):
        r = explore.search(space, 5, icfg, pf, eval_fn, seed=seed)
        if any(not c.feasible for c in r.feasible):
            failures.append(f"seed {seed} returned an infeasible candidate")
            break
    elapsed = time.time() - start
    with capsys.disabled():
        _verdict(7, not failures and elapsed < 1.0,
                 "; ".join(failures) or f"100 seeds, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 8: bitwise reproducibility of the train command

def test_criterion_8_reproducibility(tmp_path, capsys):
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 3, size=40).astype(np.uint8)
    images = (labels[:, None, None] * 60
              + rng.integers(0, 40, size=(40, 8, 8))).astype(np.uint8)
    img = tmp_path / "images-idx3"
    lab = tmp_path / "labels-idx1"
    img.write_bytes(struct.pack(">IIII", 0x803, 40, 8, 8) + images.tobytes())
    lab.write_bytes(struct.pack(">II", 0x801, 40) + labels.tobytes())
    spec = tmp_path / "net.dsl"
    spec.write_text("input 1 8 8\nconv k3 s1 p1 c4\nvac dm2 e1:2 e2:2 um4\n"
                    "gap\nfc 3\nsoftmax\n")
    flags = ["train", "--spec", str(spec), "--data", str(img),
             "--labels", str(lab), "--epochs", "2", "--lr", "0.05",
             "--batch", "8", "--seed", "17"]
    assert cli.main(flags + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(flags + ["--out", str(tmp_path / "b")]) == 0
    model_same = ((tmp_path / "a" / "model.acnk").read_bytes()
                  == (tmp_path / "b" / "model.acnk").read_bytes())
    metrics_same = ((tmp_path / "a" / "metrics.csv").read_text()
                    == (tmp_path / "b" / "metrics.csv").read_text())
    with capsys.disabled():
        _verdict(8, model_same and metrics_same,
                 f"model identical={model_same}, metrics identical={metrics_same}")
