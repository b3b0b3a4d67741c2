"""Self-tests of the benchmark: conv-kind classifier, self-time arithmetic,
mult-add join, and agreement between the code and BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import images  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vacnet import complexity, kernels, netbuilder, quant, trainer  # noqa: E402
from vacnet.kernels import ConvSpec  # noqa: E402
from vacnet.pepe import PepeConfig  # noqa: E402
from vacnet.vac import VacConfig  # noqa: E402

MODS = SimpleNamespace(kernels=kernels, netbuilder=netbuilder, trainer=trainer,
                       quant=quant, complexity=complexity)


@pytest.mark.parametrize("spec, kind", [
    (ConvSpec(8, 16), "pointwise"),
    (ConvSpec(8, 16, stride=(2, 2)), "pointwise"),
    (ConvSpec(8, 16, kernel=(3, 3), padding=(1, 1)), "dense"),
    (ConvSpec(8, 16, kernel=(3, 3), padding=(1, 1), groups=2), "grouped"),
    (ConvSpec(8, 16, kernel=(3, 3), padding=(1, 1), groups=8), "depthwise"),
    (ConvSpec(8, 8, groups=8), "depthwise"),
])
def test_conv_kind(spec, kind):
    assert spans.conv_kind(spec) == kind


def _conv_specs(layers):
    for layer in layers:
        if isinstance(layer, netbuilder.ConvLayer):
            yield layer.spec
        elif isinstance(layer, netbuilder.ResidualGroup):
            yield from _conv_specs(layer.body)
        elif isinstance(layer, PepeConfig):
            yield from layer.specs()
        elif isinstance(layer, VacConfig):
            yield from (layer.down_spec(), layer.embed_grouped_spec(),
                        layer.embed_pointwise_spec(), layer.up_spec())


@pytest.mark.parametrize("name, pointwise, total", [
    ("attendnet-micro-a", 12, 18), ("attendnet-micro-b", 12, 19)])
def test_reference_specs_conv_mix(name, pointwise, total):
    kinds = [spans.conv_kind(s) for s in _conv_specs(netbuilder.reference_spec(name).layers)]
    assert len(kinds) == total
    assert kinds.count("pointwise") == pointwise
    assert {"dense", "grouped", "depthwise"} <= set(kinds)


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    with t.span("a"):                     # 0 .. 10
        with t.span("b", macs=5):         # 1 .. 4
            with t.span("c", macs=7):     # 2 .. 3
                pass
        with t.span("d", macs=11):        # 5 .. 9
            pass
    totals = spans.summarise(t)
    assert totals[("a", "a")] == {"calls": 1, "s": 10.0, "self_s": 3.0, "macs": 23}
    assert totals[("a", "b")] == {"calls": 1, "s": 3.0, "self_s": 2.0, "macs": 12}
    assert totals[("a", "c")] == {"calls": 1, "s": 1.0, "self_s": 1.0, "macs": 7}
    assert totals[("a", "d")] == {"calls": 1, "s": 4.0, "self_s": 4.0, "macs": 11}


def test_per_layer_divides_by_operations():
    # epoch 0..6 ms holds vac 0..4 ms (conv 1..3 ms inside) and relu 4..6 ms
    ticks = iter([0.0, 0.0, 0.001, 0.003, 0.004, 0.004, 0.006, 0.006])
    t = spans.Tracer(clock=lambda: next(ticks))
    with t.span("bench.epoch"):
        with t.span("vac.fwd", macs=100):
            with t.span("kernels.conv_pointwise.fwd", macs=3_000_000):
                pass
        with t.span("kernels.relu.fwd"):
            pass
    m = metrics.per_layer(spans.summarise(t), "bench.epoch", n_ops=2, n_setups=1, n_evals=0)
    assert m["vac.fwd_ms"] == pytest.approx(2.0)          # 4 ms over 2 steps
    assert m["vac.self_ms"] == pytest.approx(1.0)         # 4 ms minus the 2 ms conv
    assert m["kernels.conv_pointwise.fwd_ms"] == pytest.approx(1.0)
    assert m["kernels.conv_pointwise.calls"] == pytest.approx(0.5)
    assert m["kernels.conv_pointwise.gmacs_per_s"] == pytest.approx(1.5)
    assert m["kernels.relu.ms"] == pytest.approx(1.0)
    assert m["netbuilder.save_ms"] == 0.0
    assert set(m) | {"trace.overhead_ms"} | {
        f"complexity.{s}.macs_per_img" for s in metrics.REFERENCE_SPECS} \
        == {n for n, _, _ in metrics.PER_LAYER}


def _hooked():
    """Current value of every attribute the tracer wraps."""
    return [getattr(getattr(getattr(MODS, m), o) if o else getattr(MODS, m), a)
            for m, o, a, _ in spans.HOOKS]


def test_install_and_uninstall_restore_every_attribute():
    before = _hooked()
    t = spans.Tracer()
    t.install(MODS)
    assert all(now is not fn for now, fn in zip(_hooked(), before))
    t.uninstall()
    assert all(now is fn for now, fn in zip(_hooked(), before))


@pytest.mark.parametrize("name", metrics.REFERENCE_SPECS)
def test_mult_add_join_matches_count_mult_adds(name):
    per_img = spans.join_mult_adds(MODS, name, batch=3)
    assert per_img == complexity.count_mult_adds(netbuilder.reference_spec(name)).total_mult_adds


def test_mult_add_join_fails_loudly_on_mismatch():
    class OffByOne:
        @staticmethod
        def count_mult_adds(spec):
            return SimpleNamespace(
                total_mult_adds=complexity.count_mult_adds(spec).total_mult_adds + 1)
    mods = SimpleNamespace(**{**vars(MODS), "complexity": OffByOne})
    with pytest.raises(spans.JoinError):
        spans.join_mult_adds(mods, "attendnet-micro-a")


def test_timing_metrics_use_the_fastest_windows():
    slow, fast = [2.0] * 100, [1.0] * 99 + [3.0]
    out = {"rate": [(10, 1.0)] * 9 + [(10, 0.5)], "latency": [slow] * 9 + [fast]}
    assert workloads.timing_metrics(out) == {
        "img_per_s": 20.0, "latency_ms_p50": 1.0,
        "latency_ms_p99": pytest.approx(1.0 + 0.01 * 2.0)}
    assert workloads.timing_metrics({"rate": [], "latency": []}) is None


def test_images_follow_the_seed():
    (xa, ya), (ha, _) = images.task(3, (1, 28, 28), 8, 4)
    (xb, yb), (hb, _) = images.task(3, (1, 28, 28), 8, 4)
    (xc, _), _ = images.task(4, (1, 28, 28), 8, 4)
    assert xa.shape == (8, 1, 28, 28) and ha.shape == (4, 1, 28, 28)
    assert (xa == xb).all() and (ya == yb).all() and (ha == hb).all()
    assert not (xa == xc).all()


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == \
        [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(metrics.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
