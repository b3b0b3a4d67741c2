"""Metric names, units and directions, and the per-layer table of a traced run.

BENCHMARK.json at the repository root lists the same names; the self-tests
check that the two agree.
"""

from __future__ import annotations

CONV_KINDS = ("pointwise", "dense", "grouped", "depthwise")
REFERENCE_SPECS = ("attendnet-micro-a", "attendnet-micro-b")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("img_per_s", "img/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p99", "ms", "lower"),
    ("loss", "nats", "lower"),
    ("q8_agree", "ratio", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = (
    *((f"kernels.conv_{k}.{m}", u, b) for k in CONV_KINDS for m, u, b in (
        ("fwd_ms", "ms", "lower"), ("bwd_ms", "ms", "lower"),
        ("calls", "count", "lower"), ("gmacs_per_s", "GMAC/s", "higher"))),
    *((f"kernels.{op}.{m}", "ms", "lower")
      for op in ("maxpool", "unpool") for m in ("fwd_ms", "bwd_ms")),
    *((f"kernels.{op}.ms", "ms", "lower") for op in ("relu", "sigmoid", "fc", "xent")),
    *((f"{block}.{m}", u, b) for block in ("vac", "pepe") for m, u, b in (
        ("fwd_ms", "ms", "lower"), ("bwd_ms", "ms", "lower"),
        ("self_ms", "ms", "lower"), ("gmacs_per_s", "GMAC/s", "higher"))),
    *((f"netbuilder.{m}", "ms", "lower") for m in (
        "forward_ms", "backward_ms", "self_ms",
        "parse_ms", "compile_ms", "save_ms", "load_ms")),
    *((f"quant.{m}", "ms", "lower") for m in ("quantize_ms", "save_ms", "load_ms")),
    *((f"trainer.{m}", "ms", "lower") for m in ("train_ms", "self_ms", "evaluate_ms")),
    ("trace.overhead_ms", "ms", "lower"),
    *((f"complexity.{s}.macs_per_img", "count", "lower") for s in REFERENCE_SPECS),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def per_layer(totals, op_root, n_ops, n_setups, n_evals):
    """Per-layer metrics from ``spans.summarise`` totals.

    Layer times are ms per operation (a training step, or a batch-1 request on
    infer-q8) over the spans under ``op_root``; set-up layers are ms per
    set-up; ``trainer.evaluate_ms`` is ms per evaluate pass. ``kernels.xent``
    covers softmax, cross_entropy and softmax_xent_backward. Mult-add rates
    count backward calls at twice the forward mult-adds. A layer the workload
    never calls reads 0.
    """
    def get(names, field="s", under=op_root):
        return sum(totals.get((under, n), {}).get(field, 0) for n in names)

    def ms(names, field="s", under=op_root, per=n_ops):
        return 1000 * get(names, field, under) / per if per else 0.0

    def rate(names):
        seconds = get(names)
        return get(names, "macs") / seconds / 1e9 if seconds else 0.0

    m = {}
    for kind in CONV_KINDS:
        fwd, bwd = f"kernels.conv_{kind}.fwd", f"kernels.conv_{kind}.bwd"
        m[f"kernels.conv_{kind}.fwd_ms"] = ms([fwd])
        m[f"kernels.conv_{kind}.bwd_ms"] = ms([bwd])
        m[f"kernels.conv_{kind}.calls"] = get([fwd, bwd], "calls") / n_ops if n_ops else 0.0
        m[f"kernels.conv_{kind}.gmacs_per_s"] = rate([fwd, bwd])
    for op in ("maxpool", "unpool"):
        m[f"kernels.{op}.fwd_ms"] = ms([f"kernels.{op}.fwd"])
        m[f"kernels.{op}.bwd_ms"] = ms([f"kernels.{op}.bwd"])
    for op in ("relu", "sigmoid", "fc", "xent"):
        m[f"kernels.{op}.ms"] = ms([f"kernels.{op}.fwd", f"kernels.{op}.bwd"])
    for block in ("vac", "pepe"):
        both = [f"{block}.fwd", f"{block}.bwd"]
        m[f"{block}.fwd_ms"] = ms([both[0]])
        m[f"{block}.bwd_ms"] = ms([both[1]])
        m[f"{block}.self_ms"] = ms(both, "self_s")
        m[f"{block}.gmacs_per_s"] = rate(both)
    m["netbuilder.forward_ms"] = ms(["netbuilder.forward"])
    m["netbuilder.backward_ms"] = ms(["netbuilder.backward"])
    m["netbuilder.self_ms"] = ms(["netbuilder.forward", "netbuilder.backward"], "self_s")
    for layer in ("netbuilder.parse", "netbuilder.compile", "netbuilder.save",
                  "netbuilder.load", "quant.quantize", "quant.save", "quant.load"):
        m[f"{layer}_ms"] = ms([layer], under="bench.setup", per=n_setups)
    m["trainer.train_ms"] = ms(["trainer.train"])
    m["trainer.evaluate_ms"] = ms(["trainer.evaluate"], under="bench.eval", per=n_evals)
    m["trainer.self_ms"] = (ms(["trainer.train"], "self_s")
                            + ms(["trainer.evaluate"], "self_s", "bench.eval", n_evals))
    return m

