"""The three benchmark workloads, their set-up, timed loops and checks.

Every workload drives vacnet's public API from outside, single-threaded, one
operation at a time (a closed loop with one client). The inputs come only
from ``images.task(seed, ...)``.

End-to-end metrics are named alike on every workload, because every run
reports all of them; what each one measures depends on the workload:

===============  ====================================  ===========================
metric           train-a / train-b                     infer-q8
===============  ====================================  ===========================
setup_s          import vacnet, parse, compile         the same plus .acnk save and
                                                       load, quantize, .acnk8 save
                                                       and load
img_per_s        SGD images/s                          trainer.evaluate images/s at
                                                       batch 256
latency_ms_p50   ms per batch-32 SGD step, as epoch    batch-1 request latency
latency_ms_p99   means (trainer.train hides single     (median and 99th percentile)
                 steps), median and 99th percentile
loss             mean loss of a trial's final epoch    int8 held-out mean loss
q8_agree         int8 vs float64 argmax agreement on held-out images
peak_rss_mib     peak resident set of the process
===============  ====================================  ===========================

Timings are taken in windows (an epoch, WINDOW_REQUESTS requests, an
evaluate pass) and reported over the fastest FAST_SHARE of them. Other
tenants of the shared 2-vCPU host slow whole stretches of seconds: on an
idle benchmark the per-second median of batch-1 latency moved between 1.1 and
2.1 ms within 90 s, and a whole-run median or p99 moved with it. set-up time
is the median of SETUP_REPS set-ups, half of them before and half after the
timed loops.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

N_TRAIN = 512          # one epoch = 16 steps of 32
N_HELD = 512           # held-out images: b1 requests, evaluate passes, q8_agree
BATCH = 32
EVAL_BATCH = 256
EPOCHS = 3             # per training trial; every trial restarts from the same init
LR = 0.02
MOMENTUM = 0.9
SETUP_REPS = 10         # half before the timed loops, half after them
Q8_AGREE_FLOOR = 0.8     # well above chance (0.1); weakly trained nets sit near 0.95
CHECK_BATCH = 32       # forward chunk for the q8 check, so it never sets peak RSS
WINDOW_REQUESTS = 100  # batch-1 requests per window, about 0.1 s
FAST_SHARE = 0.1       # share of timing windows reported, fastest first
ROUND_SECONDS = 3.0    # infer-q8: 2/3 batch-1 requests, then 1/3 evaluate passes


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str
    kind: str   # "train" or "infer"
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("train-a", "attendnet-micro-a", "train",
             "SGD on micro-a at 28x28: small maps, so per-call overhead, pointwise convs, "
             "VAC and depthwise PEPE dominate a step"),
    Workload("train-b", "attendnet-micro-b", "train",
             "SGD on micro-b at 32x32: dense 3x3 convs and VAC at full size dominate; "
             "BLAS-bound with large im2col copies"),
    Workload("infer-q8", "attendnet-micro-a", "infer",
             "int8 micro-a forward only: batch-1 requests (Python overhead) then "
             "batch-256 evaluate (BLAS); set-up adds save/load and quantize"),
)}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)   # name -> (ok, detail)
    details: dict = field(default_factory=dict)

    def check(self, name, ok, detail=""):
        self.checks[name] = (bool(ok), detail)


def import_vacnet():
    """Import vacnet afresh, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "vacnet" or m.startswith("vacnet.")]:
        del sys.modules[name]
    importlib.import_module("vacnet")
    return SimpleNamespace(**{m: importlib.import_module(f"vacnet.{m}")
                              for m in ("kernels", "netbuilder", "trainer", "quant")})


def root(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def probs_ok(probs):
    probs = np.asarray(probs)
    return bool(np.all(np.isfinite(probs))
                and np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# Preparation and set-up


def prepare(mods, wl, seed, data):
    """Untimed inputs besides the images: the trained float weights infer-q8 serves."""
    if wl.kind != "infer":
        return None
    spec = mods.netbuilder.reference_spec(wl.spec)
    net = mods.netbuilder.compile_spec(spec, seed=seed)
    train = mods.trainer.Dataset(*data[0])
    mods.trainer.train(net, train, mods.trainer.TrainConfig(
        lr=LR, momentum=MOMENTUM, batch_size=BATCH, epochs=EPOCHS, seed=seed))
    return [arr.copy() for _, arr in net.parameters()]


def setup(mods, wl, seed, weights, tmpdir):
    nb = mods.netbuilder
    spec = nb.reference_spec(wl.spec)
    net = nb.compile_spec(spec, seed=seed)
    state = {"spec": spec, "net": net}
    if wl.kind == "infer":
        for (_, arr), w in zip(net.parameters(), weights):
            arr[...] = w
        path = os.path.join(tmpdir, "model.acnk")
        nb.save(net, path)
        state["float"] = nb.load(path)
        state["qnet"] = mods.quant.quantize_weights(state["float"], mods.quant.PER_CHANNEL)
        qpath = os.path.join(tmpdir, "model.acnk8")
        mods.quant.save_quantized(state["qnet"], qpath)
        state["served"] = mods.quant.load_quantized(qpath)
    return state


def timed_setups(wl, seed, weights, tmpdir, tracer, reps):
    """``reps`` set-ups, each from a fresh import; returns (seconds, mods, state)
    of the last one."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        mods = import_vacnet()
        if tracer:
            tracer.install(mods)
        with root(tracer, "bench.setup"):
            state = setup(mods, wl, seed, weights, tmpdir)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    return times, mods, state


# ---------------------------------------------------------------------------
# Timed loops. Each runs until its deadline and always completes at least one
# unit of work (one training trial, one request, one evaluate pass).


def train_loop(mods, state, ds, seed, seconds, tracer, result):
    """Training trials of EPOCHS epochs from one fixed init, one trainer.train
    call per epoch so each epoch is timed; returns (epoch seconds, trial losses,
    network of the last complete trial)."""
    nb, tr = mods.netbuilder, mods.trainer
    steps = math.ceil(len(ds) / BATCH)
    deadline = time.perf_counter() + seconds
    epoch_s, trials, last = [], [], None
    while True:
        # The first trial trains the network set-up compiled.
        net = state.pop("net", None) or nb.compile_spec(state["spec"], seed=seed)
        losses = []
        for epoch in range(EPOCHS):
            if trials and time.perf_counter() >= deadline:
                break
            config = tr.TrainConfig(lr=LR, momentum=MOMENTUM, batch_size=BATCH,
                                    epochs=1, seed=seed * EPOCHS + epoch)
            result.attempted += steps
            with root(tracer, "bench.epoch"):
                t0 = time.perf_counter()
                try:
                    report = tr.train(net, ds, config)
                except Exception:
                    traceback.print_exc()
                    report = None
                dt = time.perf_counter() - t0
            loss = report.epochs[0][1] if report else math.nan
            if not math.isfinite(loss):
                result.failed += steps
                break
            epoch_s.append(dt)
            losses.append(loss)
        if len(losses) == EPOCHS:
            trials.append(losses)
            last = net
        if time.perf_counter() >= deadline and (trials or len(losses) < EPOCHS):
            break
    return epoch_s, trials, last


def request_loop(qnet, held_x, seconds, tracer, result):
    """Closed loop of batch-1 requests; returns latencies of good requests (s)."""
    latencies = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or not latencies:
        x = held_x[i % len(held_x):i % len(held_x) + 1]
        i += 1
        result.attempted += 1
        with root(tracer, "bench.request"):
            t0 = time.perf_counter()
            try:
                probs = qnet.forward(x)
            except Exception:
                traceback.print_exc()
                probs = None
            dt = time.perf_counter() - t0
        if probs is None or not probs_ok(probs):
            result.failed += 1
            if time.perf_counter() >= deadline:
                break
            continue
        latencies.append(dt)
    return latencies


def evaluate_loop(mods, qnet, held, seconds, tracer, result):
    """trainer.evaluate passes at batch 256; returns (pass seconds, losses)."""
    pass_s, losses = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not pass_s:
        result.attempted += 1
        with root(tracer, "bench.eval"):
            t0 = time.perf_counter()
            try:
                _, loss = mods.trainer.evaluate(qnet, held, batch_size=EVAL_BATCH)
            except Exception:
                traceback.print_exc()
                loss = math.nan
            dt = time.perf_counter() - t0
        if not math.isfinite(loss):
            result.failed += 1
            if time.perf_counter() >= deadline:
                break
            continue
        pass_s.append(dt)
        losses.append(loss)
    return pass_s, losses


def fastest(windows, key):
    """The FAST_SHARE of the windows (at least one) that ran fastest by ``key``."""
    return sorted(windows, key=key)[:max(1, int(len(windows) * FAST_SHARE))]


def measure(mods, wl, state, data, seed, seconds, tracer, result):
    """One timed segment. Returns the loop outputs plus ``rate`` windows
    (images, seconds) and ``latency`` windows (lists of ms per operation)."""
    if wl.kind == "train":
        ds = mods.trainer.Dataset(*data[0])
        epoch_s, trials, last = train_loop(mods, state, ds, seed, seconds, tracer, result)
        steps = math.ceil(len(ds) / BATCH)
        return {"rate": [(len(ds), s) for s in epoch_s],
                "latency": [[1000 * s / steps] for s in epoch_s],
                "trials": trials, "net": last, "ops": steps * len(epoch_s)}
    held_x, held_y = data[1]
    held = mods.trainer.Dataset(held_x, held_y)
    latencies, pass_s, losses = [], [], []
    deadline = time.perf_counter() + seconds
    while True:   # alternate the phases, so each meets every stretch of host load
        latencies += request_loop(state["served"], held_x, 2 * ROUND_SECONDS / 3,
                                  tracer, result)
        more_s, more_losses = evaluate_loop(mods, state["served"], held,
                                            ROUND_SECONDS / 3, tracer, result)
        pass_s += more_s
        losses += more_losses
        if time.perf_counter() >= deadline:
            break
    ms = [1000 * s for s in latencies]
    return {"rate": [(len(held), s) for s in pass_s],
            "latency": [ms[i:i + WINDOW_REQUESTS]
                        for i in range(0, len(ms) - WINDOW_REQUESTS + 1, WINDOW_REQUESTS)]
                       or [ms][:len(ms)],
            "losses": losses, "ops": len(latencies), "evals": len(pass_s)}


def timing_metrics(out):
    """img/s and latency percentiles over the fastest windows; None when no
    timed operation succeeded."""
    rate = fastest(out["rate"], key=lambda w: w[1] / w[0])
    ms = [t for w in fastest(out["latency"], key=statistics.median) for t in w]
    if not rate or not ms:
        return None
    return {"img_per_s": sum(n for n, _ in rate) / sum(s for _, s in rate),
            "latency_ms_p50": statistics.median(ms),
            "latency_ms_p99": percentile(ms, 99)}


def warm_up(mods, wl, state, data, seed):
    if wl.kind == "train":
        net = mods.netbuilder.compile_spec(state["spec"], seed=seed)
        x, y = data[0]
        mods.trainer.train(net, mods.trainer.Dataset(x[:2 * BATCH], y[:2 * BATCH]),
                           mods.trainer.TrainConfig(lr=LR, batch_size=BATCH, epochs=1))
    else:
        held_x, held_y = data[1]
        for i in range(20):
            state["served"].forward(held_x[i:i + 1])
        mods.trainer.evaluate(state["served"], mods.trainer.Dataset(held_x, held_y),
                              batch_size=EVAL_BATCH)


# ---------------------------------------------------------------------------
# Checks


def q8_agreement(float_net, qnet, held_x, result):
    """Share of held-out images whose int8 argmax equals the float64 argmax."""
    agree = 0
    rows_ok = True
    for start in range(0, len(held_x), CHECK_BATCH):
        x = held_x[start:start + CHECK_BATCH]
        pf, pq = float_net.forward(x), qnet.forward(x)
        rows_ok &= probs_ok(pf) and probs_ok(pq)
        agree += int((pf.argmax(axis=1) == pq.argmax(axis=1)).sum())
    share = agree / len(held_x)
    result.check("probability rows finite and summing to 1", rows_ok)
    result.check(f"q8_agree >= {Q8_AGREE_FLOOR}", share >= Q8_AGREE_FLOOR, f"{share:.4f}")
    return share


def check_round_trip(state, weights, result):
    params = [arr for _, arr in state["float"].parameters()]
    result.check(".acnk save->load keeps float64 weights bit-exactly",
                 len(params) == len(weights) and all(
                     a.dtype == w.dtype and np.array_equal(a, w)
                     for a, w in zip(params, weights)))
    saved, served = state["qnet"].blobs, state["served"].blobs
    int8_ok = saved.keys() == served.keys() and all(
        served[k].values.dtype == np.int8
        and np.array_equal(saved[k].values, served[k].values)
        and saved[k].scales.tobytes() == served[k].scales.tobytes()
        and saved[k].per_channel == served[k].per_channel for k in saved)
    result.check("int8 values and scales survive save_quantized->load_quantized "
                 "bit-exactly", int8_ok)


def finish_train(mods, out, data, result):
    trials = out["trials"]
    if not trials:
        result.check("at least one training trial completed", False)
        return
    first, final = trials[0][0], trials[0][-1]
    result.check("train loss finite and below the first epoch's",
                 math.isfinite(final) and final < first, f"{first:.6f} -> {final:.6f}")
    result.check("training trials reproduce bitwise",
                 all(t == trials[0] for t in trials), f"{len(trials)} trials")
    net = out["net"]
    qnet = mods.quant.quantize_weights(net, mods.quant.PER_CHANNEL)
    agree = q8_agreement(net, qnet, data[1][0], result)
    result.metrics.update({"loss": final, "q8_agree": agree})
    result.details.update({"epochs_timed": len(out["rate"]), "trials": len(trials),
                           "epoch_losses": trials[0]})


def finish_infer(mods, state, weights, out, data, result):
    check_round_trip(state, weights, result)
    losses = out["losses"]
    if not losses:
        result.check("at least one evaluate pass completed", False)
        return
    result.check("evaluate passes reproduce bitwise", len(set(losses)) == 1,
                 f"{len(losses)} passes")
    agree = q8_agreement(state["float"], state["served"], data[1][0], result)
    result.metrics.update({"loss": losses[0], "q8_agree": agree})
    result.details.update({"requests_timed": out["ops"], "eval_passes": out["evals"]})
