"""vacnet benchmark: one workload per run, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-a --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics with tracing off; ``--trace 1``
spends a third of the time untraced and the rest with span wrappers installed
around vacnet's public functions, and prints the per-layer metrics, the
tracing overhead and the mult-add join for both reference specs. Spans are
written to ``.perfbench-out/`` at the end of a traced run.

The process pins the BLAS pool to BLAS_THREADS threads before numpy loads and
runs one client thread. Inputs come only from ``--seed``. The line before the
last is a JSON report (environment, checks, sample counts); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 1 when a correctness check fails and 2 when vacnet's sources are not
under ``src/``.

Self-tests: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = 1   # one client thread on a shared 2-vCPU host; at most nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train-a", "train-b", "infer-q8"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(root, ".git", ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads_in_use():
    """Ask the loaded OpenBLAS for its pool size; None if it cannot be found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       None)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads_in_use(),
            "blas_threads_pinned": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "git_commit": git_commit(ROOT)}


def run(args, tmpdir):
    import resource
    import statistics

    import images
    import metrics
    import spans
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    result = W.Result()
    tracer = spans.Tracer() if args.trace else None

    # Inputs and the trained weights infer-q8 serves; neither counts as set-up.
    mods = W.import_vacnet()
    spec = mods.netbuilder.reference_spec(wl.spec)
    data = images.task(args.seed, spec.input_shape, W.N_TRAIN, W.N_HELD)
    weights = W.prepare(mods, wl, args.seed, data)

    setup_times, mods, state = W.timed_setups(wl, args.seed, weights, tmpdir, tracer,
                                              W.SETUP_REPS // 2)
    W.warm_up(mods, wl, state, data, args.seed)

    if tracer:
        untraced = W.measure(mods, wl, state, data, args.seed, args.seconds / 3, None, result)
        tracer.install(mods)
        try:
            out = W.measure(mods, wl, state, data, args.seed, 2 * args.seconds / 3,
                            tracer, result)
        finally:
            tracer.uninstall()
    else:
        out = W.measure(mods, wl, state, data, args.seed, args.seconds, None, result)

    if wl.kind == "train":
        W.finish_train(mods, out, data, result)
    else:
        W.finish_infer(mods, state, weights, out, data, result)
    # More set-ups after the timed loops, so set-up time samples two moments.
    more_times, mods, _ = W.timed_setups(wl, args.seed, weights, tmpdir, tracer,
                                         W.SETUP_REPS - W.SETUP_REPS // 2)
    setup_times += more_times
    timing = W.timing_metrics(out)
    result.check("timed operations succeeded", timing is not None)
    result.metrics.update(timing or {})
    result.metrics.update({
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    result.details.update({"rate_windows": len(out["rate"]),
                           "latency_windows": len(out["latency"]),
                           "setup_s_samples": setup_times})

    if not tracer:
        # A metric is missing only when its checks failed; it then reads 0.
        return result, {n: result.metrics.get(n, 0.0) for n, _, _ in metrics.END_TO_END}

    mods.complexity = importlib.import_module("vacnet.complexity")
    totals = spans.summarise(tracer)
    op_root = "bench.epoch" if wl.kind == "train" else "bench.request"
    layer = metrics.per_layer(totals, op_root, out["ops"], W.SETUP_REPS, out.get("evals", 0))
    untimed = W.timing_metrics(untraced)
    layer["trace.overhead_ms"] = (timing["latency_ms_p50"] - untimed["latency_ms_p50"]
                                  if timing and untimed else 0.0)
    for name in metrics.REFERENCE_SPECS:
        try:
            layer[f"complexity.{name}.macs_per_img"] = spans.join_mult_adds(mods, name)
            result.check(f"mult-add join {name}", True)
        except spans.JoinError as e:
            result.check(f"mult-add join {name}", False, str(e))
            layer[f"complexity.{name}.macs_per_img"] = 0
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.npz"))
    result.details["spans"] = len(tracer.names)
    return result, {n: layer[n] for n, _, _ in metrics.PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vacnet", "__init__.py")):
        print(f"vacnet sources not found under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import tempfile

    import metrics
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        result, values = run(args, tmpdir)

    correct = all(ok for ok, _ in result.checks.values())
    for name, (ok, detail) in result.checks.items():
        if not ok:
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "checks": {n: {"ok": ok, "detail": d} for n, (ok, d) in result.checks.items()},
              "details": result.details}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {n: {"value": v, "unit": metrics.UNITS[n]} for n, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
