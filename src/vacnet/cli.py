"""Command-line front-end: train, eval, quantize, count, compare, search.

Exit codes: 0 success, 2 configuration/parse error, 3 any other failure
(divergence, corrupt files, memory), 4 search found no feasible candidate.
All randomness flows from --seed; reruns with identical flags are bitwise
reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import complexity, explore, netbuilder, quant, trainer
from .kernels import ConfigError, ShapeError
from .netbuilder import ParseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INFEASIBLE = 4

CONFIG_ERRORS = (ParseError, ConfigError, ShapeError, FileNotFoundError,
                 IsADirectoryError, KeyError, json.JSONDecodeError, UnicodeDecodeError)


def _load_spec(spec_arg):
    """Accept a reference-spec name or a path to a DSL file."""
    if spec_arg in netbuilder.REFERENCE_SPECS:
        return netbuilder.reference_spec(spec_arg)
    return netbuilder.parse_dsl(Path(spec_arg).read_text())


def _load_dataset(data, labels):
    if labels is None:  # CIFAR-10 binary batches carry labels inline
        return trainer.load_cifar10(*data.split(","))
    return trainer.load_idx(data, labels)


def _write_manifest(out_dir, command, args):
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_train(args):
    spec = _load_spec(args.spec)
    dataset = _load_dataset(args.data, args.labels)
    cfg = trainer.TrainConfig(lr=args.lr, momentum=args.momentum,
                              batch_size=args.batch, epochs=args.epochs,
                              seed=args.seed)
    net = netbuilder.compile_spec(spec, seed=args.seed)
    out_dir = Path(args.out)
    _write_manifest(out_dir, "train", args)
    report = trainer.train(net, dataset, cfg)
    netbuilder.save(net, out_dir / "model.acnk")
    (out_dir / "metrics.csv").write_text(report.to_csv())
    for epoch, loss, top1 in report.epochs:
        print(f"epoch {epoch}: loss {loss:.6f}, train top-1 {top1:.4f}")
    print(f"model written to {out_dir / 'model.acnk'}")
    return EXIT_OK


def cmd_eval(args):
    net = netbuilder.load(args.model)
    dataset = _load_dataset(args.data, args.labels)
    top1, loss = trainer.evaluate(net, dataset)
    print(f"top1,{top1!r}")
    print(f"loss,{loss!r}")
    print(f"top-1 accuracy: {top1:.4f}   mean loss: {loss:.6f}")
    return EXIT_OK


def cmd_quantize(args):
    net = netbuilder.load(args.model)
    qnet = quant.quantize_weights(net, mode=args.mode)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    quant.save_quantized(qnet, out)
    full = quant.weight_memory_bytes(net, 32)
    low = quant.weight_memory_bytes(qnet, 8)
    print(f"params: {net.param_count()}")
    print(f"weight memory: {full} bytes @32-bit -> {low} bytes @8-bit "
          f"({full / low:.2f}x reduction)")
    print(f"quantized model written to {out}")
    return EXIT_OK


def cmd_count(args):
    spec = _load_spec(args.spec)
    input_shape = None
    if args.input_shape:
        try:
            input_shape = tuple(int(v) for v in args.input_shape.split(","))
        except ValueError as e:
            raise ConfigError(f"--input-shape must be C,H,W integers: {e}") from e
        if len(input_shape) != 3:
            raise ConfigError("--input-shape must be C,H,W")
    report = complexity.count_mult_adds(spec, input_shape, bits=args.bits)
    print(report.to_text())
    print()
    print(report.to_csv(), end="")
    return EXIT_OK


def cmd_compare(args):
    with open(args.csv, newline="") as fh:
        try:
            rows = [complexity.ModelRow(r["name"], float(r["params"]),
                                        float(r["mult_adds"]), int(r["bits"]))
                    for r in csv.DictReader(fh)]
        except (ValueError, TypeError) as e:  # TypeError: a row missing cells
            raise ConfigError(f"{args.csv}: {e}") from e
    entries = complexity.compare(rows)
    print(complexity.compare_to_text(entries))
    print()
    print(complexity.compare_to_csv(entries), end="")
    return EXIT_OK


def cmd_search(args):
    space = explore.SearchSpace.from_json(Path(args.space).read_text())
    icfg = explore.IndicatorConfig(tau=args.tau, bits=args.bits)
    pf = explore.PerformanceFunction(kappa=args.kappa, beta=args.beta,
                                     gamma=args.gamma)
    if space.metrics:
        eval_fn = explore.cached_eval_fn(space.metrics)
    elif args.data:
        dataset = _load_dataset(args.data, args.labels)
        eval_fn = _training_eval_fn(dataset, args)
    else:
        raise ConfigError("search space has no cached metrics; "
                          "pass --data/--labels to train candidates")
    result = explore.search(space, args.budget, icfg, pf, eval_fn,
                            seed=args.seed)
    if args.out:
        out_dir = Path(args.out)
        _write_manifest(out_dir, "search", args)
        (out_dir / "audit.jsonl").write_text(result.audit_jsonl())
    header = f"{'rank':<6}{'hash':<14}{'top1':>8}{'params':>10}{'U':>9}"
    print(header)
    print("-" * len(header))
    for rank, c in enumerate(result.feasible, 1):
        print(f"{rank:<6}{c.spec_hash:<14}{c.top1:>8.4f}{c.params:>10}{c.u:>9.2f}")
    if not result.feasible:
        print("no feasible candidate")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _training_eval_fn(dataset, args):
    def eval_fn(spec_text):
        spec = netbuilder.parse_dsl(spec_text)
        net = netbuilder.compile_spec(spec, seed=args.seed)
        cfg = trainer.TrainConfig(lr=args.lr, batch_size=args.batch,
                                  epochs=args.epochs, seed=args.seed)
        trainer.train(net, dataset, cfg)
        top1, _ = trainer.evaluate(quant.quantize_weights(net), dataset)
        return {"top1": top1, "bits": 8}
    return eval_fn


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vacnet",
        description="Attention-condenser network toolkit: training, "
                    "quantization, complexity accounting, design search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a DSL spec")
    p.add_argument("--spec", required=True,
                   help="DSL file path or reference spec name")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--epochs", type=int, default=trainer.TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=trainer.TrainConfig.lr)
    p.add_argument("--momentum", type=float, default=trainer.TrainConfig.momentum)
    p.add_argument("--batch", type=int, default=trainer.TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=trainer.TrainConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("quantize", help="8-bit weight quantization")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=(quant.PER_TENSOR, quant.PER_CHANNEL),
                   default=quant.PER_CHANNEL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("count", help="parameter / mult-add / memory report")
    p.add_argument("--spec", required=True)
    p.add_argument("--input-shape", default=None, help="C,H,W override")
    p.add_argument("--bits", type=int, default=32)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("compare", help="pairwise complexity ratios from a CSV")
    p.add_argument("--csv", required=True,
                   help="CSV with columns name,params,mult_adds,bits")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("search", help="constrained design exploration")
    p.add_argument("--space", required=True, help="search space JSON file")
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--bits", type=int, default=explore.IndicatorConfig.bits)
    p.add_argument("--seed", type=int, default=trainer.TrainConfig.seed)
    p.add_argument("--kappa", type=float, default=explore.PerformanceFunction.kappa)
    p.add_argument("--beta", type=float, default=explore.PerformanceFunction.beta)
    p.add_argument("--gamma", type=float, default=explore.PerformanceFunction.gamma)
    p.add_argument("--data", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--epochs", type=int, default=trainer.TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=trainer.TrainConfig.lr)
    p.add_argument("--batch", type=int, default=trainer.TrainConfig.batch_size)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
