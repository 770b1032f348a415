"""Command-line entry point.

Subcommands: train, eval, predict, perturb, gradcheck. Every successful run
emits machine-readable artifacts (metrics JSON, history CSV, predictions CSV)
rather than rendered figures; plot them with whatever you like.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff, data, graph, metrics, models, training
from .errors import CheckpointError, ConfigError, DataError, TgcnError

GAUSSIAN_SWEEP = (0.2, 0.4, 0.8, 1.0, 2.0)
POISSON_SWEEP = (1.0, 2.0, 4.0, 8.0, 16.0)


def _add_common(p):
    p.add_argument("--adj", help="adjacency CSV (square, headerless)")
    p.add_argument("--features", required=True,
                   help="feature CSV, rows=timesteps unless --transpose")
    p.add_argument("--model", default="tgcn", choices=models.MODEL_KINDS)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--seq-len", type=int, default=12)
    p.add_argument("--horizon-steps", type=int, default=1)
    p.add_argument("--interval", type=int, default=15,
                   help="minutes per timestep (recorded in the metrics JSON)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--transpose", action="store_true",
                   help="feature CSV has one row per road")
    p.add_argument("--missing-zero", action="store_true",
                   help="treat zeros as missing and linearly interpolate")
    p.add_argument("--dist", choices=["gaussian", "poisson"],
                   help="noise distribution for perturbation runs")
    p.add_argument("--param", type=float,
                   help="noise parameter (sigma or lambda)")
    p.add_argument("--metrics-out", help="metrics JSON path")


def _add_train_flags(p):
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--epochs", type=int, default=3000)
    p.add_argument("--lambda", dest="weight_decay", type=float, default=1.5e-3)
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--eval-every", type=int, default=10)
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--history-out", help="history CSV path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tgcn", description="Graph-convolutional traffic speed forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and emit metrics")
    _add_common(p_train)
    _add_train_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--predictions-out", help="optional predictions CSV")

    p_pred = sub.add_parser("predict", help="write test-split predictions CSV")
    _add_common(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--predictions-out", required=True)

    p_pert = sub.add_parser("perturb",
                            help="train+eval on noise-injected data")
    _add_common(p_pert)
    _add_train_flags(p_pert)
    p_pert.add_argument("--sweep", action="store_true",
                        help="iterate the standard sigma/lambda sets")
    p_pert.add_argument("--sweep-out", help="combined sweep CSV path")

    p_gc = sub.add_parser("gradcheck",
                          help="finite-difference check on a small random instance")
    p_gc.add_argument("--model", default="tgcn",
                      choices=[k for k, v in models.MODEL_KINDS.items()
                               if v.build is not None])
    p_gc.add_argument("--nodes", type=int, default=4)
    p_gc.add_argument("--hidden", type=int, default=5)
    p_gc.add_argument("--seq-len", type=int, default=3)
    p_gc.add_argument("--horizon-steps", type=int, default=1)
    p_gc.add_argument("--seed", type=int, default=42)
    p_gc.add_argument("--tol", type=float, default=1e-4)
    return parser


def _prepare(args, parser):
    """Load graph + features, interpolate, normalize, inject noise, window."""
    network = None
    if args.adj:
        network = graph.load_adjacency(args.adj)
    elif models.MODEL_KINDS[args.model].needs_graph:
        parser.error(f"--adj is required for model {args.model}")
    expect = network.n_nodes if network else None
    dataset = data.load_features(args.features, expect_nodes=expect,
                                 transpose=args.transpose)
    if args.missing_zero:
        dataset = data.interpolate_missing(dataset, missing_marker=0.0)
    dataset = data.normalize(dataset)
    perturbation = None
    if args.dist is not None or args.param is not None:
        if args.dist is None or args.param is None:
            raise ConfigError("--dist and --param must be given together")
        dataset = data.add_noise(dataset, args.dist, args.param, args.seed)
        perturbation = {"dist": args.dist, "param": args.param,
                        "seed": args.seed}
    train_ws, test_ws = data.make_windows(dataset, args.seq_len,
                                          args.horizon_steps)
    if len(test_ws) == 0:  # every command scores or writes the test windows
        total, split = dataset.values.shape[0], dataset.split_index
        raise DataError(
            f"no test windows: a series of length {total} split at index "
            f"{split} leaves {total - split} steps after the split, fewer "
            f"than horizon={args.horizon_steps} (seq_len={args.seq_len})")
    return network, dataset, train_ws, test_ws, perturbation


def write_metrics_json(path, report, args, perturbation=None):
    payload = {
        "model": args.model,
        "dataset": Path(args.features).stem,
        "horizon_steps": args.horizon_steps,
        "interval_minutes": args.interval,
        **report.to_dict(),
    }
    if report.undefined:
        payload["undefined"] = list(report.undefined)
    if perturbation is not None:
        payload["perturbation"] = perturbation
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, indent=2)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)
    return payload


def _train_once(args, parser):
    network, dataset, train_ws, test_ws, perturbation = _prepare(args, parser)
    model = models.SequenceModel(
        args.model, dataset.n_nodes, args.hidden, args.seq_len,
        args.horizon_steps,
        propagation=network.propagation if network else None)
    history, best = [], {}
    if model.parameters():  # the historical average learns nothing
        model.init_parameters(args.seed)
        config = training.TrainConfig(
            lr=args.lr, batch_size=args.batch, epochs=args.epochs,
            weight_decay=args.weight_decay, seed=args.seed,
            eval_every=args.eval_every, clip=args.clip)
        result = training.train(model, train_ws, test_ws, dataset, config)
        history, best = result.history, result.best_params
    if args.out:
        models.save_checkpoint(model, str(args.out) + ".final")
    training.restore(model, best)
    if args.out:
        models.save_checkpoint(model, args.out)
    report = training.evaluate(model, test_ws, dataset)
    return report, history, perturbation


def cmd_train(args, parser):
    report, history, perturbation = _train_once(args, parser)
    if args.history_out and history:
        training.write_history(args.history_out, history)
    write_metrics_json(args.metrics_out, report, args, perturbation)
    return 0


def _load_model(args, network):
    """Load --checkpoint and check that it is the --model kind, trained for
    --seq-len and --horizon-steps."""
    prop = network.propagation if network else None
    model = models.load_checkpoint(args.checkpoint, propagation=prop)
    if model.kind != args.model:
        raise CheckpointError(
            f"checkpoint is a {model.kind} model, requested {args.model}")
    if model.horizon != args.horizon_steps or model.seq_len != args.seq_len:
        raise CheckpointError(
            f"checkpoint trained for seq_len={model.seq_len}, "
            f"horizon={model.horizon}; requested seq_len={args.seq_len}, "
            f"horizon={args.horizon_steps}")
    return model


def cmd_eval(args, parser):
    network, dataset, _, test_ws, perturbation = _prepare(args, parser)
    model = _load_model(args, network)
    report, preds = training.evaluate_predictions(model, test_ws, dataset)
    write_metrics_json(args.metrics_out, report, args, perturbation)
    if args.predictions_out:
        _write_predictions(args.predictions_out, preds)
    return 0


def cmd_predict(args, parser):
    network, dataset, _, test_ws, _ = _prepare(args, parser)
    model = _load_model(args, network)
    _, preds = training.evaluate_predictions(model, test_ws, dataset)
    _write_predictions(args.predictions_out, preds)
    return 0


def _write_predictions(path, preds):
    """One row per test window; columns are node-major, horizon-minor,
    denormalized speed values."""
    np.savetxt(path, preds.reshape(len(preds), -1), delimiter=",", fmt="%.10g")


def cmd_perturb(args, parser):
    if args.dist is None:
        parser.error("perturb requires --dist")
    if not args.sweep:
        if args.param is None:
            parser.error("perturb requires --param (or --sweep)")
        return cmd_train(args, parser)
    sweep = GAUSSIAN_SWEEP if args.dist == "gaussian" else POISSON_SWEEP
    rows = []
    base = Path(args.metrics_out) if args.metrics_out else None
    for value in sweep:
        args.param = value
        report, _, perturbation = _train_once(args, parser)
        out = None
        if base is not None:
            out = base.with_name(
                f"{base.stem}_{args.dist}_{value:g}{base.suffix}")
        write_metrics_json(out, report, args, perturbation)
        rows.append({"param": f"{value:g}", **report.to_dict()})
    metrics.write_csv(args.sweep_out or "perturb_sweep.csv",
                      ("param",) + metrics.SCORES, rows)
    return 0


def cmd_gradcheck(args, parser):
    n = args.nodes
    if n < 1:  # the random graph below is drawn before the model checks sizes
        raise ConfigError(f"--nodes must be >= 1, got {n}")
    if not (np.isfinite(args.tol) and args.tol > 0):  # else every check FAILs
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol:g}")
    rng = np.random.default_rng(args.seed)
    adj = (rng.random((n, n)) < 0.5).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    prop = graph.build_propagation(adj)
    model = models.SequenceModel(args.model, n, args.hidden, args.seq_len,
                                 args.horizon_steps, propagation=prop)
    model.init_parameters(args.seed)
    window = rng.random((args.seq_len, n))
    target = rng.random((n, args.horizon_steps))
    params = model.parameters()
    names = list(params)
    tensors = [params[k] for k in names]

    def f(_):
        pred = model.forward(window)
        return training.loss(pred, target)

    report = autodiff.gradcheck(f, tensors, tol=args.tol)
    for name, err in zip(names, report.per_input):
        status = "ok" if err < args.tol else "FAIL"
        print(f"{name:12s} max_rel_err={err:.3e} {status}")
    print(f"overall max_rel_err={report.max_rel_err:.3e} "
          f"{'PASS' if report.passed else 'FAIL'} (tol={args.tol:g})")
    return 0 if report.passed else 1


def _check_output_paths(args):
    """Fail before any work, not after it, on an output path that cannot
    be written: its directory must exist and it must not be a directory."""
    for name in ("metrics_out", "history_out", "out", "predictions_out",
                 "sweep_out"):
        path = getattr(args, name, None)
        if path is None:
            continue
        target = Path(path)  # an empty path is the working directory
        if target.is_dir():
            problem = "is a directory"
        elif not target.parent.is_dir():
            problem = f"is in a missing directory {target.parent}"
        else:
            continue
        raise ConfigError(f"--{name.replace('_', '-')} {path!r} {problem}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "predict": cmd_predict,
                "perturb": cmd_perturb, "gradcheck": cmd_gradcheck}
    try:
        _check_output_paths(args)
        return handlers[args.command](args, parser)
    except TgcnError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
