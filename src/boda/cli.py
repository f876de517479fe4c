"""Batch command-line surface; every command reads and writes files.

Exit codes: 0 on success, 2 on input validation failures (including paths
that cannot be read or written and inputs that are not text), 3 on numerical
failures (non-convergence, gradient-check failure, bound violation). Each
command drops a manifest next to its outputs recording the resolved
configuration, inputs, outputs, seed, and wall-clock duration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, evaluation, gradcheck, losses, model, trainer
from .datagen import generate, load_dataset, load_spec, save_dataset, spec_to_dict
from .errors import NumericalError, ValidationError
from .stats import (
    _graph_pass,
    mds_2d,
    save_graph,
    save_mds_csv,
    save_stats,
    transfer_stats_to_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_json_atomic(payload: dict, path: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _write_manifest(command: str, config: dict, inputs: dict, outputs: list,
                    seed, started: float, out_dir: str,
                    name: str = "manifest.json") -> None:
    _write_json_atomic(
        {
            "command": command,
            "config": config,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "seed": seed,
            "version": __version__,
            "duration_seconds": time.time() - started,
        },
        os.path.join(out_dir, name),
    )


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("BODA_THREADS", "1")))
    except ValueError:
        return 1


def cmd_gen(args) -> int:
    started = time.time()
    spec = load_spec(args.spec)
    ds = generate(spec)
    save_dataset(ds, args.out)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    base = os.path.basename(args.out)
    _write_manifest("gen", spec_to_dict(spec), {"spec": args.spec},
                    [args.out], spec.seed, started, out_dir,
                    name=f"{base}.manifest.json")
    return EXIT_OK


def _load_config(path, seed_override=None) -> trainer.TrainConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}")
    cfg = trainer.config_from_dict(data)
    if seed_override is not None:
        from dataclasses import replace
        cfg = replace(cfg, seed=seed_override)
    return cfg


def cmd_train(args) -> int:
    started = time.time()
    ds = load_dataset(args.data)
    cfg = _load_config(args.config, args.seed)
    # an --out that cannot be a directory fails here, not after training
    os.makedirs(args.out, exist_ok=True)
    params, log = trainer.train(ds, cfg)
    rows = list(log.rows)
    final_step = cfg.steps
    if cfg.decouple:
        params, stage2_rows = trainer.retrain_classifier(params, ds, cfg)
        rows += stage2_rows
        final_step += cfg.decouple_steps
    ckpt = os.path.join(args.out, "checkpoint.json")
    log_path = os.path.join(args.out, "log.csv")
    model.save_checkpoint(params, ckpt, seed=cfg.seed, step=final_step)
    trainer.save_log_csv(rows, log_path)
    _write_manifest("train", trainer.config_to_dict(cfg),
                    {"data": args.data, "config": args.config},
                    [ckpt, log_path], cfg.seed, started, args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = time.time()
    ds = load_dataset(args.data)
    params = model.load_checkpoint(args.checkpoint)
    if len(np.unique(ds.train.domain)) < 2:
        raise ValidationError("analysis needs at least 2 domains with data")
    z = trainer.encode_features(params, ds.train)
    store, dist, graph, ts = _graph_pass(z, ds.train.domain, ds.train.label,
                                         nu=args.nu)
    del dist  # only the graph is needed: free the (N, K) array
    keys, coords = mds_2d(graph)

    os.makedirs(args.out, exist_ok=True)
    graph_path = os.path.join(args.out, "graph.json")
    stats_path = os.path.join(args.out, "transfer_stats.json")
    mds_path = os.path.join(args.out, "mds.csv")
    feats_path = os.path.join(args.out, "stats.json")
    save_graph(graph, graph_path)
    _write_json_atomic(transfer_stats_to_dict(ts), stats_path)
    save_mds_csv(keys, coords, mds_path)
    save_stats(store, feats_path)
    _write_manifest("analyze", {"nu": args.nu},
                    {"data": args.data, "checkpoint": args.checkpoint},
                    [graph_path, stats_path, mds_path, feats_path],
                    args.seed, started, args.out)
    return EXIT_OK


def cmd_verify_bound(args) -> int:
    started = time.time()
    ds = load_dataset(args.data)
    params = model.load_checkpoint(args.checkpoint)
    z = trainer.encode_features(params, ds.train)
    report = losses.verify_bound(z, ds.train.domain, ds.train.label,
                                 nu=args.nu, calibrated=args.calibrated)
    payload = {
        "empirical": report.empirical,
        "theoretical": report.theoretical,
        "gap": report.gap,
        "relative_gap": report.relative_gap,
    }
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_json_atomic(payload, args.out)
    base = os.path.basename(args.out)
    _write_manifest("verify-bound",
                    {"nu": args.nu, "calibrated": args.calibrated},
                    {"data": args.data, "checkpoint": args.checkpoint},
                    [args.out], args.seed, started, out_dir,
                    name=f"{base}.manifest.json")
    if report.gap < -1e-9:
        print(f"bound violated: gap = {report.gap}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    started = time.time()
    if args.trials < 1:
        raise ValidationError("gradcheck needs at least 1 instance")
    worst = gradcheck.run_gradcheck(args.seed, args.trials)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_json_atomic(worst, args.out)
    base = os.path.basename(args.out)
    _write_manifest("gradcheck", {"trials": args.trials},
                    {}, [args.out], args.seed, started, out_dir,
                    name=f"{base}.manifest.json")
    if any(err > 1e-4 for err in worst.values()):
        print(f"gradient check failed: {worst}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.time()
    ds = load_dataset(args.data)
    cfg = _load_config(args.config)
    records = trainer.sweep(ds, cfg, args.trials, seed=args.seed,
                            workers=_workers())
    os.makedirs(args.out, exist_ok=True)
    trials_path = os.path.join(args.out, "trials.csv")
    corr_path = os.path.join(args.out, "correlation.json")
    trainer.save_trials_csv(records, trials_path)
    correlation = evaluation.stats_accuracy_correlation(records) \
        if len(records) >= 3 else {"pearson": 0.0, "spearman": 0.0,
                                   "degenerate": True}
    _write_json_atomic(correlation, corr_path)
    _write_manifest("sweep",
                    {"base": trainer.config_to_dict(cfg),
                     "trials": args.trials},
                    {"data": args.data, "config": args.config},
                    [trials_path, corr_path], args.seed, started, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boda",
        description="Balanced domain-class alignment: data generation, "
                    "training, analysis, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("--spec", required=True, help="dataset spec JSON")
    p.add_argument("--out", required=True, help="output dataset CSV path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("analyze",
                       help="transferability graph, statistics, 2-D layout")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0,
                   help="written to the manifest only; the analysis is "
                        "deterministic")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify-bound",
                       help="check the loss lower bound on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output report JSON path")
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--calibrated", action="store_true")
    p.add_argument("--seed", type=int, default=0,
                   help="written to the manifest only; the check is "
                        "deterministic")
    p.set_defaults(fn=cmd_verify_bound)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of loss gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100,
                   help="number of random instances")
    p.add_argument("--out", required=True, help="output report JSON path")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("sweep", help="hyperparameter sweep with statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True, help="base config JSON")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
