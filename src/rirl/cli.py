"""Command-line surface: synth, init, edge, explore, report.

Every flag mirrors a RunConfig key and overrides the same key from
--config. Commands are deterministic given their inputs and seed, and
exit with a distinct code per error family so shell pipelines can
branch on failure kind.
"""

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .config import RunConfig, process_pool
from .dataio import DagSpec, kfold_split, load_csv, save_csv, synth_generate
from .errors import (CheckError, ConfigError, DataError, EstimationError,
                     ExplorationError, PersistenceError, RirlError,
                     TrainingError)
from .explore import emit_round_log, explore
from .metrics import emit_plot, emit_tables
from .noderepr import featurize_series, scaled_attrs_from_features, train_node_autoencoder
from .persistence import (load_micro_causal, load_node_model,
                          save_micro_causal, save_node_model)
from .relation import predict_latent, train_micro_causal

EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (TrainingError, 4),
    (CheckError, 4),
    (ExplorationError, 5),
    (EstimationError, 5),
    (PersistenceError, 6),
)

def _add_config_flags(parser):
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value config file")
    for f in dataclasses.fields(RunConfig):
        parser.add_argument(f"--{f.name}", type=f.type, default=None,
                            metavar=f.name.upper())


def _resolve_config(args):
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    return config.override(**overrides)


def _load_models(models_dir, names):
    return {name: load_node_model(os.path.join(models_dir, f"{name}.json"))
            for name in names}


def _series_summary(series):
    vals = series.values
    return {
        "node": series.name,
        "dim": series.dim,
        "nonzero_rate": float(series.mask.mean()),
        "mean": float(vals.mean()),
        "std": float(vals.std()),
        "min": float(vals.min()),
        "max": float(vals.max()),
    }


def cmd_synth(args):
    config = _resolve_config(args)
    if args.days <= 0:
        raise ConfigError("days must be positive")
    spec = DagSpec.from_json(args.spec)
    dataset = synth_generate(spec, args.days, config.seed)
    out = args.out or config.data_path
    if not out:
        raise ConfigError("synth needs --out or data_path")
    save_csv(dataset, out)
    cols = ["node", "dim", "nonzero_rate", "mean", "std", "min", "max"]
    print("  ".join(f"{c:>12}" for c in cols))
    for series in dataset.values():
        row = _series_summary(series)
        print("  ".join(f"{_cell(row[c]):>12}" for c in cols))
    print(f"wrote {out} ({args.days} rows, {len(dataset)} nodes)")
    return 0


def _cell(v):
    return "%.4g" % v if isinstance(v, float) else str(v)


def _init_one(job):
    series, config = job
    return train_node_autoencoder(series, config)


def cmd_init(args):
    config = _resolve_config(args)
    data = args.data or config.data_path
    if not data:
        raise ConfigError("init needs --data or data_path")
    dataset = load_csv(data)
    out = args.out or config.models_path
    if not out:
        raise ConfigError("init needs --out or models_path")
    os.makedirs(out, exist_ok=True)
    jobs = [(series, config) for series in dataset.values()]
    pool = process_pool(config.workers)
    if pool is None:
        results = [_init_one(job) for job in jobs]
    else:
        with pool:
            try:
                results = list(pool.map(_init_one, jobs))
            except BrokenProcessPool as exc:
                raise TrainingError(
                    f"node training pool: a worker process died ({exc})") from exc
    rows = []
    for series, (model, metrics) in zip(dataset.values(), results):
        save_node_model(model, os.path.join(out, f"{series.name}.json"))
        row = _series_summary(series)
        row.update(rmse_scaled=metrics["rmse_scaled"],
                   rmse_unscaled=metrics["rmse_unscaled"],
                   mask_bce=metrics["mask_bce"])
        rows.append(row)
        print(f"{series.name}: rmse_scaled={metrics['rmse_scaled']:.4f} "
              f"nse={metrics['nse']:.4f}")
    emit_tables(rows, os.path.join(out, "node_metrics.csv"), kind="node")
    config.to_file(os.path.join(out, "config_used.txt"))
    return 0


def _relation_label(causes, effect):
    return f"{'-'.join(causes)}__{effect}"


def cmd_edge(args):
    config = _resolve_config(args)
    causes = [c for c in args.causes.split(",") if c]
    if not causes:
        raise ConfigError("edge needs at least one cause")
    data = args.data or config.data_path
    models_dir = args.models or config.models_path
    if not data or not models_dir:
        raise ConfigError("edge needs --data and --models (or config paths)")
    dataset = load_csv(data)
    for name in causes + [args.effect]:
        if name not in dataset:
            raise ConfigError(f"unknown node name {name!r}")
    models = _load_models(models_dir, causes + [args.effect])
    model = train_micro_causal(causes, args.effect, dataset, config, models)
    label = _relation_label(causes, args.effect)
    path = os.path.join(models_dir, f"rel_{label}.json")
    save_micro_causal(model, path)
    row = model.metrics
    emit_tables([row], os.path.join(models_dir, f"rel_{label}_metrics.csv"))
    print(f"{'+'.join(causes)} -> {args.effect}: "
          f"rmse_scaled={row.rmse_scaled:.4f} latent_kld={row.latent_kld:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_explore(args):
    config = _resolve_config(args)
    data = args.data or config.data_path
    models_dir = args.models or config.models_path
    if not data or not models_dir:
        raise ConfigError("explore needs --data and --models (or config paths)")
    dataset = load_csv(data)
    with open(args.candidates, "r", encoding="utf-8") as fh:
        candidates = json.load(fh)
    if not isinstance(candidates, dict):
        raise ConfigError("candidate map must be a JSON object")
    for n, parents in candidates.items():
        for name in [n] + list(parents):
            if name not in dataset:
                raise ConfigError(f"unknown node name {name!r} in candidate map")
    models = _load_models(models_dir, list(dataset))
    edges, state = explore(list(dataset), candidates, data=dataset,
                           config=config, models=models)
    out = args.out or config.reports_path
    if not out:
        raise ConfigError("explore needs --out or reports_path")
    os.makedirs(out, exist_ok=True)
    log = emit_round_log(state)
    with open(os.path.join(out, "explore_rounds.csv"), "w", encoding="utf-8") as fh:
        fh.write(log.csv_text)
    with open(os.path.join(out, "explore_rounds.txt"), "w", encoding="utf-8") as fh:
        fh.write(log.text)
    with open(os.path.join(out, "explore_edges.json"), "w", encoding="utf-8") as fh:
        json.dump([list(e) for e in edges], fh, indent=1)
        fh.write("\n")
    summary = []
    for rec in state.rounds:
        if rec.selected is None:
            continue
        entry = next(e for e in rec.entries if e.selected)
        summary.append((f"{rec.selected[0]}->{rec.selected[1]}",
                        entry.k_with, entry.delta))
    if summary:
        emit_tables(summary, os.path.join(out, "explore_summary.csv"),
                    kind="exploration")
    config.to_file(os.path.join(out, "config_used.txt"))
    for p, n in edges:
        print(f"{p} -> {n}")
    print(f"stop: {state.stop_reason}; evals={state.evals_computed} "
          f"reused={state.evals_reused}")
    return 0


def cmd_report(args):
    config = _resolve_config(args)
    if args.format not in ("csv", "svg"):
        raise ConfigError(f"unknown report format {args.format!r}")
    run_dir = args.run_dir
    models_dir = args.models or config.models_path or os.path.join(run_dir, "models")
    try:
        entries = sorted(os.listdir(models_dir))
    except OSError as exc:
        raise PersistenceError(f"cannot list models in {models_dir}: {exc}")
    rel_files = [e for e in entries if e.startswith("rel_") and e.endswith(".json")]
    node_files = [e for e in entries
                  if e.endswith(".json") and not e.startswith("rel_")]
    if not rel_files and not node_files:
        raise PersistenceError(f"no model artifacts under {models_dir}")
    if args.format == "svg":
        dataset = load_csv(_report_data_path(args, config, run_dir))
    os.makedirs(run_dir, exist_ok=True)
    written = []
    if args.format == "csv":
        rows = []
        for fname in rel_files:
            model = load_micro_causal(os.path.join(models_dir, fname))
            rows.append(model.metrics)
        if rows:
            path = os.path.join(run_dir, "report_relations.csv")
            emit_tables(rows, path)
            written.append(path)
        node_csv = os.path.join(models_dir, "node_metrics.csv")
        if os.path.exists(node_csv):
            path = os.path.join(run_dir, "report_nodes.csv")
            with open(node_csv, "r", encoding="utf-8") as src, \
                    open(path, "w", encoding="utf-8") as dst:
                dst.write(src.read())
            written.append(path)
    else:
        for fname in rel_files:
            model = load_micro_causal(os.path.join(models_dir, fname))
            written.extend(_reconstruction_plot(model, dataset, config, run_dir))
    if not written:
        raise PersistenceError(f"nothing to report from {models_dir}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _report_data_path(args, config, run_dir):
    data = args.data or config.data_path
    if data:
        return data
    guess = os.path.join(run_dir, "data.csv")
    if os.path.exists(guess):
        return guess
    raise ConfigError("report needs --data or data_path")


def _reconstruction_plot(model, dataset, config, run_dir):
    """Held-out truth dots vs initialized-representation and relation lines."""
    effect = model.relation.effect
    series = dataset[effect]
    plan = kfold_split(series.steps, config.folds)
    lo, hi = plan.bounds[-1]
    test_ts = np.arange(max(lo, model.window_n), hi)
    em = model.effect_model
    feats_eff = featurize_series(series, em.scaler)
    truth = series.values[test_ts, 0]

    self_hat, _ = em.decode_latent(em.encode(feats_eff[test_ts], cache=False),
                                   cache=False)
    self_vals = em.scaler.invert(scaled_attrs_from_features(self_hat, em.dim))
    rel_hat, _ = em.decode_latent(predict_latent(model, dataset, test_ts), cache=False)
    rel_vals = em.scaler.invert(scaled_attrs_from_features(rel_hat, em.dim))

    base = os.path.join(run_dir, f"plot_{effect}")
    svg, csv_path = emit_plot(truth,
                              [("initialized", self_vals[:, 0]),
                               ("relation", rel_vals[:, 0])],
                              base + ".svg")
    return [svg, csv_path]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rirl",
        description="relation-indexed representation learning runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("spec", help="DagSpec JSON file")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--out", help="output CSV path (default: data_path)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", help="train per-node autoencoders")
    p.add_argument("--data", help="dataset CSV (default: data_path)")
    p.add_argument("--out", help="model directory (default: models_path)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("edge", help="train one micro-causal model")
    p.add_argument("--causes", required=True, help="comma-separated cause nodes")
    p.add_argument("--effect", required=True)
    p.add_argument("--data", help="dataset CSV (default: data_path)")
    p.add_argument("--models", help="model directory (default: models_path)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_edge)

    p = sub.add_parser("explore", help="greedy DAG exploration")
    p.add_argument("--candidates", required=True,
                   help="JSON map node -> allowed parent list")
    p.add_argument("--data", help="dataset CSV (default: data_path)")
    p.add_argument("--models", help="model directory (default: models_path)")
    p.add_argument("--out", help="report directory (default: reports_path)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("report", help="emit tables or plots for a run")
    p.add_argument("run_dir")
    p.add_argument("--format", default="csv", help="csv or svg")
    p.add_argument("--data", help="dataset CSV (default: data_path)")
    p.add_argument("--models", help="model directory (default: run_dir/models)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RirlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
