"""Command-line pipeline: generate, train, trace, optimize, report.

One verb per pipeline stage so stages stay independently scriptable:

    gen-data      sample a synthetic blob dataset
    train-ee      train the toy multi-exit classifier
    emit-traces   run a dataset through the net and store per-exit traces
    train-ep      train the skip-score predictor from traces
    select-gamma  pick prediction thresholds by the extra-last-exit budget
    evaluate      run one policy over a trace file and print the report
    optimize      latency-constrained threshold grid search
    sweep         optimize across a list of bandwidths
    fit-adapt     fit per-interval threshold regressors from sweep points
    demo          the whole pipeline end to end into an output directory
    validate      check that artifacts parse and satisfy their invariants

Configuration is a single JSON document; every flag overrides the matching
config key.  All artifacts are written atomically and are byte-identical
across reruns for a fixed config and seed.  Exit codes: 0 success, 1
runtime failure (one JSON error line on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import os
import sys
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from . import engine, optimizer, predictor, trace, zoo
from .nncore import Mlp, TrainConfig, train
from .trace import atomic_write_text

CONFIG_ENV_VAR = "EXITSIM_CONFIG"

DEFAULT_CONFIG: dict = {
    "seed": 7,
    "output_dir": "exitsim-out",
    "topology": {
        "num_exits": 3,
        "segment_flops": [1.97, 56.98],
        "exit_flops": [16.70, 14.23],
        "server_flops": 274.13,
        "predictor_flops": 0.40,
        "num_classes": 10,
        "raw_feature_bits": 262144,
        "compression_ratio": 64.0,
    },
    "synth": {
        "train_samples": 2000,
        "test_samples": 1000,
        "num_classes": 10,
        "input_dim": 8,
        "radius": 2.5,
        "spreads": [0.35, 0.9, 0.35, 0.9, 0.35, 0.9, 0.35, 0.9, 0.35, 0.9],
        "label_noise": 0.02,
        "final_flip_prob": 0.0,
    },
    "ee": {
        "trunk_widths": [32, 32],
        "final_hidden": 32,
        "exit_weights": [0.2, 0.3, 0.5],
        "train": {"lr": 0.1, "lr_end": 1e-4, "lr_end_epoch": 200, "epochs": 220,
                  "batch_size": 128, "weight_decay": 5e-4},
    },
    "ep": {
        "hidden": 64,
        "train": {"lr": 0.1, "lr_end": 1e-4, "lr_end_epoch": 200, "epochs": 220,
                  "batch_size": 128, "weight_decay": 2e-4},
    },
    "regressor": {
        "hidden": 16,
        "train": {"lr": 0.1, "lr_end": 1e-4, "lr_end_epoch": 8000, "epochs": 8000,
                  "batch_size": 16, "weight_decay": 0.0},
    },
    "policy": {
        "gamma_step": 0.05,
        "budget_fraction": 0.02,
        "holdout_fraction": 0.2,
        "gamma_split": "holdout",
        "frontier_lambdas": [0.5, 0.6, 0.7, 0.8, 0.9, 0.95],
        "lambda_grid": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "gamma_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
    },
    "environment": {
        "compute_speed": 3.62e9,
        "bandwidth": 1e6,
        "latency_budget": 0.030,
    },
    "sweep_bandwidths": [1e5, 3e5, 5e5, 7e5, 1e6, 3e6, 5e6, 7e6, 1e7, 3e7, 5e7, 7e7, 1e8],
    "regressor_intervals": [[1e5, 1e6], [1e6, 1e7], [1e7, 1e8]],
}


def _deep_merge(base: dict, override: Mapping) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path) as fh:
        user = json.load(fh)
    if not isinstance(user, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    user.pop("kind", None)
    return _deep_merge(DEFAULT_CONFIG, user)


def topology_from_config(cfg: dict) -> trace.ExitTopology:
    t = cfg["topology"]
    return trace.ExitTopology(
        num_exits=t["num_exits"],
        segment_flops=t["segment_flops"],
        exit_flops=t["exit_flops"],
        server_flops=t["server_flops"],
        predictor_flops=t["predictor_flops"],
        num_classes=t["num_classes"],
        raw_feature_bits=t["raw_feature_bits"],
        compression_ratio=t["compression_ratio"],
    )


def synth_spec_from_config(cfg: dict, samples: int, seed: int) -> zoo.SynthSpec:
    s = cfg["synth"]
    base = zoo.SynthSpec.ring(1, s["num_classes"], s["input_dim"], radius=s["radius"])
    return zoo.SynthSpec(
        num_samples=samples,
        num_classes=s["num_classes"],
        input_dim=s["input_dim"],
        centers=base.centers,
        spreads=s["spreads"],
        label_noise=s["label_noise"],
        final_flip_prob=s["final_flip_prob"],
        seed=seed,
    )


def train_config_from(section: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        lr=section["lr"],
        lr_end=section["lr_end"],
        lr_end_epoch=section["lr_end_epoch"],
        epochs=section["epochs"],
        batch_size=section["batch_size"],
        weight_decay=section["weight_decay"],
        seed=seed,
    )


def environment_from_config(cfg: dict, bandwidth: float | None = None) -> engine.Environment:
    e = cfg["environment"]
    return engine.Environment(
        compute_speed=e["compute_speed"],
        bandwidth=bandwidth if bandwidth is not None else e["bandwidth"],
        latency_budget=e["latency_budget"],
    )


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated reals, got {text!r}") from exc


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


# -- frontier -----------------------------------------------------------------

FRONTIER_COLUMNS = [
    "method",            # plain | predictor | oracle
    "lambda",            # threshold vector, entries joined with '|'
    "gamma",             # prediction thresholds, '|'-joined ('' for plain/oracle)
    "accuracy",
    "on_device_mflops",  # includes the predictor cost for predictor rows
    "total_mflops",
    "predictor_mflops",  # the predictor share of on_device, reported separately
    "last_exit_share",
]


def emit_frontier(entries: Sequence[tuple[str, Sequence[float], Sequence[float] | None,
                                          engine.AggregateReport, float]]) -> str:
    """CSV of accuracy-versus-on-device-computation points.

    ``entries`` holds (method, lambda, gamma-or-None, report, predictor_mflops)
    tuples, one per threshold setting; rows come out sorted by on-device
    MFLOPs ascending.
    """
    if not entries:
        raise ValueError("no reports to emit")
    rows = []
    for method, lam, gamma, report, ep_flops in entries:
        rows.append({
            "method": method,
            "lambda": "|".join(repr(float(v)) for v in lam),
            "gamma": "" if gamma is None else "|".join(repr(float(v)) for v in gamma),
            "accuracy": repr(report.accuracy),
            "on_device_mflops": repr(report.mean_on_device_mflops),
            "total_mflops": repr(report.mean_total_mflops),
            "predictor_mflops": repr(float(ep_flops)),
            "last_exit_share": repr(report.exit_distribution[-1]),
        })
    rows.sort(key=lambda r: float(r["on_device_mflops"]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=FRONTIER_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# -- pipeline stages ----------------------------------------------------------


def stage_gen_data(cfg: dict, out: str, which: str = "train",
                   samples: int | None = None, seed: int | None = None) -> None:
    base_seed = cfg["seed"] if seed is None else seed
    data_seed = base_seed if which == "train" else base_seed + 1
    count = samples if samples is not None else cfg["synth"][f"{which}_samples"]
    spec = synth_spec_from_config(cfg, count, data_seed)
    x, y = zoo.generate_dataset(spec)
    zoo.save_dataset(out, x, y, spec.num_classes)


def stage_train_ee(cfg: dict, data_path: str, out: str) -> list[float]:
    x, y, p = zoo.load_dataset(data_path)
    ee = cfg["ee"]
    net = zoo.ToyEarlyExitNet.build(
        input_dim=x.shape[1],
        num_classes=p,
        num_exits=cfg["topology"]["num_exits"],
        trunk_widths=ee["trunk_widths"],
        final_hidden=ee["final_hidden"],
        weights=ee["exit_weights"],
        seed=cfg["seed"],
    )
    net, curve = train(net, x, y, "weighted_ce", train_config_from(ee["train"], cfg["seed"]))
    net.save(out)
    return curve


def stage_emit_traces(cfg: dict, net_path: str, data_path: str, out: str,
                      final_flip_prob: float | None = None,
                      flip_seed: int | None = None) -> None:
    net = zoo.ToyEarlyExitNet.load(net_path)
    x, y, _ = zoo.load_dataset(data_path)
    topo = topology_from_config(cfg)
    flip = cfg["synth"]["final_flip_prob"] if final_flip_prob is None else final_flip_prob
    ts = zoo.emit_traces(net, x, y, topo,
                         final_flip_prob=flip,
                         seed=cfg["seed"] if flip_seed is None else flip_seed)
    trace.save_trace_set(ts, out)


def stage_train_ep(cfg: dict, traces_path: str, lam: Sequence[float], out: str) -> list[float]:
    ts = trace.load_trace_set(traces_path)
    ep, curve = predictor.train_predictor(
        ts, lam,
        hidden=cfg["ep"]["hidden"],
        cfg=train_config_from(cfg["ep"]["train"], cfg["seed"] + 4),
    )
    predictor.save_predictor(ep, out)
    return curve


def _load_scored(traces_path: str, ep_path: str
                ) -> tuple[trace.TraceSet, predictor.ExitPredictor, np.ndarray]:
    """A trace file, a predictor checkpoint and the predictor's scores on it."""
    ts = trace.load_trace_set(traces_path)
    ep = predictor.load_predictor(ep_path)
    return ts, ep, predictor.predict_scores(ep, ts)


def stage_select_gamma(cfg: dict, ts: trace.TraceSet, scores: np.ndarray,
                       lam: Sequence[float]) -> tuple[float, ...]:
    return predictor.select_gamma(
        ts, scores, lam,
        grid_step=cfg["policy"]["gamma_step"],
        budget_fraction=cfg["policy"]["budget_fraction"],
    )


def best_plain_lambda(ts: trace.TraceSet, lambda_grid: Sequence[float]) -> tuple[float, ...]:
    """Unconstrained accuracy-maximizing lambda (ties: lexicographically first)."""
    table = engine.PolicyTable(ts, engine.grid_combos(lambda_grid, ts.topology.num_early_exits))
    return table.combo(int(np.argmax(table.accuracy)))[0]


def stage_evaluate(cfg: dict, trace_path: str, lam: Sequence[float], method: str = "plain",
                   ep_path: str | None = None, gamma: Sequence[float] | None = None,
                   bandwidth: float | None = None) -> dict:
    ts = trace.load_trace_set(trace_path)
    env = environment_from_config(cfg, bandwidth)
    if method == "plain":
        _, report = engine.run_plain(ts, lam, env)
    elif method == "oracle":
        _, report = engine.run_oracle(ts, lam, env)
    elif method == "predictor":
        if ep_path is None:
            raise ValueError("--method predictor requires --ep")
        ep = predictor.load_predictor(ep_path)
        scores = predictor.predict_scores(ep, ts)
        if gamma is None:
            raise ValueError("--method predictor requires --gamma")
        _, report = engine.run_with_predictor(
            ts, trace.Thresholds(tuple(lam), tuple(gamma)), scores, env)
    else:
        raise ValueError(f"unknown method {method!r}")
    row = {"method": method, "lambda": list(lam)}
    if method == "predictor":
        row["gamma"] = list(gamma)
    row.update(report.to_dict())
    return row


def stage_optimize(cfg: dict, traces_path: str, ep_path: str,
                   out_frontier: str | None,
                   bandwidth: float | None = None) -> optimizer.PolicyPoint:
    ts, _, scores = _load_scored(traces_path, ep_path)
    env = environment_from_config(cfg, bandwidth)
    best, frontier = optimizer.grid_search(
        ts, scores, env, cfg["policy"]["lambda_grid"], cfg["policy"]["gamma_grid"])
    if out_frontier:
        optimizer.save_policy_points(frontier, out_frontier)
    return best


def stage_sweep(cfg: dict, ts: trace.TraceSet, scores: np.ndarray, out: str,
                bandwidths: Sequence[float] | None = None) -> list[optimizer.PolicyPoint]:
    env = environment_from_config(cfg)
    bws = bandwidths if bandwidths is not None else cfg["sweep_bandwidths"]
    points = optimizer.sweep_bandwidths(
        ts, scores, env, bws, cfg["policy"]["lambda_grid"], cfg["policy"]["gamma_grid"])
    optimizer.save_policy_points(points, out)
    return points


def stage_fit_adapt(cfg: dict, points: Sequence[optimizer.PolicyPoint], out_bundle: str,
                    out_table: str | None = None, ts: trace.TraceSet | None = None,
                    scores: np.ndarray | None = None) -> list[optimizer.ThresholdRegressor]:
    """Fit the regressors; with ``out_table``, re-evaluate them on ``ts``
    under its predictor ``scores``."""
    regressors = optimizer.fit_regressors(
        [p for p in points if p.feasible],
        [tuple(iv) for iv in cfg["regressor_intervals"]],
        num_classes=cfg["topology"]["num_classes"],
        cfg=train_config_from(cfg["regressor"]["train"], cfg["seed"]),
        hidden=cfg["regressor"]["hidden"],
    )
    optimizer.save_regressors(regressors, out_bundle)
    if out_table:
        if ts is None or scores is None:
            raise ValueError("--table needs --traces and --ep to re-evaluate policies")
        atomic_write_text(out_table, adapt_table_csv(cfg, ts, scores, regressors))
    return regressors


ADAPT_COLUMNS = ["bandwidth_bps", "lambda", "gamma", "accuracy", "mean_latency_s", "feasible"]


def adapt_table_csv(cfg: dict, ts: trace.TraceSet, scores,
                    regressors: Sequence[optimizer.ThresholdRegressor]) -> str:
    """Re-evaluate adapted thresholds at every sweep bandwidth."""
    env = environment_from_config(cfg)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ADAPT_COLUMNS)
    for bw in sorted(float(b) for b in cfg["sweep_bandwidths"]):
        th = optimizer.adapt(regressors, bw)
        stats = engine.policy_stats(ts, th.lam, th.gamma, scores,
                                    replace(env, bandwidth=bw))
        writer.writerow([
            repr(bw),
            "|".join(repr(v) for v in th.lam),
            "|".join(repr(v) for v in th.gamma),
            repr(stats.accuracy),
            repr(stats.mean_latency_s),
            "true" if stats.mean_latency_s <= env.latency_budget else "false",
        ])
    return buf.getvalue()


def stage_demo(cfg: dict, outdir: str) -> dict:
    """Full pipeline; returns the summary also written to summary.json."""
    os.makedirs(outdir, exist_ok=True)
    path = lambda name: os.path.join(outdir, name)

    atomic_write_text(path("config.json"),
                      json.dumps({"kind": "experiment_config", **cfg}, indent=2) + "\n")

    stage_gen_data(cfg, path("dataset_train.jsonl"), "train")
    stage_gen_data(cfg, path("dataset_test.jsonl"), "test")
    ee_curve = stage_train_ee(cfg, path("dataset_train.jsonl"), path("ee.json"))
    stage_emit_traces(cfg, path("ee.json"), path("dataset_train.jsonl"),
                      path("traces_train.jsonl"))
    stage_emit_traces(cfg, path("ee.json"), path("dataset_test.jsonl"),
                      path("traces_test.jsonl"), flip_seed=cfg["seed"] + 1)

    train_ts = trace.load_trace_set(path("traces_train.jsonl"))
    fit_ts, select_ts = trace.split_trace_set(
        train_ts, cfg["policy"]["holdout_fraction"], seed=cfg["seed"])
    trace.save_trace_set(fit_ts, path("traces_fit.jsonl"))
    trace.save_trace_set(select_ts, path("traces_select.jsonl"))
    gamma_on_test = cfg["policy"]["gamma_split"] == "test"
    select_set = trace.load_trace_set(
        path("traces_test.jsonl" if gamma_on_test else "traces_select.jsonl"))

    lam_star = best_plain_lambda(select_set, cfg["policy"]["lambda_grid"])
    ep_curve = stage_train_ep(cfg, path("traces_fit.jsonl"), lam_star, path("ep.json"))
    ep = predictor.load_predictor(path("ep.json"))
    select_scores = predictor.predict_scores(ep, select_set)
    gamma_star = stage_select_gamma(cfg, select_set, select_scores, lam_star)
    atomic_write_text(path("thresholds.json"), json.dumps({
        "kind": "thresholds", "lambda": list(lam_star), "gamma": list(gamma_star),
    }) + "\n")

    # policy comparison and frontier on the held-back test traces
    test_ts = select_set if gamma_on_test else trace.load_trace_set(path("traces_test.jsonl"))
    scores = predictor.predict_scores(ep, test_ts)
    env = environment_from_config(cfg)
    _, plain_rep = engine.run_plain(test_ts, lam_star, env)
    _, pred_rep = engine.run_with_predictor(
        test_ts, trace.Thresholds(lam_star, gamma_star), scores, env)
    _, oracle_rep = engine.run_oracle(test_ts, lam_star, env)
    entries = [
        ("plain", lam_star, None, plain_rep, 0.0),
        ("predictor", lam_star, gamma_star, pred_rep, test_ts.topology.predictor_flops),
        ("oracle", lam_star, None, oracle_rep, 0.0),
    ]
    atomic_write_text(path("report.csv"), emit_frontier(entries))

    frontier_entries = []
    n_early = test_ts.topology.num_early_exits
    for lam_value in cfg["policy"]["frontier_lambdas"]:
        lam = (float(lam_value),) * n_early
        _, p_rep = engine.run_plain(test_ts, lam, env)
        frontier_entries.append(("plain", lam, None, p_rep, 0.0))
        gamma = stage_select_gamma(cfg, select_set, select_scores, lam)
        _, e_rep = engine.run_with_predictor(
            test_ts, trace.Thresholds(lam, gamma), scores, env)
        frontier_entries.append(("predictor", lam, gamma, e_rep,
                                 test_ts.topology.predictor_flops))
        _, o_rep = engine.run_oracle(test_ts, lam, env)
        frontier_entries.append(("oracle", lam, None, o_rep, 0.0))
    atomic_write_text(path("frontier.csv"), emit_frontier(frontier_entries))

    sweep_points = stage_sweep(cfg, test_ts, scores, path("sweep.csv"))
    regressors = stage_fit_adapt(cfg, sweep_points, path("regressors.json"),
                                 out_table=path("adapt_table.csv"), ts=test_ts, scores=scores)

    summary = {
        "kind": "summary",
        "seed": cfg["seed"],
        "lambda_star": list(lam_star),
        "gamma_star": list(gamma_star),
        "ee_final_loss": ee_curve[-1],
        "ep_final_loss": ep_curve[-1],
        "test": {
            "plain": plain_rep.to_dict(),
            "predictor": pred_rep.to_dict(),
            "oracle": oracle_rep.to_dict(),
        },
        "sweep_feasible": [p.feasible for p in sweep_points],
        "regressor_max_abs_errors": [r.max_abs_error for r in regressors],
    }
    atomic_write_text(path("summary.json"), json.dumps(summary, indent=2) + "\n")
    return summary


# -- validate -----------------------------------------------------------------


def _validate_csv(path: str, required: Sequence[str]) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    missing = [c for c in required if c not in rows[0]]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    width = len(rows[0])
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{path}: line {i}: expected {width} fields, got {len(row)}")


# Whole-file JSON checkpoints, validated by loading them: kind -> loader.
_CHECKPOINT_LOADERS = {
    "mlp": Mlp.load,
    "toy_early_exit": zoo.ToyEarlyExitNet.load,
    "exit_predictor": predictor.load_predictor,
    "threshold_regressors": optimizer.load_regressors,
    "thresholds": lambda path: trace.load_checkpoint(path, "thresholds", lambda doc: (
        trace.Thresholds(tuple(doc["lambda"]), tuple(doc["gamma"])))),
}


def validate_artifact(path: str) -> str:
    """Validate one artifact; returns a short type tag or raises."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty file")
    if stripped.startswith("{"):
        try:
            whole = json.loads(text)
        except json.JSONDecodeError:
            whole = None
        if isinstance(whole, dict):
            kind = whole.get("kind")
            if kind in _CHECKPOINT_LOADERS:
                _CHECKPOINT_LOADERS[kind](path)
                return kind
            if kind == "experiment_config":
                cfg = _deep_merge(DEFAULT_CONFIG, {k: v for k, v in whole.items() if k != "kind"})
                topology_from_config(cfg)
                environment_from_config(cfg)
                return "experiment_config"
            if kind == "summary":
                return "summary"
            if "N" in whole and "P" in whole and "segment_flops" in whole:
                trace.load_trace_set(path)
                return "trace_set"
            raise ValueError(f"{path}: unrecognized JSON artifact kind {kind!r}")
        # line-delimited: a trace or dataset file
        _, header = next(trace.read_jsonl(path))
        if header.get("kind") == "dataset":
            zoo.load_dataset(path)
            return "dataset"
        trace.load_trace_set(path)
        return "trace_set"
    # CSV artifacts
    first_line = stripped.splitlines()[0]
    if first_line.startswith("bandwidth_bps,lambda_1"):
        optimizer.load_policy_points(path)
        return "policy_points"
    if first_line.startswith("bandwidth_bps,lambda,"):
        _validate_csv(path, ADAPT_COLUMNS)
        return "adapt_table"
    if first_line.startswith("method,"):
        _validate_csv(path, FRONTIER_COLUMNS)
        return "frontier"
    raise ValueError(f"{path}: unrecognized artifact")


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitsim",
        description="Trace-driven simulator and policy optimizer for "
                    "early-exit device-edge co-inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help=f"JSON config file (default: ${CONFIG_ENV_VAR} or built-ins)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        return p

    p = add("gen-data", "sample a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--which", choices=["train", "test"], default="train")
    p.add_argument("--samples", type=int, default=None)

    p = add("train-ee", "train the toy multi-exit classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = add("emit-traces", "run a dataset through a net and store traces")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--final-flip-prob", type=float, default=None)

    p = add("train-ep", "train the skip-score predictor from traces")
    p.add_argument("--traces", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated confidence thresholds")
    p.add_argument("--out", required=True)

    p = add("select-gamma", "pick prediction thresholds on a trace set")
    p.add_argument("--traces", required=True)
    p.add_argument("--ep", required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--budget-fraction", type=float, default=None)
    p.add_argument("--out", default=None)

    p = add("evaluate", "run one policy over a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--method", choices=["plain", "predictor", "oracle"], default="plain")
    p.add_argument("--ep", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--out", default=None)

    p = add("optimize", "latency-constrained threshold grid search")
    p.add_argument("--traces", required=True)
    p.add_argument("--ep", required=True)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--frontier", default=None, help="write every evaluated point here")

    p = add("sweep", "optimize across a list of bandwidths")
    p.add_argument("--traces", required=True)
    p.add_argument("--ep", required=True)
    p.add_argument("--bandwidths", default=None,
                   help="comma-separated bit/s values (default from config)")
    p.add_argument("--out", required=True)

    p = add("fit-adapt", "fit threshold regressors from sweep points")
    p.add_argument("--points", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table", default=None, help="also write an adaptation table CSV")
    p.add_argument("--traces", default=None)
    p.add_argument("--ep", default=None)

    p = add("demo", "run the whole pipeline end to end")
    p.add_argument("--out", default=None, help="output directory (default from config)")

    p = sub.add_parser("validate", help="validate pipeline artifacts")
    p.add_argument("paths", nargs="+")

    return parser


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "grid_step", None) is not None:
        cfg["policy"]["gamma_step"] = args.grid_step
    if getattr(args, "budget_fraction", None) is not None:
        cfg["policy"]["budget_fraction"] = args.budget_fraction
    return cfg


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        for p in args.paths:
            tag = validate_artifact(p)
            print(f"ok {p} ({tag})")
        return 0

    cfg = _apply_overrides(load_config(args.config), args)

    if args.command == "gen-data":
        stage_gen_data(cfg, args.out, args.which, samples=args.samples)
        print(f"wrote {args.out}")
    elif args.command == "train-ee":
        curve = stage_train_ee(cfg, args.data, args.out)
        print(f"wrote {args.out} (final loss {curve[-1]:.6f})")
    elif args.command == "emit-traces":
        stage_emit_traces(cfg, args.net, args.data, args.out,
                          final_flip_prob=args.final_flip_prob)
        print(f"wrote {args.out}")
    elif args.command == "train-ep":
        curve = stage_train_ep(cfg, args.traces, _parse_vector(args.lam), args.out)
        print(f"wrote {args.out} (final loss {curve[-1]:.6f})")
    elif args.command == "select-gamma":
        ts, ep, scores = _load_scored(args.traces, args.ep)
        lam = _parse_vector(args.lam) if args.lam else ep.lam
        gamma = stage_select_gamma(cfg, ts, scores, lam)
        doc = {"kind": "thresholds", "lambda": list(lam), "gamma": list(gamma)}
        if args.out:
            atomic_write_text(args.out, json.dumps(doc) + "\n")
        _print_json(doc)
    elif args.command == "evaluate":
        row = stage_evaluate(
            cfg, args.trace, _parse_vector(args.lam), args.method,
            ep_path=args.ep,
            gamma=_parse_vector(args.gamma) if args.gamma else None,
            bandwidth=args.bandwidth,
        )
        if args.out:
            atomic_write_text(args.out, json.dumps(row) + "\n")
        _print_json(row)
    elif args.command == "optimize":
        best = stage_optimize(cfg, args.traces, args.ep, args.frontier,
                              bandwidth=args.bandwidth)
        _print_json({
            "bandwidth_bps": best.bandwidth,
            "lambda": list(best.lam),
            "gamma": list(best.gamma),
            "accuracy": best.accuracy,
            "mean_latency_s": best.mean_latency_s,
            "feasible": best.feasible,
        })
    elif args.command == "sweep":
        bws = ([float(v) for v in args.bandwidths.split(",")]
               if args.bandwidths else None)
        ts, _, scores = _load_scored(args.traces, args.ep)
        points = stage_sweep(cfg, ts, scores, args.out, bandwidths=bws)
        print(f"wrote {args.out} ({len(points)} bandwidths, "
              f"{sum(p.feasible for p in points)} feasible)")
    elif args.command == "fit-adapt":
        ts = scores = None
        if args.table and args.traces and args.ep:
            ts, _, scores = _load_scored(args.traces, args.ep)
        regs = stage_fit_adapt(cfg, optimizer.load_policy_points(args.points), args.out,
                               out_table=args.table, ts=ts, scores=scores)
        errs = ", ".join(f"{r.max_abs_error:.4f}" for r in regs)
        print(f"wrote {args.out} (max abs fit errors: {errs})")
    elif args.command == "demo":
        outdir = args.out if args.out else cfg["output_dir"]
        summary = stage_demo(cfg, outdir)
        pred = summary["test"]["predictor"]
        plain = summary["test"]["plain"]
        print(f"demo complete in {outdir}: plain {plain['mean_on_device_mflops']:.2f} "
              f"MFLOPs vs predictor {pred['mean_on_device_mflops']:.2f} MFLOPs "
              f"at accuracy {pred['accuracy']:.4f} (plain {plain['accuracy']:.4f})")
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unhandled command {args.command}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except (optimizer.InfeasibleError,) as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
            "min_latency_point": {
                "lambda": list(exc.min_latency_point.lam),
                "gamma": list(exc.min_latency_point.gamma),
                "mean_latency_s": exc.min_latency_point.mean_latency_s,
            },
        }) + "\n")
        return 1
    except BrokenPipeError:
        return 1
    except Exception as exc:  # single machine-readable error record
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
