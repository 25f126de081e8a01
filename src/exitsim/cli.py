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

The config is one JSON document merged over ``DEFAULT_CONFIG``, and every
flag overrides its key.  ``check_config`` checks it once, before any stage
runs, and builds the objects the stages use.  Stages take and return
in-memory objects; only the verb branches of ``run`` read or write files,
and ``demo`` chains the stages in memory, writing every artifact and reading
none back.  Artifacts are written atomically and are byte-identical across
reruns for a fixed config and seed.  The CSV tables (``report.csv``,
``frontier.csv``, ``adapt_table.csv``, ``sweep.csv``) go through the one
table codec in ``trace``; ``validate`` knows a table by its exact header and
parses every row.  Exit codes: 0 success, 1 runtime failure (one JSON error
line on stderr), 2 usage.  An infeasible latency budget is an answer, not a
runtime failure: ``optimize`` prints the minimum-latency point with
``"feasible": false`` and exits 0, as ``sweep`` records such a bandwidth.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import engine, optimizer, predictor, trace, zoo
from .nncore import TrainConfig, train
from .trace import as_int, as_ints, as_real, as_reals, atomic_write_text

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
    # Checked and unread: the threshold regressors train nothing.  The section
    # stays so that configs written when they did still load.
    "regressor": {
        "hidden": 16,
        "train": {"lr": 0.1, "lr_end": 1e-4, "lr_end_epoch": 8000, "epochs": 8000,
                  "batch_size": 16, "weight_decay": 0.0},
    },
    "policy": {
        "gamma_step": 0.05,
        "budget_fraction": 0.02,
        "holdout_fraction": 0.2,
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


@dataclass(frozen=True)
class Config:
    """A checked config: its merged JSON document and the objects built from it."""

    doc: dict
    seed: int
    topology: trace.ExitTopology
    env: engine.Environment
    specs: dict[str, zoo.SynthSpec]  # "train", "test"
    training: dict[str, TrainConfig]  # "ee", "ep"


@contextlib.contextmanager
def _named(name: str):
    """Re-raise a complaint as a ValueError prefixed with ``name``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _at(path: str):
    """Re-raise a complaint as a ValueError naming the config key path ``path``."""
    return _named(f"config {path}" if path else "config")


# Value rules beyond the type a key's default implies, by key path: the
# interval a number lies in.  A list key's rule holds for each entry.
_RULES = {
    **dict.fromkeys(["seed", "ee.exit_weights"], "[0, inf)"),
    **dict.fromkeys(["synth.train_samples", "synth.test_samples", "ee.trunk_widths",
                     "ee.final_hidden", "ep.hidden", "regressor.hidden", "ee.train.epochs",
                     "ep.train.epochs", "regressor.train.epochs"], "[1, inf)"),
    **dict.fromkeys(["synth.final_flip_prob", "policy.gamma_grid"], "[0, 1]"),
    "policy.budget_fraction": "(0, 1]",
    **dict.fromkeys(["policy.holdout_fraction", "policy.frontier_lambdas",
                     "policy.lambda_grid"], "(0, 1)"),
    **dict.fromkeys(["sweep_bandwidths", "regressor_intervals"], "(0, inf)"),
}


def _check_value(value, default, name: str, bounds: str | None = None) -> None:
    """``value`` has the JSON type of ``default`` (a string, an integer, a finite
    real, or a nonempty list of integers, reals or rows of reals) and lies in
    ``bounds``, entry by entry."""
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"{name} must be a nonempty list, got {value!r}")
        if isinstance(default[0], int):
            as_ints(value, name, bounds)
        else:
            as_reals(value, name, bounds, rows=isinstance(default[0], list))
    elif not isinstance(default, str):
        (as_int if isinstance(default, int) else as_real)(value, name, bounds)
    elif not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")


def _check_section(doc, default: dict, path: str) -> None:
    """Every key of ``doc`` is one of ``default``'s, with a value of its type."""
    where = f"config {path}" if path else "config"
    if not isinstance(doc, Mapping):
        raise ValueError(f"{where}: must be an object, got {doc!r}")
    for key, value in doc.items():
        sub = f"{path}.{key}" if path else key
        if key not in default:
            raise ValueError(f"{where}: unknown key {key!r}")
        if isinstance(default[key], dict):
            _check_section(value, default[key], sub)
        else:
            with _at(path):
                _check_value(value, default[key], key, _RULES.get(sub))


def check_config(*docs: Mapping) -> Config:
    """The one config check: ``docs`` merged in order over DEFAULT_CONFIG.

    An unknown key, a non-object where a section belongs, a value of the
    wrong type or range, or one an object built here rejects raises
    ValueError naming the key path: ``config ee.train: lr must be positive``.
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for doc in docs:
        _check_section(doc, DEFAULT_CONFIG, "")
        cfg = _deep_merge(cfg, doc)
    seed = as_int(cfg["seed"], "seed")
    with _at("topology"):
        topology = trace.ExitTopology(**cfg["topology"])
    with _at("environment"):
        env = engine.Environment(**cfg["environment"])
    s, ee = cfg["synth"], cfg["ee"]
    with _at("synth"):
        ring = zoo.SynthSpec.ring(1, topology.num_classes, s["input_dim"], radius=s["radius"])
        specs = {which: replace(ring, num_samples=s[f"{which}_samples"],
                                spreads=s["spreads"], label_noise=s["label_noise"], seed=seed + k)
                 for k, which in enumerate(("train", "test"))}
    with _at("ee"):
        if [len(ee["trunk_widths"]) + 1, len(ee["exit_weights"])] != [topology.num_exits] * 2:
            raise ValueError("trunk_widths needs one entry per early exit, exit_weights per exit")
        zoo.check_exit_weights(ee["exit_weights"])
    with _at("policy.holdout_fraction"):
        trace.holdout_size(specs["train"].num_samples, cfg["policy"]["holdout_fraction"])
    training = {}
    for name, offset in (("ee", 0), ("ep", 4)):
        with _at(f"{name}.train"):
            training[name] = TrainConfig(**cfg[name]["train"], seed=seed + offset)
    with _at("policy.gamma_step"):
        predictor.gamma_grid(cfg["policy"]["gamma_step"])
    with _at(""):
        optimizer.check_intervals(cfg["regressor_intervals"], "regressor_intervals")
    return Config(doc=cfg, seed=seed, topology=topology, env=env, specs=specs,
                  training=training)


def load_config(path: str | None, overrides: Mapping | None = None) -> Config:
    """The config file at ``path`` (default: $EXITSIM_CONFIG, else none),
    with ``overrides`` on top, through ``check_config``."""
    path = path if path is not None else os.environ.get(CONFIG_ENV_VAR)
    user = {} if path is None else trace.read_json(path)
    user.pop("kind", None)
    return check_config(user, overrides or {})


def _parse_vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated reals, got {text!r}") from exc


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


# -- frontier -----------------------------------------------------------------

METHODS = ("plain", "predictor", "oracle")

FRONTIER_COLUMNS = [
    ("method", trace.choice(*METHODS)),
    ("lambda", trace.LAMBDA),
    ("gamma", lambda text: text and trace.GAMMA(text)),  # '' for plain and oracle
    ("accuracy", trace.SHARE),
    ("on_device_mflops", trace.COST),      # includes the predictor cost for predictor rows
    ("total_mflops", trace.COST),
    ("predictor_mflops", trace.COST),      # the predictor share of on_device, reported separately
    ("last_exit_share", trace.SHARE),
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
    rows = sorted(([method, lam, gamma, report.accuracy, report.mean_on_device_mflops,
                    report.mean_total_mflops, ep_flops, report.exit_distribution[-1]]
                   for method, lam, gamma, report, ep_flops in entries),
                  key=lambda row: row[4])
    return trace.table_text(FRONTIER_COLUMNS, rows)


# -- pipeline stages ----------------------------------------------------------


def stage_gen_data(cfg: Config, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``which`` dataset, features at the precision a dataset file stores."""
    x, y = zoo.generate_dataset(cfg.specs[which])
    return trace.canon_array(x), y


def stage_train_ee(cfg: Config, x: np.ndarray, y: np.ndarray,
                   num_classes: int) -> tuple[zoo.ToyEarlyExitNet, float]:
    ee = cfg.doc["ee"]
    net = zoo.ToyEarlyExitNet.build(
        x.shape[1], num_classes, cfg.topology.num_exits, trunk_widths=ee["trunk_widths"],
        final_hidden=ee["final_hidden"], weights=ee["exit_weights"], seed=cfg.seed)
    return train(net, x, y, cfg.training["ee"])


def stage_emit_traces(cfg: Config, net: zoo.ToyEarlyExitNet, x: np.ndarray, y: np.ndarray,
                      flip_seed: int) -> trace.TraceSet:
    return zoo.emit_traces(net, x, y, cfg.topology,
                           final_flip_prob=cfg.doc["synth"]["final_flip_prob"], seed=flip_seed)


def stage_train_ep(cfg: Config, ts: trace.TraceSet, lam: Sequence[float]
                   ) -> tuple[predictor.ExitPredictor, float]:
    return predictor.train_predictor(ts, lam, hidden=cfg.doc["ep"]["hidden"],
                                     cfg=cfg.training["ep"])


def stage_select_gamma(cfg: Config, ts: trace.TraceSet, scores: np.ndarray,
                       lam: Sequence[float]) -> tuple[float, ...]:
    return predictor.select_gamma(ts, scores, lam, cfg.doc["policy"]["gamma_step"],
                                  cfg.doc["policy"]["budget_fraction"])


def best_plain_lambda(ts: trace.TraceSet, lambda_grid: Sequence[float]) -> tuple[float, ...]:
    """Unconstrained accuracy-maximizing lambda (ties: lexicographically first)."""
    table = engine.PolicyTable(ts, [lambda_grid] * ts.topology.num_early_exits)
    return table.combo(int(np.argmax(table.accuracy)))[0]


def stage_evaluate(cfg: Config, ts: trace.TraceSet, lam: Sequence[float], method: str,
                   scores: np.ndarray | None, gamma: Sequence[float] | None) -> tuple:
    """One policy's ``emit_frontier`` entry: (method, lambda, gamma or None,
    report, predictor MFLOPs); "predictor" needs ``scores`` and ``gamma``."""
    if method != "predictor":
        scores = gamma = None
    report = engine.policy_stats(ts, lam, gamma, scores, cfg.env, oracle=method == "oracle")
    return method, lam, gamma, report, 0.0 if gamma is None else ts.topology.predictor_flops


def stage_sweep(cfg: Config, ts: trace.TraceSet,
                scores: np.ndarray) -> list[optimizer.PolicyPoint]:
    policy = cfg.doc["policy"]
    return optimizer.sweep_bandwidths(ts, scores, cfg.env, cfg.doc["sweep_bandwidths"],
                                      policy["lambda_grid"], policy["gamma_grid"])


def stage_fit_adapt(cfg: Config, points: Sequence[optimizer.PolicyPoint]
                    ) -> list[optimizer.ThresholdRegressor]:
    """Per-interval threshold schedules through the feasible ``points``."""
    return optimizer.fit_regressors([p for p in points if p.feasible],
                                    cfg.doc["regressor_intervals"])


def adapt_table_csv(cfg: Config, ts: trace.TraceSet, scores,
                    regressors: Sequence[optimizer.ThresholdRegressor],
                    sweep_points: Sequence[optimizer.PolicyPoint]) -> str:
    """Adapted thresholds re-evaluated at each bandwidth of the sweep the
    regressors were fit from, as a policy table.  A bandwidth no regressor
    interval covers is left out, as the fit leaves out its points."""
    covered = lambda bw: any(r.interval[0] <= bw <= r.interval[1] for r in regressors)
    points = []
    for bw in sorted({p.bandwidth for p in sweep_points if covered(p.bandwidth)}):
        th = optimizer.adapt(regressors, bw)
        stats = engine.policy_stats(ts, th.lam, th.gamma, scores,
                                    replace(cfg.env, bandwidth=bw))
        points.append(optimizer.PolicyPoint(bw, th.lam, th.gamma, stats.accuracy,
                                            stats.mean_latency_s, stats.budget_satisfied))
    return optimizer.policy_points_csv(points)


def check_demo_bandwidths(cfg: Config) -> None:
    """Raise ValueError unless every regressor interval holds at least 2 sweep
    bandwidths and every sweep bandwidth lies in an interval, as the demo's
    fit and adaptation need (``sweep`` alone takes any)."""
    bandwidths, intervals = set(cfg.doc["sweep_bandwidths"]), cfg.doc["regressor_intervals"]
    for lo, hi in intervals:
        if (n := sum(lo <= b <= hi for b in bandwidths)) < 2:
            raise ValueError(f"config regressor_intervals: interval {lo:.6g}-{hi:.6g} bit/s "
                             f"holds {n} sweep bandwidths; need at least 2")
    if outside := sorted(b for b in bandwidths if not any(lo <= b <= hi for lo, hi in intervals)):
        raise ValueError(f"config sweep_bandwidths: {outside[0]:.6g} bit/s outside all "
                         "regressor intervals")


def stage_demo(cfg: Config, outdir: str) -> dict:
    """The pipeline, stage to stage in memory: checks the sweep bandwidths
    first, runs every stage, then writes every artifact into ``outdir`` (a
    failing stage writes nothing), reads none back, and returns the summary.
    The Exit Predictor trains on fit; every choice (lambda*, gamma*, the
    frontier's gammas, the sweep and its regressors) is made on select; every
    reported number (report, frontier, adaptation table) comes from test."""
    check_demo_bandwidths(cfg)
    path = lambda name: os.path.join(outdir, name)
    writes = []  # each artifact's writer, run once every stage is done
    write = lambda *call: writes.append(partial(*call))

    write(atomic_write_text, path("config.json"),
          json.dumps({"kind": "experiment_config", **cfg.doc}, indent=2) + "\n")

    data = {}
    for which in ("train", "test"):
        x, y = data[which] = stage_gen_data(cfg, which)
        write(zoo.save_dataset, path(f"dataset_{which}.jsonl"), x, y,
              cfg.specs[which].num_classes)
    net, ee_loss = stage_train_ee(cfg, *data["train"], cfg.specs["train"].num_classes)
    write(net.save, path("ee.json"))
    train_ts = stage_emit_traces(cfg, net, *data["train"], flip_seed=cfg.seed)
    write(trace.save_trace_set, train_ts, path("traces_train.jsonl"))
    test_ts = stage_emit_traces(cfg, net, *data["test"], flip_seed=cfg.seed + 1)
    write(trace.save_trace_set, test_ts, path("traces_test.jsonl"))

    fit_ts, select_ts = trace.split_trace_set(
        train_ts, cfg.doc["policy"]["holdout_fraction"], seed=cfg.seed)
    write(trace.save_trace_set, fit_ts, path("traces_fit.jsonl"))
    write(trace.save_trace_set, select_ts, path("traces_select.jsonl"))

    lam_star = best_plain_lambda(select_ts, cfg.doc["policy"]["lambda_grid"])
    ep, ep_loss = stage_train_ep(cfg, fit_ts, lam_star)
    write(predictor.save_predictor, ep, path("ep.json"))
    select_scores = predictor.predict_scores(ep, select_ts)
    gamma_star = stage_select_gamma(cfg, select_ts, select_scores, lam_star)
    write(atomic_write_text, path("thresholds.json"), json.dumps({
        "kind": "thresholds", "lambda": list(lam_star), "gamma": list(gamma_star),
    }) + "\n")

    test_scores = predictor.predict_scores(ep, test_ts)
    entries = lambda lam, gamma: [stage_evaluate(cfg, test_ts, lam, method, test_scores, gamma)
                                  for method in METHODS]
    report = entries(lam_star, gamma_star)
    write(atomic_write_text, path("report.csv"), emit_frontier(report))
    frontier_entries = []
    for lam_value in cfg.doc["policy"]["frontier_lambdas"]:
        lam = (float(lam_value),) * test_ts.topology.num_early_exits
        frontier_entries += entries(lam, stage_select_gamma(cfg, select_ts, select_scores, lam))
    write(atomic_write_text, path("frontier.csv"), emit_frontier(frontier_entries))

    sweep_points = stage_sweep(cfg, select_ts, select_scores)
    write(optimizer.save_policy_points, sweep_points, path("sweep.csv"))
    regressors = stage_fit_adapt(cfg, sweep_points)
    write(optimizer.save_regressors, regressors, path("regressors.json"))
    write(atomic_write_text, path("adapt_table.csv"),
          adapt_table_csv(cfg, test_ts, test_scores, regressors, sweep_points))

    summary = {
        "kind": "summary",
        "seed": cfg.seed,
        "lambda_star": list(lam_star),
        "gamma_star": list(gamma_star),
        "ee_final_loss": ee_loss,
        "ep_final_loss": ep_loss,
        "test": {method: rep.to_dict() for method, _, _, rep, _ in report},
        "sweep_feasible": [p.feasible for p in sweep_points],
        "regressor_max_abs_errors": [r.max_abs_error for r in regressors],
    }
    write(atomic_write_text, path("summary.json"), json.dumps(summary, indent=2) + "\n")
    os.makedirs(outdir, exist_ok=True)
    for artifact in writes:
        artifact()
    return summary


# -- validate -----------------------------------------------------------------


def _must(ok, name: str, what: str, value) -> None:
    """Raise ValueError ``{name} must be {what}, got {value!r}`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _list(name: str, values, length: int | None = None) -> list:
    """``values`` if it is a nonempty list (of ``length`` entries, if given)."""
    _must(type(values) is list and (len(values) == length if length else len(values) > 0),
          name, "a nonempty list" if length is None else f"a list of {length} entries", values)
    return values


def check_summary(doc: Mapping) -> None:
    """The summary.json check, field by field: a failure names the field."""
    as_int(doc["seed"], "seed", "[0, inf)")
    with _named("lambda_star and gamma_star"):
        n_early = len(trace.Thresholds(doc["lambda_star"], doc["gamma_star"]).lam)
    for name in ("ee_final_loss", "ep_final_loss"):
        as_real(doc[name], name, "[0, inf)")
    _must(isinstance(doc["test"], dict) and sorted(doc["test"]) == sorted(METHODS), "test",
          f"an object of {', '.join(METHODS)} reports", doc["test"])
    for method in METHODS:
        report, name = doc["test"][method], f"test.{method}"
        _must(isinstance(report, dict), name, "an object", report)
        as_real(report["accuracy"], f"{name}.accuracy", "[0, 1]")
        for key in ("mean_on_device_mflops", "mean_total_mflops", "mean_latency_s"):
            as_real(report[key], f"{name}.{key}", "[0, inf)")
        shares = f"{name}.exit_distribution"
        as_reals(_list(shares, report["exit_distribution"], n_early + 1), shares, "[0, 1]")
        flag = report["budget_satisfied"]
        _must(type(flag) is bool, f"{name}.budget_satisfied", "a bool", flag)
    for i, flag in enumerate(_list("sweep_feasible", doc["sweep_feasible"])):
        _must(type(flag) is bool, f"sweep_feasible[{i}]", "a bool", flag)
    errors = "regressor_max_abs_errors"
    as_reals(_list(errors, doc[errors]), errors, "[0, inf)")


# Whole-file JSON documents, validated by loading them from the parsed
# document: kind -> loader(path, doc).
_JSON_LOADERS = {
    "toy_early_exit": zoo.ToyEarlyExitNet.load,
    "exit_predictor": predictor.load_predictor,
    "threshold_regressors": optimizer.load_regressors,
    "thresholds": lambda path, doc: trace.load_checkpoint(path, "thresholds", lambda doc: (
        trace.Thresholds(doc["lambda"], doc["gamma"])), doc),
    "experiment_config": lambda path, doc: trace.load_checkpoint(
        path, "experiment_config",
        lambda doc: check_config({k: v for k, v in doc.items() if k != "kind"}), doc),
    "summary": lambda path, doc: trace.load_checkpoint(path, "summary", check_summary, doc),
}


def _json_object(line: str) -> dict | None:
    """``line`` parsed, if it is one JSON object on its own; else None."""
    try:
        value = json.loads(line)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def validate_artifact(path: str) -> str:
    """Validate one artifact; returns a short type tag or raises.

    The file is read once; every check parses that text.  A JSON file is
    line-delimited when its line 1 is a JSON object on its own that is a
    trace or dataset header or that more lines follow, or a damaged line
    before a line 2 that is one; else one document.  Damage names its line.
    """
    text = trace.read_text(path)
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty file")
    if stripped.startswith("{"):
        first, _, rest = text.partition("\n")
        header = _json_object(first)
        if header is not None and header.get("kind") == "dataset":
            zoo.load_dataset(path, text)
            return "dataset"
        if (header is not None and (rest.strip() or {"N", "P", "segment_flops"} <= header.keys())
                or rest.strip() and _json_object(rest.partition("\n")[0]) is not None):
            trace.load_trace_set(path, text)
            return "trace_set"
        whole = trace.read_json(path, text)
        kind = whole.get("kind")
        if kind in _JSON_LOADERS:
            _JSON_LOADERS[kind](path, whole)
            return kind
        raise ValueError(f"{path}: unrecognized JSON artifact kind {kind!r}")
    # CSV tables, recognised by their exact header; every row is parsed
    header = text.partition("\n")[0]
    if header.startswith("bandwidth_bps,lambda_1,"):
        optimizer.load_policy_points(path, text)
        return "policy_points"
    if header == ",".join(name for name, _ in FRONTIER_COLUMNS):
        # A row's lambda and gamma are one pair: a Thresholds for the
        # predictor policy, no gamma otherwise.
        for lineno, (method, lam, gamma, *_) in enumerate(
                trace.read_table(path, text, FRONTIER_COLUMNS), start=2):
            try:
                if method == "predictor":
                    trace.Thresholds(lam, gamma or ())
                elif gamma:
                    raise ValueError(f"{method} rows take no gamma")
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
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
    p.add_argument("--method", choices=METHODS, default="plain")
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


def _overrides(args: argparse.Namespace) -> dict:
    """The config document of the flags given, each at the key it overrides."""
    flag = lambda name: getattr(args, name, None)
    keys = {
        "seed": flag("seed"),
        f"synth.{flag('which') or 'train'}_samples": flag("samples"),
        "synth.final_flip_prob": flag("final_flip_prob"),
        "policy.gamma_step": flag("grid_step"),
        "policy.budget_fraction": flag("budget_fraction"),
        "environment.bandwidth": flag("bandwidth"),
        "sweep_bandwidths": flag("bandwidths") and list(_parse_vector(flag("bandwidths"))),
    }
    doc: dict = {}
    for path, value in keys.items():
        section, _, key = path.rpartition(".")
        if value is not None:
            (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def _load_scored(traces_path: str, ep_path: str
                ) -> tuple[trace.TraceSet, predictor.ExitPredictor, np.ndarray]:
    """A trace file, a predictor checkpoint and the predictor's scores on it."""
    ts = trace.load_trace_set(traces_path)
    ep = predictor.load_predictor(ep_path)
    return ts, ep, predictor.predict_scores(ep, ts)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and run its verb.  The verb branches are the only code
    that reads or writes files outside ``stage_demo``."""
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        for p in args.paths:
            print(f"ok {p} ({validate_artifact(p)})")
        return 0

    cfg = load_config(args.config, _overrides(args))

    if args.command == "gen-data":
        x, y = stage_gen_data(cfg, args.which)
        zoo.save_dataset(args.out, x, y, cfg.specs[args.which].num_classes)
        print(f"wrote {args.out}")
    elif args.command == "train-ee":
        net, loss = stage_train_ee(cfg, *zoo.load_dataset(args.data))
        net.save(args.out)
        print(f"wrote {args.out} (final loss {loss:.6f})")
    elif args.command == "emit-traces":
        net = zoo.ToyEarlyExitNet.load(args.net)
        x, y, _ = zoo.load_dataset(args.data)
        trace.save_trace_set(stage_emit_traces(cfg, net, x, y, flip_seed=cfg.seed), args.out)
        print(f"wrote {args.out}")
    elif args.command == "train-ep":
        ep, loss = stage_train_ep(cfg, trace.load_trace_set(args.traces),
                                  _parse_vector(args.lam))
        predictor.save_predictor(ep, args.out)
        print(f"wrote {args.out} (final loss {loss:.6f})")
    elif args.command == "select-gamma":
        ts, ep, scores = _load_scored(args.traces, args.ep)
        lam = _parse_vector(args.lam) if args.lam else ep.lam
        gamma = stage_select_gamma(cfg, ts, scores, lam)
        doc = {"kind": "thresholds", "lambda": list(lam), "gamma": list(gamma)}
        if args.out:
            atomic_write_text(args.out, json.dumps(doc) + "\n")
        _print_json(doc)
    elif args.command == "evaluate":
        if args.method != "predictor" and (args.ep is not None or args.gamma is not None):
            raise ValueError(f"--method {args.method} takes neither --ep nor --gamma")
        ts, scores, gamma = trace.load_trace_set(args.trace), None, None
        if args.method == "predictor":
            if not (args.ep and args.gamma):
                raise ValueError("--method predictor requires --ep and --gamma")
            scores = predictor.predict_scores(predictor.load_predictor(args.ep), ts)
            gamma = _parse_vector(args.gamma)
        lam = _parse_vector(args.lam)
        report = stage_evaluate(cfg, ts, lam, args.method, scores, gamma)[3]
        row = {"method": args.method, "lambda": list(lam),
               **({} if gamma is None else {"gamma": list(gamma)}), **report.to_dict()}
        if args.out:
            atomic_write_text(args.out, json.dumps(row) + "\n")
        _print_json(row)
    elif args.command == "optimize":
        ts, _, scores = _load_scored(args.traces, args.ep)
        policy = cfg.doc["policy"]
        best, frontier = optimizer.grid_search(ts, scores, cfg.env, policy["lambda_grid"],
                                               policy["gamma_grid"])
        if args.frontier:
            optimizer.save_policy_points(frontier, args.frontier)
        _print_json({
            "bandwidth_bps": best.bandwidth,
            "lambda": list(best.lam),
            "gamma": list(best.gamma),
            "accuracy": best.accuracy,
            "mean_latency_s": best.mean_latency_s,
            "feasible": best.feasible,
        })
    elif args.command == "sweep":
        ts, _, scores = _load_scored(args.traces, args.ep)
        points = stage_sweep(cfg, ts, scores)
        optimizer.save_policy_points(points, args.out)
        print(f"wrote {args.out} ({len(points)} bandwidths, "
              f"{sum(p.feasible for p in points)} feasible)")
    elif args.command == "fit-adapt":
        if args.table and not (args.traces and args.ep):
            raise ValueError("--table needs --traces and --ep to re-evaluate policies")
        points = optimizer.load_policy_points(args.points)
        scored = _load_scored(args.traces, args.ep) if args.table else None
        regs = stage_fit_adapt(cfg, points)
        # Both texts first, so a table that fails leaves no --out behind.
        texts = {args.out: optimizer.regressors_json(regs)}
        if scored:
            ts, _, scores = scored
            texts[args.table] = adapt_table_csv(cfg, ts, scores, regs, points)
        for path, text in texts.items():
            atomic_write_text(path, text)
        errs = ", ".join(f"{r.max_abs_error:.4f}" for r in regs)
        print(f"wrote {args.out} (max abs fit errors: {errs})")
    elif args.command == "demo":
        outdir = args.out if args.out else cfg.doc["output_dir"]
        summary = stage_demo(cfg, outdir)
        pred = summary["test"]["predictor"]
        plain = summary["test"]["plain"]
        print(f"demo complete in {outdir}: plain {plain['mean_on_device_mflops']:.2f} "
              f"MFLOPs vs predictor {pred['mean_on_device_mflops']:.2f} MFLOPs "
              f"at accuracy {pred['accuracy']:.4f} (plain {plain['accuracy']:.4f})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # single machine-readable error record
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
