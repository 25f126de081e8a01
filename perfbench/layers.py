"""Which exitsim functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Timings are self times summed over one
iteration of a workload; ``_us`` metrics are the median self time of one
call; counts are exact.  Metrics of a layer a workload never enters read 0.
"""

from __future__ import annotations

import os
import statistics

from tracing import Tracer, by_name


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _samples_loaded(t: Tracer, args, kwargs, result) -> None:
    if result is not None:
        t.add("trace.samples_loaded", len(result))
        t.add("trace.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _bytes_written(t: Tracer, args, kwargs, result) -> None:
    t.add("trace.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _walk_key(t: Tracer, args, kwargs, result) -> None:
    lam = tuple(float(v) for v in _arg(args, kwargs, 1, "lam"))
    gamma = _arg(args, kwargs, 2, "gamma")
    key = (lam, None if gamma is None else tuple(float(v) for v in gamma))
    t.keys.setdefault("walks", set()).add(key)


def _records(t: Tracer, args, kwargs, result) -> None:
    if result is not None:
        t.add("engine.records_built", len(result[0]))


def _grid_points(t: Tracer, args, kwargs, result) -> None:
    n_early = _arg(args, kwargs, 0, "ts").topology.num_early_exits
    grid = len(_arg(args, kwargs, 3, "lambda_grid")) * len(_arg(args, kwargs, 4, "gamma_grid"))
    t.add("optimizer.points_evaluated", grid ** n_early)


def _infeasible(t: Tracer, args, kwargs, result) -> None:
    if result is not None:
        t.add("optimizer.infeasible_bandwidths", sum(not p.feasible for p in result))


MATRICES = ("conf_matrix", "pred_matrix", "label_vector", "feature_matrix")

# (module, attribute, count hook): the functions the traced run wraps.
TARGETS = [
    *[("cli", f, None) for f in (
        "stage_gen_data", "stage_train_ee", "stage_emit_traces", "stage_train_ep",
        "stage_select_gamma", "best_plain_lambda", "stage_sweep", "stage_fit_adapt",
        "adapt_table_csv", "stage_demo")],
    ("trace", "load_trace_set", _samples_loaded),
    ("trace", "save_trace_set", _bytes_written),
    ("trace", "split_trace_set", None),
    *[("trace", f"TraceSet.{m}", None) for m in MATRICES],
    ("engine", "policy_stats", _walk_key),
    ("engine", "run_plain", _records),
    ("engine", "run_with_predictor", _records),
    ("engine", "run_oracle", _records),
    ("predictor", "train_predictor", None),
    ("predictor", "predict_scores", None),
    ("predictor", "select_gamma", None),
    ("optimizer", "grid_search", _grid_points),
    ("optimizer", "sweep_bandwidths", _infeasible),
    ("optimizer", "fit_regressors", None),
    ("optimizer", "adapt", None),
    ("nncore", "train", None),
    ("nncore", "sgd_epoch", None),
    *[("zoo", f, None) for f in (
        "generate_dataset", "save_dataset", "load_dataset", "train_toy_net", "emit_traces")],
]

# Spans whose self-time metric is not "<span>_s": the demo's own share, and
# the four matrices summed as one.
RENAMED = {"cli.stage_demo": "cli.stage_demo_self_s",
           **{f"trace.TraceSet.{m}": "trace.matrices_s" for m in MATRICES}}


def _self_time_metrics() -> dict[str, list[str]]:
    """metric -> the spans whose self times it sums, in TARGETS order."""
    grouped: dict[str, list[str]] = {}
    for module, attr, _ in TARGETS:
        span = f"{module}.{attr}"
        grouped.setdefault(RENAMED.get(span, f"{span}_s"), []).append(span)
    return grouped


SELF_TIME = _self_time_metrics()
CALLS = {
    "engine.policy_stats_calls": "engine.policy_stats",
    "predictor.select_gamma_calls": "predictor.select_gamma",
    "optimizer.grid_search_calls": "optimizer.grid_search",
    "nncore.epochs": "nncore.sgd_epoch",
}
PER_CALL_US = {
    "engine.policy_stats_us": "engine.policy_stats",
    "nncore.sgd_epoch_us": "nncore.sgd_epoch",
}
COUNTS = [
    "trace.samples_loaded", "trace.bytes_read", "trace.bytes_written",
    "engine.records_built", "optimizer.points_evaluated", "optimizer.infeasible_bandwidths",
]
# Measured by the benchmark itself rather than from spans (see run.py).
RUN_METRICS = [
    ("demo.artifacts_moved", "count", "lower"),
    ("src.lines", "count", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
    ("tracing.targets_missing", "count", "lower"),
    ("sweep_points_per_s", "1/s", "higher"),
    ("trace_load_samples_per_s", "1/s", "higher"),
    ("trace_save_samples_per_s", "1/s", "higher"),
    ("eval_samples_per_s", "1/s", "higher"),
    ("wall.primary_s", "s", "lower"),
    ("wall.setup_s", "s", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(m, "s", "lower") for m in SELF_TIME]
    spec += [(m, "count", "lower") for m in CALLS]
    spec += [(m, "us", "lower") for m in PER_CALL_US]
    spec += [(m, "count", "lower") for m in COUNTS]
    spec.append(("engine.distinct_walk_share", "ratio", "higher"))
    return spec + RUN_METRICS


def iteration_metrics(tracer: Tracer) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced iteration."""
    own = by_name(tracer.spans)
    out = {m: sum(sum(own.get(s, ())) for s in spans) for m, spans in SELF_TIME.items()}
    out.update({m: len(own.get(s, ())) for m, s in CALLS.items()})
    out.update({m: statistics.median(own[s]) * 1e6 if own.get(s) else 0.0
                for m, s in PER_CALL_US.items()})
    out.update({m: tracer.counts.get(m, 0) for m in COUNTS})
    calls = out["engine.policy_stats_calls"]
    out["engine.distinct_walk_share"] = (len(tracer.keys.get("walks", ())) / calls
                                         if calls else 0.0)
    return out
