"""Trace-driven simulator and policy optimizer for early-exit co-inference."""

from .engine import (
    AggregateReport,
    DecisionRecord,
    Environment,
    policy_stats,
    run_oracle,
    run_plain,
    run_with_predictor,
)
from .nncore import Mlp, TrainConfig, numeric_gradient_check, train
from .optimizer import (
    PolicyPoint,
    ThresholdRegressor,
    adapt,
    fit_regressors,
    grid_search,
    sweep_bandwidths,
)
from .predictor import (
    ExitPredictor,
    make_labels,
    predict_scores,
    select_gamma,
    train_predictor,
)
from .trace import (
    ExitTopology,
    SampleTrace,
    Thresholds,
    TraceFormatError,
    TraceSet,
    load_trace_set,
    save_trace_set,
    split_trace_set,
)
from .zoo import SynthSpec, ToyEarlyExitNet, emit_traces, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "DecisionRecord",
    "Environment",
    "ExitPredictor",
    "ExitTopology",
    "Mlp",
    "PolicyPoint",
    "SampleTrace",
    "SynthSpec",
    "ThresholdRegressor",
    "Thresholds",
    "ToyEarlyExitNet",
    "TraceFormatError",
    "TraceSet",
    "TrainConfig",
    "adapt",
    "emit_traces",
    "fit_regressors",
    "generate_dataset",
    "grid_search",
    "load_trace_set",
    "make_labels",
    "numeric_gradient_check",
    "policy_stats",
    "predict_scores",
    "run_oracle",
    "run_plain",
    "run_with_predictor",
    "save_trace_set",
    "select_gamma",
    "split_trace_set",
    "sweep_bandwidths",
    "train",
    "train_predictor",
]
