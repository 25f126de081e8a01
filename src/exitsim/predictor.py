"""Skip-score predictor: training, scoring, and prediction-threshold choice.

The predictor is a small fully-connected net (hidden relu layer, sigmoid
head, one output per early exit) trained to imitate the confidence test of
a traced network: target 1 exactly when the exit would terminate the
sample.  Prediction thresholds are then picked on a grid as the cheapest
setting that pushes fewer than ``budget_fraction`` additional samples to
the final exit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .nncore import Mlp, TrainConfig, train
from .trace import TraceSet, as_real, atomic_write_text, check_lambda, load_checkpoint

# Scores are kept strictly inside (0, 1); a saturated sigmoid would
# otherwise defeat the gamma = 1 "skip everything" contract.
_SCORE_EPS = 1e-12


@dataclass(frozen=True)
class ExitPredictor:
    """Trained skip-score net plus the confidence thresholds it imitates."""

    net: Mlp
    lam: tuple[float, ...]
    predictor_flops: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "lam", tuple(check_lambda(self.lam, self.net.out_dim).tolist()))
        object.__setattr__(self, "predictor_flops",
                           as_real(self.predictor_flops, "predictor_flops", "[0, inf)"))
        if self.net.activations[-1] != "sigmoid":
            raise ValueError("predictor net must end in a sigmoid head")


def make_labels(ts: TraceSet, lam) -> np.ndarray:
    """Binary targets per early exit: 1 exactly when confidence >= lambda."""
    n_early = ts.topology.num_early_exits
    lam = check_lambda(lam, n_early)
    return (ts.conf[:, :n_early] >= lam).astype(np.float64)


def train_predictor(ts: TraceSet, lam, hidden: int = 64,
                    cfg: TrainConfig | None = None) -> tuple[ExitPredictor, float]:
    """Fit the skip-score net on the traced features against step labels;
    returns the predictor and its full-set loss after the last epoch."""
    if not ts.has_features:
        raise ValueError("trace set carries no features; cannot train the predictor")
    if cfg is None:
        cfg = TrainConfig(weight_decay=2e-4)
    n_early = ts.topology.num_early_exits
    x = ts.features
    targets = make_labels(ts, lam)
    net = Mlp.init([x.shape[1], hidden, n_early], ["relu", "sigmoid"], seed=cfg.seed)
    net, loss = train(net, x, targets, cfg)
    return ExitPredictor(net=net, lam=lam, predictor_flops=ts.topology.predictor_flops), loss


def predict_scores(ep: ExitPredictor, ts: TraceSet) -> np.ndarray:
    """Skip scores for every sample, strictly inside (0, 1), set order."""
    if not ts.has_features:
        raise ValueError("trace set carries no features; cannot score it")
    if len(ep.lam) != ts.topology.num_early_exits:
        raise ValueError(
            f"predictor covers {len(ep.lam)} early exits, trace set has "
            f"{ts.topology.num_early_exits}"
        )
    out = ep.net.forward(ts.features)
    return np.clip(out, _SCORE_EPS, 1.0 - _SCORE_EPS)


def gamma_grid(step: float) -> np.ndarray:
    """Candidate threshold values: multiples of ``step`` in [0, 1] plus 1."""
    step = as_real(step, "grid step", "(0, 1)")
    return np.unique(np.concatenate([np.arange(0.0, 1.0, step), [1.0]]))


def select_gamma(ts: TraceSet, scores, lam, grid_step: float = 0.05,
                 budget_fraction: float = 0.02) -> tuple[float, ...]:
    """Cheapest grid point pushing < budget_fraction extra samples to exit N.

    ``scores`` is the predictor's score matrix on ``ts``.  The zero vector
    reproduces the plain policy exactly, so a feasible point always exists;
    ties go to the lexicographically smallest gamma.  The search reads exit
    shares and device MFLOPs only, so its table counts no correct answers
    (``accuracy=False``).
    """
    budget_fraction = as_real(budget_fraction, "budget_fraction", "(0, 1]")
    n_early = ts.topology.num_early_exits
    table = engine.PolicyTable(ts, [[v] for v in check_lambda(lam, n_early)],
                               [gamma_grid(grid_step)] * n_early, scores, accuracy=False)
    # Row 0 is gamma = 0: every score passes, so it is the plain walk.
    extra = table.exit_distribution[:, -1] - table.exit_distribution[0, -1]
    return table.combo(table.cheapest(extra < budget_fraction))[1]


def save_predictor(ep: ExitPredictor, path: str | os.PathLike) -> None:
    doc = {
        "kind": "exit_predictor",
        "lambda": list(ep.lam),
        "predictor_flops": ep.predictor_flops,
        "net": ep.net.to_dict(),
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_predictor(path: str | os.PathLike, doc: dict | None = None) -> ExitPredictor:
    """The checkpoint at ``path`` (``doc``: as for ``load_checkpoint``)."""
    return load_checkpoint(path, "exit_predictor", lambda doc: ExitPredictor(
        net=Mlp.from_dict(doc["net"], "net."),
        lam=doc["lambda"],
        predictor_flops=doc["predictor_flops"],
    ), doc)
