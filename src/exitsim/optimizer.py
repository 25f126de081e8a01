"""Latency-constrained threshold optimization and bandwidth adaptation.

``grid_search`` exhaustively enumerates threshold combinations and returns
the feasible point with the highest accuracy (ties: lower mean latency,
then lexicographically smallest thresholds).  ``sweep_bandwidths`` answers
the same question across link rates.  Both are queries on one
``engine.PolicyTable``: each (lambda, gamma) pair is walked once and every
bandwidth is priced from that walk, since only latency depends on the link.
``fit_regressors`` distills the recorded optima into small per-interval
regressors mapping log10(bandwidth) to threshold vectors, so one predictor
serves every channel condition.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine, trace
from .nncore import Mlp, MlpStack, TrainConfig, train
from .predictor import as_scores
from .trace import Thresholds, TraceSet, as_int, as_real, atomic_write_text, load_checkpoint

# Clamp for regressed confidence thresholds: keep them meaningfully inside
# (1/P, 1) so the resulting Thresholds always validate.
LAMBDA_CLAMP_EPS = 1e-6


class InfeasibleError(RuntimeError):
    """No grid point satisfies the latency budget; carries the closest miss."""

    def __init__(self, message: str, min_latency_point: "PolicyPoint"):
        super().__init__(message)
        self.min_latency_point = min_latency_point


@dataclass(frozen=True)
class PolicyPoint:
    """One recorded solution: thresholds plus achieved accuracy/latency."""

    bandwidth: float
    lam: tuple[float, ...]
    gamma: tuple[float, ...]
    accuracy: float
    mean_latency_s: float
    feasible: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        object.__setattr__(self, "gamma", tuple(float(v) for v in self.gamma))


def _table(ts: TraceSet, scores, env: engine.Environment, bandwidths: Sequence[float],
           lambda_grid: Sequence[float], gamma_grid: Sequence[float]) -> engine.PolicyTable:
    n_early = ts.topology.num_early_exits
    return engine.PolicyTable(
        ts, engine.grid_combos(lambda_grid, n_early), engine.grid_combos(gamma_grid, n_early),
        as_scores(ts, scores), env.compute_speed, bandwidths)


def _point(table: engine.PolicyTable, i: int, b: int, bandwidth: float,
           budget: float) -> PolicyPoint:
    lam, gamma = table.combo(i)
    latency = float(table.mean_latency_s[i, b])
    return PolicyPoint(bandwidth=bandwidth, lam=lam, gamma=gamma,
                       accuracy=float(table.accuracy[i]), mean_latency_s=latency,
                       feasible=latency <= budget)


def grid_search(ts: TraceSet, scores, env: engine.Environment,
                lambda_grid: Sequence[float], gamma_grid: Sequence[float]
                ) -> tuple[PolicyPoint, list[PolicyPoint]]:
    """Accuracy-maximizing thresholds under the mean-latency budget.

    Both grids are value lists applied to every early exit, so the search
    space is their Cartesian powers.  Returns the best feasible point and
    the full list of evaluated points; raises InfeasibleError (with the
    minimum-latency point attached) when nothing fits the budget.
    """
    table = _table(ts, scores, env, [env.bandwidth], lambda_grid, gamma_grid)
    budget = env.latency_budget
    frontier = [_point(table, i, 0, env.bandwidth, budget)
                for i in range(len(table.accuracy))]
    i, feasible = table.optimum(0, budget)
    if not feasible:
        raise InfeasibleError(
            f"no grid point meets the {budget * 1e3:.3g} ms budget at "
            f"{env.bandwidth:.6g} bit/s (closest: {frontier[i].mean_latency_s * 1e3:.3g} ms)",
            frontier[i],
        )
    return frontier[i], frontier


def sweep_bandwidths(ts: TraceSet, ep, env: engine.Environment,
                     bandwidths: Sequence[float],
                     lambda_grid: Sequence[float],
                     gamma_grid: Sequence[float]) -> list[PolicyPoint]:
    """grid_search per bandwidth, budget fixed; results in ascending order.

    Every bandwidth is a query on one table, so each (lambda, gamma) pair is
    walked once however many bandwidths there are.  A bandwidth with no
    feasible point contributes its minimum-latency point flagged infeasible
    instead of aborting the sweep.
    """
    if not bandwidths:
        raise ValueError("bandwidth list must be nonempty")
    bws = sorted(float(b) for b in bandwidths)
    table = _table(ts, ep, env, bws, lambda_grid, gamma_grid)
    return [_point(table, table.optimum(b, env.latency_budget)[0], b, bw, env.latency_budget)
            for b, bw in enumerate(bws)]


@dataclass(frozen=True)
class ThresholdRegressor:
    """Per-interval pair of two-layer nets: log10(bandwidth) -> thresholds,
    checked so that ``adapt`` can use it."""

    interval: tuple[float, float]
    train_bandwidths: tuple[float, ...]
    lam_net: Mlp
    gamma_net: Mlp
    log_center: float
    num_classes: int
    max_abs_error: float

    def __post_init__(self) -> None:
        iv, lam_net, gamma_net = self.interval, self.lam_net, self.gamma_net
        object.__setattr__(self, "log_center", as_real(self.log_center, "log_center"))
        object.__setattr__(self, "num_classes", as_int(self.num_classes, "num_classes"))
        if not (len(iv) == 2 and 0 < as_real(iv[0], "interval") < as_real(iv[1], "interval")):
            raise ValueError(f"interval must be [lo, hi] with 0 < lo < hi, got {list(iv)}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not (lam_net.in_dim == gamma_net.in_dim == 1 and lam_net.out_dim == gamma_net.out_dim):
            raise ValueError("lam_net and gamma_net must take 1 input and have equal output widths")


def _clamp_lam(raw: np.ndarray, num_classes: int) -> np.ndarray:
    lo = 1.0 / num_classes + LAMBDA_CLAMP_EPS
    return np.clip(raw, lo, 1.0 - LAMBDA_CLAMP_EPS)


def fit_regressors(points: Sequence[PolicyPoint],
                   intervals: Sequence[tuple[float, float]],
                   num_classes: int,
                   cfg: TrainConfig | None = None,
                   hidden: int = 16) -> list[ThresholdRegressor]:
    """Fit one (lambda, gamma) regressor pair per bandwidth interval.

    Interval membership is inclusive on both ends, so a bandwidth shared by
    two intervals trains both regressors.  The recorded max_abs_error is
    the worst clamped-prediction error over the interval's training points.

    Net k of interval idx (k = 0 lambda, 1 gamma) is seeded
    ``cfg.seed + 2*idx + k``.  Nets whose targets have the same shape train
    in lockstep as one MlpStack, each with its own seed and shuffle, so every
    net ends with the bits it would have trained to alone.
    """
    if cfg is None:
        cfg = TrainConfig(lr=0.1, lr_end=1e-4, lr_end_epoch=8000, epochs=8000,
                          batch_size=16, weight_decay=0.0, seed=0)
    ordered = sorted(intervals, key=lambda iv: (float(iv[0]), float(iv[1])))
    fits = []  # per interval: (lo, hi, bandwidths, log center, x, (lam, gamma targets))
    jobs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, Mlp]] = {}  # (idx, k) -> x, y, net
    for idx, (lo, hi) in enumerate(ordered):
        lo, hi = float(lo), float(hi)
        if not (0 < lo < hi):
            raise ValueError(f"bad interval ({lo}, {hi})")
        members = sorted(
            (p for p in points if lo <= p.bandwidth <= hi),
            key=lambda p: p.bandwidth,
        )
        if len(members) < 2:
            raise ValueError(
                f"interval {lo:.6g}-{hi:.6g} bit/s has {len(members)} training "
                "points; need at least 2"
            )
        bws = np.array([p.bandwidth for p in members])
        logb = np.log10(bws)
        center = float(np.mean(logb))
        x = (logb - center)[:, None]
        targets = (np.array([p.lam for p in members]), np.array([p.gamma for p in members]))
        fits.append((lo, hi, bws, center, x, targets))

        # Zero output weights + bias at the target mean start the net on the
        # mean schedule, so constant threshold schedules are reproduced
        # exactly and only residuals remain to fit.
        for k, t in enumerate(targets):
            net = Mlp.init([1, hidden, t.shape[1]], ["relu", "identity"],
                           seed=cfg.seed + 2 * idx + k)
            net.weights[-1][:] = 0.0
            net.biases[-1][:] = t.mean(axis=0)
            jobs[idx, k] = (x, t, net)

    stacks: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for key, (_, t, _) in jobs.items():
        stacks.setdefault(t.shape, []).append(key)
    trained: dict[tuple[int, int], Mlp] = {}
    for keys in stacks.values():
        xs, ys, nets = zip(*(jobs[key] for key in keys))
        stack = MlpStack(nets)
        train(stack, np.concatenate(xs), np.concatenate(ys), "mse", cfg)
        trained.update(zip(keys, stack.nets()))

    out: list[ThresholdRegressor] = []
    for idx, (lo, hi, bws, center, x, (lam_targets, gam_targets)) in enumerate(fits):
        lam_net, gamma_net = trained[idx, 0], trained[idx, 1]
        lam_hat = _clamp_lam(lam_net.forward(x), num_classes)
        gam_hat = np.clip(gamma_net.forward(x), 0.0, 1.0)
        err = max(
            float(np.max(np.abs(lam_hat - lam_targets))),
            float(np.max(np.abs(gam_hat - gam_targets))),
        )
        out.append(ThresholdRegressor(
            interval=(lo, hi),
            train_bandwidths=tuple(float(b) for b in bws),
            lam_net=lam_net,
            gamma_net=gamma_net,
            log_center=center,
            num_classes=int(num_classes),
            max_abs_error=err,
        ))
    return out


def adapt(regressors: Sequence[ThresholdRegressor], bandwidth: float) -> Thresholds:
    """Thresholds for a bandwidth, from the covering interval's regressors.

    A bandwidth on a shared endpoint routes to the lower interval.  Raw
    outputs are clamped into the valid threshold ranges.
    """
    bandwidth = float(bandwidth)
    chosen = None
    for reg in sorted(regressors, key=lambda r: r.interval):
        if reg.interval[0] <= bandwidth <= reg.interval[1]:
            chosen = reg
            break
    if chosen is None:
        raise ValueError(f"bandwidth {bandwidth:.6g} bit/s outside all regressor intervals")
    x = np.array([[math.log10(bandwidth) - chosen.log_center]])
    lam = _clamp_lam(chosen.lam_net.forward(x)[0], chosen.num_classes)
    gam = np.clip(chosen.gamma_net.forward(x)[0], 0.0, 1.0)
    return Thresholds(lam=tuple(lam.tolist()), gamma=tuple(gam.tolist()))


# -- serialization ------------------------------------------------------------


def _point_columns(n_early: int) -> list:
    """The policy table's columns for ``n_early`` early exits, one per threshold entry."""
    lam = lambda text: float(trace.check_lambda([text])[0])
    gamma = lambda text: float(trace.check_gamma([text])[0])
    return ([("bandwidth_bps", trace.RATE)] + [(f"lambda_{i + 1}", lam) for i in range(n_early)]
            + [(f"gamma_{i + 1}", gamma) for i in range(n_early)]
            + [("accuracy", trace.SHARE), ("mean_latency_s", trace.COST), ("feasible", trace.FLAG)])


def policy_points_csv(points: Sequence[PolicyPoint]) -> str:
    if not points:
        raise ValueError("no policy points to serialize")
    return trace.table_text(_point_columns(len(points[0].lam)), (
        [p.bandwidth, *p.lam, *p.gamma, p.accuracy, p.mean_latency_s, p.feasible]
        for p in points))


def save_policy_points(points: Sequence[PolicyPoint], path: str | os.PathLike) -> None:
    atomic_write_text(path, policy_points_csv(points))


def load_policy_points(path: str | os.PathLike, text: str | None = None
                       ) -> list[PolicyPoint]:
    """The policy table at ``path``; ``text`` is its ``read_text``, if already read.
    The header must be exactly the table's for as many exits as it names."""
    text = trace.read_text(path) if text is None else text
    n = max(1, text.partition("\n")[0].count(",lambda_"))
    return [PolicyPoint(bw, row[:n], row[n:], acc, latency, feasible == "true")
            for bw, *row, acc, latency, feasible in trace.read_table(path, text, _point_columns(n))]


def save_regressors(regressors: Sequence[ThresholdRegressor],
                    path: str | os.PathLike) -> None:
    doc = {
        "kind": "threshold_regressors",
        "regressors": [
            {
                "interval": list(r.interval),
                "train_bandwidths": list(r.train_bandwidths),
                "log_center": r.log_center,
                "num_classes": r.num_classes,
                "max_abs_error": r.max_abs_error,
                "lam_net": r.lam_net.to_dict(),
                "gamma_net": r.gamma_net.to_dict(),
            }
            for r in regressors
        ],
    }
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_regressors(path: str | os.PathLike, doc: dict | None = None
                    ) -> list[ThresholdRegressor]:
    """The checkpoint at ``path`` (``doc``: as for ``load_checkpoint``); a
    malformed entry raises ValueError naming the path and the entry."""
    def entry(i: int, r: dict) -> ThresholdRegressor:
        try:
            return ThresholdRegressor(
                interval=tuple(r["interval"]),
                train_bandwidths=tuple(r["train_bandwidths"]),
                lam_net=Mlp.from_dict(r["lam_net"]),
                gamma_net=Mlp.from_dict(r["gamma_net"]),
                log_center=r["log_center"],
                num_classes=r["num_classes"],
                max_abs_error=r["max_abs_error"],
            )
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ValueError(f"regressors[{i}]: {exc}") from exc
    return load_checkpoint(path, "threshold_regressors", lambda doc: [
        entry(i, r) for i, r in enumerate(doc["regressors"])], doc)
