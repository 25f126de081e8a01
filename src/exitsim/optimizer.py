"""Latency-constrained threshold optimization and bandwidth adaptation.

``grid_search`` exhaustively enumerates threshold combinations and returns
the feasible point with the highest accuracy (ties: lower mean latency,
then lexicographically smallest thresholds).  ``sweep_bandwidths`` answers
the same question across link rates.  Both are queries on one
``engine.PolicyTable`` given each grid as the value list of every early
exit: each (lambda, gamma) combination's integer counts are taken once,
without walking a sample, and every bandwidth is priced from them by the
engine's count formula, since only latency depends on the link.
``fit_regressors`` turns the recorded optima into one schedule per
bandwidth interval, piecewise linear in log10(bandwidth) through the optima
themselves, so one predictor serves every channel condition and nothing is
trained.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine, trace
from .trace import Thresholds, TraceSet, as_real, atomic_write_text, load_checkpoint


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
    return engine.PolicyTable(ts, [lambda_grid] * n_early, [gamma_grid] * n_early,
                              scores, env.compute_speed, bandwidths)


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


def sweep_bandwidths(ts: TraceSet, scores, env: engine.Environment,
                     bandwidths: Sequence[float],
                     lambda_grid: Sequence[float],
                     gamma_grid: Sequence[float]) -> list[PolicyPoint]:
    """grid_search per bandwidth, budget fixed; results in ascending order.

    Every bandwidth is a query on one table, so each (lambda, gamma)
    combination is counted once however many bandwidths there are, and
    each bandwidth's latencies follow from those counts.  A bandwidth with no
    feasible point contributes its minimum-latency point flagged infeasible
    instead of aborting the sweep.
    """
    if not bandwidths:
        raise ValueError("bandwidth list must be nonempty")
    table = _table(ts, scores, env, bandwidths, lambda_grid, gamma_grid)
    bws = table.bandwidths
    return [_point(table, table.optimum(b, env.latency_budget)[0], b, bws[b], env.latency_budget)
            for b in sorted(range(len(bws)), key=bws.__getitem__)]


@dataclass(frozen=True)
class ThresholdRegressor:
    """One interval's threshold schedule: a (lambda, gamma) row per training
    bandwidth, read piecewise linearly in log10(bandwidth) by ``adapt``.

    ``train_bandwidths`` are at least 2, inside ``interval`` and strictly
    ascending in log10 (so ``adapt`` never divides by zero).  Row k of
    ``lam`` and ``gamma`` is one valid ``Thresholds`` for bandwidth k, every
    row of one length.  ``max_abs_error`` is the worst distance from a
    fitted point to its row.
    """

    interval: tuple[float, float]
    train_bandwidths: tuple[float, ...]
    lam: tuple[tuple[float, ...], ...]
    gamma: tuple[tuple[float, ...], ...]
    max_abs_error: float

    def __post_init__(self) -> None:
        iv = tuple(as_real(v, "interval", "(0, inf)") for v in self.interval)
        if not (len(iv) == 2 and iv[0] < iv[1]):
            raise ValueError(f"interval must be [lo, hi] with 0 < lo < hi, got {list(iv)}")
        bws = tuple(as_real(v, "train_bandwidths") for v in self.train_bandwidths)
        if len(bws) < 2 or not all(iv[0] <= b <= iv[1] for b in bws):
            raise ValueError(f"train_bandwidths must be at least 2 values in the interval "
                             f"{list(iv)}, got {list(bws)}")
        logs = [math.log10(b) for b in bws]
        if any(a >= b for a, b in zip(logs, logs[1:])):
            raise ValueError(f"train_bandwidths must ascend strictly in log10, got {list(bws)}")
        if not len(self.lam) == len(self.gamma) == len(bws):
            raise ValueError(f"{len(bws)} train_bandwidths need as many lambda and gamma "
                             f"rows, got {len(self.lam)} and {len(self.gamma)}")
        rows = [Thresholds(tuple(lam), tuple(gamma)) for lam, gamma in zip(self.lam, self.gamma)]
        if len({len(th.lam) for th in rows}) != 1:
            raise ValueError("lambda rows must all have one length")
        error = as_real(self.max_abs_error, "max_abs_error", "[0, inf)")
        for name, value in (("interval", iv), ("train_bandwidths", bws), ("max_abs_error", error),
                            ("lam", tuple(th.lam for th in rows)),
                            ("gamma", tuple(th.gamma for th in rows))):
            object.__setattr__(self, name, value)


def fit_regressors(points: Sequence[PolicyPoint],
                   intervals: Sequence[tuple[float, float]]) -> list[ThresholdRegressor]:
    """One threshold schedule per bandwidth interval, through its points.

    Interval membership is inclusive on both ends, so a point on a shared
    endpoint serves both intervals.  Points that share a bandwidth give
    that bandwidth their mean row (their least-squares value); an interval
    needs at least 2 distinct bandwidths.  Nothing is trained, and
    max_abs_error is the worst distance from a point to its row.
    """
    out: list[ThresholdRegressor] = []
    intervals = [tuple(as_real(v, "interval", "(0, inf)") for v in iv) for iv in intervals]
    for lo, hi in sorted(intervals):
        if not lo < hi:
            raise ValueError(f"bad interval ({lo}, {hi})")
        members = [p for p in points if lo <= p.bandwidth <= hi]
        bws, which = np.unique([p.bandwidth for p in members], return_inverse=True)
        if len(bws) < 2:
            raise ValueError(f"interval {lo:.6g}-{hi:.6g} bit/s has {len(bws)} training "
                             "bandwidths; need at least 2")
        targets = np.array([p.lam + p.gamma for p in members])
        rows = np.array([targets[which == k].mean(axis=0) for k in range(len(bws))])
        n_early = len(members[0].lam)
        out.append(ThresholdRegressor(
            interval=(lo, hi), train_bandwidths=tuple(bws.tolist()),
            lam=tuple(map(tuple, rows[:, :n_early].tolist())),
            gamma=tuple(map(tuple, rows[:, n_early:].tolist())),
            max_abs_error=float(np.max(np.abs(rows[which] - targets)))))
    return out


def adapt(regressors: Sequence[ThresholdRegressor], bandwidth: float) -> Thresholds:
    """Thresholds for a bandwidth, from the covering interval's schedule.

    A bandwidth on a shared endpoint routes to the lower interval.  At a
    training bandwidth the schedule gives that row exactly, between two it
    interpolates linearly in log10(bandwidth), and beyond the outermost it
    keeps the nearest row.  Each entry lies between two valid thresholds,
    so none needs a clamp.
    """
    bandwidth = as_real(bandwidth, "bandwidth", "(0, inf)")
    chosen = next((reg for reg in sorted(regressors, key=lambda r: r.interval)
                   if reg.interval[0] <= bandwidth <= reg.interval[1]), None)
    if chosen is None:
        raise ValueError(f"bandwidth {bandwidth:.6g} bit/s outside all regressor intervals")
    bws = chosen.train_bandwidths
    k = bisect.bisect_right(bws, bandwidth)  # bws[k - 1] <= bandwidth < bws[k]
    if k == 0 or k == len(bws) or bws[k - 1] == bandwidth:
        row = max(k - 1, 0)
        return Thresholds(chosen.lam[row], chosen.gamma[row])
    below = np.array(chosen.lam[k - 1] + chosen.gamma[k - 1])
    above = np.array(chosen.lam[k] + chosen.gamma[k])
    log = math.log10
    t = (log(bandwidth) - log(bws[k - 1])) / (log(bws[k]) - log(bws[k - 1]))
    # The clip changes nothing but a rounding step past the far neighbour.
    mixed = np.clip(below + t * (above - below), np.minimum(below, above),
                    np.maximum(below, above)).tolist()
    n_early = len(chosen.lam[k])
    return Thresholds(tuple(mixed[:n_early]), tuple(mixed[n_early:]))


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


def regressors_json(regressors: Sequence[ThresholdRegressor]) -> str:
    doc = {
        "kind": "threshold_regressors",
        "regressors": [
            {
                "interval": list(r.interval),
                "train_bandwidths": list(r.train_bandwidths),
                "lambda": [list(row) for row in r.lam],
                "gamma": [list(row) for row in r.gamma],
                "max_abs_error": r.max_abs_error,
            }
            for r in regressors
        ],
    }
    return json.dumps(doc) + "\n"


def save_regressors(regressors: Sequence[ThresholdRegressor],
                    path: str | os.PathLike) -> None:
    atomic_write_text(path, regressors_json(regressors))


def load_regressors(path: str | os.PathLike, doc: dict | None = None
                    ) -> list[ThresholdRegressor]:
    """The checkpoint at ``path`` (``doc``: as for ``load_checkpoint``); a
    malformed entry raises ValueError naming the path and the entry."""
    def entry(i: int, r: dict) -> ThresholdRegressor:
        try:
            return ThresholdRegressor(r["interval"], r["train_bandwidths"], r["lambda"],
                                      r["gamma"], r["max_abs_error"])
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise ValueError(f"regressors[{i}]: {exc}") from exc

    def build(doc: dict) -> list[ThresholdRegressor]:
        entries = doc["regressors"]
        if type(entries) is not list or not entries:
            raise ValueError(f"regressors must be a nonempty list, got {entries!r}")
        return [entry(i, r) for i, r in enumerate(entries)]
    return load_checkpoint(path, "threshold_regressors", build, doc)
