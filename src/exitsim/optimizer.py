"""Latency-constrained threshold optimization and bandwidth adaptation.

``grid_search`` exhaustively enumerates threshold combinations and returns
the feasible point with the highest accuracy (ties: lower mean latency,
then lexicographically smallest thresholds), or, when none is feasible,
the first minimum-latency point flagged infeasible.  ``sweep_bandwidths``
answers the same question across link rates.  Both are queries on one
``engine.PolicyTable`` given each grid as the value list of every early
exit: each (lambda, gamma) combination's integer counts are taken once,
without walking a sample, and every bandwidth is priced from them by the
engine's one latency formula, since only latency depends on the link.
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
from .trace import Thresholds, TraceSet, as_real, as_reals, atomic_write_text, load_checkpoint


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


def _table(ts: TraceSet, scores, lambda_grid: Sequence[float],
           gamma_grid: Sequence[float]) -> engine.PolicyTable:
    n_early = ts.topology.num_early_exits
    return engine.PolicyTable(ts, [lambda_grid] * n_early, [gamma_grid] * n_early, scores)


def _point(combo: tuple, accuracy: float, mean_latency: float, bandwidth: float,
           budget: float) -> PolicyPoint:
    lam, gamma = combo
    return PolicyPoint(bandwidth=bandwidth, lam=lam, gamma=gamma, accuracy=accuracy,
                       mean_latency_s=mean_latency, feasible=mean_latency <= budget)


def grid_search(ts: TraceSet, scores, env: engine.Environment,
                lambda_grid: Sequence[float], gamma_grid: Sequence[float]
                ) -> tuple[PolicyPoint, list[PolicyPoint]]:
    """Accuracy-maximizing thresholds under the mean-latency budget.

    Both grids are value lists applied to every early exit, so the search
    space is their Cartesian powers.  Returns the best point and the full
    list of evaluated points.  When nothing fits the budget, the best point
    is the first minimum-latency one, flagged infeasible, as in
    ``sweep_bandwidths``.
    """
    table = _table(ts, scores, lambda_grid, gamma_grid)
    latency = table.latency_s(env.compute_speed, env.bandwidth)
    frontier = [_point(combo, accuracy, mean_latency, env.bandwidth, env.latency_budget)
                for combo, accuracy, mean_latency in zip(
                    table.combos(), table.accuracy.tolist(), latency.tolist())]
    return frontier[table.optimum(latency, env.latency_budget)], frontier


def sweep_bandwidths(ts: TraceSet, scores, env: engine.Environment,
                     bandwidths: Sequence[float],
                     lambda_grid: Sequence[float],
                     gamma_grid: Sequence[float]) -> list[PolicyPoint]:
    """grid_search per bandwidth, budget fixed; results in ascending order.

    All bandwidths are one query on one table, so each (lambda, gamma)
    combination is counted once however many bandwidths there are: one
    call prices every bandwidth's latencies from those counts, and one
    ``optimum`` call picks each bandwidth's point.  A bandwidth with no
    feasible point contributes its minimum-latency point flagged
    infeasible, as ``grid_search`` returns it.
    """
    bandwidths = np.sort(as_reals(bandwidths, "bandwidths", "(0, inf)"))
    if not len(bandwidths):
        raise ValueError("bandwidth list must be nonempty")
    table = _table(ts, scores, lambda_grid, gamma_grid)
    latency = table.latency_s(env.compute_speed, bandwidths[:, None])
    best = table.optimum(latency, env.latency_budget).tolist()
    return [_point(table.combo(i), float(table.accuracy[i]), float(row[i]), bandwidth,
                   env.latency_budget)
            for bandwidth, row, i in zip(bandwidths.tolist(), latency, best)]


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
        iv = check_interval(self.interval, "interval")
        bws = tuple(as_reals(self.train_bandwidths, "train_bandwidths").tolist())
        if len(bws) < 2 or not all(iv[0] <= b <= iv[1] for b in bws):
            raise ValueError(f"train_bandwidths must be at least 2 values in the interval "
                             f"{list(iv)}, got {list(bws)}")
        logs = [math.log10(b) for b in bws]
        if any(a >= b for a, b in zip(logs, logs[1:])):
            raise ValueError(f"train_bandwidths must ascend strictly in log10, got {list(bws)}")
        lam = as_reals(self.lam, "lambda", "(0, 1)", rows=True)
        gamma = as_reals(self.gamma, "gamma", "[0, 1]", rows=True)
        if not len(lam) == len(gamma) == len(bws):
            raise ValueError(f"{len(bws)} train_bandwidths need as many lambda and gamma "
                             f"rows, got {len(lam)} and {len(gamma)}")
        if gamma.shape != lam.shape or not lam.shape[1]:
            raise ValueError(f"lambda and gamma rows must share one length >= 1, got shapes "
                             f"{lam.shape} and {gamma.shape}")
        error = as_real(self.max_abs_error, "max_abs_error", "[0, inf)")
        for name, value in (("interval", iv), ("train_bandwidths", bws), ("max_abs_error", error),
                            ("lam", tuple(map(tuple, lam.tolist()))),
                            ("gamma", tuple(map(tuple, gamma.tolist())))):
            object.__setattr__(self, name, value)


def check_interval(values, field: str) -> tuple[float, float]:
    """The one interval rule: ``values`` as (lo, hi) with 0 < lo < hi, else ValueError."""
    iv = as_reals(values, field, "(0, inf)").tolist()
    if not (len(iv) == 2 and iv[0] < iv[1]):
        raise ValueError(f"{field} must be [lo, hi] with lo < hi, got {iv}")
    return tuple(iv)


def check_intervals(intervals, field: str = "intervals") -> list[tuple[float, float]]:
    """``intervals`` as ``check_interval`` pairs, at least one, row i named ``{field}[i]``."""
    rows = as_reals(intervals, field, "(0, inf)", rows=True).tolist()
    if not rows:
        raise ValueError(f"{field} must be a nonempty list, got {rows}")
    return [check_interval(iv, f"{field}[{i}]") for i, iv in enumerate(rows)]


def fit_regressors(points: Sequence[PolicyPoint],
                   intervals: Sequence[tuple[float, float]]) -> list[ThresholdRegressor]:
    """One threshold schedule per bandwidth interval, through its points.

    Interval membership is inclusive on both ends, so a point on a shared
    endpoint serves both intervals.  Points that share a bandwidth give
    that bandwidth their mean row (their least-squares value); an interval
    needs at least 2 distinct bandwidths, and its points must all hold as
    many lambda thresholds as its first point and as many gamma ones.
    Nothing is trained, and max_abs_error is the worst distance from a
    point to its row.
    """
    out: list[ThresholdRegressor] = []
    for lo, hi in sorted(check_intervals(intervals)):
        members = [p for p in points if lo <= p.bandwidth <= hi]
        bws, which = np.unique([p.bandwidth for p in members], return_inverse=True)
        if len(bws) < 2:
            raise ValueError(f"interval {lo:.6g}-{hi:.6g} bit/s has {len(bws)} training "
                             "bandwidths; need at least 2")
        lengths = (len(members[0].lam), len(members[0].gamma))
        if odd := next((p for p in members if (len(p.lam), len(p.gamma)) != lengths), None):
            raise ValueError(f"interval {lo:.6g}-{hi:.6g} bit/s: the point at {odd.bandwidth:.6g} "
                             f"bit/s has {len(odd.lam)} lambda and {len(odd.gamma)} gamma "
                             f"thresholds, its first point {lengths[0]} and {lengths[1]}")
        targets = np.array([p.lam + p.gamma for p in members])
        rows = np.array([targets[which == k].mean(axis=0) for k in range(len(bws))])
        n_early = lengths[0]
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
    lam = trace.real("(0, 1)")
    return ([("bandwidth_bps", trace.RATE)] + [(f"lambda_{i + 1}", lam) for i in range(n_early)]
            + [(f"gamma_{i + 1}", trace.SHARE) for i in range(n_early)]
            + [("accuracy", trace.SHARE), ("mean_latency_s", trace.COST), ("feasible", trace.FLAG)])


def policy_points_csv(points: Sequence[PolicyPoint]) -> str:
    """The policy table of ``points``, read back as ``load_policy_points`` reads
    it: a point it would reject raises ValueError naming its line and column."""
    if not points:
        raise ValueError("no policy points to serialize")
    columns = _point_columns(len(points[0].lam))
    text = trace.table_text(columns, (
        [p.bandwidth, *p.lam, *p.gamma, p.accuracy, p.mean_latency_s, p.feasible]
        for p in points))
    trace.read_table("policy points", text, columns)
    return text


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
    """The checkpoint ``load_regressors`` reads: at least one regressor."""
    if not regressors:
        raise ValueError(f"regressors must be a nonempty list, got {list(regressors)!r}")
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
