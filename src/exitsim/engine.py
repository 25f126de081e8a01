"""Exit-policy execution over stored traces with exact cost accounting.

Three policies are three modes of one exit walk, which only places each
sample at its exit:

* plain      -- walk the exits in order; every reached exit is computed;
                terminate at the first exit whose confidence clears its
                threshold, otherwise transmit and finish at the server exit.
* predictor  -- same walk, but a reached exit is computed only when its skip
                score clears the prediction threshold; termination still
                requires the confidence test.  The predictor itself is
                charged to every sample.
* oracle     -- idealized routing: the terminating exit matches the plain
                walk, but only that one classifier is computed.

Comparisons are weak inequalities throughout: terminate when c >= lambda,
compute when s >= gamma.  Server-side FLOPs count toward total cost but
never toward latency (the server is assumed fast); transmission charges
ceil(raw_feature_bits / compression_ratio) bits against the link.

Every figure -- accuracy, device and total MFLOPs, exit shares and the
latency at each bandwidth -- is linear in five integer counts of a walk:
samples reaching each early exit, charged its classifier, terminating
there, transmitted, and classified correctly.  ``_aggregate`` is the one
formula from counts to figures, for a per-sample record (its 0/1 counts),
a report (their sums) and a table row alike, so a record equals its
one-sample report.  ``run_plain``, ``run_with_predictor``, ``run_oracle``
and ``policy_stats`` check their arguments once, walk once and price the
counts.  ``PolicyTable`` never walks: given a value list per early exit,
it takes the counts of every (lambda, gamma) combination of their
products as exact integer differences of slices of one suffix-summed
histogram of the samples' grid cells, so threshold searches are queries
on it and each row equals its ``policy_stats`` report bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .trace import (ExitTopology, Thresholds, TraceSet, as_real, as_reals, check_gamma,
                    check_lambda)


@dataclass(frozen=True)
class Environment:
    """Device compute speed (FLOPS), link bandwidth (bit/s), budget (s)."""

    compute_speed: float
    bandwidth: float
    latency_budget: float

    def __post_init__(self) -> None:
        for name in ("compute_speed", "bandwidth", "latency_budget"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, "(0, inf)"))


class DecisionRecord(NamedTuple):
    """Outcome of running one sample under one policy."""

    sample_id: int
    exit_taken: int                      # 1-based; N means the server exit
    exits_computed: tuple[bool, ...]     # per early exit
    on_device_mflops: float
    transmitted: bool
    transmitted_bits: int
    correct: bool
    latency_s: float


@dataclass(frozen=True)
class AggregateReport:
    accuracy: float
    mean_on_device_mflops: float
    mean_total_mflops: float
    mean_latency_s: float
    exit_distribution: tuple[float, ...]
    budget_satisfied: bool

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "mean_on_device_mflops": self.mean_on_device_mflops,
            "mean_total_mflops": self.mean_total_mflops,
            "mean_latency_s": self.mean_latency_s,
            "exit_distribution": list(self.exit_distribution),
            "budget_satisfied": self.budget_satisfied,
        }


# -- validation ---------------------------------------------------------------


def _scores_matrix(ts: TraceSet, scores) -> np.ndarray:
    shape = (len(ts), ts.topology.num_early_exits)
    # NaN fails too: NaN >= gamma is false, a silent skip.
    mat = as_reals(scores, "scores", "[0, 1]", rows=True)
    if mat.shape != shape:
        raise ValueError(f"scores must have shape {shape}, got {mat.shape}")
    return mat


def _checked(ts: TraceSet, gated: bool, scores) -> np.ndarray | None:
    """The check every entry point makes after its threshold check: a
    nonempty set and, when ``gated``, the score matrix (None otherwise)."""
    if not len(ts):
        raise ValueError("empty trace set")
    if not gated:
        return None
    if scores is None:
        raise ValueError("gamma given without predictor scores")
    return _scores_matrix(ts, scores)


# -- the walk and its aggregates ----------------------------------------------


def _walk(ts: TraceSet, lam: np.ndarray, gate: np.ndarray | None) -> np.ndarray:
    """The exit walk every policy shares; it places samples and prices none.

    ``gate`` masks which reached exits are computed and so may terminate;
    None lets every reached exit terminate (the plain and oracle walks).
    Returns each sample's 0-based exit index; n_early means the server exit.
    """
    n_early = ts.topology.num_early_exits
    alive = np.ones(len(ts), dtype=bool)
    exit_idx = np.full(len(ts), n_early, dtype=np.int64)
    for n in range(n_early):
        term = alive & (ts.conf[:, n] >= lam[n])
        if gate is not None:
            term &= gate[:, n]
        exit_idx[term] = n
        alive &= ~term
    return exit_idx


class _Counts(NamedTuple):
    """Integer counts of walks.  Leading axes index the walks; the last axis
    of ``reach``, ``charged`` and ``term`` indexes the early exits."""

    reach: np.ndarray     # samples reaching early exit n
    charged: np.ndarray   # samples charged exit n's classifier
    term: np.ndarray      # samples terminating at early exit n
    tx: np.ndarray        # samples transmitted to the server exit
    correct: np.ndarray   # samples classified correctly


def _aggregate(topo: ExitTopology, n_samples: int, counts: _Counts, gated: bool,
               compute_speed: float | None, bandwidths: Sequence[float]):
    """The one count formula, from counts to aggregates.

    Returns accuracy, mean device MFLOPs, mean total MFLOPs, exit shares
    (server last) and the (walks x bandwidths) mean latencies:

    * device  = (sum_n segment_n * reach_n + sum_n exit_n * charged_n) / S,
                plus the predictor when ``gated``;
    * total   = device + (tx / S) * server;
    * latency = device * 1e6 / compute_speed + (tx / S) * bits / bandwidth.

    Equal counts give bit-equal floats, however the counts were taken.
    """
    device = 0.0
    for n, cost in enumerate(topo.segment_flops):
        device = device + cost * counts.reach[..., n]
    for n, cost in enumerate(topo.exit_flops):
        device = device + cost * counts.charged[..., n]
    device = device / n_samples
    if gated:
        device = device + topo.predictor_flops
    tx_share = counts.tx / n_samples
    shares = np.concatenate([counts.term, counts.tx[..., None]], axis=-1) / n_samples
    # Compute time is added in place: no second (walks x bandwidths) array.
    latency = tx_share[..., None] * topo.transmitted_bits / np.asarray(bandwidths, dtype=float)
    if len(bandwidths):
        latency += (device * 1e6 / compute_speed)[..., None]
    return (counts.correct / n_samples, device, device + tx_share * topo.server_flops,
            shares, latency)


def _evaluate(ts: TraceSet, lam, gamma=None, scores=None, env: Environment | None = None,
              oracle: bool = False, records: bool = False
              ) -> tuple[list[DecisionRecord] | None, AggregateReport]:
    """The evaluator behind every entry point: check, walk once, count, aggregate.

    ``gamma`` None walks ungated (plain, or oracle routing when ``oracle``);
    otherwise exits are gated by ``scores >= gamma``.  ``_aggregate``
    prices each sample's 0/1 counts with S = 1 for its record, built only
    when ``records`` is set, and their column sums for the report.
    """
    topo = ts.topology
    n_early = topo.num_early_exits
    lam = check_lambda(lam, n_early)
    gamma = None if gamma is None else check_gamma(gamma, n_early)
    scores = _checked(ts, gamma is not None, scores)
    gate = None if gamma is None else scores >= gamma
    exit_idx = _walk(ts, lam, gate)
    # A sample reaches exit n when it ends at n or later, and is charged its
    # classifier when its gate passes there or, for the oracle, it ends there.
    # Built exit-major (transposed below), each exit's column is contiguous.
    exits = np.arange(n_early)[:, None]
    reach, term = exits <= exit_idx, exits == exit_idx
    charged = term if oracle else reach if gate is None else reach & gate.T
    counts = _Counts(reach.T, charged.T, term.T, exit_idx == n_early,
                     ts.pred[np.arange(len(ts)), exit_idx] == ts.label)
    speed, bandwidths = (None, ()) if env is None else (env.compute_speed, (env.bandwidth,))
    price = lambda n, c: _aggregate(topo, n, c, gate is not None, speed, bandwidths)
    accuracy, mean_device, mean_total, shares, latency = price(
        len(ts), _Counts(*(np.count_nonzero(c, axis=0, keepdims=True) for c in counts)))
    mean_latency = 0.0 if env is None else float(latency[0, 0])
    report = AggregateReport(
        accuracy=float(accuracy[0]),
        mean_on_device_mflops=float(mean_device[0]),
        mean_total_mflops=float(mean_total[0]),
        mean_latency_s=mean_latency,
        exit_distribution=tuple(shares[0].tolist()),
        budget_satisfied=(env is None) or (mean_latency <= env.latency_budget),
    )
    if not records:
        return None, report
    _, device, _, _, latency = price(1, counts)
    latencies = [0.0] * len(ts) if env is None else latency[:, 0].tolist()
    return list(map(DecisionRecord._make, zip(
        ts.ids.tolist(), (exit_idx + 1).tolist(), map(tuple, counts.charged.tolist()),
        device.tolist(), counts.tx.tolist(), (counts.tx * topo.transmitted_bits).tolist(),
        counts.correct.tolist(), latencies))), report


def run_plain(ts: TraceSet, lam: Sequence[float],
              env: Environment | None = None) -> tuple[list[DecisionRecord], AggregateReport]:
    """Confidence-gated early exiting; every reached exit is computed."""
    return _evaluate(ts, lam, env=env, records=True)


def run_with_predictor(ts: TraceSet, thresholds: Thresholds, scores,
                       env: Environment | None = None) -> tuple[list[DecisionRecord], AggregateReport]:
    """Skip-score gated walk; the predictor cost is charged to every sample.

    ``scores`` is a (samples, early_exits) array aligned with the set order.
    """
    return _evaluate(ts, thresholds.lam, thresholds.gamma, scores, env, records=True)


def run_oracle(ts: TraceSet, lam: Sequence[float],
               env: Environment | None = None) -> tuple[list[DecisionRecord], AggregateReport]:
    """Idealized routing: compute only each sample's terminating exit."""
    return _evaluate(ts, lam, env=env, oracle=True, records=True)


def policy_stats(ts: TraceSet, lam: Sequence[float], gamma: Sequence[float] | None = None,
                 scores=None, env: Environment | None = None,
                 oracle: bool = False) -> AggregateReport:
    """Aggregate report without materializing per-sample records.

    With ``gamma`` None it reproduces run_plain, or run_oracle when
    ``oracle``; otherwise run_with_predictor.
    """
    if oracle and gamma is not None:
        raise ValueError("oracle routing takes no gamma")
    return _evaluate(ts, lam, gamma, scores, env, oracle)[1]


# -- the policy table ---------------------------------------------------------


def _suffix_histogram(ts: TraceSet, lam_grid: list[np.ndarray],
                      gamma_grid: list[np.ndarray] | None, scores: np.ndarray | None) -> np.ndarray:
    """C[group, u_0, v_0, u_1, v_1, ...]: the samples of each group with
    j_n >= u_n and k_n >= v_n at every early exit n.

    A sample's cell (j_n, k_n) at exit n counts the lambda values at most
    its confidence and the gamma values at most its score, so it clears
    value a exactly when a < j_n and its gate passes value b exactly when
    b < k_n.  The ungated table has one gate per exit, always open: k_n = 0
    on an axis of one cell.  The groups are every sample, those right at
    the server, then those right at each early exit, the last first.  One
    int64 histogram per group over the joint cells, summed from the end of
    every axis.
    """
    gated = gamma_grid is not None
    cell, shape = 0, []
    for n, lams in enumerate(lam_grid):
        shape += [len(lams) + 1, len(gamma_grid[n]) + 1 if gated else 1]
        gate = np.searchsorted(gamma_grid[n], scores[:, n], "right") if gated else 0
        cell = (cell * shape[-2] + np.searchsorted(lams, ts.conf[:, n], "right")) * shape[-1] + gate
    right = (ts.pred == ts.label[:, None]).T[::-1]
    hist = np.stack([np.bincount(group, minlength=math.prod(shape))
                     for group in (cell, *(cell[r] for r in right))]).reshape(-1, *shape)
    for axis in range(1, hist.ndim):  # in-place adds; np.cumsum is slower across rows
        rows = hist.reshape(math.prod(hist.shape[:axis]), hist.shape[axis], -1)
        for u in range(hist.shape[axis] - 1, 0, -1):
            rows[:, u - 1] += rows[:, u]
    return hist


def _table_counts(ts: TraceSet, lam_grid: list[np.ndarray], gamma_grid: list[np.ndarray] | None,
                  scores: np.ndarray | None) -> _Counts:
    """Counts of every (lambda, gamma) combination, lambda-major; no walk.

    At exit n, a pair (a, b) terminates the samples in the slice (a + 1,
    b + 1) of ``_suffix_histogram`` (b + 1 is cell 0 when ungated), its gate
    passes those in (0, b + 1), and it passes on the rest, (0, 0) minus the
    first.  Passing on at every exit before n, then slicing at n with later
    exits at (0, 0), counts the samples reaching n, charged there and
    terminating there (of those right at n, correct there); passing on at
    every exit counts tx (of those right at the server, correct there).
    Every count is an exact integer difference.
    """
    n_early = ts.topology.num_early_exits
    gated = gamma_grid is not None
    hist = _suffix_histogram(ts, lam_grid, gamma_grid, scores)
    # A slice keeps every axis, of one cell where its count does not depend
    # on the value, so assigning it lambda-major broadcasts it to every
    # combination.
    sizes = [len(v) for v in lam_grid] + ([len(v) for v in gamma_grid] if gated else [1] * n_early)
    order = [*range(0, 2 * n_early, 2), *range(1, 2 * n_early, 2)]
    reach, charged, term = (np.empty((*sizes, n_early), dtype=np.int64) for _ in range(3))
    correct = np.zeros(sizes, dtype=np.int64)
    one, on, gates = slice(0, 1), slice(1, None), slice(int(gated), None)
    for n in range(n_early):
        head, tail = (slice(None),) * (2 * n + 1), (one,) * (2 * (n_early - 1 - n))
        at = lambda u, v, group=0: hist[head + (u, v) + tail][group].transpose(order)
        reach[..., n], charged[..., n], term[..., n] = at(one, one), at(one, gates), at(on, gates)
        correct += at(on, gates, -1)  # the last group: right at exit n
        # Those each pair passes on at exit n; exit n's right group is done.
        hist = hist[:-1][head + (one, one)] - hist[:-1][head + (on, gates)]
    correct += hist[1].transpose(order)
    return _Counts(reach.reshape(-1, n_early), charged.reshape(-1, n_early),
                   term.reshape(-1, n_early), hist[0].transpose(order).ravel(), correct.ravel())


class PolicyTable:
    """Aggregates of every (lambda, gamma) combination, from integer counts.

    ``lam_grid`` (and ``gamma_grid``, when gated) holds one nonempty value
    list per early exit; the combinations are every choice of one value per
    exit, lambda-major, each exit's values ascending (repeats kept), as
    ``combo`` returns them.  ``gamma_grid`` None tabulates the plain
    policy.  With a ``compute_speed`` and ``bandwidths``, each combination's
    mean latency is priced at every bandwidth.  No sample is walked: slices
    of one grid-cell histogram count each combination's walk, and the count
    formula ``policy_stats`` applies to its one walk turns the counts into
    aggregates, so each row equals its report bit for bit.  Only aggregates
    are kept, never per-sample arrays.
    """

    def __init__(self, ts: TraceSet, lam_grid: Sequence[Sequence[float]],
                 gamma_grid: Sequence[Sequence[float]] | None = None, scores=None,
                 compute_speed: float | None = None, bandwidths: Sequence[float] = ()):
        n_early = ts.topology.num_early_exits
        if len(lam_grid) != n_early or gamma_grid is not None and len(gamma_grid) != n_early:
            raise ValueError(f"lam_grid and gamma_grid need {n_early} value lists each, "
                             "one per early exit")
        # Each exit's values are checked as a vector of any length.
        lam_grid = [np.sort(check_lambda(values)) for values in lam_grid]
        if gamma_grid is not None:
            gamma_grid = [np.sort(check_gamma(values)) for values in gamma_grid]
        scores = _checked(ts, gamma_grid is not None, scores)
        product = lambda grid: list(itertools.product(*(values.tolist() for values in grid)))
        self.lams = product(lam_grid)
        self.gammas = None if gamma_grid is None else product(gamma_grid)
        self.bandwidths = tuple(as_reals(bandwidths, "bandwidths", "(0, inf)").tolist())
        if self.bandwidths:
            compute_speed = as_real(compute_speed, "compute_speed", "(0, inf)")
        (self.accuracy, self.on_device_mflops, _, self.exit_distribution,
         self.mean_latency_s) = _aggregate(
            ts.topology, len(ts), _table_counts(ts, lam_grid, gamma_grid, scores),
            gamma_grid is not None, compute_speed, self.bandwidths)

    def combo(self, i: int) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
        """(lambda, gamma) of combination ``i``; gamma None for the plain policy."""
        if self.gammas is None:
            return self.lams[i], None
        j, k = divmod(i, len(self.gammas))
        return self.lams[j], self.gammas[k]

    def optimum(self, b: int, budget: float) -> int:
        """Best combination at bandwidth index ``b`` under a mean-latency budget.

        The highest accuracy within budget, then the lowest latency, then
        the first in combination order.  When nothing fits, every
        combination ties at accuracy -inf, so this is the first
        minimum-latency combination.
        """
        lat = self.mean_latency_s[:, b]
        acc = np.where(lat <= budget, self.accuracy, -np.inf)
        return int(np.argmin(np.where(acc == acc.max(), lat, np.inf)))

    def cheapest(self, allowed: np.ndarray) -> int:
        """First combination of least on-device MFLOPs among ``allowed``."""
        if not allowed.any():
            raise ValueError("no combination is allowed")
        return int(np.argmin(np.where(allowed, self.on_device_mflops, np.inf)))
