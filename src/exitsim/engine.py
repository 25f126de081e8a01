"""Exit-policy execution over stored traces with exact cost accounting.

Three policies share one cost model:

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

Every entry point (``run_plain``, ``run_with_predictor``, ``run_oracle``,
``policy_stats``) goes through one evaluator: one validation of lambda,
gamma and scores, then one exit walk.  A sample's exit does not depend on
the link, only its latency does, so ``PolicyTable`` walks each (lambda,
gamma) pair once and prices every bandwidth from that walk; threshold
searches are queries on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trace import ExitTopology, Thresholds, TraceSet, check_gamma, check_lambda


@dataclass(frozen=True)
class Environment:
    """Device compute speed (FLOPS), link bandwidth (bit/s), budget (s)."""

    compute_speed: float
    bandwidth: float
    latency_budget: float

    def __post_init__(self) -> None:
        for name in ("compute_speed", "bandwidth", "latency_budget"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive")


@dataclass(frozen=True)
class DecisionRecord:
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
    try:
        mat = np.asarray(scores)
    except ValueError:  # ragged nesting
        mat = None
    if mat is None or mat.dtype.kind not in "biuf":
        raise ValueError(f"scores must be a {shape} array of numbers, "
                         f"got {type(scores).__name__}")
    mat = mat.astype(np.float64, copy=False)
    if mat.shape != shape:
        raise ValueError(f"scores must have shape {shape}, got {mat.shape}")
    # Written so that NaN fails too: NaN >= gamma is false, a silent skip.
    if not np.all((mat >= 0.0) & (mat <= 1.0)):
        raise ValueError("predictor scores must lie in [0, 1]")
    return mat


def _checked(ts: TraceSet, lam, gamma, scores):
    """The one argument check: lambda, plus gamma and scores when gated.

    Returns the lambda array, the gamma array (None for an ungated walk)
    and the score matrix (None likewise).
    """
    if not len(ts):
        raise ValueError("empty trace set")
    n_early = ts.topology.num_early_exits
    lam = check_lambda(lam, n_early)
    if gamma is None:
        return lam, None, None
    gamma = check_gamma(gamma, n_early)
    if scores is None:
        raise ValueError("gamma given without predictor scores")
    return lam, gamma, _scores_matrix(ts, scores)


# -- the walk -----------------------------------------------------------------


def _walk(ts: TraceSet, lam: np.ndarray, computed: np.ndarray | None):
    """The exit walk every policy shares.

    ``computed`` masks which reached exits are evaluated; None evaluates
    every reached exit (the plain walk), a mask also charges the predictor.
    Returns the 0-based exit index (n_early means the server exit), the
    per-sample device MFLOPs accumulated left to right in walk order, the
    computed mask restricted to reached exits, and the transmit mask.
    """
    topo = ts.topology
    conf = ts.conf
    n_samples = conf.shape[0]
    n_early = topo.num_early_exits
    device = np.zeros(n_samples, dtype=np.float64)
    alive = np.ones(n_samples, dtype=bool)
    exit_idx = np.full(n_samples, n_early, dtype=np.int64)
    exits_done = np.zeros((n_samples, n_early), dtype=bool)
    for n in range(n_early):
        # Adding cost * mask adds 0.0 where the mask is off: same sums as
        # masked in-place adds, without the fancy indexing.
        device += topo.segment_flops[n] * alive
        comp = alive if computed is None else alive & computed[:, n]
        device += topo.exit_flops[n] * comp
        exits_done[:, n] = comp
        term = comp & (conf[:, n] >= lam[n])
        exit_idx[term] = n
        alive &= ~term
    if computed is not None:
        device = device + topo.predictor_flops
    return exit_idx, device, exits_done, alive


def _oracle_costs(topo: ExitTopology, exit_idx: np.ndarray) -> np.ndarray:
    seg_prefix = np.cumsum(topo.segment_flops)
    n_early = topo.num_early_exits
    per_exit = np.empty(n_early + 1, dtype=np.float64)
    for k in range(n_early):
        per_exit[k] = seg_prefix[k] + topo.exit_flops[k]
    per_exit[n_early] = seg_prefix[n_early - 1]
    return per_exit[exit_idx]


def latency_of(record: DecisionRecord, topology: ExitTopology, env: Environment) -> float:
    """End-to-end seconds for one record: device compute plus transmission."""
    lat = record.on_device_mflops * 1e6 / env.compute_speed
    if record.transmitted:
        lat += record.transmitted_bits / env.bandwidth
    return lat


def _latencies(device: np.ndarray, transmitted: np.ndarray, topo: ExitTopology,
               env: Environment | None) -> np.ndarray:
    if env is None:
        return np.zeros_like(device)
    lat = device * 1e6 / env.compute_speed
    return lat + np.where(transmitted, topo.transmitted_bits / env.bandwidth, 0.0)


def _correct(ts: TraceSet, exit_idx: np.ndarray) -> np.ndarray:
    return ts.pred[np.arange(len(ts)), exit_idx] == ts.label


def _exit_shares(ts: TraceSet, exit_idx: np.ndarray) -> np.ndarray:
    return np.bincount(exit_idx, minlength=ts.topology.num_exits) / len(ts)


def _aggregate(ts: TraceSet, exit_idx: np.ndarray, device: np.ndarray,
               transmitted: np.ndarray, latencies: np.ndarray,
               env: Environment | None) -> AggregateReport:
    total = device + np.where(transmitted, ts.topology.server_flops, 0.0)
    mean_latency = float(np.mean(latencies))
    return AggregateReport(
        accuracy=float(np.mean(_correct(ts, exit_idx))),
        mean_on_device_mflops=float(np.mean(device)),
        mean_total_mflops=float(np.mean(total)),
        mean_latency_s=mean_latency,
        exit_distribution=tuple(_exit_shares(ts, exit_idx).tolist()),
        budget_satisfied=(env is None) or (mean_latency <= env.latency_budget),
    )


def _records(ts: TraceSet, exit_idx: np.ndarray, device: np.ndarray,
             exits_done: np.ndarray, transmitted: np.ndarray,
             latencies: np.ndarray) -> list[DecisionRecord]:
    bits = ts.topology.transmitted_bits
    columns = zip(ts.ids.tolist(), exit_idx.tolist(), map(tuple, exits_done.tolist()),
                  device.tolist(), transmitted.tolist(), _correct(ts, exit_idx).tolist(),
                  latencies.tolist())
    return [DecisionRecord(sample_id, exit_taken + 1, computed, mflops, tx, bits if tx else 0,
                           correct, latency)
            for sample_id, exit_taken, computed, mflops, tx, correct, latency in columns]


def _evaluate(ts: TraceSet, lam, gamma=None, scores=None, env: Environment | None = None,
              oracle: bool = False, records: bool = False
              ) -> tuple[list[DecisionRecord] | None, AggregateReport]:
    """The evaluator behind every entry point: check, walk once, aggregate.

    ``gamma`` None walks ungated (plain, or oracle routing when ``oracle``);
    otherwise exits are gated by ``scores >= gamma``.  Per-sample records
    are built only when ``records`` is set.
    """
    lam, gamma, scores = _checked(ts, lam, gamma, scores)
    exit_idx, device, exits_done, transmitted = _walk(
        ts, lam, None if gamma is None else scores >= gamma)
    if oracle:
        device = _oracle_costs(ts.topology, exit_idx)
        exits_done = np.zeros_like(exits_done)
        early = exit_idx < ts.topology.num_early_exits
        exits_done[np.nonzero(early)[0], exit_idx[early]] = True
    latencies = _latencies(device, transmitted, ts.topology, env)
    report = _aggregate(ts, exit_idx, device, transmitted, latencies, env)
    if not records:
        return None, report
    return _records(ts, exit_idx, device, exits_done, transmitted, latencies), report


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
                 scores=None, env: Environment | None = None) -> AggregateReport:
    """Aggregate report without materializing per-sample records.

    With ``gamma`` None it reproduces run_plain, otherwise run_with_predictor.
    """
    return _evaluate(ts, lam, gamma, scores, env)[1]


# -- the policy table ---------------------------------------------------------


def grid_combos(values: Sequence[float], n_early: int) -> list[tuple[float, ...]]:
    """A per-exit value grid as vectors: its sorted values' Cartesian power."""
    return list(itertools.product(sorted(float(v) for v in values), repeat=n_early))


class PolicyTable:
    """Aggregates of every (lambda, gamma) combination, each walked once.

    Combinations run lambda-major in the order given.  ``gammas`` None
    tabulates the plain policy (one ungated walk per lambda).  With a
    ``compute_speed`` and ``bandwidths``, each combination's mean latency
    is taken at every bandwidth as one (bandwidths x samples) reduction
    over that walk's device time and transmit mask -- the float operations
    of ``policy_stats`` at each bandwidth, row by row.  Only aggregates are
    kept, never per-sample arrays.
    """

    def __init__(self, ts: TraceSet, lams: Sequence[Sequence[float]],
                 gammas: Sequence[Sequence[float]] | None = None, scores=None,
                 compute_speed: float | None = None, bandwidths: Sequence[float] = ()):
        if not lams or (gammas is not None and not gammas):
            raise ValueError("threshold grids must be nonempty")
        n_early = ts.topology.num_early_exits
        # The empty-set, gamma and score checks run once, every lambda once.
        _, _, mat = _checked(ts, lams[0], None if gammas is None else gammas[0], scores)
        lam_arrays = [check_lambda(lam, n_early) for lam in lams]
        gamma_arrays = [None] if gammas is None else [check_gamma(g, n_early) for g in gammas]
        self.lams = [tuple(float(v) for v in lam) for lam in lams]
        self.gammas = None if gammas is None else [tuple(float(v) for v in g) for g in gammas]
        self.bandwidths = tuple(float(b) for b in bandwidths)
        if any(not 0 < b < math.inf for b in self.bandwidths):
            raise ValueError("bandwidths must be finite and strictly positive")
        if self.bandwidths and (compute_speed is None or not 0 < compute_speed < math.inf):
            raise ValueError("pricing bandwidths needs a finite positive compute_speed")

        n_combos = len(lam_arrays) * len(gamma_arrays)
        self.accuracy = np.empty(n_combos)
        self.on_device_mflops = np.empty(n_combos)
        self.exit_distribution = np.empty((n_combos, ts.topology.num_exits))
        self.mean_latency_s = np.empty((n_combos, len(self.bandwidths)))
        tx = (ts.topology.transmitted_bits / np.asarray(self.bandwidths))[:, None]
        lat = np.empty((len(self.bandwidths), len(ts)))  # reused per walk
        i = 0
        for lam in lam_arrays:
            for gamma in gamma_arrays:
                exit_idx, device, _, transmitted = _walk(
                    ts, lam, None if gamma is None else mat >= gamma)
                self.accuracy[i] = np.mean(_correct(ts, exit_idx))
                self.on_device_mflops[i] = np.mean(device)
                self.exit_distribution[i] = _exit_shares(ts, exit_idx)
                if self.bandwidths:
                    # tx * transmitted is tx or 0.0, as _latencies' np.where.
                    np.multiply(tx, transmitted, out=lat)
                    np.add(lat, device * 1e6 / compute_speed, out=lat)
                    self.mean_latency_s[i] = lat.mean(axis=1)
                i += 1

    def combo(self, i: int) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
        """(lambda, gamma) of combination ``i``; gamma None for the plain policy."""
        if self.gammas is None:
            return self.lams[i], None
        j, k = divmod(i, len(self.gammas))
        return self.lams[j], self.gammas[k]

    def optimum(self, b: int, budget: float) -> tuple[int, bool]:
        """Best combination at bandwidth index ``b`` under a mean-latency budget.

        The highest accuracy within budget, then the lowest latency, then
        the first in combination order, flagged feasible.  When nothing
        fits, the first minimum-latency combination, flagged infeasible.
        """
        lat = self.mean_latency_s[:, b]
        feasible = lat <= budget
        if not feasible.any():
            return int(np.argmin(lat)), False
        acc = np.where(feasible, self.accuracy, -np.inf)
        return int(np.argmin(np.where(acc == acc.max(), lat, np.inf))), True

    def cheapest(self, allowed: np.ndarray) -> int:
        """First combination of least on-device MFLOPs among ``allowed``."""
        if not allowed.any():
            raise ValueError("no combination is allowed")
        return int(np.argmin(np.where(allowed, self.on_device_mflops, np.inf)))
