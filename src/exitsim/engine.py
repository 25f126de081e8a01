"""Exit-policy execution over stored traces with exact cost accounting.

Three policies are three modes of one exit walk, which is the only place
a FLOP is charged:

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
``policy_stats``) and every ``PolicyTable`` row takes the same three
steps: one validation of lambda, gamma and scores, one walk, then one
aggregation (accuracy, mean device MFLOPs, exit shares) and one pricing of
the walk's (bandwidths x samples) latencies.  A sample's exit does not
depend on the link, only its latency does, so ``PolicyTable`` walks each
(lambda, gamma) pair once and prices every bandwidth from that walk;
threshold searches are queries on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


def _checked(ts: TraceSet, lams, gammas, scores):
    """The one argument check: each lambda, plus each gamma and the scores
    when gated.

    Returns the lambda arrays, the gamma arrays ([None] for an ungated walk)
    and the score matrix (None likewise).
    """
    if not len(ts):
        raise ValueError("empty trace set")
    n_early = ts.topology.num_early_exits
    lams = [check_lambda(lam, n_early) for lam in lams]
    if gammas is None:
        return lams, [None], None
    gammas = [check_gamma(gamma, n_early) for gamma in gammas]
    if scores is None:
        raise ValueError("gamma given without predictor scores")
    return lams, gammas, _scores_matrix(ts, scores)


# -- the walk and its aggregates ----------------------------------------------


def _walk(ts: TraceSet, lam: np.ndarray, gate: np.ndarray | None, oracle: bool):
    """The exit walk every policy shares, and the only place a FLOP is charged.

    ``gate`` masks which reached exits are computed; None computes every
    reached exit (the plain walk), a mask also charges the predictor.
    ``oracle`` terminates as the plain walk but charges only the terminating
    exit's classifier.  Returns the 0-based exit index (n_early means the
    server exit), the per-sample device MFLOPs accumulated left to right in
    walk order, and the transmit mask.
    """
    topo = ts.topology
    conf = ts.conf
    n_samples = conf.shape[0]
    n_early = topo.num_early_exits
    device = np.zeros(n_samples, dtype=np.float64)
    alive = np.ones(n_samples, dtype=bool)
    exit_idx = np.full(n_samples, n_early, dtype=np.int64)
    for n in range(n_early):
        # Adding cost * mask adds 0.0 where the mask is off: same sums as
        # masked in-place adds, without the fancy indexing.
        device += topo.segment_flops[n] * alive
        comp = alive if gate is None else alive & gate[:, n]
        term = comp & (conf[:, n] >= lam[n])
        device += topo.exit_flops[n] * (term if oracle else comp)
        exit_idx[term] = n
        alive &= ~term
    if gate is not None:
        device = device + topo.predictor_flops
    return exit_idx, device, alive


def _correct(ts: TraceSet, exit_idx: np.ndarray) -> np.ndarray:
    return ts.pred[np.arange(len(ts)), exit_idx] == ts.label


def _walk_stats(ts: TraceSet, exit_idx: np.ndarray, device: np.ndarray):
    """A walk's accuracy, mean device MFLOPs and exit shares."""
    return (float(np.mean(_correct(ts, exit_idx))), float(np.mean(device)),
            np.bincount(exit_idx, minlength=ts.topology.num_exits) / len(ts))


def _walk_latencies(ts: TraceSet, device: np.ndarray, transmitted: np.ndarray,
                    compute_speed: float, bandwidths: Sequence[float]) -> np.ndarray:
    """(bandwidths x samples) seconds: device compute plus transmission."""
    tx = (ts.topology.transmitted_bits / np.asarray(bandwidths))[:, None]
    lat = tx * transmitted  # tx where transmitted, else 0.0
    lat += device * 1e6 / compute_speed
    return lat


def latency_of(record: DecisionRecord, topology: ExitTopology, env: Environment) -> float:
    """End-to-end seconds for one record: device compute plus transmission."""
    lat = record.on_device_mflops * 1e6 / env.compute_speed
    if record.transmitted:
        lat += record.transmitted_bits / env.bandwidth
    return lat


def _records(ts: TraceSet, exit_idx: np.ndarray, device: np.ndarray,
             computed: np.ndarray, transmitted: np.ndarray,
             latencies: np.ndarray) -> list[DecisionRecord]:
    bits = transmitted * ts.topology.transmitted_bits
    return list(map(DecisionRecord._make, zip(
        ts.ids.tolist(), (exit_idx + 1).tolist(), map(tuple, computed.tolist()), device.tolist(),
        transmitted.tolist(), bits.tolist(), _correct(ts, exit_idx).tolist(),
        latencies.tolist())))


def _evaluate(ts: TraceSet, lam, gamma=None, scores=None, env: Environment | None = None,
              oracle: bool = False, records: bool = False
              ) -> tuple[list[DecisionRecord] | None, AggregateReport]:
    """The evaluator behind every entry point: check, walk once, aggregate.

    ``gamma`` None walks ungated (plain, or oracle routing when ``oracle``);
    otherwise exits are gated by ``scores >= gamma``.  Per-sample records
    are built only when ``records`` is set.
    """
    (lam,), (gamma,), scores = _checked(ts, [lam], None if gamma is None else [gamma], scores)
    gate = None if gamma is None else scores >= gamma
    exit_idx, device, transmitted = _walk(ts, lam, gate, oracle)
    accuracy, mean_device, shares = _walk_stats(ts, exit_idx, device)
    if env is None:
        latencies, mean_latency = np.zeros(len(ts)), 0.0
    else:
        lat = _walk_latencies(ts, device, transmitted, env.compute_speed, [env.bandwidth])
        latencies, mean_latency = lat[0], float(lat.mean(axis=1)[0])
    report = AggregateReport(
        accuracy=accuracy,
        mean_on_device_mflops=mean_device,
        mean_total_mflops=float(np.mean(
            device + np.where(transmitted, ts.topology.server_flops, 0.0))),
        mean_latency_s=mean_latency,
        exit_distribution=tuple(shares.tolist()),
        budget_satisfied=(env is None) or (mean_latency <= env.latency_budget),
    )
    if not records:
        return None, report
    # A sample computes exit n when it reaches n (exit index >= n) and its
    # gate passes; the oracle computes only the exit it terminates at.
    exits = np.arange(ts.topology.num_early_exits)
    computed = (exit_idx[:, None] == exits if oracle else
                (exit_idx[:, None] >= exits) & (True if gate is None else gate))
    return _records(ts, exit_idx, device, computed, transmitted, latencies), report


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


def grid_combos(values: Sequence[float], n_early: int) -> list[tuple[float, ...]]:
    """A per-exit value grid as vectors: its sorted values' Cartesian power."""
    return list(itertools.product(sorted(float(v) for v in values), repeat=n_early))


class PolicyTable:
    """Aggregates of every (lambda, gamma) combination, each walked once.

    Combinations run lambda-major in the order given.  ``gammas`` None
    tabulates the plain policy (one ungated walk per lambda).  With a
    ``compute_speed`` and ``bandwidths``, each combination's mean latency
    is taken at every bandwidth from that one walk.  Rows come from the
    walk, aggregation and pricing of ``policy_stats``, so each row equals
    its report bit for bit.  Only aggregates are kept, never per-sample
    arrays.
    """

    def __init__(self, ts: TraceSet, lams: Sequence[Sequence[float]],
                 gammas: Sequence[Sequence[float]] | None = None, scores=None,
                 compute_speed: float | None = None, bandwidths: Sequence[float] = ()):
        if not lams or (gammas is not None and not gammas):
            raise ValueError("threshold grids must be nonempty")
        lam_arrays, gamma_arrays, mat = _checked(ts, lams, gammas, scores)
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
        for i, (lam, gamma) in enumerate(itertools.product(lam_arrays, gamma_arrays)):
            exit_idx, device, transmitted = _walk(
                ts, lam, None if gamma is None else mat >= gamma, False)
            self.accuracy[i], self.on_device_mflops[i], self.exit_distribution[i] = (
                _walk_stats(ts, exit_idx, device))
            if self.bandwidths:
                self.mean_latency_s[i] = _walk_latencies(
                    ts, device, transmitted, compute_speed, self.bandwidths).mean(axis=1)

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
