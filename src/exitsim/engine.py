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

Every figure but latency is linear in five integer counts of a walk:
samples reaching each early exit, charged its classifier, terminating
there, transmitted, and classified correctly.  ``_aggregate`` is the one
formula from counts to figures, and ``_latency`` the one from device MFLOPs
and transmitted share to latency on a link, for a per-sample record (its
0/1 counts), a report (their sums) and a table row alike, so a record
equals its one-sample report.  ``run_plain``, ``run_with_predictor``,
``run_oracle`` and ``policy_stats`` check their arguments once, walk once
and price the counts.  ``PolicyTable`` never walks and holds no link: it
takes the counts of every (lambda, gamma) combination of a value list per
early exit as exact integer differences of slices of one suffix-summed
histogram of the samples' grid cells, so threshold searches are queries on
it, each pricing every row on its own link, and each row equals its
``policy_stats`` report bit for bit.

Per-sample records are built in bulk, since a run hands out one per sample.
Each field is one numpy column turned into Python values at once, and each
record is ``tuple.__new__`` over a zipped row: what ``_make`` does, without
its Python frame per record.  ``exits_computed`` comes from one tuple per
distinct pattern, found by vectorised codes, not a new tuple per sample;
records share these tuples, which is harmless as tuples are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple, Sequence

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
        return {**asdict(self), "exit_distribution": list(self.exit_distribution)}


# -- validation ---------------------------------------------------------------


def _checked(ts: TraceSet, gated: bool, scores) -> np.ndarray | None:
    """The check every entry point makes after its threshold check: a
    nonempty set and, when ``gated``, the score matrix (None otherwise)."""
    if not len(ts):
        raise ValueError("empty trace set")
    if not gated:
        return None
    if scores is None:
        raise ValueError("gamma given without predictor scores")
    # NaN fails too: NaN >= gamma is false, a silent skip.
    mat = as_reals(scores, "scores", "[0, 1]", rows=True)
    if mat.shape != (shape := (len(ts), ts.topology.num_early_exits)):
        raise ValueError(f"scores must have shape {shape}, got {mat.shape}")
    return mat


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
    correct: np.ndarray | None   # samples classified correctly; None when not counted


def _aggregate(topo: ExitTopology, n_samples: int, counts: _Counts, gated: bool):
    """The one count formula, from counts to aggregates.

    Returns accuracy (None when ``counts`` hold no correct count), mean
    device MFLOPs, mean total MFLOPs and exit shares (server last: the
    transmitted share, which ``_latency`` prices):

    * device = (sum_n segment_n * reach_n + sum_n exit_n * charged_n) / S,
               plus the predictor when ``gated``;
    * total  = device + (tx / S) * server.

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
    shares = np.concatenate([counts.term, counts.tx[..., None]], axis=-1) / n_samples
    accuracy = None if counts.correct is None else counts.correct / n_samples
    return accuracy, device, device + shares[..., -1] * topo.server_flops, shares


def _latency(tx_share, device_mflops, bits: int, compute_speed, bandwidth):
    """Mean latency (s): the transmitted share's ``bits`` over the link plus
    device compute time; the server's takes none.  Arrays broadcast."""
    return tx_share * bits / bandwidth + device_mflops * 1e6 / compute_speed


def _shared_columns(mask: np.ndarray) -> Iterator[tuple[bool, ...]]:
    """Each column of the (exits, samples) bool ``mask`` as a tuple of bools,
    one tuple object shared by every column of the same pattern.

    The distinct patterns are found without a Python step per sample.  A
    column's bits are read a run of exits at a time: each run appends its
    bits to the column's id so far as one int64 code, and ``np.unique``
    turns the codes back into dense ids, below S.  A run is
    ``63 - S.bit_length()`` exits wide, so an id shifted past a run stays
    below 2**63: at 50k samples one run covers 47 exits, and more exits
    take more runs on the same path.
    """
    n_samples = mask.shape[1]
    width = 63 - n_samples.bit_length()
    ids = np.zeros(n_samples, dtype=np.int64)
    for start in range(0, len(mask), width):
        bits = mask[start:start + width]
        codes = ids << len(bits) | (1 << np.arange(len(bits), dtype=np.int64)) @ bits
        distinct, ids = np.unique(codes, return_inverse=True)
    some = np.empty(len(distinct), dtype=np.int64)  # a sample of each pattern
    some[ids] = np.arange(n_samples)
    patterns = list(map(tuple, mask[:, some].T.tolist()))
    return map(patterns.__getitem__, ids.tolist())


def _evaluate(ts: TraceSet, lam, gamma=None, scores=None, env: Environment | None = None,
              oracle: bool = False, records: bool = False
              ) -> tuple[list[DecisionRecord] | None, AggregateReport]:
    """The evaluator behind every entry point: check, walk once, count, aggregate.

    ``gamma`` None walks ungated (plain, or oracle routing when ``oracle``);
    otherwise exits are gated by ``scores >= gamma``.  ``_aggregate`` and
    ``_latency`` price each sample's 0/1 counts with S = 1 for its record,
    built only when ``records`` is set, and their column sums for the
    report, on ``env``'s link (latency 0.0 without one).  Records
    are built from whole columns with no Python frame per record, and share
    one ``exits_computed`` tuple per distinct pattern (``_shared_columns``).
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
    price = lambda n, c: _aggregate(topo, n, c, gate is not None)
    latency = lambda device, shares: [0.0] * len(device) if env is None else _latency(
        shares[:, -1], device, topo.transmitted_bits, env.compute_speed, env.bandwidth).tolist()
    accuracy, mean_device, mean_total, shares = price(
        len(ts), _Counts(*(np.count_nonzero(c, axis=0, keepdims=True) for c in counts)))
    mean_latency = latency(mean_device, shares)[0]
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
    _, device, _, shares = price(1, counts)
    return list(map(tuple.__new__, itertools.repeat(DecisionRecord), zip(
        ts.ids.tolist(), (exit_idx + 1).tolist(), _shared_columns(charged),
        device.tolist(), counts.tx.tolist(), (counts.tx * topo.transmitted_bits).tolist(),
        counts.correct.tolist(), latency(device, shares)))), report


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
                      gamma_grid: list[np.ndarray] | None, scores: np.ndarray | None,
                      accuracy: bool = True) -> np.ndarray:
    """C[group, u_0, v_0, u_1, v_1, ...]: the samples of each group with
    j_n >= u_n and k_n >= v_n at every early exit n.

    A sample's cell (j_n, k_n) at exit n counts the lambda values at most
    its confidence and the gamma values at most its score, so it clears
    value a exactly when a < j_n and its gate passes value b exactly when
    b < k_n.  The ungated table has one gate per exit, always open: k_n = 0
    on an axis of one cell.  The groups are every sample, then, only when
    ``accuracy`` (only correct counts read them), those right at the
    server and those right at each early exit, the last first.  One int64
    histogram per group over the joint cells, summed from the end of every
    axis.
    """
    gated = gamma_grid is not None
    cell, shape = 0, []
    for n, lams in enumerate(lam_grid):
        shape += [len(lams) + 1, len(gamma_grid[n]) + 1 if gated else 1]
        gate = np.searchsorted(gamma_grid[n], scores[:, n], "right") if gated else 0
        cell = (cell * shape[-2] + np.searchsorted(lams, ts.conf[:, n], "right")) * shape[-1] + gate
    right = (ts.pred == ts.label[:, None]).T[::-1] if accuracy else ()
    hist = np.stack([np.bincount(group, minlength=math.prod(shape))
                     for group in (cell, *(cell[r] for r in right))]).reshape(-1, *shape)
    for axis in range(1, hist.ndim):  # in-place adds; np.cumsum is slower across rows
        rows = hist.reshape(math.prod(hist.shape[:axis]), hist.shape[axis], -1)
        for u in range(hist.shape[axis] - 1, 0, -1):
            rows[:, u - 1] += rows[:, u]
    return hist


def _table_counts(ts: TraceSet, lam_grid: list[np.ndarray], gamma_grid: list[np.ndarray] | None,
                  scores: np.ndarray | None, accuracy: bool = True) -> _Counts:
    """Counts of every (lambda, gamma) combination, lambda-major; no walk.

    At exit n, a pair (a, b) terminates the samples in the slice (a + 1,
    b + 1) of ``_suffix_histogram`` (b + 1 is cell 0 when ungated), its gate
    passes those in (0, b + 1), and it passes on the rest, (0, 0) minus the
    first.  Passing on at every exit before n, then slicing at n with later
    exits at (0, 0), counts the samples reaching n, charged there and
    terminating there (of those right at n, correct there); passing on at
    every exit counts tx (of those right at the server, correct there).
    Every count is an exact integer difference.  Without ``accuracy`` the
    histogram holds every sample alone and ``correct`` is None.
    """
    n_early = ts.topology.num_early_exits
    gated = gamma_grid is not None
    hist = _suffix_histogram(ts, lam_grid, gamma_grid, scores, accuracy)
    # A slice keeps every axis, of one cell where its count does not depend
    # on the value, so assigning it lambda-major broadcasts it to every
    # combination.
    sizes = [len(v) for v in lam_grid] + ([len(v) for v in gamma_grid] if gated else [1] * n_early)
    order = [*range(0, 2 * n_early, 2), *range(1, 2 * n_early, 2)]
    reach, charged, term = (np.empty((*sizes, n_early), dtype=np.int64) for _ in range(3))
    correct = np.zeros(sizes, dtype=np.int64) if accuracy else None
    one, on, gates = slice(0, 1), slice(1, None), slice(int(gated), None)
    for n in range(n_early):
        head, tail = (slice(None),) * (2 * n + 1), (one,) * (2 * (n_early - 1 - n))
        at = lambda u, v, group=0: hist[head + (u, v) + tail][group].transpose(order)
        reach[..., n], charged[..., n], term[..., n] = at(one, one), at(one, gates), at(on, gates)
        if accuracy:
            correct += at(on, gates, -1)  # the last group: right at exit n, now done
            hist = hist[:-1]
        # Those each pair passes on at exit n.
        hist = hist[head + (one, one)] - hist[head + (on, gates)]
    if accuracy:
        correct = (correct + hist[1].transpose(order)).ravel()
    return _Counts(reach.reshape(-1, n_early), charged.reshape(-1, n_early),
                   term.reshape(-1, n_early), hist[0].transpose(order).ravel(), correct)


class PolicyTable:
    """Aggregates of every (lambda, gamma) combination, from integer counts.

    ``lam_grid`` (and ``gamma_grid``, when gated) holds one nonempty value
    list per early exit; the combinations are every choice of one value per
    exit, lambda-major, each exit's values ascending (repeats kept), as
    ``combo`` returns them.  ``gamma_grid`` None tabulates the plain
    policy.  No sample is walked: slices of one grid-cell histogram count
    each combination's walk, and the count formula ``policy_stats`` applies
    to its one walk turns the counts into aggregates, so each row equals its
    report bit for bit.  The table holds no link: a walk does not depend on
    one, and ``latency_s`` prices every row on the link a query names.  Only
    aggregates are kept, never per-sample arrays.

    With ``accuracy`` off the table counts no correct answers: it bins only
    the every-sample histogram group, ``accuracy`` is None and ``optimum``
    raises, while exit shares, device MFLOPs and latencies stay bit-equal to
    the full table's.  A search that reads no accuracy (``select_gamma``)
    builds it so.
    """

    def __init__(self, ts: TraceSet, lam_grid: Sequence[Sequence[float]],
                 gamma_grid: Sequence[Sequence[float]] | None = None, scores=None,
                 accuracy: bool = True):
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
        self.transmitted_bits = ts.topology.transmitted_bits
        self.accuracy, self.on_device_mflops, _, self.exit_distribution = _aggregate(
            ts.topology, len(ts), _table_counts(ts, lam_grid, gamma_grid, scores, accuracy),
            gamma_grid is not None)

    def combo(self, i: int) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
        """(lambda, gamma) of combination ``i``; gamma None for the plain policy."""
        if self.gammas is None:
            return self.lams[i], None
        j, k = divmod(i, len(self.gammas))
        return self.lams[j], self.gammas[k]

    def latency_s(self, compute_speed: float, bandwidth: float) -> np.ndarray:
        """Each row's mean latency on a checked link, as ``policy_stats`` prices it."""
        return _latency(self.exit_distribution[:, -1], self.on_device_mflops,
                        self.transmitted_bits, compute_speed, bandwidth)

    def optimum(self, latency: np.ndarray, budget: float) -> np.ndarray:
        """Best combination of each row of ``latency`` under a budget.

        ``latency`` holds each combination's mean latency on its last axis,
        one row per link (``latency_s`` at a column of bandwidths); the
        result holds one index per row, a scalar for a single row.  In each
        row: the highest accuracy within budget, then the lowest latency,
        then the first in combination order.  When nothing in a row fits,
        every combination ties at accuracy -inf, so its answer is the first
        minimum-latency combination.
        """
        if self.accuracy is None:
            raise ValueError("this table holds no accuracy (built with accuracy=False)")
        acc = np.where(latency <= budget, self.accuracy, -np.inf)
        best = acc == acc.max(axis=-1, keepdims=True)
        return np.argmin(np.where(best, latency, np.inf), axis=-1)

    def cheapest(self, allowed: np.ndarray) -> int:
        """First combination of least on-device MFLOPs among ``allowed``."""
        if not allowed.any():
            raise ValueError("no combination is allowed")
        return int(np.argmin(np.where(allowed, self.on_device_mflops, np.inf)))
