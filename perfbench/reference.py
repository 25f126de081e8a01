"""Independent numpy reference for the exitsim cost model and threshold searches.

Nothing here imports exitsim.  A policy is evaluated as one walk per
(lambda, gamma) pair, vectorised over samples; the latency at a bandwidth is
then applied to the walk's aggregates:

    mean latency = mean device MFLOPs * 1e6 / speed + offload share * bits / bw

which is the same quantity exitsim computes as a mean of per-sample
latencies, summed in a different order.  Checks therefore compare latencies
and MFLOPs within ``REL`` and everything that is a count exactly.

Search checks follow the README tie-breaks: the highest accuracy among
feasible points, then the lowest latency, then the first point in grid order.
"Identical" below means the same per-sample walk (exit taken and exits
computed for every sample); two such points tie exactly in any arithmetic.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

REL = 1e-12


@dataclass(frozen=True)
class Costs:
    """Per-exit costs in MFLOPs and the offload payload in bits."""

    segment: np.ndarray
    exit: np.ndarray
    server: float
    predictor: float
    bits: int

    @classmethod
    def from_header(cls, header: dict) -> "Costs":
        return cls(
            segment=np.asarray(header["segment_flops"], dtype=np.float64),
            exit=np.asarray(header["exit_flops"], dtype=np.float64),
            server=float(header["server_flops"]),
            predictor=float(header["predictor_flops"]),
            bits=math.ceil(header["raw_feature_bits"] / header["compression_ratio"]),
        )

    @property
    def n_early(self) -> int:
        return len(self.segment)


@dataclass(frozen=True)
class Walk:
    """Per-sample outcome of one policy: 0-based exit (n_early = server)."""

    exit_idx: np.ndarray
    computed: np.ndarray      # (samples, n_early) exits evaluated on the device
    device: np.ndarray        # on-device MFLOPs per sample

    @property
    def transmitted(self) -> np.ndarray:
        return self.exit_idx == self.computed.shape[1]

    def digest(self) -> bytes:
        return hashlib.sha1(self.exit_idx.tobytes() + self.computed.tobytes()).digest()


def walk(conf: np.ndarray, lam, costs: Costs, computable: np.ndarray | None = None,
         oracle: bool = False) -> Walk:
    """Exit walk under thresholds ``lam``; ``computable`` masks exits (predictor).

    A sample stops at the first exit that is computable and whose confidence
    is >= lambda.  Exits up to and including that one are reached; the
    oracle computes only the terminating exit.
    """
    n, n_early = conf.shape[0], costs.n_early
    if computable is None:
        computable = np.ones((n, n_early), dtype=bool)
    stop = computable & (conf[:, :n_early] >= np.asarray(lam, dtype=np.float64))
    exit_idx = np.where(stop.any(axis=1), stop.argmax(axis=1), n_early)
    reached = np.arange(n_early)[None, :] <= exit_idx[:, None]
    if oracle:
        computed = np.arange(n_early)[None, :] == exit_idx[:, None]
    else:
        computed = reached & computable
    device = reached @ costs.segment + computed @ costs.exit
    return Walk(exit_idx=exit_idx, computed=computed, device=device)


@dataclass(frozen=True)
class Aggregate:
    accuracy: float
    mean_device: float
    mean_total: float
    offload_share: float
    exit_distribution: tuple[float, ...]


def mean_latency(mean_device, offload_share, costs: Costs, speed: float, bandwidth: float):
    """Mean latency in seconds: device time plus the offloaded share's transfer."""
    return mean_device * 1e6 / speed + offload_share * costs.bits / bandwidth


def aggregate(w: Walk, pred: np.ndarray, label: np.ndarray, costs: Costs,
              predictor_charged: bool) -> Aggregate:
    n = len(label)
    device = w.device + (costs.predictor if predictor_charged else 0.0)
    correct = pred[np.arange(n), w.exit_idx] == label
    tx = w.transmitted
    counts = np.bincount(w.exit_idx, minlength=costs.n_early + 1)
    return Aggregate(
        accuracy=float(np.mean(correct)),
        mean_device=float(device.mean()),
        mean_total=float(device.mean() + tx.mean() * costs.server),
        offload_share=float(tx.mean()),
        exit_distribution=tuple((counts / n).tolist()),
    )


def evaluate(conf, pred, label, costs: Costs, lam, gamma=None, scores=None,
             oracle: bool = False) -> tuple[Walk, Aggregate]:
    """One policy: plain (no gamma), predictor (gamma and scores) or oracle."""
    computable = None if gamma is None else scores >= np.asarray(gamma, dtype=np.float64)
    w = walk(conf, lam, costs, computable, oracle=oracle)
    return w, aggregate(w, pred, label, costs, predictor_charged=gamma is not None)


def report_errors(what: str, got: dict, ref: Aggregate, costs: Costs,
                  speed: float, bandwidth: float, budget: float) -> list[str]:
    """Compare an exitsim report (``AggregateReport.to_dict`` form) to the reference."""
    lat = mean_latency(ref.mean_device, ref.offload_share, costs, speed, bandwidth)
    errs = []
    if got["accuracy"] != ref.accuracy:
        errs.append(f"{what}: accuracy {got['accuracy']!r} != {ref.accuracy!r}")
    if tuple(got["exit_distribution"]) != ref.exit_distribution:
        errs.append(f"{what}: exit_distribution {got['exit_distribution']} != "
                    f"{list(ref.exit_distribution)}")
    for key, want in (("mean_on_device_mflops", ref.mean_device),
                      ("mean_total_mflops", ref.mean_total),
                      ("mean_latency_s", lat)):
        if not close(got[key], want):
            errs.append(f"{what}: {key} {got[key]!r} != {want!r}")
    if got["budget_satisfied"] != (lat <= budget):
        errs.append(f"{what}: budget_satisfied {got['budget_satisfied']} at latency {lat!r}")
    return errs


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


@dataclass
class ComboTable:
    """Every (lambda, gamma) grid point walked once, in exitsim's grid order."""

    keys: list[tuple[tuple[float, ...], tuple[float, ...]]]
    accuracy: np.ndarray
    mean_device: np.ndarray
    offload_share: np.ndarray
    last_share: np.ndarray
    first_of_walk: np.ndarray    # index of the first grid point with the same walk

    def __post_init__(self) -> None:
        self._index = {k: i for i, k in enumerate(self.keys)}

    def index(self, lam, gamma) -> int | None:
        return self._index.get((tuple(lam), tuple(gamma)))


def combo_table(conf, pred, label, costs: Costs, scores, lambda_grid, gamma_grid,
                lam_fixed=None) -> ComboTable:
    """Walk every grid point once.

    Lambda and gamma vectors range over the Cartesian powers of their
    grids, lambda-major as in exitsim's search loops.  With ``lam_fixed``
    only gamma varies (the select_gamma search).
    """
    n_early = costs.n_early
    lams = ([tuple(float(v) for v in lam_fixed)] if lam_fixed is not None
            else list(itertools.product(sorted(float(v) for v in lambda_grid), repeat=n_early)))
    gams = list(itertools.product(sorted(float(v) for v in gamma_grid), repeat=n_early))
    keys, acc, dev, off, last, first = [], [], [], [], [], []
    seen: dict[bytes, int] = {}
    for lam in lams:
        for gam in gams:
            w, agg = evaluate(conf, pred, label, costs, lam, gam, scores)
            first.append(seen.setdefault(w.digest(), len(keys)))
            keys.append((lam, gam))
            acc.append(agg.accuracy)
            dev.append(agg.mean_device)
            off.append(agg.offload_share)
            last.append(agg.exit_distribution[-1])
    return ComboTable(keys, np.array(acc), np.array(dev), np.array(off), np.array(last),
                      np.array(first))


def sweep_point_errors(table: ComboTable, costs: Costs, speed: float, budget: float,
                       bandwidth: float, lam, gamma, accuracy: float,
                       mean_latency_s: float, feasible: bool) -> list[str]:
    """Check one optimum of a latency-constrained grid search.

    With a feasible grid point the chosen point must be feasible, of the
    highest feasible accuracy and of the lowest latency among those; with
    none it must be the minimum-latency point, flagged infeasible.
    """
    where = f"bandwidth {bandwidth:.6g}"
    c = table.index(lam, gamma)
    if c is None:
        return [f"{where}: ({lam}, {gamma}) is not a grid point"]
    lat = mean_latency(table.mean_device, table.offload_share, costs, speed, bandwidth)
    errs = []
    if accuracy != table.accuracy[c]:
        errs.append(f"{where}: accuracy {accuracy!r} != {table.accuracy[c]!r}")
    if not close(mean_latency_s, lat[c]):
        errs.append(f"{where}: latency {mean_latency_s!r} != {lat[c]!r}")
    ok = lat <= budget
    if ok.any():
        if not (feasible and ok[c]):
            errs.append(f"{where}: a feasible point exists but the chosen one is not")
        best_acc = table.accuracy[ok].max()
        if table.accuracy[c] != best_acc:
            errs.append(f"{where}: accuracy {table.accuracy[c]!r} below best {best_acc!r}")
        pool = ok & (table.accuracy == best_acc)
    else:
        if feasible:
            errs.append(f"{where}: flagged feasible, but no grid point meets the budget")
        pool = np.ones(len(lat), dtype=bool)
    if lat[c] > lat[pool].min() * (1.0 + REL):
        errs.append(f"{where}: latency {lat[c]!r} above the minimum {lat[pool].min()!r}")
    if table.first_of_walk[c] != c:
        errs.append(f"{where}: ({lam}, {gamma}) ties with the earlier grid point "
                    f"{table.keys[table.first_of_walk[c]]}")
    return errs


def select_gamma_errors(table: ComboTable, plain_last: float, gamma,
                        budget_fraction: float) -> list[str]:
    """Check a select_gamma result: within the extra-last-exit budget, cheapest."""
    lam = table.keys[0][0]
    where = f"select_gamma at lambda {lam}"
    c = table.index(lam, gamma)
    if c is None:
        return [f"{where}: gamma {gamma} is not a grid point"]
    ok = table.last_share - plain_last < budget_fraction
    errs = []
    if not ok[c]:
        errs.append(f"{where}: gamma {gamma} exceeds the extra-last-exit budget")
    elif table.mean_device[c] > table.mean_device[ok].min() * (1.0 + REL):
        errs.append(f"{where}: gamma {gamma} costs {table.mean_device[c]!r} MFLOPs, "
                    f"minimum is {table.mean_device[ok].min()!r}")
    if table.first_of_walk[c] != c:
        earlier = table.keys[table.first_of_walk[c]][1]
        errs.append(f"{where}: gamma {gamma} ties with the earlier {earlier}")
    return errs


def gamma_values(step: float) -> np.ndarray:
    """The select_gamma grid: multiples of ``step`` in [0, 1), plus 1."""
    return np.unique(np.concatenate([np.arange(0.0, 1.0, step), [1.0]]))


# -- files and nets -----------------------------------------------------------


@dataclass
class TraceArrays:
    """A trace file as arrays: header dict plus per-sample columns."""

    header: dict
    ids: np.ndarray
    label: np.ndarray
    conf: np.ndarray
    pred: np.ndarray
    features: np.ndarray | None


def read_trace_file(path) -> TraceArrays:
    """Parse a trace file line by line into preallocated columns."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        lines = [ln for ln in fh if ln.strip()]
    n, n_exits = len(lines), int(header["N"])
    ids = np.empty(n, dtype=np.int64)
    label = np.empty(n, dtype=np.int64)
    conf = np.empty((n, n_exits), dtype=np.float64)
    pred = np.empty((n, n_exits), dtype=np.int64)
    features = None
    for i, line in enumerate(lines):
        rec = json.loads(line)
        ids[i] = rec["id"]
        label[i] = rec["label"]
        conf[i] = rec["confidences"]
        pred[i] = rec["predicted"]
        if "features" in rec:
            if features is None:
                features = np.empty((n, len(rec["features"])), dtype=np.float64)
            features[i] = rec["features"]
    return TraceArrays(header, ids, label, conf, pred, features)


def mlp_forward(net: dict, x: np.ndarray) -> np.ndarray:
    """Forward pass of an exitsim MLP checkpoint dict (relu/sigmoid/identity)."""
    a = np.asarray(x, dtype=np.float64)
    sizes = net["sizes"]
    for i, (layer, act) in enumerate(zip(net["layers"], net["activations"])):
        w = np.asarray(layer["w"], dtype=np.float64).reshape(sizes[i], sizes[i + 1])
        z = a @ w + np.asarray(layer["b"], dtype=np.float64)
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "sigmoid":
            a = 0.5 * (1.0 + np.tanh(0.5 * z))
        elif act == "identity":
            a = z
        else:
            raise ValueError(f"reference has no activation {act!r}")
    return a
