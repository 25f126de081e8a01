"""Data model for partitioned early-exit networks and per-sample traces.

A trace file is line-delimited JSON: one header line describing the network
topology and its costs, then one record per sample.  All policy evaluation
runs against these stored records, so threshold sweeps never touch a live
network.

Reals are stored with 9 significant digits.  A 9-digit decimal round-trips
exactly through an IEEE double, so values are canonicalised to that
precision at construction time and save -> load is the identity.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

_FLOAT_FMT = ".9g"

# Canonicalisation can round a confidence that equals 1/P (e.g. P=3) just
# below it, so the softmax lower bound is checked with this slack.
CONF_TOL = 1e-9


def canon(x: float) -> float:
    """Round a real to the stored precision (9 significant digits)."""
    return float(format(float(x), _FLOAT_FMT))


def canon_seq(xs: Iterable[float]) -> tuple[float, ...]:
    return tuple(canon(x) for x in xs)


def fmt_real(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


class TraceFormatError(ValueError):
    """Malformed trace file or a record violating a data invariant."""


def all_finite(values: Sequence[float]) -> bool:
    # sum() is one C pass; only a non-finite sum (NaN, inf, or an overflow
    # of finite values) needs the per-value test.
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


@dataclass(frozen=True)
class ExitTopology:
    """Static cost and shape description of a partitioned early-exit network.

    FLOP figures are in MFLOPs.  ``segment_flops[n]`` is the backbone slice
    ending at early exit n+1, ``exit_flops[n]`` the intermediate classifier
    there; ``server_flops`` is everything after the partition point and
    ``predictor_flops`` the per-sample cost of the skip predictor.
    """

    num_exits: int
    segment_flops: tuple[float, ...]
    exit_flops: tuple[float, ...]
    server_flops: float
    predictor_flops: float
    num_classes: int
    raw_feature_bits: int
    compression_ratio: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_exits", int(self.num_exits))
        object.__setattr__(self, "num_classes", int(self.num_classes))
        object.__setattr__(self, "raw_feature_bits", int(self.raw_feature_bits))
        object.__setattr__(self, "segment_flops", canon_seq(self.segment_flops))
        object.__setattr__(self, "exit_flops", canon_seq(self.exit_flops))
        object.__setattr__(self, "server_flops", canon(self.server_flops))
        object.__setattr__(self, "predictor_flops", canon(self.predictor_flops))
        object.__setattr__(self, "compression_ratio", canon(self.compression_ratio))
        if self.num_exits < 2:
            raise ValueError(f"num_exits must be >= 2, got {self.num_exits}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        n_early = self.num_exits - 1
        if len(self.segment_flops) != n_early:
            raise ValueError(
                f"segment_flops must have length {n_early}, got {len(self.segment_flops)}"
            )
        if len(self.exit_flops) != n_early:
            raise ValueError(
                f"exit_flops must have length {n_early}, got {len(self.exit_flops)}"
            )
        for name in ("segment_flops", "exit_flops"):
            if any(v < 0 or not math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be finite and >= 0")
        if not (0 <= self.server_flops < math.inf and 0 <= self.predictor_flops < math.inf):
            raise ValueError("server_flops and predictor_flops must be finite and >= 0")
        if self.raw_feature_bits <= 0:
            raise ValueError("raw_feature_bits must be > 0")
        if not 1 <= self.compression_ratio < math.inf:
            raise ValueError("compression_ratio must be finite and >= 1")

    @property
    def num_early_exits(self) -> int:
        return self.num_exits - 1

    @property
    def transmitted_bits(self) -> int:
        """Payload crossing the link when a sample is offloaded."""
        return math.ceil(self.raw_feature_bits / self.compression_ratio)

    def header_dict(self) -> dict:
        return {
            "N": self.num_exits,
            "P": self.num_classes,
            "segment_flops": list(self.segment_flops),
            "exit_flops": list(self.exit_flops),
            "server_flops": self.server_flops,
            "predictor_flops": self.predictor_flops,
            "raw_feature_bits": self.raw_feature_bits,
            "compression_ratio": self.compression_ratio,
        }

    @classmethod
    def from_header(cls, header: Mapping) -> "ExitTopology":
        try:
            return cls(
                num_exits=header["N"],
                num_classes=header["P"],
                segment_flops=header["segment_flops"],
                exit_flops=header["exit_flops"],
                server_flops=header["server_flops"],
                predictor_flops=header["predictor_flops"],
                raw_feature_bits=header["raw_feature_bits"],
                compression_ratio=header["compression_ratio"],
            )
        except KeyError as exc:
            raise TraceFormatError(f"header missing key {exc}") from exc


@dataclass(frozen=True)
class SampleTrace:
    """One input's per-exit confidences and predictions.

    ``confidences[n]`` is the top-1 softmax probability at exit n+1; the last
    entry belongs to the server-side exit.  ``features`` optionally carries
    the raw input vector so a skip predictor can be trained from the trace.
    """

    id: int
    label: int
    confidences: tuple[float, ...]
    predicted: tuple[int, ...]
    features: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "confidences", canon_seq(self.confidences))
        object.__setattr__(self, "predicted", tuple(int(p) for p in self.predicted))
        if self.features is not None:
            object.__setattr__(self, "features", canon_seq(self.features))
            if not all_finite(self.features):
                raise ValueError(f"sample {self.id}: features must be finite")
        if len(self.confidences) != len(self.predicted):
            raise ValueError(
                f"sample {self.id}: confidences and predicted lengths differ "
                f"({len(self.confidences)} vs {len(self.predicted)})"
            )
        if len(self.confidences) < 2:
            raise ValueError(f"sample {self.id}: needs at least 2 exits")

    def record_dict(self) -> dict:
        rec = {
            "id": self.id,
            "label": self.label,
            "confidences": list(self.confidences),
            "predicted": list(self.predicted),
        }
        if self.features is not None:
            rec["features"] = list(self.features)
        return rec


@dataclass(frozen=True)
class TraceSet:
    """A topology plus the samples traced through it."""

    topology: ExitTopology
    samples: tuple[SampleTrace, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        topo = self.topology
        n, p = topo.num_exits, topo.num_classes
        seen: set[int] = set()
        feat_dim: int | None = None
        has_features: bool | None = None
        lower = 1.0 / p - CONF_TOL
        for s in self.samples:
            if s.id in seen:
                raise ValueError(f"sample {s.id}: duplicate id")
            seen.add(s.id)
            if len(s.confidences) != n:
                raise ValueError(
                    f"sample {s.id}: confidences length {len(s.confidences)} != N={n}"
                )
            if not (0 <= s.label < p):
                raise ValueError(f"sample {s.id}: label {s.label} outside [0, {p})")
            for c in s.confidences:
                if not (lower <= c < 1.0):
                    raise ValueError(
                        f"sample {s.id}: confidences entry {c!r} outside [1/P, 1)"
                    )
            for q in s.predicted:
                if not (0 <= q < p):
                    raise ValueError(f"sample {s.id}: predicted class {q} outside [0, {p})")
            present = s.features is not None
            if has_features is None:
                has_features = present
            elif has_features != present:
                raise ValueError(f"sample {s.id}: features present for only part of the set")
            if present:
                if feat_dim is None:
                    feat_dim = len(s.features)
                elif len(s.features) != feat_dim:
                    raise ValueError(
                        f"sample {s.id}: features length {len(s.features)} != {feat_dim}"
                    )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def has_features(self) -> bool:
        return bool(self.samples) and self.samples[0].features is not None

    @cached_property
    def conf_matrix(self) -> np.ndarray:
        return np.array([s.confidences for s in self.samples], dtype=np.float64)

    @cached_property
    def pred_matrix(self) -> np.ndarray:
        return np.array([s.predicted for s in self.samples], dtype=np.int64)

    @cached_property
    def label_vector(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        if not self.has_features:
            raise ValueError("trace set carries no features")
        return np.array([s.features for s in self.samples], dtype=np.float64)

    def subset(self, indices: Sequence[int]) -> "TraceSet":
        return TraceSet(self.topology, tuple(self.samples[i] for i in indices))


@dataclass(frozen=True)
class Thresholds:
    """Paired confidence (lam) and prediction (gamma) threshold vectors."""

    lam: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        object.__setattr__(self, "gamma", tuple(float(v) for v in self.gamma))
        if len(self.lam) != len(self.gamma):
            raise ValueError(
                f"lam and gamma lengths differ ({len(self.lam)} vs {len(self.gamma)})"
            )
        if not self.lam:
            raise ValueError("thresholds must cover at least one early exit")
        if any(not (0.0 < v < 1.0) for v in self.lam):
            raise ValueError(f"lam entries must lie in (0, 1): {self.lam}")
        if any(not (0.0 <= v <= 1.0) for v in self.gamma):
            raise ValueError(f"gamma entries must lie in [0, 1]: {self.gamma}")


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write a file atomically (temp file in the same directory + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_line(obj: dict) -> str:
    """Render one flat record as a JSON line, reals at stored precision."""
    parts = []
    for key, value in obj.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, int):
            rendered = str(value)
        elif isinstance(value, float):
            rendered = fmt_real(value)
        elif isinstance(value, list):
            if value and isinstance(value[0], float):
                rendered = "[" + ",".join(fmt_real(v) for v in value) + "]"
            else:
                rendered = "[" + ",".join(str(int(v)) for v in value) + "]"
        else:
            rendered = json.dumps(value)
        parts.append(f'"{key}":{rendered}')
    return "{" + ",".join(parts) + "}"


def trace_set_text(ts: TraceSet) -> str:
    lines = [json_line(ts.topology.header_dict())]
    lines.extend(json_line(s.record_dict()) for s in ts.samples)
    return "\n".join(lines) + "\n"


def save_trace_set(ts: TraceSet, path: str | os.PathLike) -> None:
    atomic_write_text(path, trace_set_text(ts))


def read_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for the header and each record of a file.

    The one reader of line-delimited JSON (trace and dataset files).  Line 1
    is the header; blank lines after it are skipped.  Lines are counted at
    newline bytes only.  An empty file, bytes that are not UTF-8, a line
    that is not JSON or a value that is not an object raise
    TraceFormatError naming the path and line.  Records are parsed as the
    caller consumes them.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"{path}: line {lineno}: not UTF-8 text: {exc}") from exc
    if lines == [""]:
        raise TraceFormatError(f"{path}: empty file")
    for lineno, line in enumerate(lines, start=1):
        if lineno > 1 and not line.strip():
            continue
        what = "header" if lineno == 1 else "record"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: invalid JSON {what}: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{path}: line {lineno}: {what} must be a JSON object")
        yield lineno, obj


def load_trace_set(path: str | os.PathLike) -> TraceSet:
    """Parse and validate a trace file.

    Raises TraceFormatError carrying the offending line number for parse
    failures and the field/sample id for invariant violations.
    """
    rows = read_jsonl(path)
    _, header = next(rows)
    try:
        topo = ExitTopology.from_header(header)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"{path}: line 1: {exc}") from exc

    samples = []
    for lineno, rec in rows:
        try:
            samples.append(
                SampleTrace(
                    id=rec["id"],
                    label=rec["label"],
                    confidences=rec["confidences"],
                    predicted=rec["predicted"],
                    features=rec.get("features"),
                )
            )
        except KeyError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: record missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
    try:
        return TraceSet(topo, tuple(samples))
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def split_trace_set(ts: TraceSet, fraction: float, seed: int = 0) -> tuple[TraceSet, TraceSet]:
    """Deterministically split off a held-out part (the second return value).

    ``fraction`` is the held-out share; sample order within each part follows
    the original set.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(ts.samples)
    n_hold = max(1, int(round(n * fraction)))
    if n_hold >= n:
        raise ValueError(f"cannot hold out {n_hold} of {n} samples")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    hold = np.sort(perm[:n_hold])
    keep = np.sort(perm[n_hold:])
    return ts.subset(keep.tolist()), ts.subset(hold.tolist())
