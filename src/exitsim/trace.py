"""Data model for partitioned early-exit networks and per-sample traces.

A trace file is line-delimited JSON: one header line describing the network
topology and its costs, then one record per sample.  All policy evaluation
runs against these stored records, so threshold sweeps never touch a live
network.

Reals are stored with 9 significant digits.  A 9-digit decimal round-trips
exactly through an IEEE double, so values are canonicalised to that
precision at construction time and save -> load is the identity.

A ``TraceSet`` keeps its samples as read-only numpy columns.  Building one
from ``SampleTrace`` rows, from arrays or from a file goes through one
column canonicaliser and one column check, the only place sample values are
canonicalised and checked; a row checks nothing itself.  ``subset`` takes
rows of a checked set, so it checks only that no index repeats.

Each input shape has one reader here: ``read_json`` for whole-file JSON
documents, ``read_jsonl`` for line-delimited files (whose records
``load_trace_set`` and ``load_dataset`` walk in one loop) and
``read_table`` for CSV tables.  Each input kind read back has one check,
naming the path and the line, column or field: line-delimited records,
CSV tables, threshold vectors (``check_lambda``, ``check_gamma``, which also
check each exit's value list of a threshold grid) and JSON checkpoints
(``load_checkpoint``).
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

_FLOAT_FMT = ".9g"

# Canonicalisation can round a confidence that equals 1/P (e.g. P=3) just
# below it, so the softmax lower bound is checked with this slack.
CONF_TOL = 1e-9

# 10**k for k = 0..22, each exactly representable as a double.
_POW10 = 10.0 ** np.arange(23)


def canon(x: float) -> float:
    """Round a real to the stored precision (9 significant digits)."""
    return float(format(float(x), _FLOAT_FMT))


def canon_seq(xs: Iterable[float]) -> tuple[float, ...]:
    return tuple(canon(x) for x in xs)


def canon_array(values) -> np.ndarray:
    """``canon`` applied element by element, as a new float64 array.

    A value with at most 9 significant digits is already canonical: it is
    the double nearest to m * 10**(e-8) for an integer |m| < 10**9, e its
    decade.  That is tested exactly: m = rint(x * 10**(8-e)), then m scaled
    back must equal x.  Scaling back by an exact power of ten is correctly
    rounded, which holds for e in [-14, 30].  A decade estimate one too
    high only coarsens the grid and one too low pushes |m| to 10**9, so
    neither lets through a value canon would change.  Every other value
    (more digits, zero, subnormal, huge, non-finite) goes through ``canon``.
    """
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        decade = np.floor(np.log10(np.abs(flat)))
    ok = (decade >= -14) & (decade <= 30)
    k = 8 - np.where(ok, decade, 8).astype(np.int64)
    scale = _POW10[np.abs(k)]
    up = k >= 0
    m = np.rint(np.where(up, flat * scale, flat / scale))
    ok &= (np.abs(m) < 1e9) & (np.where(up, m / scale, m * scale) == flat)
    slow = np.flatnonzero(~ok)
    if slow.size:
        flat[slow] = [canon(v) for v in flat[slow].tolist()]
    return out


def fmt_real(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def as_int(value, field: str) -> int:
    """An integer field's value; an integral float such as 3.0 is accepted.

    A fractional or non-finite number, a bool or a non-number raises
    ValueError naming ``field`` rather than being truncated.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def as_real(value, field: str) -> float:
    """A finite real field's value; NaN, an infinity, a bool or a non-number
    raises ValueError naming ``field``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the double range
            pass
    raise ValueError(f"{field} must be a finite real number, got {value!r}")


class TraceFormatError(ValueError):
    """An input file that cannot be read as its format: bytes that are not
    UTF-8, text that is not JSON, a JSON value that is not an object, or a
    trace or dataset record that is malformed or violates a data invariant."""


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
        object.__setattr__(self, "num_exits", as_int(self.num_exits, "num_exits"))
        object.__setattr__(self, "num_classes", as_int(self.num_classes, "num_classes"))
        object.__setattr__(self, "raw_feature_bits",
                           as_int(self.raw_feature_bits, "raw_feature_bits"))
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
                num_exits=as_int(header["N"], "N"),
                num_classes=as_int(header["P"], "P"),
                segment_flops=header["segment_flops"],
                exit_flops=header["exit_flops"],
                server_flops=header["server_flops"],
                predictor_flops=header["predictor_flops"],
                raw_feature_bits=header["raw_feature_bits"],
                compression_ratio=header["compression_ratio"],
            )
        except KeyError as exc:
            raise TraceFormatError(f"header missing key {exc}") from exc


class SampleTrace(NamedTuple):
    """One input's per-exit confidences and predictions, as a plain row.

    ``confidences[n]`` is the top-1 softmax probability at exit n+1; the last
    entry belongs to the server-side exit.  ``features`` optionally carries
    the raw input vector so a skip predictor can be trained from the trace.
    A row checks nothing: ``TraceSet(topology, rows)`` does.
    """

    id: int
    label: int
    confidences: Sequence[float]
    predicted: Sequence[int]
    features: Sequence[float] | None = None


# -- the column check ---------------------------------------------------------


class _RowError(ValueError):
    """An invariant broken by one sample (0-based ``row``) of a set being built."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _raise_first(checks) -> None:
    """Raise _RowError at the first row any check flags.

    ``checks`` holds (mask, message) pairs: a mask flags rows (any entry of
    a 2-D row) and ``message(row)`` describes the reported row.  On one row
    the earlier check wins, as in a per-sample loop over the checks.
    """
    hits = []
    for k, (mask, _) in enumerate(checks):
        rows = mask.any(axis=1) if mask.ndim > 1 else mask
        if rows.any():
            hits.append((int(np.argmax(rows)), k))
    if hits:
        row, k = min(hits)
        raise _RowError(row, checks[k][1](row))


def _entry(col: np.ndarray, mask: np.ndarray, row: int):
    """The first entry of ``row`` that ``mask`` flags, as a Python value."""
    return np.atleast_1d(col[row])[np.atleast_1d(mask[row])].tolist()[0]


def _as_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        return math.inf if value > 0 else -math.inf


def _float64(values) -> np.ndarray:
    """Numbers as a float64 array; an integer beyond the double range reads
    as +-inf, so the range and finiteness checks flag its sample."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.vectorize(_as_float, otypes=[np.float64])(np.asarray(values, dtype=object))


def _python_entries(values, given: np.ndarray) -> np.ndarray | None:
    """``values`` as an object array of Python values if it holds a bool,
    else None.  numpy reads bools among numbers as numbers (``given``), True
    as 1, so the entries of a sequence or object array are checked by type,
    one level of rows down; a numeric numpy row counts as its dtype."""
    if given.ndim == 0 or (isinstance(values, np.ndarray) and values.dtype != object):
        return None
    rows = values if given.ndim > 1 else [values]
    dtypes = list(map(getattr, rows, repeat("dtype"), repeat(None)))
    kinds = set(dtypes)
    types = {d.type for d in kinds if d is not None}
    if None in kinds or np.object_ in types:
        types.update(*(map(type, row) for row, d in zip(rows, dtypes)
                       if d is None or d.kind == "O"))
    if types.isdisjoint({bool, np.bool_}):
        return None
    python = np.frompyfunc(lambda v: v.item() if isinstance(v, np.generic) else v, 1, 1)
    return python(np.array(values, dtype=object))


def _integral(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(the values as given, as int64, mask of non-integers: fractional, huge
    or bool).  A bool is flagged wherever it stands, and then the values are
    given as Python values, so a report names the bool itself."""
    given = np.asarray(values)
    entries = _python_entries(values, given)
    if entries is not None:
        given = entries
    elif given.dtype.kind in "iu":
        return given, given.astype(np.int64), np.zeros(given.shape, dtype=bool)
    real = _float64(given)
    bad = ~((real == np.rint(real)) & (np.abs(real) < 2.0 ** 63)) | (given.dtype.kind == "b")
    if entries is not None:
        bad |= np.frompyfunc(lambda v: type(v) is bool, 1, 1)(entries).astype(bool)
    return given, np.where(bad, 0.0, real).astype(np.int64), bad


def _duplicate_ids(ids: np.ndarray):
    """The check that flags every use of an id after its first."""
    first_use = np.zeros(len(ids), dtype=bool)
    first_use[np.unique(ids, return_index=True)[1]] = True
    return ~first_use, lambda i: f"sample {ids[i]}: duplicate id"


def _sample_checks(ids, label, p: int, features):
    """The checks a trace set and a dataset share: integral, distinct ids;
    integral labels in [0, p); finite features (None: none to check).

    ``ids`` and ``label`` are as ``_integral`` returns them, and the columns
    must fit one sample count.  Returns the ids and labels as int64 and the
    (mask, message) checks for ``_raise_first``, in order.
    """
    (id_given, ids, id_bad), (label_given, label, label_bad) = ids, label
    checks = [
        (id_bad, lambda i: f"id must be an integer, got {_entry(id_given, id_bad, i)!r}"),
        _duplicate_ids(ids),
        (label_bad, lambda i: f"sample {ids[i]}: label must be an integer, "
                              f"got {_entry(label_given, label_bad, i)!r}"),
        ((label < 0) | (label >= p),
         lambda i: f"sample {ids[i]}: label {label[i]} outside [0, {p})"),
    ]
    if features is not None:
        checks.append((~np.isfinite(features),
                       lambda i: f"sample {ids[i]}: features must be finite"))
    return ids, label, checks


def _matrices(topology: ExitTopology, ids, conf, pred_len, features):
    """Stack per-sample confidences and features into (samples, width)
    matrices, once their lengths and the predicted classes' (``pred_len``)
    fit.  ``conf`` and ``features`` are each (entries end to end or one
    sequence per sample, each sample's length), a length of -1 marking a
    sample without features.  Raises _RowError for the first sample whose
    lengths fit neither the topology nor the set's first sample.
    """
    n, n_exits = len(ids), topology.num_exits
    (conf, conf_len), (features, feat_len) = (
        (values, np.array(lengths, dtype=np.int64).reshape(n))
        for values, lengths in (conf, features))
    pred_len = np.array(pred_len, dtype=np.int64).reshape(n)
    dim = int(feat_len[0]) if n else -1
    _raise_first([
        (conf_len != pred_len, lambda i: f"sample {ids[i]}: confidences and predicted "
                                         f"lengths differ ({conf_len[i]} vs {pred_len[i]})"),
        (conf_len != n_exits,
         lambda i: f"sample {ids[i]}: confidences length {conf_len[i]} != N={n_exits}"),
        ((feat_len < 0) != (dim < 0),
         lambda i: f"sample {ids[i]}: features present for only part of the set"),
        (feat_len != dim, lambda i: f"sample {ids[i]}: features length {feat_len[i]} != {dim}"),
    ])
    return (_float64(conf).reshape(n, n_exits),
            None if dim < 0 else _float64(features).reshape(n, dim))


class TraceSet:
    """A topology plus the samples traced through it, kept as columns.

    ``ids`` and ``label`` are (samples,) int64; ``conf`` holds the top-1
    confidence and ``pred`` the predicted class at each exit, both
    (samples, N); ``features`` is (samples, d) float64 or None.  The
    columns are read-only.  ``samples`` yields the rows as ``SampleTrace``.
    """

    _CHUNK = 4096  # rows ``samples`` converts at a time

    def __init__(self, topology: ExitTopology, samples: Iterable[SampleTrace]):
        rows = tuple(samples)
        ids, pred = [s.id for s in rows], [s.predicted for s in rows]
        conf, features = _matrices(
            topology, ids,
            ([s.confidences for s in rows], [len(s.confidences) for s in rows]),
            list(map(len, pred)),
            ([s.features for s in rows if s.features is not None],
             [-1 if s.features is None else len(s.features) for s in rows]))
        # The rows of classes go in unstacked, so that the column check sees a
        # bool among them.
        self._set(topology, ids, [s.label for s in rows], conf,
                  pred if rows else np.zeros((0, topology.num_exits), int), features)

    @classmethod
    def from_columns(cls, topology: ExitTopology, ids, label, conf, pred,
                     features=None) -> "TraceSet":
        """A set from arrays: ``ids`` and ``label`` (samples,), ``conf`` and
        ``pred`` (samples, N), ``features`` (samples, d) or None."""
        ts = cls.__new__(cls)
        ts._set(topology, ids, label, conf, pred, features)
        return ts

    def _set(self, topology: ExitTopology, ids, label, conf, pred, features) -> None:
        """The one column canonicaliser and check; stores read-only copies."""
        p, n_exits = topology.num_classes, topology.num_exits
        id_col, label_col, (pred_given, pred, pred_bad) = map(_integral, (ids, label, pred))
        ids, label = id_col[1], label_col[1]
        conf = canon_array(conf)
        features = None if features is None else canon_array(features)
        n = len(ids)
        if (ids.shape != (n,) or label.shape != (n,) or conf.shape != (n, n_exits)
                or pred.shape != (n, n_exits)
                or (features is not None and (features.ndim != 2 or len(features) != n))):
            raise ValueError(
                f"columns do not fit {n} samples and N={n_exits}: id {ids.shape}, "
                f"label {label.shape}, confidences {conf.shape}, predicted {pred.shape}, "
                f"features {None if features is None else features.shape}")
        ids, label, checks = _sample_checks(id_col, label_col, p, features)
        # Written so that NaN fails too.
        conf_bad = ~((conf >= 1.0 / p - CONF_TOL) & (conf < 1.0))
        pred_out = (pred < 0) | (pred >= p)
        _raise_first(checks + [
            (conf_bad, lambda i: f"sample {ids[i]}: confidences entry "
                                 f"{_entry(conf, conf_bad, i)!r} outside [1/P, 1)"),
            (pred_bad, lambda i: f"sample {ids[i]}: predicted must be an integer, "
                                 f"got {_entry(pred_given, pred_bad, i)!r}"),
            (pred_out, lambda i: f"sample {ids[i]}: predicted class "
                                 f"{_entry(pred, pred_out, i)} outside [0, {p})"),
        ])
        self._store(topology, ids, label, conf, pred, features)

    def _store(self, topology: ExitTopology, ids, label, conf, pred, features) -> None:
        """Keep checked columns, made read-only; the caller hands them over."""
        for name, col in (("ids", ids), ("label", label), ("conf", conf), ("pred", pred),
                          ("features", features)):
            if col is not None:
                col.flags.writeable = False
            object.__setattr__(self, name, col)
        object.__setattr__(self, "topology", topology)

    def __setattr__(self, name, value):
        raise AttributeError(f"TraceSet is read-only: cannot set {name!r}")

    def _columns(self) -> tuple:
        return self.ids, self.label, self.conf, self.pred, self.features

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        if self.topology != other.topology or self.has_features != other.has_features:
            return False
        return all(a is None or np.array_equal(a, b)
                   for a, b in zip(self._columns(), other._columns()))

    @property
    def has_features(self) -> bool:
        return self.features is not None

    @property
    def samples(self) -> Iterator[SampleTrace]:
        """The samples as ``SampleTrace`` rows of Python values, built
        ``_CHUNK`` rows at a time as they are read."""
        for start in range(0, len(self), self._CHUNK):
            part = slice(start, start + self._CHUNK)
            features = (repeat(None) if self.features is None
                        else map(tuple, self.features[part].tolist()))
            yield from map(SampleTrace, self.ids[part].tolist(), self.label[part].tolist(),
                           map(tuple, self.conf[part].tolist()),
                           map(tuple, self.pred[part].tolist()), features)

    # The columns under their matrix names.
    conf_matrix = property(operator.attrgetter("conf"))
    pred_matrix = property(operator.attrgetter("pred"))
    label_vector = property(operator.attrgetter("label"))

    @property
    def feature_matrix(self) -> np.ndarray:
        if self.features is None:
            raise ValueError("trace set carries no features")
        return self.features

    def subset(self, indices: Sequence[int]) -> "TraceSet":
        """The samples at ``indices``, in that order.

        Rows of a checked set stay canonical and in range, so only a
        repeated index can break the new set: it raises as a duplicate id.
        """
        rows = np.fromiter(map(operator.index, indices), dtype=np.intp)
        columns = [None if c is None else c[rows] for c in self._columns()]
        _raise_first([_duplicate_ids(columns[0])])
        ts = TraceSet.__new__(TraceSet)
        ts._store(self.topology, *columns)
        return ts


def _check_vector(values, n_early: int | None, name: str, inside, bounds: str) -> np.ndarray:
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or not len(vec) or len(vec) != (n_early or len(vec)):
        raise ValueError(f"{name} must have length {n_early or '>= 1'}, got shape {vec.shape}")
    if not np.all(inside(vec)):  # written so that NaN fails too
        raise ValueError(f"{name} entries must lie in {bounds}, got {tuple(vec.tolist())}")
    return vec


def check_lambda(lam, n_early: int | None = None) -> np.ndarray:
    """The one lambda check: a float64 vector of ``n_early`` (default: >= 1)
    confidence thresholds, each in (0, 1)."""
    return _check_vector(lam, n_early, "lambda", lambda v: (v > 0.0) & (v < 1.0), "(0, 1)")


def check_gamma(gamma, n_early: int | None = None) -> np.ndarray:
    """The one gamma check: as ``check_lambda``, each prediction threshold in [0, 1]."""
    return _check_vector(gamma, n_early, "gamma", lambda v: (v >= 0.0) & (v <= 1.0), "[0, 1]")


@dataclass(frozen=True)
class Thresholds:
    """Paired confidence (lam) and prediction (gamma) threshold vectors."""

    lam: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        lam = check_lambda(self.lam)
        object.__setattr__(self, "lam", tuple(lam.tolist()))
        object.__setattr__(self, "gamma", tuple(check_gamma(self.gamma, len(lam)).tolist()))


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


def records_text(header: dict, fields: Sequence[tuple[str, np.ndarray]]) -> str:
    """A line-delimited file: ``header``, then a record per row of the
    (key, column) ``fields``, a (rows, width) column as a list."""
    keys, columns = [], []
    for key, col in fields:
        fmt = "%d" if col.dtype.kind in "iu" else "%.9g"
        if col.ndim == 1:
            keys.append(f'"{key}":{fmt}')
            columns.append(col.tolist())
        else:
            keys.append(f'"{key}":[' + ",".join([fmt] * col.shape[1]) + "]")
            columns.extend(col.T.tolist())
    template = "{" + ",".join(keys) + "}"
    lines = [json_line(header)]
    lines.extend(template % row for row in zip(*columns, strict=True))
    return "\n".join(lines) + "\n"


def trace_set_text(ts: TraceSet) -> str:
    """The file text of a set: the header line, then one record per sample."""
    fields = [("id", ts.ids), ("label", ts.label), ("confidences", ts.conf),
              ("predicted", ts.pred)]
    if ts.features is not None:
        fields.append(("features", ts.features))
    return records_text(ts.topology.header_dict(), fields)


def save_trace_set(ts: TraceSet, path: str | os.PathLike) -> None:
    atomic_write_text(path, trace_set_text(ts))


def save_dataset(path: str | os.PathLike, x: np.ndarray, y: np.ndarray,
                 num_classes: int) -> None:
    x = np.asarray(x, dtype=np.float64)
    header = {"kind": "dataset", "num_samples": int(x.shape[0]),
              "num_classes": int(num_classes), "input_dim": int(x.shape[1])}
    atomic_write_text(path, records_text(header, [
        ("id", np.arange(x.shape[0])), ("label", np.asarray(y, dtype=np.int64)),
        ("features", x)]))


def read_text(path: str | os.PathLike) -> str:
    """The whole file as UTF-8 text, line ends kept as written.

    Bytes that are not UTF-8 raise TraceFormatError naming the path and line.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"{path}: line {lineno}: not UTF-8 text: {exc}") from exc


def read_json(path: str | os.PathLike, text: str | None = None) -> dict:
    """The whole-file JSON object at ``path``.

    The one reader of JSON documents (checkpoints, configs, summaries);
    ``text`` is the file's ``read_text``, if the caller has read it.  Bytes
    that are not UTF-8, text that is not JSON or a value that is not an
    object raise TraceFormatError naming the path and line.
    """
    text = read_text(path) if text is None else text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"{path}: line {exc.lineno}: invalid JSON document: {exc.msg}") from exc
    if not isinstance(doc, dict):
        lineno = text.count("\n", 0, len(text) - len(text.lstrip())) + 1
        raise TraceFormatError(f"{path}: line {lineno}: document must be a JSON object")
    return doc


def load_checkpoint(path: str | os.PathLike, kind: str, build, doc=None):
    """``build(doc)`` for the whole-file JSON document at ``path`` of ``kind``.

    ``doc`` is the ``read_json`` of ``path``, if the caller has read it.  A
    file ``read_json`` rejects raises its TraceFormatError.  A document of
    another kind, a missing field, or a field of the wrong type, shape or
    value raises ValueError naming the path and the kind (or the missing
    field).
    """
    if doc is None:
        doc = read_json(path)
    if doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind!r} document")
    try:
        return build(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {kind!r} document: {exc}") from exc


# The scanner json.loads runs, called without its wrappers.
_SCAN = json.JSONDecoder().scan_once


def read_jsonl(path: str | os.PathLike, text: str | None = None
               ) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for the header and each record of a file.

    The one reader of line-delimited JSON (trace and dataset files); ``text``
    is the file's ``read_text``, if the caller has read it.  Line 1 is the
    header; blank lines after it are skipped.  Lines are counted at newline
    bytes only.  An empty file, bytes that are not UTF-8, a line that is not
    JSON or a value that is not an object raise TraceFormatError naming the
    path and line.  Records are parsed as the caller consumes them.
    """
    lines = (read_text(path) if text is None else text).split("\n")
    if lines == [""]:
        raise TraceFormatError(f"{path}: empty file")
    for lineno, line in enumerate(lines, start=1):
        if lineno > 1 and not line.strip():
            continue
        what = "header" if lineno == 1 else "record"
        # A line that is one JSON value from its first character to its last
        # parses as json.loads would parse it; any other line goes through
        # json.loads, which accepts surrounding blanks and words the error.
        try:
            obj, end = _SCAN(line, 0)
        except (StopIteration, ValueError):
            end = None
        if end != len(line):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}: line {lineno}: invalid JSON {what}: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{path}: line {lineno}: {what} must be a JSON object")
        yield lineno, obj


_NUMBER = frozenset({int, float})


def _numbers(value) -> bool:
    """Whether a record value is a JSON list of numbers."""
    return type(value) is list and _NUMBER.issuperset(map(type, value))


def _type_error(names: Sequence[str], fields: Sequence) -> str:
    """What is wrong with a record whose fields, under ``names``, are not
    all numbers (id, label) or lists of numbers."""
    for name, value in zip(names, fields):
        if name in ("id", "label"):
            if type(value) not in _NUMBER:
                return f"{name} must be an integer, got {value!r}"
        elif not _numbers(value):
            return f"{name} must be a list of numbers"


def _read_records(path, text: str | None, header: Callable[[dict], object],
                  lists: Sequence[str], optional: str | None = None) -> tuple:
    """The one record loop of a trace or dataset file (``text``: as for ``read_jsonl``).

    ``header(line 1)`` reads the header; a KeyError, TypeError, ValueError
    or OverflowError it raises names line 1.  Each record needs a number
    under "id" and "label" and a list of numbers under each of ``lists``;
    the ``optional`` list may be absent or null.  Keys and types are
    checked record by record as they are read, raising TraceFormatError
    naming the path and line.  Returns what ``header`` returned, the
    records' line numbers, ids and labels, and per list (``lists``, then
    ``optional``) its entries end to end and each record's length, -1
    where absent.  Only numbers are kept: a load that kept each record's
    lists would leave the garbage collector a container per field to scan.
    """
    rows = read_jsonl(path, text)
    _, first = next(rows)
    try:
        head = header(first)
    except KeyError as exc:
        raise TraceFormatError(f"{path}: line 1: header missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"{path}: line 1: {exc}") from exc
    names = ("id", "label", *lists, *([optional] if optional else []))
    get = operator.itemgetter("id", "label", *lists)
    lines, ids, labels = [], [], []
    columns = [([], []) for _ in names[2:]]
    for lineno, rec in rows:
        try:
            sid, label, *values = get(rec)
        except KeyError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: record missing key {exc}") from exc
        value = rec.get(optional) if optional else None
        if value is not None:
            values.append(value)
        if not (type(sid) in _NUMBER and type(label) in _NUMBER and all(map(_numbers, values))):
            raise TraceFormatError(
                f"{path}: line {lineno}: {_type_error(names, (sid, label, *values))}")
        lines.append(lineno)
        ids.append(sid)
        labels.append(label)
        for (entries, lengths), v in zip(columns, values):
            entries.extend(v)
            lengths.append(len(v))
        if len(values) < len(columns):
            columns[-1][1].append(-1)
    return head, lines, ids, labels, columns


@contextlib.contextmanager
def _record_errors(path, lines: Sequence[int]):
    """Re-raise a complaint about gathered records as TraceFormatError naming
    ``path`` and, for a _RowError, the line ``lines[row]`` of its record."""
    try:
        yield
    except _RowError as exc:
        raise TraceFormatError(f"{path}: line {lines[exc.row]}: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def load_trace_set(path: str | os.PathLike, text: str | None = None) -> TraceSet:
    """Parse and validate a trace file (``text``: as for ``read_jsonl``).

    Keys and types are checked record by record as they are read
    (``_read_records``), then lengths, then values a column at a time.  A
    failure raises TraceFormatError naming the path and the line of the
    first record that fails the earliest failing stage.
    """
    topo, lines, ids, labels, (conf, pred, feats) = _read_records(
        path, text, ExitTopology.from_header, ("confidences", "predicted"), "features")
    with _record_errors(path, lines):
        # Rebinding frees the gathered entries before the set is built.
        conf, feats = _matrices(topo, ids, conf, pred[1], feats)
        pred = np.array(pred[0]).reshape(len(ids), topo.num_exits)
        # Records hold no bools, so the ids and labels need no scan by type.
        return TraceSet.from_columns(topo, np.asarray(ids), np.asarray(labels), conf, pred,
                                     feats)


def _dataset_header(header: dict) -> tuple[int, int, int]:
    if header.get("kind") != "dataset":
        raise ValueError("not a dataset header")
    return tuple(as_int(header[k], k) for k in ("num_samples", "num_classes", "input_dim"))


def load_dataset(path: str | os.PathLike, text: str | None = None
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse a dataset file; returns (features, labels, num_classes).

    ``text`` is as for ``read_jsonl``.  Records go through the record loop
    and the id, label and feature checks of ``load_trace_set``, after a
    check of feature lengths against the header, naming the path and line.
    """
    (n, p, d), lines, ids, labels, [(feats, feat_len)] = _read_records(
        path, text, _dataset_header, ("features",))
    with _record_errors(path, lines):
        feat_len = np.array(feat_len, dtype=np.int64)
        _raise_first([(feat_len != d,
                       lambda i: f"sample {ids[i]}: features length {feat_len[i]} != {d}")])
        x = _float64(feats).reshape(len(lines), d)
        # Records hold no bools, so the ids and labels need no scan by type.
        _, y, checks = _sample_checks(_integral(np.asarray(ids)), _integral(np.asarray(labels)),
                                      p, x)
        _raise_first(checks)
    if n != len(lines):
        raise TraceFormatError(f"{path}: header claims {n} samples, file has {len(lines)}")
    return x, y, p


def holdout_size(n: int, fraction: float) -> int:
    """Samples ``split_trace_set`` holds out of ``n``: at least one, and fewer than ``n``."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    n_hold = max(1, int(round(n * fraction)))
    if n_hold >= n:
        raise ValueError(f"cannot hold out {n_hold} of {n} samples")
    return n_hold


def split_trace_set(ts: TraceSet, fraction: float, seed: int = 0) -> tuple[TraceSet, TraceSet]:
    """Deterministically split off a held-out part (the second return value).

    ``fraction`` is the held-out share; sample order within each part follows
    the original set.
    """
    n_hold = holdout_size(len(ts), fraction)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ts))
    hold = np.sort(perm[:n_hold])
    keep = np.sort(perm[n_hold:])
    return ts.subset(keep), ts.subset(hold)


# -- CSV tables ---------------------------------------------------------------
# A table's columns are (name, parse) pairs; parse maps a field's text to its
# value or raises ValueError.  Values render by type: a bool as true/false,
# None as '', a vector as its entries joined by '|', a real by repr.  No value
# renders with a comma, quote or newline, so fields are never quoted.


def _real(inside: Callable[[float], bool], bounds: str) -> Callable[[str], float]:
    def parse(text: str) -> float:
        if not inside(value := float(text)):  # written so that NaN fails too
            raise ValueError(f"{text!r} outside {bounds}")
        return value
    return parse


def choice(*texts: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in texts:
            raise ValueError(f"must be one of {', '.join(texts)}, got {text!r}")
        return text
    return parse


RATE = _real(lambda v: 0.0 < v < math.inf, "(0, inf)")
COST = _real(lambda v: 0.0 <= v < math.inf, "[0, inf)")
SHARE = _real(lambda v: 0.0 <= v <= 1.0, "[0, 1]")
FLAG = choice("true", "false")
LAMBDA = lambda text: tuple(check_lambda(text.split("|")).tolist())
GAMMA = lambda text: tuple(check_gamma(text.split("|")).tolist())


def _render(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return "|".join(repr(float(v)) for v in value)
    if value is None or isinstance(value, str):
        return value or ""
    return repr(float(value))


def table_text(columns: Sequence[tuple[str, Callable]], rows: Iterable[Sequence]) -> str:
    """A CSV table: the column names, then a line per row of values."""
    return "".join(",".join(map(_render, row)) + "\n"
                   for row in [[name for name, _ in columns], *rows])


def read_table(path: str | os.PathLike, text: str,
               columns: Sequence[tuple[str, Callable]]) -> list[list]:
    """The rows of a CSV table (no quoting), parsed by ``columns``.  The
    header must be exactly their names and every row as wide; a failure
    raises ValueError naming the path, the line and, for a field, its column."""
    names = [name for name, _ in columns]
    lines = text.split("\n")
    if lines[0].split(",") != names:
        raise ValueError(f"{path}: line 1: header is not {','.join(names)}")
    rows = []
    for lineno, line in enumerate(lines[1:-1] if lines[-1] == "" else lines[1:], start=2):
        if len(fields := line.split(",")) != len(columns):
            raise ValueError(f"{path}: line {lineno}: expected {len(columns)} fields, "
                             f"got {len(fields)}")
        rows.append([])
        for (name, parse), field in zip(columns, fields):
            try:
                rows[-1].append(parse(field))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {name}: {exc}") from exc
    return rows
