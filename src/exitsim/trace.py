"""Data model for partitioned early-exit networks and per-sample traces.

A trace file is line-delimited JSON: one header line describing the network
topology and its costs, then one record per sample.  All policy evaluation
runs against these stored records, so threshold sweeps never touch a live
network.

Reals are stored with 9 significant digits.  A 9-digit decimal round-trips
exactly through an IEEE double, so values are canonicalised to that
precision at construction time and save -> load is the identity.

A ``TraceSet`` keeps its samples as read-only numpy columns.  Building one
from ``SampleTrace`` rows, from arrays or from a file runs one column check
once, ``TraceSet._set``: ids (``_ids``, first on every way in), row shapes,
lengths, then values, the only place sample values are canonicalised and
checked.  Neither a row nor the record loop checks anything itself: a file's
records reach ``from_columns`` as read.  ``subset`` runs only ``_ids``.

Each input shape has one reader here: ``read_json`` for whole-file JSON
documents, ``read_jsonl`` for line-delimited files (whose records
``load_trace_set`` and ``load_dataset`` walk in one loop) and
``read_table`` for CSV tables.  Each input kind read back has one check,
naming the path and the line, column or field: line-delimited records,
CSV tables, threshold vectors (``check_lambda``, ``check_gamma``, which also
check each exit's value list of a threshold grid) and JSON checkpoints
(``load_checkpoint``).

Every number read from outside -- a config key, a header or checkpoint
field, a CSV field, a constructor argument -- has one check: ``as_int`` or
``as_real`` against the interval it must lie in, written as it prints
("(0, 1]", "[0, inf)"), and every array of them ``as_reals`` or ``as_ints``,
which apply that check to each entry.  What counts as a number in an array
is decided once, by ``_scan``, which the ``TraceSet`` columns share, and so
every entry of a trace or dataset file: an int or a float, never a bool or
a string.  The record loop checks only that each record has its keys.  A
value that is no finite number or no integer fails as such, naming its
entry; one outside its interval reads ``{field} must lie in {bounds}, got
{value!r}``.  NaN lies outside every interval.

Files load and save in blocks of ``_CHUNK`` rows, so a load holds the file
text plus about twice the set's columns and a save one block of text.  The
record loop converts each block of a list's entries as it fills, and
``canon_array`` and ``records_text`` work a block at a time; the arrays,
errors and bytes are those of one pass over the whole file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import stat
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

_FLOAT_FMT = ".9g"

# Canonicalisation can round a confidence that equals 1/P (e.g. P=3) just
# below it, so the softmax lower bound is checked with this slack.
CONF_TOL = 1e-9

# 10**k for k = 0..22, each exactly representable as a double.
_POW10 = 10.0 ** np.arange(23)

# Rows each bulk loop takes at a time: file records gathered, reals made
# canonical, records rendered and ``SampleTrace`` rows built.
_CHUNK = 4096


def canon(x: float) -> float:
    """Round a real to the stored precision (9 significant digits)."""
    return float(format(float(x), _FLOAT_FMT))


def canon_array(values) -> np.ndarray:
    """``canon`` applied element by element, as a new float64 array, made
    canonical ``_CHUNK`` rows at a time so that its temporaries stay small.

    A value with at most 9 significant digits is already canonical: it is
    the double nearest to m * 10**(e-8) for an integer |m| < 10**9, e its
    decade.  That is tested exactly: m = rint(x * 10**(8-e)), then m scaled
    back must equal x.  Scaling back by an exact power of ten is correctly
    rounded, which holds for e in [-14, 30].  A decade estimate one too
    high only coarsens the grid and one too low pushes |m| to 10**9, so
    neither lets through a value canon would change.  Every other value
    (more digits, zero, subnormal, huge, non-finite) is formatted as
    ``canon`` formats it, a block's all in one string, and parsed back.
    """
    out = np.array(values, dtype=np.float64)
    flat = out.reshape(-1)
    step = _CHUNK * max(1, math.prod(out.shape[1:]))
    for block in (flat[start:start + step] for start in range(0, flat.size, step)):
        with np.errstate(divide="ignore", invalid="ignore"):
            decade = np.floor(np.log10(np.abs(block)))
        ok = (decade >= -14) & (decade <= 30)
        k = 8 - np.where(ok, decade, 8).astype(np.int64)
        scale = _POW10[np.abs(k)]
        up = k >= 0
        m = np.rint(np.where(up, block * scale, block / scale))
        ok &= (np.abs(m) < 1e9) & (np.where(up, m / scale, m * scale) == block)
        slow = np.flatnonzero(~ok)
        if slow.size:
            text = f"%{_FLOAT_FMT} " * slow.size % tuple(block[slow].tolist())
            block[slow] = np.array(text.split(), dtype=np.float64)
    return out


def fmt_real(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


@functools.lru_cache(maxsize=64)
def _interval(bounds: str) -> tuple[float, float, bool, bool]:
    """(low, high, low closed, high closed) of an interval written "(0, 1]";
    an infinite end is open."""
    low, high = map(float, bounds[1:-1].split(","))
    return low, high, bounds[0] == "[" and low > -math.inf, bounds[-1] == "]" and high < math.inf


def within(values, bounds: str):
    """Whether ``values`` (a float or a numeric array, entry by entry) lie in
    ``bounds``, an interval written as it prints: "(0, 1]", "[0, inf)".  NaN
    and the infinities lie outside every interval."""
    low, high, low_in, high_in = _interval(bounds)
    return ((values >= low if low_in else values > low)
            & (values <= high if high_in else values < high))


def _bounded(number, value, field: str, bounds: str | None):
    """``number`` if it lies in ``bounds`` (None: anywhere), else ValueError."""
    if bounds is None or within(float(number), bounds):
        return number
    raise ValueError(f"{field} must lie in {bounds}, got {value!r}")


def _not_int64(field: str, value) -> str | None:
    """The complaint about ``field`` if ``value`` is no int64 integer, else None."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return f"{field} must be an integer, got {value!r}"
    if not -2**63 <= int(value) < 2**63:
        return f"{field} must be an integer within int64, got {value!r}"
    return None


def as_int(value, field: str, bounds: str | None = None) -> int:
    """An integer field's value, in the interval ``bounds`` if given (see
    ``within``); an integral float such as 3.0 is accepted.

    A fractional or non-finite number, a bool, a non-number or an integer
    beyond int64 raises ValueError naming ``field`` rather than being
    truncated or wrapped, and so does a value outside ``bounds``.
    """
    if complaint := _not_int64(field, value):
        raise ValueError(complaint)
    return _bounded(int(value), value, field, bounds)


def as_real(value, field: str, bounds: str | None = None) -> float:
    """A finite real field's value, in the interval ``bounds`` if given (see
    ``within``); NaN, an infinity, a bool, a non-number or a value outside
    ``bounds`` raises ValueError naming ``field``."""
    if _number(value):
        try:
            if math.isfinite(value):
                return _bounded(float(value), value, field, bounds)
        except OverflowError:  # an integer beyond the double range
            pass
    raise ValueError(f"{field} must be a finite real number, got {value!r}")


def as_reals(values, field: str, bounds: str | None = None, rows: bool = False
             ) -> np.ndarray:
    """The array form of ``as_real``: a list of numbers, or with ``rows`` of
    equally long rows of numbers, as float64 (see ``_scan``).  A string or
    non-list where the list belongs fails as ``{field} must be a list of
    numbers``, a bad row as ``{field}[i] must be a list of numbers of length
    n``, and otherwise the first entry ``as_real`` rejects fails in its
    wording, named ``{field}[i]`` or ``{field}[i][j]``."""
    return _checked(values, rows, *_scan(values, rows), field, as_real, bounds)


def as_ints(values, field: str, bounds: str | None = None) -> np.ndarray:
    """The array form of ``as_int``, as int64 (see ``as_reals``)."""
    return _checked(values, False, *_integral(values, False), field, as_int, bounds)


def _checked(values, rows, given, array, bad, field, check, bounds):
    """``array`` if every entry lies in ``bounds`` (None: is finite) and
    ``bad`` flags none, else ValueError for the first that does not, in the
    wording of ``check``."""
    if given.ndim != 1 + rows:
        raise ValueError(f"{field} must be a list of {'rows of ' * bool(rows)}numbers, "
                         f"got {_python(values)!r}")
    ok = within(array, bounds or "(-inf, inf)")
    if bad is not None:
        ok &= ~bad
    if ok.all():
        return array
    at = tuple(map(int, np.argwhere(~ok)[0]))
    row = values[at[0]]
    if given.ndim == 2 and not (isinstance(row, _ROW) and len(row) == given.shape[1]):
        raise ValueError(f"{field}[{at[0]}] must be a list of numbers of length "
                         f"{given.shape[1]}, got {_python(row)!r}")
    check(_python(functools.reduce(operator.getitem, at, values)),
          field + "".join(f"[{k}]" for k in at), bounds)
    raise AssertionError("check passed an entry flagged as failing it")


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
        for name, bounds in (("num_exits", "[2, inf)"), ("num_classes", "[2, inf)"),
                             ("raw_feature_bits", "[1, inf)")):
            object.__setattr__(self, name, as_int(getattr(self, name), name, bounds))
        n_early = self.num_exits - 1
        for name in ("segment_flops", "exit_flops"):
            values = as_reals(getattr(self, name), name, "[0, inf)")
            if len(values) != n_early:
                raise ValueError(f"{name} must have length {n_early}, got {len(values)}")
            object.__setattr__(self, name, tuple(canon_array(values).tolist()))
        for name, bounds in (("server_flops", "[0, inf)"), ("predictor_flops", "[0, inf)"),
                             ("compression_ratio", "[1, inf)")):
            object.__setattr__(self, name, canon(as_real(getattr(self, name), name, bounds)))

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
    """The first entry of ``row`` that ``mask`` flags, as a Python value (a
    list too, where a list stands for a number)."""
    return _python(col[row][mask[row]][0] if col.ndim > 1 else col[row])


_REAL = (int, float, np.integer, np.floating)
_ROW = (list, tuple, np.ndarray)


def _number(value) -> bool:
    """Whether ``value`` is a number: an int or a float, a numpy one too, not a bool."""
    return isinstance(value, _REAL) and not isinstance(value, bool)


@functools.lru_cache(maxsize=None)
def _number_type(kind: type) -> bool:
    return issubclass(kind, _REAL) and not issubclass(kind, bool)


def _python(value):
    return value.item() if isinstance(value, np.generic) else value


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        return math.inf if value > 0 else -math.inf


def _scan(values, rows: bool):
    """The one type scan of arrays read from outside, in memory or from a
    file: ``values`` as an array, as float64 and the mask of entries that
    are no number (None: all are).

    A number is an int or a float, not a bool: numpy would read True as 1
    and parse "0.5", so types are checked first.  A numeric numpy array
    counts by its dtype; a list of numbers, or of ``rows`` of numbers, by
    each numpy row's dtype and each other row's entry types.  When an entry
    is no number, the array holds Python values (a row that is no list as
    long as the longest in each of its entries) and the float64 array NaN.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values, values.astype(np.float64, copy=False), None
    if not isinstance(values, _ROW):
        return np.array(values, dtype=object), np.full((), np.nan), np.ones((), dtype=bool)
    # A row that is no list raises TypeError here, ragged rows ValueError.
    with contextlib.suppress(TypeError, ValueError):
        if rows:
            dtypes = set(map(getattr, values, repeat("dtype"), repeat(None)))
            types = {d.type for d in dtypes - {None}}
            if None in dtypes:
                types.update(*(map(type, row) for row in values if type(row) is not np.ndarray))
            given = np.array(values, dtype=None if None in dtypes else np.result_type(*dtypes))
        else:
            types, given = set(map(type, values)), np.array(values)
        if (given.dtype.kind in "iuf" and given.ndim == 1 + rows
                and all(map(_number_type, types))):
            return given, given.astype(np.float64, copy=False), None
    lists = values if rows else [values]
    width = max([1] + [len(row) for row in lists if isinstance(row, _ROW)])
    fits = np.array([isinstance(row, _ROW) and len(row) == width for row in lists], dtype=bool)
    given = np.empty((len(lists), width), dtype=object)
    for i, row in enumerate(lists):
        for j, v in enumerate(row if fits[i] else repeat(row, width)):
            given[i, j] = _python(v)
    bad = ~np.frompyfunc(_number, 1, 1)(given).astype(bool) | ~fits[:, None]
    if not rows:
        given, bad = given[0], bad[0]
    return given, np.frompyfunc(_float, 1, 1)(np.where(bad, np.nan, given)).astype(float), bad


def _integral(values, rows: bool):
    """The scan of an integer column: (the values as given, as int64, the
    mask of entries ``as_int`` rejects).  Unless numpy reads them as int64,
    each entry is checked exactly, on its own: numpy reads a list's ints as
    doubles beside a float, and as uint64 past int64."""
    given = _scan(values, rows)[0]
    if given.dtype.kind == "i":
        return given, given.astype(np.int64), np.zeros(given.shape, dtype=bool)
    given = given if given.dtype == object else np.array(values, dtype=object)
    bad = np.frompyfunc(functools.partial(_not_int64, ""), 1, 1)(given.ravel()).astype(bool)
    bad = bad.reshape(given.shape)
    return given, np.where(bad, 0, given).astype(np.int64), bad


def _ids(values) -> np.ndarray:
    """The one id check, first on every way into a set: ``values`` as int64
    ids, a 1-d list of integers within int64, each used once.  Raises
    ValueError for no list, _RowError at the first bad or repeated id."""
    given, ids, bad = _integral(values, False)
    if ids.ndim != 1:
        raise ValueError(f"id must be a list of integers, got {values!r}")
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(ids, return_index=True)[1]] = False
    _raise_first([(bad, lambda i: _not_int64("id", _entry(given, bad, i))),
                  (repeated, lambda i: f"sample {ids[i]}: duplicate id")])
    return ids


def _sample_checks(ids, label, p: int, features):
    """The checks a trace set and a dataset share, naming samples by the
    checked ``ids``: integral labels (as ``_integral`` returns them) in [0,
    p), nonempty finite features (as given, as canonical float64, NaN where
    no number stands; None: none).  Returns int64 labels and the checks."""
    label_given, label, label_bad = label
    checks = [
        (label_bad, lambda i: _not_int64(f"sample {ids[i]}: label",
                                         _entry(label_given, label_bad, i))),
        ((label < 0) | (label >= p),
         lambda i: f"sample {ids[i]}: label {label[i]} outside [0, {p})"),
    ]
    if features is not None:
        given, bad = features[0], ~np.isfinite(features[1])
        checks += [(np.full(len(ids), not bad.shape[1]),
                    lambda i: f"sample {ids[i]}: features must not be empty"),
                   (bad, lambda i: f"sample {ids[i]}: features must be finite numbers, "
                                   f"got {_entry(given, bad, i)!r}")]
    return label, checks


def _row_lengths(name: str, col, ids) -> list[int] | int:
    """The lengths of ``col``'s rows, one per id (-1: no features, or a
    feature row of None), a 2-d array's from its shape.  A row is a list, a
    tuple or a 1-d numpy row; a string has a length but is no row.  Raises
    ValueError for a column of another count, _RowError for a row of none."""
    if col is None and name == "features":
        return -1
    count = len(col) if isinstance(col, _ROW) and getattr(col, "ndim", 1) else None
    if count != len(ids):
        raise ValueError(f"{name} must hold {len(ids)} rows, one per id, got {count or col!r}")
    if isinstance(col, np.ndarray) and col.ndim == 2:
        return col.shape[1]
    kinds = (*_ROW, type(None)) if name == "features" else _ROW
    seen = set(map(type, col))
    if not all(issubclass(kind, kinds) for kind in seen) or (
            any(issubclass(kind, np.ndarray) for kind in seen)
            and {getattr(v, "ndim", 1) for v in col} != {1}):
        i = [isinstance(v, kinds) and getattr(v, "ndim", 1) == 1 for v in col].index(False)
        raise _RowError(i, f"sample {ids[i]}: {name} must be a list of numbers")
    return [-1 if v is None else len(v) for v in col] if type(None) in seen else list(map(len, col))


def _lengths(ids, conf_len, pred_len, feat_len, n_exits: int, dim: int | None = None) -> int:
    """The features' width (-1: none), once each sample's lengths fit; every
    length complaint comes from here.  Lengths come per sample or one for
    all (-1: no features).  Confidences must be as long as the predicted
    classes and ``n_exits``, features on every sample or none and ``dim``
    long (None: as the first sample's).  Raises _RowError at the first misfit."""
    n = len(ids)
    conf_len, pred_len, feat_len = (np.broadcast_to(np.asarray(lengths, dtype=np.int64), n)
                                    for lengths in (conf_len, pred_len, feat_len))
    dim = (int(feat_len[0]) if n else -1) if dim is None else dim
    _raise_first([
        (conf_len != pred_len, lambda i: f"sample {ids[i]}: confidences and predicted "
                                         f"lengths differ ({conf_len[i]} vs {pred_len[i]})"),
        (conf_len != n_exits,
         lambda i: f"sample {ids[i]}: confidences length {conf_len[i]} != N={n_exits}"),
        ((feat_len < 0) != (dim < 0),
         lambda i: f"sample {ids[i]}: features present for only part of the set"),
        (feat_len != dim, lambda i: f"sample {ids[i]}: features length {feat_len[i]} != {dim}"),
    ])
    return dim


class TraceSet:
    """A topology plus the samples traced through it, kept as columns.

    ``ids`` and ``label`` are (samples,) int64; ``conf`` holds the top-1
    confidence and ``pred`` the predicted class at each exit, both
    (samples, N); ``features`` is (samples, d) float64 or None.  The
    columns are read-only.  ``samples`` yields the rows as ``SampleTrace``.
    """

    def __init__(self, topology: ExitTopology, samples: Iterable[SampleTrace]):
        # The rows go in unstacked, so that the column check scans their entries.
        self._set(topology, *(tuple(zip(*samples)) or ([],) * 5))

    @classmethod
    def from_columns(cls, topology: ExitTopology, ids, label, conf, pred,
                     features=None) -> "TraceSet":
        """A set from arrays: ``ids`` and ``label`` (samples,), ``conf`` and
        ``pred`` (samples, N), ``features`` (samples, d) or None."""
        ts = cls.__new__(cls)
        ts._set(topology, ids, label, conf, pred, features)
        return ts

    def _set(self, topology: ExitTopology, ids, label, conf, pred, features) -> None:
        """The one column check and canonicaliser, which every builder reaches: ids
        (``_ids``), then column counts and row shapes (``_row_lengths``), lengths
        (``_lengths``) and values, naming samples by int64 id; stores read-only copies."""
        p, n_exits = topology.num_classes, topology.num_exits
        ids, label_col = _ids(ids), _integral(label, False)
        if label_col[1].shape != (n := len(ids),):
            raise ValueError(f"label must be a list of {n} integers, one per id, got {label!r}")
        dim = _lengths(ids, *(_row_lengths(name, col, ids) for name, col in (
            ("confidences", conf), ("predicted", pred), ("features", features))), n_exits)
        pred_given, pred, pred_bad = _integral(pred, True)
        conf_given, conf, conf_bad = _scan(conf, True)
        # The scan reads no rows as (0, 1).
        pred, conf = pred.reshape(n, n_exits), canon_array(conf).reshape(n, n_exits)
        # Canonical before the checks make their masks, for a lower peak memory.
        given, real, _ = _scan(features, True) if dim >= 0 else (None,) * 3
        features = None if dim < 0 else (given, canon_array(real))
        label, checks = _sample_checks(ids, label_col, p, features)
        if conf_bad is not None:
            checks.append((conf_bad, lambda i: f"sample {ids[i]}: confidences must be numbers, "
                                               f"got {_entry(conf_given, conf_bad, i)!r}"))
        # Written so that NaN fails too.
        conf_out = ~((conf >= 1.0 / p - CONF_TOL) & (conf < 1.0))
        pred_out = (pred < 0) | (pred >= p)
        _raise_first(checks + [
            (conf_out, lambda i: f"sample {ids[i]}: confidences entry "
                                 f"{_entry(conf, conf_out, i)!r} outside [1/P, 1)"),
            (pred_bad, lambda i: _not_int64(f"sample {ids[i]}: predicted",
                                            _entry(pred_given, pred_bad, i))),
            (pred_out, lambda i: f"sample {ids[i]}: predicted class "
                                 f"{_entry(pred, pred_out, i)} outside [0, {p})"),
        ])
        self._store(topology, ids, label, conf, pred, None if features is None else features[1])

    def _store(self, topology: ExitTopology, ids, label, conf, pred, features) -> None:
        """Keep checked columns, made read-only; the caller hands them over."""
        # A set of no rows holds no features: its file cannot say their width.
        for name, col in (("ids", ids), ("label", label), ("conf", conf), ("pred", pred),
                          ("features", features if len(ids) else None)):
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
        for start in range(0, len(self), _CHUNK):
            part = slice(start, start + _CHUNK)
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
        """The samples at ``indices``, integers in [0, len(self)), in that
        order.  Rows of a checked set stay canonical and in range, so only
        a repeated index can break the new set: ``_ids`` raises it as a duplicate id.
        """
        rows = as_ints(indices, "indices", f"[0, {len(self)})")
        columns = [None if c is None else c[rows] for c in self._columns()]
        _ids(columns[0])
        ts = TraceSet.__new__(TraceSet)
        ts._store(self.topology, *columns)
        return ts


def _length(vec: np.ndarray, n_early: int | None, name: str) -> np.ndarray:
    if not len(vec) or len(vec) != (n_early or len(vec)):
        raise ValueError(f"{name} must have length {n_early or '>= 1'}, got shape {vec.shape}")
    return vec


def check_lambda(lam, n_early: int | None = None) -> np.ndarray:
    """The one lambda check: a float64 vector of ``n_early`` (default: >= 1)
    confidence thresholds, each in (0, 1)."""
    return _length(as_reals(lam, "lambda", "(0, 1)"), n_early, "lambda")


def check_gamma(gamma, n_early: int | None = None) -> np.ndarray:
    """The one gamma check: as ``check_lambda``, each prediction threshold in [0, 1]."""
    return _length(as_reals(gamma, "gamma", "[0, 1]"), n_early, "gamma")


@dataclass(frozen=True)
class Thresholds:
    """Paired confidence (lam) and prediction (gamma) threshold vectors."""

    lam: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        lam = check_lambda(self.lam)
        object.__setattr__(self, "lam", tuple(lam.tolist()))
        object.__setattr__(self, "gamma", tuple(check_gamma(self.gamma, len(lam)).tolist()))


def atomic_write_text(path: str | os.PathLike, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or the strings an iterable yields in turn, to
    a file atomically (temp file in the same directory + rename).  The file
    is UTF-8 with line ends as given, the form ``read_text`` reads; if the
    iterable raises, no file is written and one at ``path`` is kept.  Its
    mode is what ``open(path, "w")`` leaves: an existing file's own, else
    0o666 less the umask.  A symbolic link is written through, as ``open``
    writes it: the link stays, and its target (created when missing) gets
    the text."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # Created as open() creates a file, so the kernel applies the umask;
    # O_EXCL never opens a file that is already there.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_real(value)
    if isinstance(value, list):
        return "[" + ",".join(map(_json_value, value)) + "]"
    return json.dumps(value)


def json_line(obj: dict) -> str:
    """Render one flat record as a JSON line, reals at stored precision.

    Every value, and every entry of a list, renders by its own type, so a
    list that mixes ints, floats and bools keeps each entry as it is.  A
    value JSON has no form for raises TypeError naming its key."""
    parts = []
    for key, value in obj.items():
        try:
            parts.append(f'"{key}":{_json_value(value)}')
        except TypeError as exc:
            raise TypeError(f"json_line: key {key!r}: {exc}") from exc
    return "{" + ",".join(parts) + "}"


def records_text(header: dict, fields: Sequence[tuple[str, np.ndarray]]) -> Iterator[str]:
    """A line-delimited file as the texts of its blocks: the ``header``
    line, then a record per row of the (key, column) ``fields``, a (rows,
    width) column as a list, ``_CHUNK`` rows to a block.

    Each block is rendered in one ``%`` call: the record template repeated
    once per row, over the block's values of every column in row-major
    order.  So a save holds one block's values and text whatever its rows,
    and the blocks joined are the file."""
    keys = []
    for key, col in fields:
        fmt = "%d" if col.dtype.kind in "iu" else "%.9g"
        keys.append(f'"{key}":{fmt}' if col.ndim == 1
                    else f'"{key}":[' + ",".join([fmt] * col.shape[1]) + "]")
    template = "{" + ",".join(keys) + "}\n"
    yield json_line(header) + "\n"
    n = len(fields[0][1])
    for start in range(0, n, _CHUNK):
        columns = []
        for _, col in fields:
            part = col[start:start + _CHUNK]
            columns.extend([part.tolist()] if part.ndim == 1 else part.T.tolist())
        values = tuple(chain.from_iterable(zip(*columns, strict=True)))
        del columns  # the lists' pointer arrays; ``values`` holds the numbers now
        yield template * (min(n, start + _CHUNK) - start) % values


def _trace_blocks(ts: TraceSet) -> Iterator[str]:
    """The file text of a set in blocks (see ``records_text``): the header
    line, then one record per sample."""
    fields = [("id", ts.ids), ("label", ts.label), ("confidences", ts.conf),
              ("predicted", ts.pred)]
    if ts.features is not None:
        fields.append(("features", ts.features))
    return records_text(ts.topology.header_dict(), fields)


def trace_set_text(ts: TraceSet) -> str:
    """The file text of a set: the header line, then one record per sample."""
    return "".join(_trace_blocks(ts))


def save_trace_set(ts: TraceSet, path: str | os.PathLike) -> None:
    atomic_write_text(path, _trace_blocks(ts))


def save_dataset(path: str | os.PathLike, x: np.ndarray, y: np.ndarray,
                 num_classes: int) -> None:
    """Write what ``load_dataset`` reads back: finite features ``x`` in
    rows of at least one, integer labels ``y`` in [0, ``num_classes``), one
    per row.  Anything else raises ValueError naming the field, and no file
    is written."""
    num_classes = as_int(num_classes, "num_classes", "[2, inf)")
    x = as_reals(x, "x", rows=True)
    y = as_ints(y, "labels", f"[0, {num_classes})")
    if len(y) != len(x):
        raise ValueError(f"labels must have length {len(x)}, one per row of x, got {len(y)}")
    header = {"kind": "dataset", "num_samples": int(x.shape[0]), "num_classes": num_classes,
              "input_dim": as_int(x.shape[1], "input_dim", "[1, inf)")}
    atomic_write_text(path, records_text(header, [
        ("id", np.arange(x.shape[0])), ("label", y), ("features", x)]))


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
    path and line.  Lines are cut from the text and parsed as the caller
    consumes them, so no list of them is made.
    """
    text = read_text(path) if text is None else text
    if not text:
        raise TraceFormatError(f"{path}: empty file")
    start, lineno = 0, 0
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line, start, lineno = text[start:end], end + 1, lineno + 1
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


def _read_records(path, text: str | None, header: Callable[[dict], object],
                  lists: Sequence[str], optional: str | None = None) -> tuple:
    """The one record loop of a trace or dataset file (``text``: as for ``read_jsonl``).

    ``header(line 1)`` reads the header; a KeyError, TypeError, ValueError
    or OverflowError it raises names line 1.  Each record needs an "id", a
    "label" and each of ``lists``; the ``optional`` list may be absent or
    null.  A missing key names the path and line; nothing else is checked
    here, since the column check (``TraceSet._set``) checks what is read.
    Returns what ``header`` returned, the records' line numbers (int64),
    ids and labels as read, and per list (``lists``, then ``optional``) its
    column (``_column``).  A list's entries and the line numbers are
    gathered ``_CHUNK`` records at a time and each full block is converted
    at once (``_convert``), so a load of numbers holds Python values for
    one block only.
    """
    rows = read_jsonl(path, text)
    _, first = next(rows)
    try:
        head = header(first)
    except KeyError as exc:
        raise TraceFormatError(f"{path}: line 1: header missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"{path}: line 1: {exc}") from exc
    get = operator.itemgetter("id", "label", *lists)
    ids, labels = [], []
    # Per list, then for the line numbers, which a load holds to its end:
    # its converted blocks and the entries of the block being gathered.
    # Per list: each record's length (-1: absent, -2: no list).
    lengths = [[] for _ in range(len(lists) + bool(optional))]
    blocks, entries = ([[] for _ in range(len(lengths) + 1)] for _ in range(2))
    for lineno, rec in rows:
        try:
            sid, label, *values = get(rec)
        except KeyError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: record missing key {exc}") from exc
        if optional:
            values.append(rec.get(optional))
        entries[-1].append(lineno)
        ids.append(sid)
        labels.append(label)
        for k, v in enumerate(values):
            row = isinstance(v, _ROW)  # a null dataset "features" is no list
            entries[k].extend(v if row else ())
            lengths[k].append(len(v) if row else -1 if v is None and k == len(lists) else -2)
        if len(ids) % _CHUNK == 0:
            _convert(blocks, entries)
    _convert(blocks, entries)
    *columns, lines = map(_joined, blocks)
    return head, lines, ids, labels, [_column(c, n) for c, n in zip(columns, lengths)]


def _column(entries: np.ndarray, lengths: list[int]):
    """A list's column as ``from_columns`` takes it, from its ``entries`` end
    to end and each record's length (-1: absent, -2: no list): a (records,
    length) view of the entries when every record holds a list of one
    length, None when no record holds the list, else a row per record: its
    entries, None where absent and NaN where no list, which
    ``_row_lengths`` and ``_lengths`` reject."""
    kinds = set(lengths)
    if kinds == {-1}:
        return None
    if len(kinds) < 2 and (width := max(kinds, default=0)) >= 0:
        return entries.reshape(len(lengths), width)
    ends = np.cumsum(np.maximum(lengths, 0)).tolist()
    return [entries[end - k:end] if k >= 0 else (None if k == -1 else math.nan)
            for end, k in zip(ends, lengths)]


def _convert(blocks: list[list], entries: list[list]) -> None:
    """Move each list's gathered ``entries``, unless none, to its ``blocks``:
    as ``_scan`` reads them if that is int64, or float64 below 2**53 in
    magnitude, where each integer entry is exact; else as given (a bool, a
    string, uint64 or a number too large for either)."""
    for k, block in enumerate(entries):
        if block:
            given = _scan(block, False)[0]
            exact = given.dtype == np.int64 or (given.dtype == np.float64
                                                and not (np.abs(given) >= 2.0**53).any())
            blocks[k].append(given if exact else block)
            entries[k] = []


def _joined(blocks: list) -> np.ndarray:
    """The entries of a list's ``blocks`` end to end, as ``_scan`` reads
    their whole list.  Numeric blocks are joined, int64 beside float64 as
    float64, as numpy reads ints beside floats.  If any block is kept as
    given, the whole list is scanned again, numeric blocks as their Python
    values, which equal those read."""
    if all(isinstance(b, np.ndarray) for b in blocks):
        return np.concatenate(blocks) if blocks else np.empty(0)
    return _scan(list(chain.from_iterable(
        b.tolist() if isinstance(b, np.ndarray) else b for b in blocks)), False)[0]


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

    ``_read_records`` checks JSON syntax and record keys; the columns it
    gathers go to ``TraceSet.from_columns``, whose one check runs as on
    columns from memory: ids, row shapes, lengths, then types and values.
    A failure raises TraceFormatError naming the path and the line of the
    first record that fails the earliest failing stage.
    """
    topo, lines, ids, labels, (conf, pred, feats) = _read_records(
        path, text, ExitTopology.from_header, ("confidences", "predicted"), "features")
    with _record_errors(path, lines):
        return TraceSet.from_columns(topo, ids, labels, conf, pred, feats)


def _dataset_header(header: dict) -> tuple[int, int, int]:
    if header.get("kind") != "dataset":
        raise ValueError("not a dataset header")
    return tuple(as_int(header[k], k, bounds) for k, bounds in (
        ("num_samples", "[0, inf)"), ("num_classes", "[2, inf)"), ("input_dim", "[1, inf)")))


def load_dataset(path: str | os.PathLike, text: str | None = None
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse a dataset file; returns (features, labels, num_classes).

    ``text`` is as for ``read_jsonl``.  The records gathered by the record
    loop are checked in the order of ``TraceSet._set``: ids, row shapes,
    lengths (feature rows as long as the header says), then the label and
    feature checks of a trace set, naming the path and line; then the
    header's sample count.
    """
    (n, p, d), lines, ids, labels, [feats] = _read_records(
        path, text, _dataset_header, ("features",))
    with _record_errors(path, lines):
        ids = _ids(ids)
        # A dataset holds no confidences or predictions.
        _lengths(ids, 0, 0, _row_lengths("features", feats, ids), 0, d)
        given, x, _ = _scan(feats, True)
        x = x.reshape(len(ids), d)  # a file of no records reads as (0, 0)
        y, checks = _sample_checks(ids, _integral(labels, False), p, (given.reshape(x.shape), x))
        _raise_first(checks)
    if n != len(lines):
        raise TraceFormatError(f"{path}: header claims {n} samples, file has {len(lines)}")
    return x, y, p


def holdout_size(n: int, fraction: float) -> int:
    """Samples ``split_trace_set`` holds out of ``n``: at least one, and fewer than ``n``."""
    n, fraction = as_int(n, "n", "[0, inf)"), as_real(fraction, "fraction", "(0, 1)")
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
    rng = np.random.default_rng(as_int(seed, "seed", "[0, inf)"))
    perm = rng.permutation(len(ts))
    hold = np.sort(perm[:n_hold])
    keep = np.sort(perm[n_hold:])
    return ts.subset(keep), ts.subset(hold)


# -- CSV tables ---------------------------------------------------------------
# A table's columns are (name, parse) pairs; parse maps a field's text to its
# value or raises ValueError.  Values render by type: a bool as true/false,
# None as '', a vector as its entries joined by '|', a real by repr.  No value
# renders with a comma, quote or newline, so fields are never quoted.


def real(bounds: str) -> Callable[[str], float]:
    """The parse of a real column whose values lie in ``bounds``."""
    return lambda text: as_real(float(text), "value", bounds)


def choice(*texts: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in texts:
            raise ValueError(f"must be one of {', '.join(texts)}, got {text!r}")
        return text
    return parse


RATE, COST, SHARE = real("(0, inf)"), real("[0, inf)"), real("[0, 1]")
FLAG = choice("true", "false")
LAMBDA = lambda text: tuple(check_lambda(list(map(float, text.split("|")))).tolist())
GAMMA = lambda text: tuple(check_gamma(list(map(float, text.split("|")))).tolist())


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
    header must be exactly their names, then one row or more, each as wide;
    a failure raises ValueError naming the path, the line and any column."""
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
    if not rows:
        raise ValueError(f"{path}: line 2: table has no rows")
    return rows
