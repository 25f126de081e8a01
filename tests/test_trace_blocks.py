"""Trace and dataset files load and save in blocks of ``trace._CHUNK`` rows.

A block size of 3 puts block boundaries inside small files: every load must
return the arrays and raise the errors of one pass over the whole file, and
every save must write its bytes.
"""

import gc
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from exitsim import trace
from exitsim.trace import (
    TraceFormatError,
    TraceSet,
    atomic_write_text,
    load_dataset,
    load_trace_set,
    save_dataset,
    save_trace_set,
)

from helpers import VGG_TOPOLOGY

_TRACE_HEADER = json.dumps(VGG_TOPOLOGY.header_dict())
_DATASET_HEADER = '{"kind":"dataset","num_samples":%d,"num_classes":10,"input_dim":2}'


def _record(i: int, dataset: bool) -> dict:
    """Record ``i``: integer features in some blocks, reals in others, so a
    list's blocks read as int64 beside float64."""
    features = [i, 2] if i % 7 < 3 else [i + 0.25, 2]
    if dataset:
        return {"id": i, "label": i % 10, "features": features}
    return {"id": i, "label": i % 10, "confidences": [0.5, 0.25 + i / 100, 0.75],
            "predicted": [i % 10, 3, 1], "features": features}


def _text(records: list, dataset: bool) -> str:
    header = _DATASET_HEADER % len(records) if dataset else _TRACE_HEADER
    lines = [header] + [r if isinstance(r, str) else json.dumps(r) for r in records]
    return "\n".join(lines) + "\n"


def _outcome(loader, path):
    """What a load gives: each array's dtype, shape and bytes, or the error."""
    try:
        got = loader(path)
    except TraceFormatError as exc:
        return str(exc)
    columns = got._columns() if isinstance(got, TraceSet) else got[:2]
    return [None if c is None else (c.dtype.str, c.shape, c.tobytes()) for c in columns]


def _both(monkeypatch, loader, path):
    """The outcome of a load in one block and in blocks of 3 rows."""
    whole = _outcome(loader, path)
    with monkeypatch.context() as m:
        m.setattr(trace, "_CHUNK", 3)
        return whole, _outcome(loader, path)


LOADERS = {"trace": (load_trace_set, False), "dataset": (load_dataset, True)}


@pytest.mark.parametrize("kind", list(LOADERS))
@pytest.mark.parametrize("n", range(11))
def test_a_load_in_blocks_returns_the_arrays_of_one_block(tmp_path, monkeypatch, kind, n):
    loader, dataset = LOADERS[kind]
    path = tmp_path / "t.jsonl"
    path.write_text(_text([_record(i, dataset) for i in range(n)], dataset))
    whole, blocks = _both(monkeypatch, loader, path)
    assert not isinstance(whole, str), whole
    assert blocks == whole


def _entry(field, j, value):
    def edit(rec):
        rec[field] = rec[field][:j] + [value] + rec[field][j + 1:]
        return rec
    return edit


def _set(field, value):
    def edit(rec):
        rec[field] = value
        return rec
    return edit


def _drop(field):
    def edit(rec):
        del rec[field]
        return rec
    return edit


# Each defect: the edit of one record, and what the load says (None: it loads).
DEFECTS = {
    "string-entry": (_entry("features", 1, "2"), "features must be finite numbers, got '2'$"),
    "bool-entry": (_entry("features", 0, True), "features must be finite numbers, got True$"),
    "uint64-feature": (_entry("features", 0, 2**63), None),
    "uint64-beside-minus-one": (_set("features", [-1, 2**63]), None),
    "huge-feature": (_entry("features", 1, 10**20), None),
    "int-float-mix": (_entry("features", 1, 2.0), None),
    "missing-key": (_drop("label"), "record missing key 'label'$"),
    "non-list": (_set("features", 3), "features must be a list of numbers$"),
    "duplicate-id": (_set("id", 0), "sample 0: duplicate id$"),
    "bad-json": ("{not json", "invalid JSON record"),
}
# The trace file's integer lists: a prediction beyond int64 beside -1 or
# among small integers (both read as float64 by numpy 2), and a real among them.
TRACE_DEFECTS = {
    "string-predicted": (_entry("predicted", 0, "3"), "predicted must be an integer, got '3'$"),
    "bool-predicted": (_entry("predicted", 2, False), "predicted must be an integer, got False$"),
    "uint64-predicted": (_entry("predicted", 1, 2**63), "predicted must be an integer within"),
    "uint64-beside-minus-one-predicted": (_set("predicted", [-1, 2**63, 1]),
                                          "predicted must be an integer within"),
    "int-float-mix-predicted": (_entry("predicted", 1, 3.0), None),
    "fractional-predicted": (_entry("predicted", 1, 3.5),
                             "predicted must be an integer, got 3.5$"),
    "string-confidence": (_entry("confidences", 1, "0.5"),
                          "confidences must be numbers, got '0.5'$"),
}


def _defective(kind: str, name: str, at: int, n: int) -> list:
    """``n`` records, record ``at`` edited by defect ``name``."""
    dataset = kind == "dataset"
    edit = {**DEFECTS, **TRACE_DEFECTS}[name][0]
    records = [_record(i, dataset) for i in range(n)]
    records[at] = edit if isinstance(edit, str) else edit(records[at])
    return records


@pytest.mark.parametrize("at", [1, 6], ids=["first-block", "last-block"])
@pytest.mark.parametrize("kind, name", [(k, d) for k in LOADERS for d in DEFECTS]
                         + [("trace", d) for d in TRACE_DEFECTS])
def test_a_defect_reads_alike_in_blocks_and_in_one(tmp_path, monkeypatch, kind, name, at):
    loader, dataset = LOADERS[kind]
    path = tmp_path / "t.jsonl"
    path.write_text(_text(_defective(kind, name, at, 7), dataset))
    whole, blocks = _both(monkeypatch, loader, path)
    assert blocks == whole
    message = {**DEFECTS, **TRACE_DEFECTS}[name][1]
    if message is None:
        assert not isinstance(whole, str), whole
    else:
        assert isinstance(whole, str), f"{name} loaded"
        prefix = f"{path}: line {at + 2}: "
        assert whole.startswith(prefix), whole
        assert re.search(message, whole[len(prefix):]), whole


def _predicted(*values):
    return lambda rec: {**rec, "predicted": list(values)}


def _features(*values):
    return lambda rec: {**rec, "features": list(values)}


# Defects in two records of different blocks, where a block alone reads
# otherwise than the whole list.
@pytest.mark.parametrize("first, last", [
    # -1 beside 2**63 reads as float64; the blocks apart read otherwise.
    (_predicted(-1, 3, 1), _predicted(2**63, 3, 1)),
    # The first block reads as float64, which turns 2**63 into a float and
    # rounds 2**53 + 1; the bool has the whole list scanned again, which must
    # see the integers as written.
    (_predicted(-1, 2**63, 2**53 + 1), _predicted(True, 3, 1)),
    (_predicted(2**53 + 1, 3.0, 3), _predicted(True, 3, 1)),
    (_predicted(-1, 2**53 + 1, 0.5), _predicted(1, 3, "1")),
    (_features(2**53 + 1, 0.5), _features(1, "x")),
    (_features(10**20, 0.5), _features(2**63, 1)),
], ids=["minus-one-then-uint64", "float-block-then-bool", "rounded-int-then-bool",
        "rounded-int-beside-real-then-string", "rounded-feature-then-string",
        "object-block-then-huge-int"])
def test_defects_in_two_blocks_read_alike(tmp_path, monkeypatch, first, last):
    records = [_record(i, False) for i in range(7)]
    records[0], records[6] = first(records[0]), last(records[6])
    path = tmp_path / "t.jsonl"
    path.write_text(_text(records, False))
    whole, blocks = _both(monkeypatch, load_trace_set, path)
    assert blocks == whole


def _columns_set(n: int, seed: int = 0, features: bool = True) -> TraceSet:
    rng = np.random.default_rng(seed)
    return TraceSet.from_columns(VGG_TOPOLOGY, np.arange(n) * 3 - 7, rng.integers(0, 10, n),
                                 rng.uniform(0.1, 0.999, (n, 3)), rng.integers(0, 10, (n, 3)),
                                 rng.normal(size=(n, 8)) if features else None)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_a_save_in_blocks_writes_the_bytes_of_one_block(tmp_path, monkeypatch, n):
    ts = _columns_set(n, seed=n, features=n % 2 == 0)
    x, y = np.random.default_rng(n).normal(size=(n, 3)) * 1e3, np.arange(n) % 4
    saves = {"trace.jsonl": lambda p: save_trace_set(ts, p),
             "dataset.jsonl": lambda p: save_dataset(p, x, y, 4)}
    for name, save in saves.items():
        save(tmp_path / name)
        with monkeypatch.context() as m:
            m.setattr(trace, "_CHUNK", 3)
            save(tmp_path / f"blocks-{name}")
        whole = (tmp_path / name).read_bytes()
        assert (tmp_path / f"blocks-{name}").read_bytes() == whole
        assert whole.count(b"\n") == n + 1


def _broken_stream():
    yield "first block\n"
    raise RuntimeError("stream broke")


def test_a_stream_that_breaks_writes_nothing(tmp_path):
    with pytest.raises(RuntimeError, match="stream broke"):
        atomic_write_text(tmp_path / "new.jsonl", _broken_stream())
    assert os.listdir(tmp_path) == []
    (tmp_path / "old.jsonl").write_bytes(b"kept\n")
    with pytest.raises(RuntimeError, match="stream broke"):
        atomic_write_text(tmp_path / "old.jsonl", _broken_stream())
    assert os.listdir(tmp_path) == ["old.jsonl"]
    assert (tmp_path / "old.jsonl").read_bytes() == b"kept\n"


def test_atomic_write_text_writes_utf8_with_line_ends_as_given(tmp_path):
    # An ASCII locale with UTF-8 mode and locale coercion off: the file must
    # not follow the locale's encoding or newline.
    path = tmp_path / "t.txt"
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    subprocess.run([sys.executable, "-c", "import sys; from exitsim.trace import "
                    "atomic_write_text; atomic_write_text(sys.argv[1], '\\xe9\\r\\n')",
                    str(path)], env=env, check=True)
    assert path.read_bytes() == "é\r\n".encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_atomic_write_text_leaves_the_mode_open_w_would(tmp_path, umask):
    # A new file gets 0o666 less the umask; a file written over keeps its
    # own mode, as a plain open(path, "w") leaves them.
    mode = lambda path: stat.S_IMODE(os.stat(path).st_mode)
    kept = {0o640: tmp_path / "kept-640.txt", 0o666: tmp_path / "kept-666.txt"}
    for old_mode, path in kept.items():
        path.write_text("old\n")
        os.chmod(path, old_mode)
    old_umask = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "new.txt", "x\n")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x\n")
        for path in kept.values():
            atomic_write_text(path, "x\n")
    finally:
        os.umask(old_umask)
    assert mode(tmp_path / "new.txt") == mode(tmp_path / "plain.txt") == 0o666 & ~umask
    for old_mode, path in kept.items():
        assert mode(path) == old_mode, path.name
    assert sorted(os.listdir(tmp_path)) == ["kept-640.txt", "kept-666.txt", "new.txt",
                                            "plain.txt"]


def _peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of one call."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_save_holds_one_block_whatever_its_rows(tmp_path):
    small, large = _columns_set(20_000), _columns_set(80_000)
    small_peak = _peak(save_trace_set, small, tmp_path / "small.jsonl")
    large_peak = _peak(save_trace_set, large, tmp_path / "large.jsonl")
    assert large_peak < 1.1 * small_peak, (small_peak, large_peak)


def test_a_load_holds_the_text_and_about_twice_the_columns(tmp_path):
    ts = _columns_set(20_000)
    path = tmp_path / "t.jsonl"
    save_trace_set(ts, path)
    columns = sum(c.nbytes for c in ts._columns())
    peak = _peak(load_trace_set, path)
    assert peak < path.stat().st_size + 3 * columns, (peak, path.stat().st_size, columns)
