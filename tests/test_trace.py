import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim.cli import check_config, emit_frontier, main, validate_artifact
from exitsim.engine import AggregateReport, Environment, policy_stats
from exitsim.nncore import Mlp
from exitsim.optimizer import (PolicyPoint, ThresholdRegressor, policy_points_csv, save_regressors,
                               sweep_bandwidths)
from exitsim.trace import (
    ExitTopology,
    SampleTrace,
    Thresholds,
    TraceFormatError,
    TraceSet,
    as_int,
    as_ints,
    as_reals,
    canon,
    canon_array,
    check_gamma,
    check_lambda,
    json_line,
    load_trace_set,
    save_trace_set,
    split_trace_set,
    trace_set_text,
)
from exitsim.zoo import (SynthSpec, ToyEarlyExitNet, check_exit_weights, load_dataset,
                         save_dataset)

from helpers import VGG_TOPOLOGY, random_trace_set


def small_topology(n=3, p=10):
    return ExitTopology(
        num_exits=n,
        segment_flops=[1.0] * (n - 1),
        exit_flops=[0.5] * (n - 1),
        server_flops=10.0,
        predictor_flops=0.1,
        num_classes=p,
        raw_feature_bits=1024,
        compression_ratio=4.0,
    )


def test_minimal_file_loads(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"N":3,"P":10,"segment_flops":[1.0,2.0],"exit_flops":[0.5,0.5],'
        '"server_flops":10,"predictor_flops":0.1,"raw_feature_bits":1024,'
        '"compression_ratio":4}\n'
        '{"id":0,"label":3,"confidences":[0.5,0.5,0.5],"predicted":[3,3,3]}\n'
    )
    ts = load_trace_set(path)
    assert len(ts) == 1
    assert ts.conf[0].tolist() == [0.5, 0.5, 0.5]
    assert ts.topology.num_exits == 3


def test_out_of_range_confidence_names_field(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"N":3,"P":10,"segment_flops":[1.0,2.0],"exit_flops":[0.5,0.5],'
        '"server_flops":10,"predictor_flops":0.1,"raw_feature_bits":1024,'
        '"compression_ratio":4}\n'
        '{"id":7,"label":3,"confidences":[0.5,1.2,0.5],"predicted":[3,3,3]}\n'
    )
    with pytest.raises(TraceFormatError, match="confidences") as exc:
        load_trace_set(path)
    assert "7" in str(exc.value)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"N":3,"P":10,"segment_flops":[1.0,2.0],"exit_flops":[0.5,0.5],'
        '"server_flops":10,"predictor_flops":0.1,"raw_feature_bits":1024,'
        '"compression_ratio":4}\n'
        'not json at all\n'
    )
    with pytest.raises(TraceFormatError, match="line 2"):
        load_trace_set(path)


_HEADER = ('{"N":3,"P":10,"segment_flops":[1.0,2.0],"exit_flops":[0.5,0.5],'
           '"server_flops":10,"predictor_flops":0.1,"raw_feature_bits":1024,'
           '"compression_ratio":4}')
_RECORD = '{"id":0,"label":3,"confidences":[0.5,0.5,0.5],"predicted":[3,3,3]}'
_DATASET = '{"kind":"dataset","num_samples":1,"num_classes":2,"input_dim":1}'
_FEATURES = ',"features":[0.1,0.2]}'


def _second(old, new):
    """The header, a good record (line 2) and one with ``old`` replaced (line 3)."""
    return _HEADER + "\n" + _RECORD + "\n" + _RECORD.replace('"id":0', '"id":1').replace(old, new)


@pytest.mark.parametrize("text, loader, lineno, detail", [
    (_HEADER.replace("[1.0,2.0]", "null") + "\n" + _RECORD, load_trace_set, 1, ""),
    (_HEADER.replace('"N":3', '"N":Infinity') + "\n" + _RECORD, load_trace_set, 1, ""),
    (_HEADER + "\n" + _RECORD.replace('"label":3', '"label":Infinity'), load_trace_set, 2, ""),
    (_DATASET + '\n{"id":0,"label":-Infinity,"features":[0.5]}', load_dataset, 2, ""),
    # Integer fields must be integral, not truncated.
    (_HEADER + "\n" + _RECORD.replace('"id":0', '"id":0.5'), load_trace_set, 2,
     "id must be an integer, got 0.5"),
    (_second('"label":3', '"label":3.7'), load_trace_set, 3,
     "sample 1: label must be an integer, got 3.7"),
    (_second("[3,3,3]", "[3.2,3,3]"), load_trace_set, 3,
     "sample 1: predicted must be an integer, got 3.2"),
    (_HEADER.replace('"N":3', '"N":3.5') + "\n" + _RECORD, load_trace_set, 1,
     "N must be an integer, got 3.5"),
    (_HEADER.replace('"P":10', '"P":10.5') + "\n" + _RECORD, load_trace_set, 1,
     "P must be an integer, got 10.5"),
    (_DATASET + '\n{"id":0,"label":1.9,"features":[0.5]}', load_dataset, 2,
     "sample 0: label must be an integer, got 1.9"),
    (_DATASET.replace('"num_samples":1', '"num_samples":1.5')
     + '\n{"id":0,"label":1,"features":[0.5]}', load_dataset, 1,
     "num_samples must be an integer, got 1.5"),
    # Every record-level violation names its line.
    (_second("[0.5,0.5,0.5]", "[0.5,NaN,0.5]"), load_trace_set, 3,
     r"sample 1: confidences entry nan outside \[1/P, 1\)"),
    (_second("[0.5,0.5,0.5]", "[0.5,0.5,1.2]"), load_trace_set, 3,
     r"sample 1: confidences entry 1.2 outside \[1/P, 1\)"),
    (_second('"label":3', '"label":10'), load_trace_set, 3,
     r"sample 1: label 10 outside \[0, 10\)"),
    (_second("[3,3,3]", "[3,-1,3]"), load_trace_set, 3,
     r"sample 1: predicted class -1 outside \[0, 10\)"),
    (_second('"id":1', '"id":0'), load_trace_set, 3, "sample 0: duplicate id"),
    (_HEADER + "\n\n" + _RECORD + "\n\n" + _RECORD, load_trace_set, 5,
     "sample 0: duplicate id"),
    (_second("[0.5,0.5,0.5]", "[0.5,0.5]"), load_trace_set, 3,
     r"sample 1: confidences and predicted lengths differ \(2 vs 3\)"),
    (_second('[0.5,0.5,0.5],"predicted":[3,3,3]', '[0.5,0.5],"predicted":[3,3]'),
     load_trace_set, 3, "sample 1: confidences length 2 != N=3"),
    (_HEADER + "\n" + _RECORD[:-1] + _FEATURES + "\n"
     + _RECORD.replace('"id":0', '"id":1')[:-1] + ',"features":[0.1]}', load_trace_set, 3,
     "sample 1: features length 1 != 2"),
    (_HEADER + "\n" + _RECORD[:-1] + _FEATURES + "\n" + _RECORD.replace('"id":0', '"id":1'),
     load_trace_set, 3, "sample 1: features present for only part of the set"),
    (_second("[0.5,0.5,0.5]", "[0.5,1" + "0" * 400 + ",0.5]"), load_trace_set, 3,
     r"sample 1: confidences entry inf outside \[1/P, 1\)"),
    (_second("[3,3,3]", '["3",3,3]'), load_trace_set, 3,
     "sample 1: predicted must be an integer, got '3'$"),
    (_second('"label":3', '"label":true'), load_trace_set, 3,
     "sample 1: label must be an integer, got True$"),
    (_second("[0.5,0.5,0.5]", '[0.5,"0.5",0.5]'), load_trace_set, 3,
     "sample 1: confidences must be numbers, got '0.5'$"),
    (_HEADER + "\n" + _RECORD[:-1] + _FEATURES + "\n"
     + _RECORD.replace('"id":0', '"id":1')[:-1] + ',"features":[0.1,true]}', load_trace_set, 3,
     "sample 1: features must be finite numbers, got True$"),
    (_HEADER + "\n" + _RECORD.replace('"id":0', '"id":[0]'), load_trace_set, 2,
     r"id must be an integer, got \[0\]$"),
    (_second("[3,3,3]", '"333"'), load_trace_set, 3,
     "sample 1: predicted must be a list of numbers$"),
    # Header costs must be numbers: no string is iterated or parsed, no bool read.
    (_HEADER.replace("[1.0,2.0]", '"12"') + "\n" + _RECORD, load_trace_set, 1,
     "segment_flops must be a list of numbers, got '12'$"),
    (_HEADER.replace('"exit_flops":[0.5,0.5]', '"exit_flops":[0.5,"0.5"]') + "\n" + _RECORD,
     load_trace_set, 1, r"exit_flops\[1\] must be a finite real number, got '0.5'$"),
    (_HEADER.replace('"server_flops":10', '"server_flops":"274.13"') + "\n" + _RECORD,
     load_trace_set, 1, "server_flops must be a finite real number, got '274.13'$"),
    (_HEADER.replace('"predictor_flops":0.1', '"predictor_flops":true') + "\n" + _RECORD,
     load_trace_set, 1, "predictor_flops must be a finite real number, got True$"),
    (_HEADER.replace('"compression_ratio":4', '"compression_ratio":"4"') + "\n" + _RECORD,
     load_trace_set, 1, "compression_ratio must be a finite real number, got '4'$"),
], ids=["trace-header-null", "trace-header-inf", "trace-record-inf", "dataset-record-inf",
        "fractional-id", "fractional-label", "fractional-predicted", "fractional-N",
        "fractional-P", "dataset-fractional-label", "dataset-fractional-num_samples",
        "nan-confidence", "confidence-above-range", "label-out-of-range",
        "predicted-out-of-range", "duplicate-id", "duplicate-id-after-blank-lines",
        "lengths-differ", "short-confidences", "ragged-features", "partial-features",
        "huge-int-confidence", "string-predicted", "bool-label", "string-confidence",
        "bool-feature", "list-id", "string-for-list", "string-segment_flops",
        "string-exit_flops-entry", "string-server_flops", "bool-predictor_flops",
        "string-compression_ratio"])
def test_malformed_field_names_its_line(tmp_path, text, loader, lineno, detail):
    path = tmp_path / "t.jsonl"
    path.write_text(text + "\n")
    with pytest.raises(TraceFormatError,
                       match=f"^{re.escape(str(path))}: line {lineno}: {detail}"):
        loader(path)


def test_integral_floats_are_accepted_as_integers(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(_HEADER.replace('"N":3', '"N":3.0') + "\n"
                    + _RECORD.replace('"id":0', '"id":7.0').replace('"label":3', '"label":3.0')
                    .replace("[3,3,3]", "[3.0,2,1e0]") + "\n")
    (sample,) = load_trace_set(path).samples
    assert (sample.id, sample.label, sample.predicted) == (7, 3, (3, 2, 1))
    path.write_text(_DATASET.replace('"num_samples":1', '"num_samples":1.0')
                    + '\n{"id":0,"label":1.0,"features":[0.5]}\n')
    assert load_dataset(path)[1].tolist() == [1]


@pytest.mark.parametrize("field, value", [
    ("id", 0.5), ("label", 2.5), ("predicted", (0, 1.5, 0)),
    ("id", True), ("label", False), ("predicted", (True, False, True))],
    ids=["id", "label", "predicted", "id-bool", "label-bool", "predicted-bool"])
def test_sample_trace_rejects_fractional_integer_fields(field, value):
    # A row checks nothing; the set built from it does.
    args = {"id": 0, "label": 0, "confidences": (0.5,) * 3, "predicted": (0,) * 3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TraceSet(small_topology(), (SampleTrace(**args),))


BUILDERS = ["rows", "from_columns"]


def _build(builder, rows):
    """A set of ``rows`` built by one in-memory builder: from the rows
    themselves, or from their columns."""
    if builder == "rows":
        return TraceSet(small_topology(), rows)
    return TraceSet.from_columns(small_topology(), *zip(*rows))


def _per_builder(cases):
    """``cases`` (id -> arguments) as parameters for each in-memory builder;
    the rows builder's cases keep their plain ids."""
    return [pytest.param(builder, *args, id=case if builder == "rows" else f"{case}-{builder}")
            for case, args in cases.items() for builder in BUILDERS]


def _trace_file(tmp_path, rows):
    """A trace file of ``rows``, a record per line from line 2."""
    path = tmp_path / "t.jsonl"
    path.write_text("".join(f"{line}\n" for line in [_HEADER, *(
        json.dumps({k: v for k, v in row._asdict().items() if v is not None}) for row in rows)]))
    return path


@pytest.mark.parametrize("builder, field, value", _per_builder({
    "confidences-0.5_0": ("confidences", 0.5),
    "confidences-0.5_1": ("confidences", np.float64(0.5)),
    "predicted-abc": ("predicted", "abc"), "features-0.1": ("features", 0.1),
    "predicted-5": ("predicted", 5), "confidences-2d-row": ("confidences", np.full((3, 1), 0.5))}))
def test_a_row_field_that_is_no_list_names_the_sample(tmp_path, builder, field, value):
    # A string is no list of numbers, though it has a length, nor is a 2-d
    # numpy row; a number is not broadcast to the width of the sound row after it.
    good = {"label": 0, "confidences": (0.5,) * 3, "predicted": (0,) * 3}
    rows = (SampleTrace(id=0, **{**good, field: value}), SampleTrace(id=1, **good))
    message = f"sample 0: {field} must be a list of numbers$"
    with pytest.raises(ValueError, match=f"^{message}"):
        _build(builder, rows)
    if not isinstance(value, np.ndarray):  # a file says the same after its line
        path = _trace_file(tmp_path, rows)
        with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: line 2: {message}"):
            load_trace_set(path)


@pytest.mark.parametrize("builder, field, value", _per_builder({
    "confidences": ("confidences", np.array(0.5)), "predicted": ("predicted", np.array(0)),
    "features": ("features", np.array(0.1))}))
def test_a_0d_array_where_a_row_belongs_names_the_sample(builder, field, value):
    # A 0-d array is an np.ndarray but has no length; the row before it is sound.
    good = {"label": 0, "confidences": np.full(3, 0.5), "predicted": np.zeros(3, int),
            "features": np.array([0.1, 0.2])}
    rows = (SampleTrace(id=0, **good), SampleTrace(id=1, **{**good, field: value}))
    with pytest.raises(ValueError, match=f"^sample 1: {field} must be a list of numbers$"):
        _build(builder, rows)


_GOOD_ROW = {"label": 0, "confidences": (0.5,) * 3, "predicted": (0,) * 3}


@pytest.mark.parametrize("edit, message", [
    ({"confidences": 0.5}, "sample 7: confidences must be a list of numbers"),
    ({"confidences": (0.5, 0.5), "predicted": (0, 0)}, "sample 7: confidences length 2 != N=3"),
    ({"label": 10}, r"sample 7: label 10 outside \[0, 10\)"),
], ids=["no-list", "short", "label"])
def test_every_way_in_names_a_sample_by_its_int64_id(tmp_path, edit, message):
    # The ids are checked first, so a shape, length or value complaint names
    # id 7.0 as 7: from rows, from columns and, after its line, from a file.
    rows = (SampleTrace(id=0, **_GOOD_ROW), SampleTrace(id=7.0, **{**_GOOD_ROW, **edit}))
    for builder in BUILDERS:
        with pytest.raises(ValueError, match=f"^{message}$"):
            _build(builder, rows)
    path = _trace_file(tmp_path, rows)
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: line 3: {message}$"):
        load_trace_set(path)


@pytest.mark.parametrize("edit", [{"confidences": (0.5, 0.5), "predicted": (0, 0)},
                                  {"predicted": 0}], ids=["short", "no-list"])
def test_a_bad_id_is_reported_before_an_earlier_malformed_row(tmp_path, edit):
    # Every way in checks the ids before any row's shape or length.
    rows = (SampleTrace(id=0, **{**_GOOD_ROW, **edit}), SampleTrace(id=0.5, **_GOOD_ROW))
    message = r"id must be an integer, got 0\.5$"
    for builder in BUILDERS:
        with pytest.raises(ValueError, match=f"^{message}"):
            _build(builder, rows)
    path = _trace_file(tmp_path, rows)
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: line 3: {message}"):
        load_trace_set(path)


MIXED_BOOL_COLUMNS = {
    "id": ({"ids": [0, True]}, "id must be an integer, got True"),
    "label": ({"label": [0, np.True_]}, "sample 1: label must be an integer, got True"),
    "predicted": ({"pred": [[0, 1, 0], [1, False, 1]]},
                  "sample 1: predicted must be an integer, got False"),
    "predicted-rows": ({"pred": [np.array([0, 1, 0]), np.array([True, False, True])]},
                       "sample 1: predicted must be an integer, got True"),
    "id-object-array": ({"ids": np.array([0, True], dtype=object)},
                        "id must be an integer, got True"),
}


@pytest.mark.parametrize("name", list(MIXED_BOOL_COLUMNS))
def test_a_bool_among_integers_is_rejected_naming_the_sample(name):
    # numpy would read [0, True] as the integers [0, 1].
    change, message = MIXED_BOOL_COLUMNS[name]
    columns = {"ids": [0, 1], "label": [0, 1], "conf": [[0.5] * 3] * 2,
               "pred": [[0, 1, 0], [1, 0, 1]], **change}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TraceSet.from_columns(small_topology(), **columns)
    rows = [SampleTrace(i, label, conf, pred) for i, label, conf, pred in zip(*columns.values())]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TraceSet(small_topology(), rows)


# (values, the index of the first entry beyond int64, that entry)
BEYOND_INT64 = {
    "python-ints": ([1, 2**63 + 5], 1, 2**63 + 5),  # numpy reads these as uint64
    "uint64-array": (np.array([1, 2**63 + 5], dtype=np.uint64), 1, 2**63 + 5),
    "beyond-uint64": ([2**64, 1], 0, 2**64),  # numpy reads these as objects
    "below-int64": ([1, -2**63 - 1], 1, -2**63 - 1),
}


@pytest.mark.parametrize("bounds", [None, "[0, inf)"], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("name", list(BEYOND_INT64))
def test_an_integer_beyond_int64_fails_naming_its_entry(name, bounds):
    # It never wraps, and the scalar check agrees with the array check.
    values, at, value = BEYOND_INT64[name]
    message = f"must be an integer within int64, got {value}$"
    with pytest.raises(ValueError, match=rf"^x\[{at}\] {message}"):
        as_ints(values, "x", bounds)
    with pytest.raises(ValueError, match=f"^x {message}"):
        as_int(value, "x", bounds)


def test_int64_integers_are_read_exactly():
    assert as_ints([-2**63, 2**63 - 1], "x").tolist() == [-2**63, 2**63 - 1]
    # numpy reads ints beside a float as doubles, which round past 2**53.
    assert as_ints([2**53 + 1, 2.0], "x").tolist() == [2**53 + 1, 2]
    with pytest.raises(ValueError, match=r"^x\[1\] must be an integer, got 0.5$"):
        as_ints([2**63 - 1, 0.5], "x")
    with pytest.raises(ValueError, match=r"^x\[1\] must be an integer, got 'a'$"):
        as_ints([2**63 - 1, "a"], "x")


def test_config_and_trace_ids_beyond_int64_fail_naming_the_entry(tmp_path):
    with pytest.raises(ValueError, match=r"^config ee: trunk_widths\[0\] must be an integer "
                                         r"within int64, got 9223372036854775813$"):
        check_config({"ee": {"trunk_widths": [2**63 + 5, 32]}})
    columns = {"label": [0, 0], "conf": [[0.5] * 3] * 2, "pred": [[0] * 3] * 2}
    message = "^id must be an integer within int64, got 9223372036854775813$"
    for ids in ([0, 2**63 + 5], np.array([0, 2**63 + 5], dtype=np.uint64)):
        with pytest.raises(ValueError, match=message):
            TraceSet.from_columns(small_topology(), ids, **columns)
    with pytest.raises(ValueError, match="^sample 0: label must be an integer within int64"):
        TraceSet(small_topology(), [SampleTrace(0, 2**63 + 5, (0.5,) * 3, (0,) * 3)])
    path = tmp_path / "t.jsonl"
    path.write_text(_HEADER + "\n" + _RECORD.replace('"id":0', f'"id":{2**63 + 5}') + "\n")
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: line 2: "
                                               f"{message[1:]}"):
        load_trace_set(path)


def test_zero_width_features_are_rejected_naming_the_sample(tmp_path, capsys):
    topo, message = small_topology(), "features must not be empty$"
    with pytest.raises(ValueError, match=f"^sample 4: {message}"):
        TraceSet.from_columns(topo, [4, 5], [0, 0], [[0.5] * 3] * 2, [[0] * 3] * 2,
                              features=np.zeros((2, 0)))
    with pytest.raises(ValueError, match=f"^sample 4: {message}"):
        TraceSet(topo, [SampleTrace(i, 0, (0.5,) * 3, (0,) * 3, ()) for i in (4, 5)])
    path = tmp_path / "t.jsonl"
    path.write_text(_HEADER + "\n" + _RECORD[:-1] + ',"features":[]}\n')
    with pytest.raises(TraceFormatError,
                       match=f"^{re.escape(str(path))}: line 2: sample 0: {message}"):
        load_trace_set(path)
    assert main(["validate", str(path)]) == 1
    assert f"line 2: sample 0: {message[:-1]}" in capsys.readouterr().err


def _sample_rows(conf, features):
    return [SampleTrace(0, 0, (0.5, 0.5, 0.5), (0, 0, 0), (0.1, 0.2)),
            SampleTrace(1, 0, conf, (0, 0, 0), features)]


_SET = random_trace_set(np.random.default_rng(16), VGG_TOPOLOGY, n_samples=4)
_COLUMNS = {"ids": [0, 1], "label": [0, 0], "pred": [[0, 0, 0]] * 2}

# Per vector entry point: (a call on a vector, a good vector, the name of
# its entry 1, the name of the list it stands in).  A TraceSet column names
# the sample.
VECTOR_ENTRY_POINTS = {
    "check_lambda": (check_lambda, [0.5, 0.6], r"lambda\[1\]", "lambda"),
    "check_gamma": (check_gamma, [0.5, 0.6], r"gamma\[1\]", "gamma"),
    "Thresholds": (lambda v: Thresholds((0.5, 0.5), v), [0.5, 0.6], r"gamma\[1\]", "gamma"),
    "Mlp": (lambda v: Mlp([[v]], [[0.0, 0.0]], ["sigmoid"]), [0.1, 0.2],
            r"weights\[0\]\[0\]\[1\]", r"weights\[0\]\[0\]"),
    "ExitTopology": (lambda v: ExitTopology(3, v, (0.5, 0.5), 10.0, 0.1, 10, 1024, 4.0),
                     [1.0, 2.0], r"segment_flops\[1\]", "segment_flops"),
    "SynthSpec-centers": (lambda v: SynthSpec(5, 2, 2, (v, (1.0, 1.0)), (0.1, 0.1)),
                          [0.0, 0.0], r"centers\[0\]\[1\]", r"centers\[0\]"),
    "SynthSpec-spreads": (lambda v: SynthSpec(5, 2, 2, ((0.0, 0.0), (1.0, 1.0)), v),
                          [0.1, 0.2], r"spreads\[1\]", "spreads"),
    "check_exit_weights": (check_exit_weights, [0.5, 0.5], r"exit weights\[1\]",
                           "exit weights"),
    "ThresholdRegressor": (lambda v: ThresholdRegressor((1e5, 1e6), (1e5, 1e6),
                                                        [v, (0.5, 0.5)], [(0.5, 0.5)] * 2, 0.0),
                           [0.5, 0.6], r"lambda\[0\]\[1\]", r"lambda\[0\]"),
    "sweep_bandwidths": (
        lambda v: sweep_bandwidths(_SET, [(0.5, 0.5)] * 4, Environment(3.62e9, 1e6, 0.03), v,
                                   [0.5], [0.0]),
        [1e6, 2e6], r"bandwidths\[1\]", "bandwidths"),
    "policy_stats-scores": (
        lambda v: policy_stats(_SET, (0.5, 0.5), (0.5, 0.5), [(0.5, 0.5)] * 3 + [v]),
        [0.5, 0.6], r"scores\[3\]\[1\]", r"scores\[3\]"),
    "from_columns-conf": (
        lambda v: TraceSet.from_columns(small_topology(), conf=[[0.5] * 3, v], **_COLUMNS),
        [0.5, 0.6, 0.7], "sample 1: confidences", "sample 1: confidences"),
    "from_columns-features": (
        lambda v: TraceSet.from_columns(small_topology(), conf=[[0.5] * 3] * 2,
                                        features=[[0.1, 0.2], v], **_COLUMNS),
        [0.1, 0.2], "sample 1: features", "sample 1: features"),
    "rows-conf": (lambda v: TraceSet(small_topology(), _sample_rows(v, (0.1, 0.2))),
                  [0.5, 0.6, 0.7], "sample 1: confidences", "sample 1: confidences"),
    "rows-features": (lambda v: TraceSet(small_topology(), _sample_rows((0.5,) * 3, v)),
                      [0.1, 0.2], "sample 1: features", "sample 1: features"),
}


@pytest.mark.parametrize("kind", ["numeric-string", "bool", "nan", "string-list"])
@pytest.mark.parametrize("entry_point", list(VECTOR_ENTRY_POINTS))
def test_vector_entry_points_reject_non_numbers_naming_the_entry(entry_point, kind):
    # numpy would parse "0.6", read True as 1.0 and iterate "0.5"; every
    # vector goes through trace.as_reals, or the TraceSet column scan.
    call, good, entry, where = VECTOR_ENTRY_POINTS[entry_point]
    call(good)
    if kind == "string-list":
        bad, message = "0.5", f"{where} must be a list of "
    else:
        value = {"numeric-string": str(good[1]), "bool": True, "nan": math.nan}[kind]
        bad = [good[0], value, *good[2:]]
        message = f"{entry} must be a finite real number, got {re.escape(repr(value))}$"
    if where.startswith("sample"):  # the column check names the sample
        message = where
    with pytest.raises(ValueError, match=f"^{message}"):
        call(bad)


@pytest.mark.parametrize("rows, message", [
    ([[0.5, 0.5], [0.5]], r"x\[1\] must be a list of numbers of length 2, got \[0.5\]$"),
    ([[0.5, 0.5], 0.5], r"x\[1\] must be a list of numbers of length 2, got 0.5$"),
    (["0.5", [0.5, 0.5]], r"x\[0\] must be a list of numbers of length 2, got '0.5'$"),
    ([np.float64(0.5)] * 2, r"x\[0\] must be a list of numbers of length 1, got 0.5$"),
    (np.array([0.5, 0.5]), r"x must be a list of rows of numbers, got array"),
], ids=["short-row", "number-row", "string-row", "numpy-scalar-rows", "vector"])
def test_as_reals_names_a_row_that_is_no_row(rows, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        as_reals(rows, "x", rows=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_features_rejected_naming_the_sample(bad):
    topo = small_topology()
    with pytest.raises(ValueError, match="sample 7: features must be finite"):
        TraceSet(topo, (SampleTrace(id=7, label=0, confidences=(0.5,) * 3, predicted=(0,) * 3,
                                    features=(1.0, bad, 2.0)),))
    # finite values whose sum overflows are still finite features
    huge = TraceSet(topo, (SampleTrace(id=8, label=0, confidences=(0.5,) * 3,
                                       predicted=(0,) * 3, features=(1.5e308, 1.5e308)),))
    assert huge.features[0].tolist() == [1.5e308, 1.5e308]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_feature_in_file_names_its_line(tmp_path, token):
    path = tmp_path / "t.jsonl"
    path.write_text(
        '{"N":3,"P":10,"segment_flops":[1.0,2.0],"exit_flops":[0.5,0.5],'
        '"server_flops":10,"predictor_flops":0.1,"raw_feature_bits":1024,'
        '"compression_ratio":4}\n'
        '{"id":0,"label":3,"confidences":[0.5,0.5,0.5],"predicted":[3,3,3],'
        '"features":[0.1,0.2]}\n'
        '{"id":1,"label":3,"confidences":[0.5,0.5,0.5],"predicted":[3,3,3],'
        f'"features":[0.1,{token}]}}\n'
    )
    with pytest.raises(TraceFormatError, match="line 3: sample 1: features must be finite"):
        load_trace_set(path)


def test_round_trip_1000_samples_bit_identical(tmp_path):
    rng = np.random.default_rng(42)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=1000, with_features=True)
    path = tmp_path / "big.jsonl"
    save_trace_set(ts, path)
    loaded = load_trace_set(path)
    assert loaded == ts
    # re-serializing the loaded set reproduces the file byte for byte
    assert trace_set_text(loaded) == path.read_text()


def test_save_load_identity_on_valid_sets(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(5):
        ts = random_trace_set(rng, n_samples=20, with_features=bool(trial % 2))
        path = tmp_path / f"t{trial}.jsonl"
        save_trace_set(ts, path)
        assert load_trace_set(path) == ts


def test_reals_stored_at_nine_significant_digits(tmp_path):
    topo = small_topology()
    s = SampleTrace(id=0, label=0,
                    confidences=(0.123456789123456, 0.5, 0.5),
                    predicted=(0, 0, 0))
    ts = TraceSet(topo, (s,))
    assert ts.conf[0, 0] == 0.123456789
    path = tmp_path / "t.jsonl"
    save_trace_set(ts, path)
    assert "0.123456789" in path.read_text()
    assert load_trace_set(path) == ts


def test_canon_is_idempotent():
    rng = np.random.default_rng(0)
    for x in rng.uniform(0, 1, 200):
        assert canon(canon(x)) == canon(x)


# Every power of ten from 1e-300 to 1e300 and its two neighbours, as parsed
# (the double nearest each power), plus zeros and subnormals.
_DECADES = np.array([float(f"1e{k}") for k in range(-300, 301)])
_EDGES = np.concatenate([_DECADES, np.nextafter(_DECADES, 0.0), np.nextafter(_DECADES, np.inf),
                         [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310]])


def _digits(lo, hi, exponents=st.integers(-320, 300)):
    """Decimals m * 10**e with lo <= |m| < hi, parsed as doubles."""
    return st.builds(lambda m, sign, e: float(f"{sign * m}e{e}"), st.integers(lo, hi - 1),
                     st.sampled_from([1, -1]), exponents)


_REALS = st.one_of(
    st.floats(),                              # anything, NaN, inf and subnormals included
    st.sampled_from(_EDGES.tolist()),
    _digits(1, 10**9),                        # at most 9 significant digits
    _digits(10**9, 10**10),                   # 10 digits
    _digits(10**16, 10**17),                  # 17 digits
    _digits(10**10 - 60, 10**10),             # 10 digits just below a decade
    _digits(10**9 - 60, 10**9 + 60),          # 9 or 10 digits straddling a decade
)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def test_canon_array_matches_canon_at_every_decade():
    assert _bits(canon_array(_EDGES)) == _bits([canon(v) for v in _EDGES])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_REALS, min_size=1, max_size=40))
def test_canon_array_matches_canon(values):
    got = canon_array(np.array(values).reshape(-1, 1))
    assert got.shape == (len(values), 1)
    assert _bits(got.ravel()) == _bits([canon(v) for v in values])


def test_canon_array_formats_its_slow_values_as_canon_does():
    # None of these has at most 9 significant digits in a decade the exact
    # test covers, so all of them go through the one formatted string.
    rng = np.random.default_rng(6)
    values = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 1e300, -1e300,
         1.7976931348623157e308, np.inf, -np.inf, np.nan, -np.nan],
        np.nextafter(_DECADES, 0.0), np.nextafter(_DECADES, np.inf),
        [1234567891.0, -0.1234567891, 9999999999e-5, 12345678901234567.0, 0.1 + 0.2],
        rng.uniform(-1e3, 1e3, 500),
    ])
    got = canon_array(values.reshape(-1, 2))
    assert got.shape == (len(values) // 2, 2)
    assert _bits(got.ravel()) == _bits([canon(v) for v in values])


@st.composite
def _trace_sets(draw):
    n_exits, p = draw(st.integers(2, 4)), draw(st.integers(2, 12))
    n = draw(st.integers(0, 6))
    dim = draw(st.none() | st.integers(1, 4))
    ids = draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n, unique=True))

    def row(values, width):
        return draw(st.lists(values, min_size=width, max_size=width))

    samples = [SampleTrace(
        id=i, label=draw(st.integers(0, p - 1)),
        confidences=row(st.floats(1.0 / p, 0.999) | st.sampled_from([1.0 / p, 0.5]), n_exits),
        predicted=row(st.integers(0, p - 1), n_exits),
        features=None if dim is None else row(st.floats(allow_nan=False, allow_infinity=False)
                                              | _digits(1, 10**9, st.integers(-30, 30)), dim),
    ) for i in ids]
    return TraceSet(small_topology(n_exits, p), samples)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_trace_sets())
def test_trace_set_text_matches_record_rendering(ts):
    def record(s):
        rec = {"id": s.id, "label": s.label, "confidences": list(s.confidences),
               "predicted": list(s.predicted)}
        if s.features is not None:
            rec["features"] = list(s.features)
        return rec

    lines = [json_line(ts.topology.header_dict())]
    lines += [json_line(record(s)) for s in ts.samples]
    assert trace_set_text(ts) == "\n".join(lines) + "\n"


_SMALL_HEADER = ('{"N":3,"P":10,"segment_flops":[1,1],"exit_flops":[0.5,0.5],'
                 '"server_flops":10,"predictor_flops":0.1,"raw_feature_bits":1024,'
                 '"compression_ratio":4}\n')


def test_trace_set_text_of_no_rows_and_one_row():
    ts = TraceSet(small_topology(), [SampleTrace(7, 3, (0.25, 0.5, 0.875), (3, 1, 3),
                                                 (-1.5, 0.1))])
    assert trace_set_text(ts.subset([])) == _SMALL_HEADER
    assert trace_set_text(ts) == _SMALL_HEADER + (
        '{"id":7,"label":3,"confidences":[0.25,0.5,0.875],"predicted":[3,1,3],'
        '"features":[-1.5,0.1]}\n')


def test_save_dataset_of_no_rows_and_one_row(tmp_path):
    header = '{"kind":"dataset","num_samples":%d,"num_classes":3,"input_dim":3}\n'
    save_dataset(tmp_path / "none.jsonl", np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 3)
    assert (tmp_path / "none.jsonl").read_text() == header % 0
    save_dataset(tmp_path / "one.jsonl", np.array([[0.5, -2.0, 1e-7]]), np.array([1]), 3)
    assert (tmp_path / "one.jsonl").read_text() == (
        header % 1 + '{"id":0,"label":1,"features":[0.5,-2,1e-07]}\n')


def test_json_line_renders_each_list_entry_by_its_own_type():
    assert json_line(small_topology().header_dict()) + "\n" == _SMALL_HEADER
    assert json_line({"a": [1, 0.5], "b": [True, 2], "c": [0.25, False, -3, None, "x"]}) == (
        '{"a":[1,0.5],"b":[true,2],"c":[0.25,false,-3,null,"x"]}')
    with pytest.raises(TypeError, match="^json_line: key 'k': .*int64"):
        json_line({"ok": 1, "k": [1, np.int64(2)]})


def test_columns_are_read_only_and_samples_are_views():
    rng = np.random.default_rng(8)
    ts = random_trace_set(rng, small_topology(), n_samples=5, with_features=True)
    rebuilt = TraceSet.from_columns(ts.topology, ts.ids, ts.label, ts.conf, ts.pred,
                                    ts.features)
    assert rebuilt == ts and TraceSet(ts.topology, ts.samples) == ts
    for col in (ts.ids, ts.label, ts.conf, ts.pred, ts.features):
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0
    with pytest.raises(AttributeError, match="read-only"):
        ts.conf = ts.conf
    assert ts.conf_matrix is ts.conf and ts.feature_matrix is ts.features
    samples = tuple(ts.samples)
    assert samples == tuple(zip(ts.ids.tolist(), ts.label.tolist(), map(tuple, ts.conf.tolist()),
                                map(tuple, ts.pred.tolist()), map(tuple, ts.features.tolist())))
    assert all(type(s) is SampleTrace and type(s.id) is int for s in samples)
    # rows are built a block at a time: a set past one block yields them all, in order
    n = 10_000
    big = TraceSet.from_columns(ts.topology, np.arange(n), np.zeros(n, dtype=np.int64),
                                np.full((n, 3), 0.5), np.zeros((n, 3), dtype=np.int64))
    assert [(s.id, s.features) for s in big.samples] == [(i, None) for i in range(n)]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("change, message", [
    ({"confidences": (0.5, 0.5), "predicted": (0, 0)}, "confidences length 2 != N=3"),
    ({"features": None}, "features present for only part of the set"),
    ({"features": (0.1,)}, "features length 1 != 2"),
], ids=["short", "partial-features", "features-width"])
def test_mismatched_lengths_rejected(tmp_path, change, message, builder):
    # In memory and, naming the line, in a file alike.
    good = SampleTrace(0, 0, (0.5,) * 3, (0,) * 3, (0.1, 0.2))
    rows = (good, good._replace(id=1, **change))
    with pytest.raises(ValueError, match=f"^sample 1: {message}$"):
        _build(builder, rows)
    path = _trace_file(tmp_path, rows)
    with pytest.raises(TraceFormatError,
                       match=f"^{re.escape(str(path))}: line 3: sample 1: {message}$"):
        load_trace_set(path)


def test_a_set_of_no_rows_holds_no_features(tmp_path):
    # Its file cannot say their width, so no builder keeps any.
    topo = small_topology()
    none = TraceSet.from_columns(topo, [], [], np.zeros((0, 3)), np.zeros((0, 3), int),
                                 features=np.zeros((0, 2)))
    part = TraceSet(topo, [SampleTrace(0, 0, (0.5,) * 3, (0,) * 3, (0.1, 0.2))]).subset([])
    assert not none.has_features and not part.has_features
    assert none == part == TraceSet(topo, []) == TraceSet.from_columns(topo, [], [], [], [])
    save_trace_set(none, tmp_path / "t.jsonl")
    assert load_trace_set(tmp_path / "t.jsonl") == none


def test_duplicate_ids_rejected():
    topo = small_topology()
    s = SampleTrace(id=1, label=0, confidences=(0.5, 0.5, 0.5), predicted=(0, 0, 0))
    with pytest.raises(ValueError, match="duplicate id"):
        TraceSet(topo, (s, s))


def test_label_and_prediction_ranges():
    topo = small_topology(p=4)
    with pytest.raises(ValueError, match="label"):
        TraceSet(topo, (SampleTrace(id=0, label=4, confidences=(0.5,) * 3,
                                    predicted=(0,) * 3),))
    with pytest.raises(ValueError, match="predicted"):
        TraceSet(topo, (SampleTrace(id=0, label=0, confidences=(0.5,) * 3,
                                    predicted=(0, 0, 4)),))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["short_conf", "long_conf", "high_conf", "low_conf", "bad_label"]),
    value=st.floats(min_value=0.0, max_value=0.09),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_validation_rejects_randomized_corruption(kind, value, seed):
    topo = small_topology(n=3, p=10)
    rng = np.random.default_rng(seed)
    conf = list(rng.uniform(0.1, 0.99, 3))
    pred = [int(v) for v in rng.integers(0, 10, 3)]
    label = int(rng.integers(0, 10))
    if kind == "short_conf":
        conf = conf[:2]
        pred = pred[:2]
    elif kind == "long_conf":
        conf = conf + [0.5]
        pred = pred + [0]
    elif kind == "high_conf":
        conf[1] = 1.0 + value
    elif kind == "low_conf":
        conf[1] = value  # below 1/P = 0.1
    elif kind == "bad_label":
        label = 10 + int(value * 100)
    with pytest.raises(ValueError):
        TraceSet(topo, (SampleTrace(id=0, label=label, confidences=conf,
                                    predicted=pred),))


def test_topology_validation():
    with pytest.raises(ValueError):
        small_topology(n=1)
    with pytest.raises(ValueError, match="num_classes must be an integer, got 10.5"):
        small_topology(p=10.5)
    with pytest.raises(ValueError, match="segment_flops"):
        ExitTopology(num_exits=3, segment_flops=[1.0], exit_flops=[0.5, 0.5],
                     server_flops=1, predictor_flops=0, num_classes=10,
                     raw_feature_bits=10, compression_ratio=1)
    with pytest.raises(ValueError, match="compression_ratio"):
        ExitTopology(num_exits=2, segment_flops=[1.0], exit_flops=[0.5],
                     server_flops=1, predictor_flops=0, num_classes=10,
                     raw_feature_bits=10, compression_ratio=0.5)
    with pytest.raises(ValueError, match="raw_feature_bits"):
        ExitTopology(num_exits=2, segment_flops=[1.0], exit_flops=[0.5],
                     server_flops=1, predictor_flops=0, num_classes=10,
                     raw_feature_bits=0, compression_ratio=2)
    for costs in ({"server_flops": float("nan")}, {"predictor_flops": float("inf")}):
        with pytest.raises(ValueError, match="finite"):
            ExitTopology(**{"num_exits": 2, "segment_flops": [1.0], "exit_flops": [0.5],
                            "server_flops": 1, "predictor_flops": 0, "num_classes": 10,
                            "raw_feature_bits": 10, "compression_ratio": 2, **costs})
    with pytest.raises(ValueError, match="compression_ratio"):
        ExitTopology(num_exits=2, segment_flops=[1.0], exit_flops=[0.5],
                     server_flops=1, predictor_flops=0, num_classes=10,
                     raw_feature_bits=10, compression_ratio=float("nan"))


def test_transmitted_bits_uses_ceiling():
    topo = ExitTopology(num_exits=2, segment_flops=[1.0], exit_flops=[0.5],
                        server_flops=1, predictor_flops=0, num_classes=10,
                        raw_feature_bits=1000, compression_ratio=3.0)
    assert topo.transmitted_bits == 334


def test_thresholds_validation():
    Thresholds(lam=(0.5, 0.5), gamma=(0.0, 1.0))
    with pytest.raises(ValueError):
        Thresholds(lam=(0.5,), gamma=(0.0, 1.0))
    with pytest.raises(ValueError):
        Thresholds(lam=(0.0, 0.5), gamma=(0.0, 0.0))
    with pytest.raises(ValueError):
        Thresholds(lam=(0.5, 0.5), gamma=(0.0, 1.1))


def test_features_must_be_uniform():
    topo = small_topology()
    good = SampleTrace(id=0, label=0, confidences=(0.5,) * 3, predicted=(0,) * 3,
                       features=(1.0, 2.0))
    bare = SampleTrace(id=1, label=0, confidences=(0.5,) * 3, predicted=(0,) * 3)
    short = SampleTrace(id=1, label=0, confidences=(0.5,) * 3, predicted=(0,) * 3,
                        features=(1.0,))
    with pytest.raises(ValueError, match="features"):
        TraceSet(topo, (good, bare))
    with pytest.raises(ValueError, match="features"):
        TraceSet(topo, (good, short))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), features=st.booleans(), data=st.data())
def test_subset_equals_from_columns_on_the_same_rows(seed, features, data):
    ts = random_trace_set(np.random.default_rng(seed), small_topology(), n_samples=12,
                          with_features=features)
    rows = data.draw(st.lists(st.integers(0, 11), max_size=12, unique=True))
    part = ts.subset(rows)
    assert part == TraceSet.from_columns(
        ts.topology, *(None if c is None else c[rows] for c in ts._columns()))
    for col in part._columns():
        if col is not None:
            assert not col.flags.writeable
            assert all(not np.shares_memory(col, c) for c in ts._columns() if c is not None)


def test_subset_with_a_repeated_index_is_a_duplicate_id():
    ts = random_trace_set(np.random.default_rng(3), small_topology(), n_samples=6)
    with pytest.raises(ValueError, match=f"^sample {ts.ids[4]}: duplicate id$"):
        ts.subset([1, 4, 2, 4])


@pytest.mark.parametrize("indices, message", [
    ([-1], "indices[0] must lie in [0, 6), got -1"),
    ([True, False], "indices[0] must be an integer, got True"),
    ([2, 6], "indices[1] must lie in [0, 6), got 6"),
    (np.array([0, 1.5]), "indices[1] must be an integer, got 1.5"),
], ids=["negative", "bool", "past-the-end", "fractional"])
def test_subset_takes_only_indices_in_range(indices, message):
    ts = random_trace_set(np.random.default_rng(3), small_topology(), n_samples=6)
    with pytest.raises(ValueError) as info:
        ts.subset(indices)
    assert str(info.value) == message


def test_split_trace_set_partitions_and_is_deterministic():
    rng = np.random.default_rng(5)
    ts = random_trace_set(rng, n_samples=40)
    a1, b1 = split_trace_set(ts, 0.2, seed=9)
    a2, b2 = split_trace_set(ts, 0.2, seed=9)
    assert a1 == a2 and b1 == b2
    assert len(b1) == 8 and len(a1) == 32
    assert sorted([*a1.ids.tolist(), *b1.ids.tolist()]) == sorted(ts.ids.tolist())


SEEDED = {
    "split_trace_set": lambda seed: split_trace_set(
        random_trace_set(np.random.default_rng(5), n_samples=10), 0.2, seed=seed),
    "Mlp.init": lambda seed: Mlp.init([2, 3], ["sigmoid"], seed=seed),
    "ToyEarlyExitNet.build": lambda seed: ToyEarlyExitNet.build(2, 2, seed=seed),
}


@pytest.mark.parametrize("seed, message", [
    (True, "seed must be an integer, got True"), (None, "seed must be an integer, got None"),
    (0.5, "seed must be an integer, got 0.5"), ("3", "seed must be an integer, got '3'"),
    (-1, r"seed must lie in \[0, inf\), got -1")],
    ids=["bool", "none", "fractional", "string", "negative"])
@pytest.mark.parametrize("entry_point", list(SEEDED))
def test_seeds_are_checked_before_the_generator_is_made(entry_point, seed, message):
    # numpy would seed with True as 1 and with None from OS entropy.
    SEEDED[entry_point](3.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SEEDED[entry_point](seed)


@pytest.fixture(scope="module")
def loadable_files(tmp_path_factory):
    """which -> (scratch path, bytes of a small valid file, its loader)."""
    base = tmp_path_factory.mktemp("fuzz")
    ts = random_trace_set(np.random.default_rng(4), small_topology(), n_samples=3,
                          with_features=True)
    rng = np.random.default_rng(5)
    save_dataset(base / "good.jsonl", rng.normal(size=(3, 2)), np.array([0, 2, 1]), 3)
    points = [PolicyPoint(1e5, (0.2, 0.9), (0.0, 1.0), 0.8125, 0.0291, True),
              PolicyPoint(1e6, (0.5, 0.5), (0.25, 0.75), 0.85, 0.011, False)]
    report = AggregateReport(0.75, 12.5, 40.25, 0.0125, (0.5, 0.25, 0.25), True)
    regressor = ThresholdRegressor((1e5, 1e6), (1e5, 1e6), ((0.5, 0.6), (0.7, 0.8)),
                                   ((0.0, 0.25), (0.5, 1.0)), 0.0)
    save_regressors([regressor], base / "regressors.json")
    return {
        "trace": (base / "trace.jsonl", trace_set_text(ts).encode(), load_trace_set),
        "dataset": (base / "dataset.jsonl", (base / "good.jsonl").read_bytes(), load_dataset),
        "sweep": (base / "sweep.csv", policy_points_csv(points).encode(), validate_artifact),
        "frontier": (base / "frontier.csv", emit_frontier([
            ("plain", (0.5, 0.5), None, report, 0.0),
            ("predictor", (0.5, 0.5), (0.25, 0.5), report, 0.4)]).encode(), validate_artifact),
        "regressors": (base / "regressors.json", (base / "regressors.json").read_bytes(),
                       validate_artifact),
    }


def _is_json_object(line: bytes) -> bool:
    try:
        return isinstance(json.loads(line.decode("utf-8")), dict)
    except ValueError:
        return False


@settings(max_examples=900, deadline=None, derandomize=True)
@given(which=st.sampled_from(["trace", "dataset", "sweep", "frontier", "regressors"]),
       truncate=st.booleans(), data=st.data())
def test_damaged_file_fails_only_with_trace_format_error(loadable_files, which, truncate,
                                                         data):
    """Truncate a valid file at any byte, or overwrite one byte other than a
    newline: the loader returns or raises a ValueError naming the path,
    never anything else.  A trace or dataset loader raises TraceFormatError,
    and names the damaged line when it is no longer a JSON object."""
    path, good, loader = loadable_files[which]
    if truncate:
        pos = data.draw(st.integers(0, len(good) - 1), label="cut")
        bad = good[:pos]
    else:
        pos = data.draw(st.integers(0, len(good) - 1).filter(lambda i: good[i] != 0x0A),
                        label="pos")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != 0x0A), label="byte")
        bad = good[:pos] + bytes([byte]) + good[pos + 1:]
    lineno = bad.count(b"\n", 0, pos) + 1
    path.write_bytes(bad)
    line = bad.split(b"\n")[lineno - 1]
    if which not in ("trace", "dataset"):
        try:
            loader(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
    elif line.strip() and not _is_json_object(line):
        with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: line {lineno}: "):
            loader(path)
    else:
        try:
            loader(path)
        except TraceFormatError:
            pass
