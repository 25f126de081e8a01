import ast
import builtins
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import exitsim
from exitsim.cli import (
    DEFAULT_CONFIG,
    check_config,
    emit_frontier,
    load_config,
    main,
    stage_demo,
    stage_fit_adapt,
    validate_artifact,
)
from exitsim.engine import run_oracle, run_plain, run_with_predictor
from exitsim.optimizer import load_policy_points, save_policy_points
from exitsim.predictor import make_labels, select_gamma
from exitsim.trace import Thresholds, TraceSet, save_trace_set
from exitsim.zoo import load_dataset, save_dataset

from helpers import golden_fraction_traces

SMALL_CONFIG = {
    "seed": 3,
    "synth": {"train_samples": 240, "test_samples": 120},
    "ee": {"train": {"epochs": 30, "lr_end_epoch": 25}},
    "ep": {"train": {"epochs": 30, "lr_end_epoch": 25}},
    "regressor": {"train": {"epochs": 1500, "lr_end_epoch": 1500}},
    "policy": {
        "frontier_lambdas": [0.5, 0.9],
        "lambda_grid": [0.3, 0.6, 0.9],
        "gamma_grid": [0.0, 0.5, 1.0],
        "gamma_step": 0.25,
    },
    "sweep_bandwidths": [1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8],
}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "exitsim", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def small_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def golden_trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "golden.jsonl"
    save_trace_set(golden_fraction_traces(), path)
    return str(path)


def test_unknown_flag_gives_usage_and_status_2():
    proc = run_cli("evaluate", "--no-such-flag")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_unknown_command_gives_status_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_evaluate_reports_golden_on_device_cost(golden_trace_path):
    proc = run_cli("evaluate", "--trace", golden_trace_path, "--lambda", "0.95,0.85")
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    assert row["method"] == "plain"
    assert row["mean_on_device_mflops"] == pytest.approx(42.44, abs=0.02)
    assert row["mean_total_mflops"] == pytest.approx(79.64, abs=0.02)


def test_evaluate_oracle_method(golden_trace_path):
    proc = run_cli("evaluate", "--trace", golden_trace_path,
                   "--lambda", "0.9,0.9", "--method", "oracle")
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    assert row["mean_on_device_mflops"] == pytest.approx(34.93, abs=0.02)


@pytest.mark.parametrize("method", ["plain", "oracle"])
@pytest.mark.parametrize("flag, value", [("--gamma", "0.5,0.5"), ("--ep", "missing.json")])
def test_evaluate_rejects_predictor_flags_on_other_methods(golden_trace_path, method, flag,
                                                           value):
    proc = run_cli("evaluate", "--trace", golden_trace_path, "--lambda", "0.9,0.9",
                   "--method", method, flag, value)
    assert proc.returncode == 1
    assert json.loads(proc.stderr) == {
        "error": "ValueError", "message": f"--method {method} takes neither --ep nor --gamma"}
    assert proc.stdout == ""


def test_missing_trace_file_gives_json_error_and_status_1():
    proc = run_cli("evaluate", "--trace", "/nonexistent/t.jsonl", "--lambda", "0.9,0.9")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert "error" in err and "message" in err


def test_stagewise_pipeline_produces_valid_artifacts(small_config_path, tmp_path):
    d = tmp_path
    steps = [
        ["gen-data", "--config", small_config_path, "--out", f"{d}/train.jsonl", "--which", "train"],
        ["gen-data", "--config", small_config_path, "--out", f"{d}/test.jsonl", "--which", "test"],
        ["train-ee", "--config", small_config_path, "--data", f"{d}/train.jsonl",
         "--out", f"{d}/ee.json"],
        ["emit-traces", "--config", small_config_path, "--net", f"{d}/ee.json",
         "--data", f"{d}/train.jsonl", "--out", f"{d}/tr.jsonl"],
        ["emit-traces", "--config", small_config_path, "--net", f"{d}/ee.json",
         "--data", f"{d}/test.jsonl", "--out", f"{d}/te.jsonl"],
        ["train-ep", "--config", small_config_path, "--traces", f"{d}/tr.jsonl",
         "--lambda", "0.8,0.8", "--out", f"{d}/ep.json"],
        ["select-gamma", "--config", small_config_path, "--traces", f"{d}/tr.jsonl",
         "--ep", f"{d}/ep.json", "--out", f"{d}/thresholds.json"],
        ["optimize", "--config", small_config_path, "--traces", f"{d}/te.jsonl",
         "--ep", f"{d}/ep.json", "--frontier", f"{d}/frontier_points.csv"],
        ["sweep", "--config", small_config_path, "--traces", f"{d}/te.jsonl",
         "--ep", f"{d}/ep.json", "--out", f"{d}/sweep.csv"],
        ["fit-adapt", "--config", small_config_path, "--points", f"{d}/sweep.csv",
         "--out", f"{d}/regs.json", "--table", f"{d}/adapt.csv",
         "--traces", f"{d}/te.jsonl", "--ep", f"{d}/ep.json"],
    ]
    for step in steps:
        proc = run_cli(*step)
        assert proc.returncode == 0, f"{step}: {proc.stderr}"
    artifacts = ["train.jsonl", "test.jsonl", "ee.json", "tr.jsonl", "te.jsonl",
                 "ep.json", "thresholds.json", "frontier_points.csv", "sweep.csv",
                 "regs.json", "adapt.csv"]
    proc = run_cli("validate", *[f"{d}/{name}" for name in artifacts])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("ok ") == len(artifacts)


def test_select_gamma_prints_thresholds(small_config_path, tmp_path, golden_trace_path):
    # quick predictor over the golden traces is meaningless; use the pipeline files
    proc = run_cli("evaluate", "--trace", golden_trace_path, "--lambda", "0.9,0.9",
                   "--method", "predictor")
    assert proc.returncode == 1  # predictor method needs --ep
    err = json.loads(proc.stderr)
    assert "ep" in err["message"]


def test_demo_is_reproducible_with_small_config(small_config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli("demo", "--config", small_config_path, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    proc = run_cli("validate", *(str(out_a / name) for name in files_a))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("ok ") == len(files_a) and "config.json" in proc.stdout


@pytest.fixture(scope="module")
def small_demo(small_config_path, tmp_path_factory):
    """A SMALL_CONFIG demo run in-process: (output dir, loads it made)."""
    out = tmp_path_factory.mktemp("demo")
    calls = []
    targets = [(exitsim.trace, "load_trace_set"), (exitsim.zoo, "load_dataset"),
               (exitsim.trace, "read_json")]
    targets += [(module, "load_checkpoint") for module in (
        exitsim.trace, exitsim.nncore, exitsim.zoo, exitsim.predictor, exitsim.optimizer)
        if hasattr(module, "load_checkpoint")]
    cfg = load_config(small_config_path)
    with pytest.MonkeyPatch.context() as mp:
        for module, name in targets:
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            mp.setattr(module, name, counted)
        stage_demo(cfg, str(out))
    return out, calls


def test_demo_reads_back_none_of_its_outputs(small_demo):
    out, calls = small_demo
    assert calls == []
    assert len(list(out.iterdir())) == 16


def test_optimize_answers_an_impossible_budget_with_its_min_latency_point(small_demo, tmp_path,
                                                                          capsys):
    out = small_demo[0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "environment": {"latency_budget": 1e-9}}))
    frontier = tmp_path / "frontier.csv"
    assert main(["optimize", "--config", str(config), "--traces", f"{out}/traces_test.jsonl",
                 "--ep", f"{out}/ep.json", "--frontier", str(frontier)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    points = load_policy_points(frontier)
    assert not any(p.feasible for p in points)
    best = min(points, key=lambda p: p.mean_latency_s)
    assert json.loads(captured.out) == {
        "bandwidth_bps": best.bandwidth, "lambda": list(best.lam), "gamma": list(best.gamma),
        "accuracy": best.accuracy, "mean_latency_s": best.mean_latency_s, "feasible": False}


def test_validate_opens_each_file_once(small_demo, monkeypatch):
    paths = sorted(str(p) for p in small_demo[0].iterdir())
    opened = []

    def counted_open(file, *args, _real=builtins.open, **kwargs):
        opened.append(str(file))
        return _real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    kinds = [validate_artifact(p) for p in paths]
    monkeypatch.undo()
    assert sorted(opened) == paths
    assert {"trace_set", "dataset", "toy_early_exit", "exit_predictor", "policy_points",
            "frontier", "experiment_config", "threshold_regressors"} <= set(kinds)


def _set_field(line: int, column: str, value: str | None):
    """A corruption of a CSV table: ``column`` of file line ``line`` set to
    ``value``, or dropped when it is None."""
    def corrupt(text):
        rows = [row.split(",") for row in text.splitlines()]
        rows[line - 1][rows[0].index(column)] = value
        rows[line - 1] = [field for field in rows[line - 1] if field is not None]
        return "".join(",".join(row) + "\n" for row in rows)
    return corrupt


def _drop_column(column: str):
    """A corruption of a CSV table: ``column`` dropped from every line."""
    def corrupt(text):
        rows = [row.split(",") for row in text.splitlines()]
        at = rows[0].index(column)
        return "".join(",".join(row[:at] + row[at + 1:]) + "\n" for row in rows)
    return corrupt


def _set_method_gamma(line: int, method: str, gamma: str):
    """A corruption of a frontier table: line ``line`` set to ``method`` with
    ``gamma``."""
    return lambda text: _set_field(line, "gamma", gamma)(_set_field(line, "method", method)(text))


def _header_only(text):
    """A corruption of a CSV table: every row dropped."""
    return text.partition("\n")[0] + "\n"


def _edit_json(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc) + "\n"
    return corrupt


def _drop_last_weight(doc):
    doc["net"]["layers"][-1]["w"] = doc["net"]["layers"][-1]["w"][:-1]


def _as_mlp_checkpoint(doc):
    """The predictor's net as a bare ``"mlp"`` document, a kind no longer written."""
    net = doc.pop("net")
    doc.clear()
    doc.update(kind="mlp", **net)


@pytest.mark.parametrize("name, corrupt, where", [
    ("sweep.csv", _set_field(2, "lambda_1", "1.5"),
     r"line 2: lambda_1: value must lie in \(0, 1\), got 1.5$"),
    ("sweep.csv", _set_field(3, "accuracy", "nan"),
     r"line 3: accuracy: value must be a finite real number, got nan$"),
    ("sweep.csv", _set_field(2, "feasible", "yes"), r"line 2: feasible: must be one of true, "),
    ("frontier.csv", _set_field(2, "accuracy", "banana"), r"line 2: accuracy: could not "),
    ("report.csv", _set_field(3, "method", "psychic"), r"line 3: method: must be one of "),
    ("adapt_table.csv", _set_field(4, "feasible", "maybe"), r"line 4: feasible: must be "),
    ("adapt_table.csv", _set_field(2, "gamma_2", None), r"line 2: expected 8 fields, got 7"),
    ("adapt_table.csv", _drop_column("gamma_2"), r"line 1: header is not bandwidth_bps,"),
    ("frontier.csv", _set_method_gamma(3, "plain", "0.5|0.5"), r"line 3: plain rows take no "),
    ("frontier.csv", _set_method_gamma(2, "predictor", "0.5"), r"line 2: gamma must have "),
    ("frontier.csv", _set_method_gamma(4, "predictor", ""), r"line 4: gamma must have "),
    ("regressors.json", _edit_json(lambda d: d["regressors"][1].update(interval=[5])),
     r"malformed 'threshold_regressors' document: regressors\[1\]: interval "),
    ("regressors.json", _edit_json(lambda d: d["regressors"][0]["train_bandwidths"].reverse()),
     r"malformed 'threshold_regressors' document: regressors\[0\]: train_bandwidths must "
     r"ascend strictly in log10, "),
    ("regressors.json", _edit_json(lambda d: d["regressors"][1]["train_bandwidths"].__setitem__(
        1, d["regressors"][1]["train_bandwidths"][0])),
     r"malformed 'threshold_regressors' document: regressors\[1\]: train_bandwidths must "
     r"ascend strictly in log10, "),
    ("regressors.json", _edit_json(lambda d: d["regressors"][2]["gamma"].pop()),
     r"malformed 'threshold_regressors' document: regressors\[2\]: \d+ train_bandwidths need "
     r"as many lambda and gamma rows, "),
    ("regressors.json", _edit_json(lambda d: d["regressors"][0]["lambda"][0].__setitem__(0, 1.0)),
     r"malformed 'threshold_regressors' document: regressors\[0\]: lambda\[0\]\[0\] must lie "
     r"in \(0, 1\), got 1.0$"),
    ("regressors.json", _edit_json(lambda d: d["regressors"][1].update(
        {key: d["regressors"][1][key][:1] for key in ("train_bandwidths", "lambda", "gamma")})),
     r"malformed 'threshold_regressors' document: regressors\[1\]: train_bandwidths must be "
     r"at least 2 values "),
    ("ep.json", _edit_json(_drop_last_weight),
     r"malformed 'exit_predictor' document: cannot reshape "),
    ("ep.json", _edit_json(lambda d: d["net"]["activations"].__setitem__(0, "identity")),
     r"malformed 'exit_predictor' document: layer 0: unknown activation 'identity'$"),
    ("ep.json", _edit_json(_as_mlp_checkpoint), r"unrecognized JSON artifact kind 'mlp'$"),
    ("thresholds.json", _edit_json(lambda d: d.update(gamma=[0.5, 1.5])),
     r"malformed 'thresholds' document: gamma\[1\] must lie in \[0, 1\], got 1.5$"),
    ("summary.json", _edit_json(lambda d: d.update(lambda_star=[7])),
     r"malformed 'summary' document: lambda_star and gamma_star: lambda\[0\] must lie in "
     r"\(0, 1\), got 7$"),
    ("summary.json", _edit_json(lambda d: d["test"]["plain"].update(accuracy=-3)),
     r"malformed 'summary' document: test.plain.accuracy must lie in \[0, 1\], got -3$"),
    ("summary.json", _edit_json(lambda d: d.update(sweep_feasible="x")),
     r"malformed 'summary' document: sweep_feasible must be a nonempty list, got 'x'$"),
    ("summary.json", _edit_json(lambda d: d.update(sweep_feasible=[True, 1])),
     r"malformed 'summary' document: sweep_feasible\[1\] must be a bool, got 1$"),
    ("summary.json", _edit_json(lambda d: d.update(seed=-1)),
     r"malformed 'summary' document: seed must lie in \[0, inf\), got -1$"),
    ("summary.json", _edit_json(lambda d: d.update(ep_final_loss=float("nan"))),
     r"malformed 'summary' document: ep_final_loss must be a finite real number, got nan$"),
    ("summary.json", _edit_json(lambda d: d["test"].pop("oracle")),
     r"malformed 'summary' document: test must be an object of plain, predictor, oracle "),
    ("summary.json", _edit_json(lambda d: d["test"]["oracle"]["exit_distribution"].pop()),
     r"malformed 'summary' document: test.oracle.exit_distribution must be a list of 3 "),
    ("summary.json", _edit_json(lambda d: d["test"]["predictor"].update(mean_latency_s=-1)),
     r"malformed 'summary' document: test.predictor.mean_latency_s must lie in \[0, inf\), "
     r"got -1$"),
    ("summary.json", _edit_json(lambda d: d["test"]["plain"].update(budget_satisfied=1)),
     r"malformed 'summary' document: test.plain.budget_satisfied must be a bool, got 1$"),
    ("summary.json", _edit_json(lambda d: d.update(regressor_max_abs_errors=[0.1, True])),
     r"malformed 'summary' document: regressor_max_abs_errors\[1\] must be a finite real "
     r"number, got True$"),
    *[("ee.json", _edit_json(lambda d, v=v: d["weights"].__setitem__(0, v)),
       rf"malformed 'toy_early_exit' document: exit weights\[0\] must be a finite real number, "
       rf"got {re.escape(repr(v))}$") for v in (math.nan, math.inf, "0.2", True)],
    *[("ee.json", _edit_json(lambda d, v=v: d.update(seed=v)),
       rf"malformed 'toy_early_exit' document: seed must be an integer, got {v!r}$")
      for v in ("7", 7.5)],
    *[("ep.json", _edit_json(lambda d, v=v: d.update(predictor_flops=v)),
       rf"malformed 'exit_predictor' document: predictor_flops must be a finite real number, "
       rf"got {re.escape(repr(v))}$") for v in (math.nan, "0.4", True)],
    ("ep.json", _edit_json(lambda d: d["net"].update(seed="3")),
     r"malformed 'exit_predictor' document: seed must be an integer, got '3'$"),
    ("thresholds.json", _edit_json(lambda d: d.update({"lambda": list(map(str, d["lambda"]))})),
     r"malformed 'thresholds' document: lambda\[0\] must be a finite real number, got '0\."),
    ("thresholds.json", _edit_json(lambda d: d["gamma"].__setitem__(1, False)),
     r"malformed 'thresholds' document: gamma\[1\] must be a finite real number, got False$"),
    ("ep.json", _edit_json(lambda d: d["net"]["layers"][0]["w"].__setitem__(0, "0.2")),
     r"malformed 'exit_predictor' document: net.layers\[0\].w\[0\] must be a finite real "
     r"number, got '0.2'$"),
    ("ep.json", _edit_json(lambda d: d["net"]["layers"][0]["b"].__setitem__(0, True)),
     r"malformed 'exit_predictor' document: net.layers\[0\].b\[0\] must be a finite real "
     r"number, got True$"),
    ("ep.json", _edit_json(lambda d: d["net"]["sizes"].append(5)),
     r"malformed 'exit_predictor' document: net.sizes must have 3 entries, one more than "
     r"net.layers, got 4$"),
    ("ee.json", _edit_json(lambda d: d["trunk"][0]["layers"][0]["w"].__setitem__(0, "0.5")),
     r"malformed 'toy_early_exit' document: trunk\[0\].layers\[0\].w\[0\] must be a finite "
     r"real number, got '0.5'$"),
    ("summary.json", _edit_json(lambda d: d.update(lambda_star=list(map(str, d["lambda_star"])))),
     r"malformed 'summary' document: lambda_star and gamma_star: lambda\[0\] must be a finite "
     r"real number, got '0\."),
    ("regressors.json",
     _edit_json(lambda d: d["regressors"][0]["lambda"][0].__setitem__(0, "0.8")),
     r"malformed 'threshold_regressors' document: regressors\[0\]: lambda\[0\]\[0\] must be "
     r"a finite real number, got '0.8'$"),
    # No writer emits a table of no rows.
    ("sweep.csv", _header_only, r"line 2: table has no rows$"),
    ("frontier.csv", _header_only, r"line 2: table has no rows$"),
], ids=["sweep-lambda", "sweep-nan-accuracy", "sweep-feasible-yes", "frontier-banana",
        "report-method", "adapt-feasible-maybe", "adapt-short-row", "adapt-short-gamma",
        "frontier-plain-gamma", "frontier-short-gamma", "frontier-no-gamma",
        "regressors-interval", "regressors-unsorted", "regressors-repeated",
        "regressors-row-count", "regressors-lambda-range", "regressors-one-point",
        "ep-short-weights", "ep-identity", "ep-as-mlp", "thresholds-gamma",
        "summary-lambda", "summary-accuracy", "summary-sweep-string", "summary-sweep-int",
        "summary-seed", "summary-nan-loss", "summary-no-oracle", "summary-short-shares",
        "summary-negative-latency", "summary-budget-int", "summary-regressor-bool",
        "ee-nan-weight", "ee-infinite-weight", "ee-string-weight", "ee-bool-weight",
        "ee-string-seed", "ee-fractional-seed", "ep-nan-flops", "ep-string-flops",
        "ep-bool-flops", "ep-string-net-seed", "thresholds-string-lambda",
        "thresholds-bool-gamma", "ep-string-weight", "ep-bool-bias", "ep-extra-size",
        "ee-string-trunk-weight", "summary-string-lambda", "regressors-string-lambda",
        "sweep-no-rows", "frontier-no-rows"])
def test_corrupted_demo_artifact_fails_validate_naming_path_and_place(
        small_demo, tmp_path, capsys, name, corrupt, where):
    path = tmp_path / name
    path.write_text(corrupt((small_demo[0] / name).read_text()))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and captured.out == ""
    assert re.match(f"{re.escape(str(path))}: {where}", err["message"]), err["message"]


def test_fit_adapt_on_a_corrupted_sweep_fails_instead_of_training(small_demo, small_config_path,
                                                                   tmp_path, capsys):
    points = tmp_path / "sweep.csv"
    text = (small_demo[0] / "sweep.csv").read_text()
    points.write_text(_set_field(2, "feasible", "yes")(_set_field(2, "lambda_1", "1.5")(text)))
    out = tmp_path / "regs.json"
    assert main(["fit-adapt", "--config", small_config_path, "--points", str(points),
                 "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["message"].startswith(f"{points}: line 2: ")
    assert not out.exists()


def test_sweep_on_the_select_traces_reproduces_the_demo_sweep(small_demo, tmp_path, capsys):
    demo, out = small_demo[0], tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(demo / "config.json"), "--traces",
                 str(demo / "traces_select.jsonl"), "--ep", str(demo / "ep.json"),
                 "--out", str(out)]) == 0, capsys.readouterr().err
    assert out.read_bytes() == (demo / "sweep.csv").read_bytes()


def test_fit_adapt_table_rows_carry_the_points_bandwidths(small_demo, tmp_path, capsys):
    # The points come from SMALL_CONFIG's sweep; the default config sweeps
    # other bandwidths, so rows at those would be at bandwidths never fit.
    demo, table = small_demo[0], tmp_path / "adapt.csv"
    assert main(["fit-adapt", "--points", str(demo / "sweep.csv"), "--out",
                 str(tmp_path / "regs.json"), "--table", str(table), "--traces",
                 str(demo / "traces_test.jsonl"), "--ep", str(demo / "ep.json")]) == 0, \
        capsys.readouterr().err
    assert ([p.bandwidth for p in load_policy_points(table)]
            == sorted(SMALL_CONFIG["sweep_bandwidths"]))
    assert table.read_bytes() == (demo / "adapt_table.csv").read_bytes()


def test_fit_adapt_table_leaves_out_uncovered_bandwidths_and_writes_all_or_nothing(
        small_demo, tmp_path, capsys):
    demo, points = small_demo[0], load_policy_points(small_demo[0] / "sweep.csv")
    scored = ["--traces", str(demo / "traces_test.jsonl"), "--ep", str(demo / "ep.json")]
    out, table, extra = tmp_path / "regs.json", tmp_path / "adapt.csv", tmp_path / "extra.csv"
    # A feasible point no regressor interval covers: the fit leaves it out,
    # and so does the table.
    save_policy_points([*points, replace(points[-1], bandwidth=3e8)], extra)
    assert main(["fit-adapt", "--points", str(extra), "--out", str(out), "--table", str(table),
                 *scored]) == 0, capsys.readouterr().err
    assert out.read_bytes() == (demo / "regressors.json").read_bytes()
    assert table.read_bytes() == (demo / "adapt_table.csv").read_bytes()
    # Points of a net with one more early exit fit, but their thresholds do
    # not fit the traces: the table fails, and neither file is written.
    save_policy_points([replace(p, lam=(*p.lam, 0.5), gamma=(*p.gamma, 0.5)) for p in points],
                       extra)
    out.unlink()
    table.unlink()
    assert main(["fit-adapt", "--points", str(extra), "--out", str(out), "--table", str(table),
                 *scored]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == \
        "lambda must have length 2, got shape (3,)"
    assert not out.exists() and not table.exists()


@pytest.mark.parametrize("doc, message", [
    ({"sweep_bandwidths": [2e5, 3e5, 5e5]},
     "config regressor_intervals: interval 1e+06-1e+07 bit/s holds 0 sweep bandwidths; "
     "need at least 2"),
    ({"regressor_intervals": [[1e5, 1e6], [1e6, 1e7]]},
     "config sweep_bandwidths: 3e+07 bit/s outside all regressor intervals"),
], ids=["interval-short", "bandwidth-outside"])
def test_demo_over_a_sweep_the_regressors_cannot_cover_writes_nothing(tmp_path, capsys, doc,
                                                                      message):
    path, out = tmp_path / "config.json", tmp_path / "demo"
    path.write_text(json.dumps(doc))
    check_config(doc)  # a sweep alone takes any positive bandwidths
    assert main(["demo", "--config", str(path), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_demo_whose_sweep_leaves_an_interval_short_writes_nothing(tmp_path, capsys):
    # A 1 ms budget leaves no bandwidth feasible, which only the sweep shows.
    doc = {**SMALL_CONFIG, "environment": {"latency_budget": 0.001}}
    path, out, kept = tmp_path / "config.json", tmp_path / "demo", tmp_path / "kept"
    path.write_text(json.dumps(doc))
    kept.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    for target in (out, kept):
        assert main(["demo", "--config", str(path), "--out", str(target)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "interval 100000-1e+06 bit/s has 0 training bandwidths; need at least 2"}
    assert not out.exists()
    assert [p.name for p in kept.iterdir()] == ["notes.txt"]


def test_config_that_is_not_json_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 3,\n"synth": }\n')
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "TraceFormatError"
    assert err["message"].startswith(f"{path}: line 2: invalid JSON document: ")
    assert not out.exists()


@pytest.mark.parametrize("damaged, where", [
    (b'{"seed": 3,\n"synth": {"radius": \xff}}\n', "line 2: not UTF-8 text: "),
    (b'{"seed": 3,\n"synth": {"radius": 2.5', "line 2: invalid JSON document: "),
], ids=["non-utf8", "truncated"])
def test_unreadable_json_input_fails_as_one_error_type(tmp_path, capsys, damaged, where):
    path = tmp_path / "config.json"
    path.write_bytes(damaged)
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "TraceFormatError"
    with pytest.raises(exitsim.TraceFormatError, match=f"^{re.escape(str(path))}: {where}"):
        validate_artifact(str(path))
    assert not out.exists()


def test_validate_names_the_line_of_a_damaged_multiline_document(small_demo, tmp_path, capsys):
    good = json.dumps(json.loads((small_demo[0] / "ep.json").read_text()), indent=1)
    damaged = good[:len(good) // 2]
    cut = tmp_path / "ep.json"
    cut.write_text(damaged)
    assert main(["select-gamma", "--traces", str(small_demo[0] / "traces_test.jsonl"),
                 "--ep", str(cut)]) == 1
    verb = json.loads(capsys.readouterr().err)["message"]
    assert verb.startswith(f"{cut}: line {damaged.count(chr(10)) + 1}: invalid JSON document: ")
    assert main(["validate", str(cut)]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == verb


def _json_input_argv(demo, verb: str, bad: str, out: str, config: str) -> list[str]:
    """``verb`` reading its JSON input (--ep, --net or --config) from ``bad``
    and every other input from the demo output ``demo``."""
    traces = str(demo / "traces_test.jsonl")
    return {
        "select-gamma": ["select-gamma", "--traces", traces, "--ep", bad, "--out", out],
        "optimize": ["optimize", "--traces", traces, "--ep", bad, "--frontier", out],
        "sweep": ["sweep", "--traces", traces, "--ep", bad, "--out", out],
        "evaluate": ["evaluate", "--trace", traces, "--lambda", "0.5,0.5", "--method",
                     "predictor", "--ep", bad, "--gamma", "0.5,0.5", "--out", out],
        "fit-adapt": ["fit-adapt", "--points", str(demo / "sweep.csv"), "--out", out,
                      "--table", out + ".csv", "--traces", traces, "--ep", bad],
        "emit-traces": ["emit-traces", "--net", bad, "--data", str(demo / "dataset_test.jsonl"),
                        "--out", out],
        "gen-data": ["gen-data", "--out", out],
    }[verb] + ["--config", bad if verb == "gen-data" else config]


# The demo file each verb's damaged input is made from.
_GOOD_INPUT = {"emit-traces": "ee.json", "gen-data": "config.json"}


def _damaged(good: bytes, how: str) -> tuple[bytes, str]:
    """``good`` damaged ``how``, and where the error message places the
    damage: the line, or for a net naming the removed ``identity``
    activation, the document kind and the layer."""
    if how == "non-utf8":
        pos = good.index(b"\n") + 3
        return good[:pos] + b"\xff" + good[pos:], "line 2: "
    if how == "non-json":
        return b'{\n"kind": oops\n}\n', "line 2: "
    if how == "identity":
        doc = json.loads(good)
        (doc["net"] if "net" in doc else doc["trunk"][0])["activations"][0] = "identity"
        return json.dumps(doc, indent=1).encode(), (
            f"malformed {doc['kind']!r} document: layer 0: unknown activation 'identity'")
    cut = good[:len(good) // 2]
    lineno = cut.count(b"\n") + 1
    return cut, f"line {lineno}: "


_VERBS = ["select-gamma", "optimize", "sweep", "evaluate", "fit-adapt", "emit-traces", "gen-data"]


# Every verb reads a net but gen-data, whose JSON input is the config.
@pytest.mark.parametrize("verb, how", [
    (verb, how) for verb in _VERBS for how in ("non-utf8", "non-json", "truncated")
] + [(verb, "identity") for verb in _VERBS if verb != "gen-data"])
def test_every_verb_names_the_path_and_line_of_a_bad_json_input(small_demo, small_config_path,
                                                                tmp_path, capsys, verb, how):
    demo = small_demo[0]
    good = json.dumps(json.loads((demo / _GOOD_INPUT.get(verb, "ep.json")).read_text()),
                      indent=1).encode()
    bad = tmp_path / "input.json"
    damaged, where = _damaged(good, how)
    bad.write_bytes(damaged)
    argv = _json_input_argv(demo, verb, str(bad), str(tmp_path / "out"), small_config_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    err = json.loads(captured.err)
    assert err["message"].startswith(f"{bad}: {where}"), err["message"]
    if how == "identity":
        assert err["error"] == "ValueError"
    assert list(tmp_path.iterdir()) == [bad]


def test_validate_names_line_1_of_a_record_file_with_a_damaged_header(small_demo, tmp_path):
    for name in ("traces_test.jsonl", "dataset_test.jsonl"):
        lines = (small_demo[0] / name).read_text().split("\n")
        bad = tmp_path / name
        bad.write_text("\n".join([lines[0][:40], *lines[1:]]))
        with pytest.raises(exitsim.TraceFormatError,
                           match=f"^{re.escape(str(bad))}: line 1: invalid JSON header: "):
            validate_artifact(str(bad))


def test_config_env_var_supplies_default(small_config_path, tmp_path):
    import os
    env = dict(os.environ, EXITSIM_CONFIG=small_config_path)
    proc = run_cli("gen-data", "--out", f"{tmp_path}/d.jsonl", env=env)
    assert proc.returncode == 0, proc.stderr
    header = json.loads(Path(f"{tmp_path}/d.jsonl").read_text().partition("\n")[0])
    assert header["num_samples"] == SMALL_CONFIG["synth"]["train_samples"]


def test_seed_flag_overrides_config(small_config_path, tmp_path):
    out1 = f"{tmp_path}/d1.jsonl"
    out2 = f"{tmp_path}/d2.jsonl"
    run_cli("gen-data", "--config", small_config_path, "--out", out1)
    run_cli("gen-data", "--config", small_config_path, "--out", out2, "--seed", "99")
    assert Path(out1).read_text() != Path(out2).read_text()


def test_load_config_merges_over_defaults(small_config_path):
    cfg = load_config(small_config_path).doc
    assert cfg["synth"]["train_samples"] == 240
    # untouched keys keep their defaults
    assert cfg["topology"] == DEFAULT_CONFIG["topology"]
    assert cfg["environment"]["latency_budget"] == 0.030


def test_emit_frontier_single_report():
    ts = golden_fraction_traces()
    _, rep = run_plain(ts, (0.9, 0.9))
    text = emit_frontier([("plain", (0.9, 0.9), None, rep, 0.0)])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("method,lambda,gamma,accuracy,on_device_mflops")


def test_emit_frontier_rows_sorted_by_flops_and_dominance_holds():
    ts = golden_fraction_traces()
    lam = (0.9, 0.9)
    scores = make_labels(ts, lam)  # a perfect predictor
    gamma = select_gamma(ts, scores, lam, grid_step=0.5)
    _, plain = run_plain(ts, lam)
    _, pred = run_with_predictor(ts, Thresholds(lam, gamma), scores)
    _, oracle = run_oracle(ts, lam)
    text = emit_frontier([
        ("plain", lam, None, plain, 0.0),
        ("predictor", lam, gamma, pred, ts.topology.predictor_flops),
        ("oracle", lam, None, oracle, 0.0),
    ])
    rows = text.strip().splitlines()[1:]
    flops = [float(r.split(",")[4]) for r in rows]
    assert flops == sorted(flops)
    by_method = {r.split(",")[0]: float(r.split(",")[4]) for r in rows}
    assert by_method["oracle"] <= by_method["predictor"] <= by_method["plain"]


def test_emit_frontier_requires_reports():
    with pytest.raises(ValueError):
        emit_frontier([])


def test_validate_reads_a_header_only_record_file(tmp_path, capsys):
    # Line 1 decides: a dataset or trace header makes a record file, whatever follows.
    dataset, traces = tmp_path / "dataset.jsonl", tmp_path / "traces.jsonl"
    save_dataset(dataset, np.zeros((0, 3)), np.zeros(0, int), 10)
    save_trace_set(TraceSet(golden_fraction_traces().topology, []), traces)
    assert load_dataset(dataset)[0].shape == (0, 3)
    assert [validate_artifact(str(p)) for p in (dataset, traces)] == ["dataset", "trace_set"]
    assert main(["validate", str(dataset), str(traces)]) == 0
    assert capsys.readouterr().out == f"ok {dataset} (dataset)\nok {traces} (trace_set)\n"


def test_validate_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.csv"
    bad.write_text("hello,world\n1,2\n")
    with pytest.raises(ValueError, match="unrecognized"):
        validate_artifact(str(bad))
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1


@pytest.mark.parametrize("doc, field", [
    ({"kind": "threshold_regressors"}, "regressors"),
    ({"kind": "threshold_regressors", "regressors": [{"interval": [1e5, 1e6]}]},
     "train_bandwidths"),
    ({"kind": "thresholds", "lambda": [0.5, 0.6]}, "gamma"),
    ({"kind": "thresholds", "gamma": [0.5, 0.6]}, "lambda"),
    ({"kind": "exit_predictor", "lambda": [0.5]}, "net"),
    ({"kind": "exit_predictor", "lambda": [0.5], "predictor_flops": 0.4, "net": {}}, "sizes"),
    ({"kind": "toy_early_exit"}, "trunk"),
    ({"kind": "summary"}, "seed"),
])
def test_validate_names_path_and_missing_field(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc) + "\n")
    assert main(["validate", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": f"{path}: missing field {field!r}"}


def test_validate_names_path_of_malformed_regressor_bundle(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "threshold_regressors", "regressors": 5}) + "\n")
    assert main(["validate", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{path}: malformed 'threshold_regressors' document: ")


def test_validate_truncated_json_names_the_path(tmp_path):
    cut = tmp_path / "cut.json"
    cut.write_text('{\n"kind": "exit_predictor",\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: line 3: "):
        validate_artifact(str(cut))
    proc = run_cli("validate", str(cut))
    assert proc.returncode == 1
    assert str(cut) in json.loads(proc.stderr)["message"]


def _perfbench_warmup_config() -> dict:
    """perfbench's WARMUP_CONFIG literal, read without importing perfbench."""
    source = (Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "WARMUP_CONFIG":
            return ast.literal_eval(node.value)
    raise AssertionError("WARMUP_CONFIG not found")


def test_shipped_configs_pass_the_check():
    for doc in (DEFAULT_CONFIG, SMALL_CONFIG, _perfbench_warmup_config()):
        check_config(doc)


def test_regressor_section_is_checked_but_changes_nothing(small_demo):
    points = load_policy_points(small_demo[0] / "sweep.csv")
    unread = {"regressor": {"hidden": 3, "train": {"epochs": 9000, "lr": 5.0}}}
    cfg = check_config(unread)
    assert sorted(cfg.training) == ["ee", "ep"]
    assert repr(stage_fit_adapt(cfg, points)) == repr(stage_fit_adapt(check_config(), points))


@pytest.mark.parametrize("doc, message", [
    ({"regressor": {"train": {"epochs": 16.5}}}, "config regressor.train: epochs "),
    ({"ee": {"train": {"lr": -1}}}, "config ee.train: lr "),
    pytest.param({"policy": {"lambda_grid": [1.5]}},
                 "config policy: lambda_grid[0] must lie in (0, 1), got 1.5",
                 id="doc2-config policy: lambda_grid "),
    pytest.param({"sweep_bandwidths": [-1]}, "config: sweep_bandwidths[0] must lie in (0, inf), "
                 "got -1", id="doc3-config: sweep_bandwidths "),
    ({"synth": {"spreads": [1]}}, "config synth: spreads "),
    pytest.param({"policy": {"gamma_split": "tset"}}, "config policy: unknown key 'gamma_split'",
                 id="doc5-config policy: gamma_split "),
    ({"polcy": {"gamma_step": 0.1}}, "config: unknown key 'polcy'"),
    ({"topology": 5}, "config topology: must be an object"),
    ({"ee": {"train": {"epochs": 0}}}, "config ee.train: epochs "),
    ({"ee": {"train": {"seed": 1}}}, "config ee.train: unknown key 'seed'"),
    pytest.param({"seed": -1}, "config: seed must lie in [0, inf), got -1",
                 id="doc10-config: seed must be >= 0, got -1"),
    ({"synth": {"final_flip_prob": 1.5}}, "config synth: final_flip_prob must lie in [0, 1]"),
    ({"ee": {"exit_weights": [0, 0, 0]}}, "config ee: exit weights must be >= 0 with positive sum"),
    ({"policy": {"holdout_fraction": 0.9999}},
     "config policy.holdout_fraction: cannot hold out 2000 of 2000 samples"),
    ({"synth": {"num_classes": 10}}, "config synth: unknown key 'num_classes'"),
    ({"regressor_intervals": [[1e5, 1e6], [1e7, 1e6]]},
     "config: regressor_intervals[1] must be [lo, hi] with lo < hi, got [10000000.0, 1000000.0]"),
    ({"regressor_intervals": [[1e5, 1e6, 1e7]]}, "config: regressor_intervals[0] must be [lo, hi]"),
    ({"regressor_intervals": [[1e5, 0]]},
     "config: regressor_intervals[0][1] must lie in (0, inf), got 0"),
])
def test_malformed_config_fails_at_the_check(tmp_path, capsys, doc, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": "experiment_config", **doc}))
    out = tmp_path / "demo"
    # validate names the file, as for every JSON artifact kind
    for argv, prefix in ((["validate", str(path)],
                          f"{path}: malformed 'experiment_config' document: "),
                         (["demo", "--config", str(path), "--out", str(out)], "")):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError" and err["message"].startswith(prefix + message), err
        assert "ok" not in captured.out
    assert not out.exists()
