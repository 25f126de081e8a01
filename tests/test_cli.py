import json
import re
import subprocess
import sys

import numpy as np
import pytest

from exitsim.cli import (
    DEFAULT_CONFIG,
    emit_frontier,
    load_config,
    main,
    validate_artifact,
)
from exitsim.engine import run_oracle, run_plain, run_with_predictor
from exitsim.predictor import make_labels, select_gamma
from exitsim.trace import Thresholds, save_trace_set

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


def test_config_env_var_supplies_default(small_config_path, tmp_path):
    import os
    env = dict(os.environ, EXITSIM_CONFIG=small_config_path)
    proc = run_cli("gen-data", "--out", f"{tmp_path}/d.jsonl", env=env)
    assert proc.returncode == 0, proc.stderr
    header = json.loads(open(f"{tmp_path}/d.jsonl").readline())
    assert header["num_samples"] == SMALL_CONFIG["synth"]["train_samples"]


def test_seed_flag_overrides_config(small_config_path, tmp_path):
    out1 = f"{tmp_path}/d1.jsonl"
    out2 = f"{tmp_path}/d2.jsonl"
    run_cli("gen-data", "--config", small_config_path, "--out", out1)
    run_cli("gen-data", "--config", small_config_path, "--out", out2, "--seed", "99")
    assert open(out1).read() != open(out2).read()


def test_load_config_merges_over_defaults(small_config_path):
    cfg = load_config(small_config_path)
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
    ({"kind": "mlp"}, "sizes"),
    ({"kind": "toy_early_exit"}, "trunk"),
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
    cut.write_text('{\n"kind": "mlp",\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: line 1: "):
        validate_artifact(str(cut))
    proc = run_cli("validate", str(cut))
    assert proc.returncode == 1
    assert str(cut) in json.loads(proc.stderr)["message"]
