"""Tests of the benchmark's own parts: reference evaluator, self times, wrapping.

    python3 -m pytest perfbench/selftest.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import stopwatch  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, installed, self_times  # noqa: E402

es = workloads.import_program(HERE.parent)

# Six samples on the default three-exit topology, chosen so that every exit
# terminates someone under (0.6, 0.7) and the predictor skips some exits.
CONF = np.array([[0.9, 0.95, 0.99], [0.5, 0.8, 0.9], [0.3, 0.4, 0.7],
                 [0.6, 0.2, 0.8], [0.55, 0.7, 0.6], [0.1, 0.1, 0.5]])
PRED = np.array([[1, 1, 1], [2, 3, 3], [0, 4, 4], [5, 5, 6], [7, 8, 8], [9, 9, 0]])
LABEL = np.array([1, 3, 4, 6, 8, 0])
SCORES = np.array([[0.9, 0.2], [0.4, 0.6], [0.1, 0.1], [0.8, 0.3], [0.7, 0.9], [0.2, 0.5]])
LAM, GAMMA = (0.6, 0.7), (0.5, 0.5)


@pytest.fixture(scope="module")
def hand_set():
    arrays = ref.TraceArrays(dict(workloads.TOPOLOGY), np.arange(6), LABEL, CONF, PRED, None)
    return workloads.trace_set(es, arrays), ref.Costs.from_header(workloads.TOPOLOGY)


def env(bandwidth=1e6):
    return es.engine.Environment(workloads.COMPUTE_SPEED, bandwidth, workloads.LATENCY_BUDGET)


def test_reference_walk_by_hand(hand_set):
    _, costs = hand_set
    w, agg = ref.evaluate(CONF, PRED, LABEL, costs, LAM)
    assert (w.exit_idx + 1).tolist() == [1, 2, 3, 1, 2, 3]
    assert w.device[0] == pytest.approx(1.97 + 16.7)
    assert w.device[2] == pytest.approx(1.97 + 16.7 + 56.98 + 14.23)
    assert agg.offload_share == pytest.approx(2 / 6)
    w, _ = ref.evaluate(CONF, PRED, LABEL, costs, LAM, GAMMA, SCORES)
    # sample 1 skips exit 1 (score 0.4) and stops at exit 2; sample 0 stops at exit 1
    assert (w.exit_idx + 1).tolist() == [1, 2, 3, 1, 2, 3]
    assert w.computed[1].tolist() == [False, True]
    w, _ = ref.evaluate(CONF, PRED, LABEL, costs, LAM, oracle=True)
    assert w.device[1] == pytest.approx(1.97 + 56.98 + 14.23)


@pytest.mark.parametrize("bandwidth", [1e4, 1e6])
def test_reference_agrees_with_engine(hand_set, bandwidth):
    ts, costs = hand_set
    e = env(bandwidth)
    cases = [
        ("plain", {}, es.engine.run_plain(ts, LAM, e), es.engine.policy_stats(ts, LAM, env=e)),
        ("predictor", {"gamma": GAMMA, "scores": SCORES},
         es.engine.run_with_predictor(ts, es.trace.Thresholds(LAM, GAMMA), SCORES, e),
         es.engine.policy_stats(ts, LAM, GAMMA, SCORES, e)),
        ("oracle", {"oracle": True}, es.engine.run_oracle(ts, LAM, e), None),
    ]
    for name, kwargs, (records, report), stats in cases:
        w, agg = ref.evaluate(CONF, PRED, LABEL, costs, LAM, **kwargs)
        for got in (report, stats):
            if got is not None:
                assert ref.report_errors(name, got.to_dict(), agg, costs, e.compute_speed,
                                         bandwidth, e.latency_budget) == []
        assert [r.exit_taken for r in records] == (w.exit_idx + 1).tolist()
        assert [r.exits_computed for r in records] == [tuple(c) for c in w.computed.tolist()]


def test_reference_checks_grid_search(hand_set):
    ts, costs = hand_set
    lam_grid, gam_grid = [0.3, 0.6, 0.9], [0.0, 0.5, 1.0]
    table = ref.combo_table(CONF, PRED, LABEL, costs, SCORES, lam_grid, gam_grid)
    for bw in (1e4, 1e6):
        try:
            best, _ = es.optimizer.grid_search(ts, SCORES, env(bw), lam_grid, gam_grid)
        except es.optimizer.InfeasibleError as exc:
            best = exc.min_latency_point
        args = (table, costs, workloads.COMPUTE_SPEED, workloads.LATENCY_BUDGET, bw)
        point = (best.lam, best.gamma, best.accuracy, best.mean_latency_s, best.feasible)
        assert ref.sweep_point_errors(*args, *point) == []
        other = next(k for k in table.keys if k != (best.lam, best.gamma))
        assert ref.sweep_point_errors(*args, *other, *point[2:]) != []
    assert not es.optimizer.sweep_bandwidths(ts, SCORES, env(), [1e4], lam_grid,
                                             gam_grid)[0].feasible


def test_reference_checks_select_gamma(hand_set):
    ts, costs = hand_set
    grid = ref.gamma_values(0.25)
    table = ref.combo_table(CONF, PRED, LABEL, costs, SCORES, None, grid, lam_fixed=LAM)
    _, plain = ref.evaluate(CONF, PRED, LABEL, costs, LAM)
    gamma = es.predictor.select_gamma(ts, SCORES, LAM, grid_step=0.25, budget_fraction=0.2)
    assert ref.select_gamma_errors(table, plain.exit_distribution[-1], gamma, 0.2) == []
    assert ref.select_gamma_errors(table, plain.exit_distribution[-1], (1.0, 1.0), 0.2) != []


def test_self_times_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["e", 9.5, 12.0, 0],    # overhangs its parent: only 9.5..10 is covered
        ["f", 20.0, 26.0, -1],
        ["g", 21.0, 24.0, 5],   # g and h overlap: together they cover 21..25
        ["h", 22.0, 25.0, 5],
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 2.5, 2.0, 3.0, 3.0])


def test_wrapping_covers_every_binding_and_restores():
    train, epoch = es.nncore.train, es.nncore.sgd_epoch
    net = es.nncore.Mlp.init([2, 3, 1], ["relu", "sigmoid"], seed=0)
    cfg = es.nncore.TrainConfig(epochs=3, lr_end_epoch=3, batch_size=4)
    tracer = Tracer()
    with installed(tracer, "exitsim", layers.TARGETS):
        assert es.optimizer.train is es.predictor.train is es.nncore.train is not train
        es.optimizer.train(net, np.ones((8, 2)), np.ones((8, 1)), "bce", cfg)
    assert es.optimizer.train is train and es.zoo.sgd_epoch is epoch
    names = [s[0] for s in tracer.spans]
    assert names == ["nncore.train"] + ["nncore.sgd_epoch"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    metrics = layers.iteration_metrics(tracer)
    assert metrics["nncore.epochs"] == 3 and metrics["engine.policy_stats_calls"] == 0


def test_matrix_spans_only_on_first_access(hand_set):
    arrays = ref.TraceArrays(dict(workloads.TOPOLOGY), np.arange(6), LABEL, CONF, PRED, None)
    ts = workloads.trace_set(es, arrays)
    tracer = Tracer()
    with installed(tracer, "exitsim", layers.TARGETS):
        es.engine.policy_stats(ts, LAM)
        es.engine.policy_stats(ts, LAM)
    names = [s[0] for s in tracer.spans]
    assert names.count("trace.TraceSet.conf_matrix") == 1
    assert layers.iteration_metrics(tracer)["engine.distinct_walk_share"] == 0.5
    assert "conf_matrix" in vars(type(ts)) and ts.conf_matrix is ts.conf_matrix


def test_best_sums_the_shortest_time_of_each_phase():
    iterations = [{"load": (3.0, 9.0), "save": (1.0, 9.0)}, {"load": (2.0, 9.0), "save": (4.0, 9.0)},
                  {"load": (5.0, 9.0), "save": (2.0, 9.0)}]
    assert run.best(iterations) == 3.0
    assert run.best(iterations, ["load"]) == 2.0


def test_reference_seconds_sums_median_units_of_each_phase():
    iterations = [{"load": (9.0, 3.0), "save": (9.0, 1.0)}, {"load": (9.0, 2.0)},
                  {"load": (9.0, 5.0), "save": (9.0, 2.0)}]
    assert stopwatch.reference_seconds(iterations) == pytest.approx(
        (3.0 + 1.0) * stopwatch.REFERENCE_CAL_S)


def test_stopwatch_splits_time_at_calibrations(monkeypatch):
    # A fake clock on which each calibration takes 2 s at first, 4 s once the
    # host has slowed; the calls advance it by hand, and one tick comes in
    # the middle of the outer call.
    now, cal = [0.0], [2.0]
    monkeypatch.setattr(stopwatch.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(stopwatch, "calibration", lambda: now.__setitem__(0, now[0] + cal[0]))
    monkeypatch.setattr(stopwatch, "TICK_S", 0)  # no real timer; the tick is called below
    watch = stopwatch.Stopwatch()

    def inner():
        now[0] += 3.0

    def outer():
        now[0] += 1.0
        watch.time("inner", inner)
        now[0] += 4.0
        cal[0] = 4.0
        watch._mark()
        now[0] += 6.0

    watch.time("outer", outer)
    phases = watch.lap()
    assert phases["inner"] == (3.0, 1.5)
    assert phases["outer"] == (11.0, 1.0 / 2 + 4.0 / 3 + 6.0 / 4)
    assert watch.lap() == {}


def test_missing_targets_are_listed():
    tracer = Tracer()
    targets = [("engine", "policy_stats", None), ("engine", "no_such_function", None),
               ("trace", "TraceSet.no_such_matrix", None)]
    with installed(tracer, "exitsim", targets):
        pass
    assert tracer.missing == ["engine.no_such_function", "trace.TraceSet.no_such_matrix"]


def test_paused_tracer_records_nothing(hand_set):
    ts, _ = hand_set
    tracer = Tracer()
    with installed(tracer, "exitsim", layers.TARGETS):
        with tracer.pause():
            es.engine.policy_stats(ts, LAM)
        es.engine.policy_stats(ts, (0.5, 0.5))
    assert [s[0] for s in tracer.spans] == ["engine.policy_stats"]
    assert len(tracer.keys["walks"]) == 1


def test_traced_demo_spans_only_the_demo(tmp_path):
    # The output check validates every artifact with exitsim's own loaders;
    # none of that may show up in the trace.
    demo = workloads.Demo(es, 3, tmp_path, config=workloads.WARMUP_CONFIG)
    tally, tracer = workloads.Tally(), Tracer()
    run.traced_iteration(demo, tracer, tally, stopwatch.Stopwatch(calibrated=False))
    assert (tally.attempted, tally.failed) == (1, 0), tally.errors
    assert [s[0] for s in tracer.spans if s[3] == -1] == ["cli.stage_demo"]
    assert tracer.missing == []


def test_written_trace_file_loads_as_generated(tmp_path):
    arrays, _ = workloads.synthetic_traces(np.random.default_rng(0), 50, feature_dim=3)
    path = tmp_path / "t.jsonl"
    workloads.write_trace_file(path, arrays)
    ts = es.trace.load_trace_set(path)
    assert np.array_equal(ts.conf_matrix, arrays.conf)
    assert np.array_equal(ts.feature_matrix, arrays.features)
    assert path.read_text() == es.trace.trace_set_text(ts)
    back = ref.read_trace_file(path)
    assert back.header == arrays.header and np.array_equal(back.pred, arrays.pred)


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        layers.per_layer_spec()
