"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `[criterion N] PASS/FAIL` line; run with `pytest -s
tests/test_acceptance.py` to see them inline.
"""

import itertools
import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from exitsim.engine import Environment, policy_stats, run_oracle, run_plain, run_with_predictor
from exitsim.nncore import Mlp, TrainConfig, numeric_gradient_check, train
from exitsim.optimizer import InfeasibleError, fit_regressors, adapt, grid_search, sweep_bandwidths
from exitsim.predictor import predict_scores, select_gamma, train_predictor
from exitsim.trace import Thresholds, split_trace_set
from exitsim.zoo import SynthSpec, ToyEarlyExitNet, emit_traces, generate_dataset

from helpers import (
    VGG_TOPOLOGY,
    count_formula,
    golden_fraction_traces,
    literal_predictor_walk,
    random_gamma,
    random_lambda,
    random_trace_set,
    walk_counts,
)

BUDGET_S = 0.030
COMPUTE_SPEED = 3.62e9
CRITERION_BANDWIDTHS = [1e5, 3e5, 5e5, 7e5, 1e6, 3e6, 5e6, 1e7, 3e7, 1e8]
TRAINING_BANDWIDTHS = [1e5, 3e5, 5e5, 7e5, 1e6, 3e6, 5e6, 7e6, 1e7, 3e7, 5e7, 7e7, 1e8]
INTERVALS = [(1e5, 1e6), (1e6, 1e7), (1e7, 1e8)]
LAMBDA_GRID = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
GAMMA_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def criterion(n: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def ring_spec(samples: int, seed: int) -> SynthSpec:
    base = SynthSpec.ring(1, 10, 8, radius=2.5)
    return SynthSpec(
        num_samples=samples, num_classes=10, input_dim=8,
        centers=base.centers,
        spreads=tuple(0.35 if k % 2 == 0 else 0.9 for k in range(10)),
        label_noise=0.02, seed=seed,
    )


@pytest.fixture(scope="module")
def toy_pipeline():
    """Trained blob pipeline shared by criteria 4 and 5 (timed once)."""
    start = time.monotonic()
    x_train, y_train = generate_dataset(ring_spec(2000, seed=7))
    x_test, y_test = generate_dataset(ring_spec(1000, seed=8))
    net = ToyEarlyExitNet.build(8, 10, seed=7)
    net, _ = train(net, x_train, y_train, TrainConfig(weight_decay=5e-4, seed=7))
    train_ts = emit_traces(net, x_train, y_train, VGG_TOPOLOGY, seed=7)
    test_ts = emit_traces(net, x_test, y_test, VGG_TOPOLOGY, seed=8)
    fit_ts, select_ts = split_trace_set(train_ts, 0.2, seed=7)

    best_lam, best_acc = None, -1.0
    for combo in itertools.product(LAMBDA_GRID, repeat=2):
        acc = policy_stats(select_ts, combo).accuracy
        if acc > best_acc:
            best_lam, best_acc = combo, acc
    ep, _ = train_predictor(fit_ts, best_lam,
                            cfg=TrainConfig(weight_decay=2e-4, seed=11))
    gamma = select_gamma(select_ts, predict_scores(ep, select_ts), best_lam, grid_step=0.05)
    return {
        "test_ts": test_ts,
        "ep": ep,
        "lam": best_lam,
        "gamma": gamma,
        "build_seconds": time.monotonic() - start,
    }


def test_criterion_1_golden_cost_model():
    start = time.monotonic()
    ts = golden_fraction_traces()
    _, plain = run_plain(ts, (0.9, 0.9))
    _, oracle = run_oracle(ts, (0.9, 0.9))
    elapsed = time.monotonic() - start
    ok = (
        abs(plain.mean_on_device_mflops - 42.44) <= 0.02
        and abs(plain.mean_total_mflops - 79.64) <= 0.02
        and abs(oracle.mean_on_device_mflops - 34.93) <= 0.02
        and abs(oracle.mean_total_mflops - 72.13) <= 0.02
        and elapsed < 1.0
    )
    criterion(1, ok, (
        f"plain {plain.mean_on_device_mflops:.2f}/{plain.mean_total_mflops:.2f} "
        f"oracle {oracle.mean_on_device_mflops:.2f}/{oracle.mean_total_mflops:.2f} "
        f"MFLOPs (targets 42.44/79.64, 34.93/72.13 +-0.02) in {elapsed:.2f}s"
    ))


def test_criterion_2_cost_model_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(1000):
        ts = random_trace_set(rng, n_samples=int(rng.integers(5, 40)))
        topo = ts.topology
        n_early = topo.num_early_exits
        lam = random_lambda(rng, n_early)
        gamma = random_gamma(rng, n_early)
        scores = rng.uniform(0.0, 1.0, (len(ts), n_early))

        plain_recs, _ = run_plain(ts, lam)
        zero_recs, _ = run_with_predictor(ts, Thresholds(lam, (0.0,) * n_early), scores)
        for a, b in zip(plain_recs, zero_recs):
            assert b.exit_taken == a.exit_taken
            assert b.on_device_mflops == a.on_device_mflops + topo.predictor_flops

        full_recs, _ = run_with_predictor(ts, Thresholds(lam, gamma), scores)
        for i, rec in enumerate(full_recs):
            taken, device, _, tx = literal_predictor_walk(
                ts.conf[i], scores[i], lam, gamma, topo)
            assert rec.exit_taken == taken and rec.transmitted == tx
            worst_gap = max(worst_gap, abs(rec.on_device_mflops - device))
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-9 and elapsed < 30.0
    criterion(2, ok, (
        f"1000 random sets: zero-gamma exits/costs exact, literal-walk gap "
        f"{worst_gap:.2e} MFLOPs (tol 1e-9) in {elapsed:.1f}s"
    ))


def test_criterion_3_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(25):
        net = Mlp.init([5, 7, 3], ["relu", "sigmoid"], seed=seed)
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=5)
        y = rng.integers(0, 2, 3).astype(float)
        worst = max(worst, numeric_gradient_check(net, x, y))
    for seed in range(25):
        net = ToyEarlyExitNet.build(4, 3, trunk_widths=(6, 5), final_hidden=5,
                                    weights=(0.2, 0.3, 0.5), seed=seed)
        rng = np.random.default_rng(2000 + seed)
        x = rng.normal(size=4)
        label = int(rng.integers(0, 3))
        worst = max(worst, numeric_gradient_check(net, x, label))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 60.0
    criterion(3, ok, (
        f"50 nets, max relative gradient error {worst:.2e} (tol 1e-5) in {elapsed:.1f}s"
    ))


def test_criterion_4_end_to_end_predictor_benefit(toy_pipeline):
    start = time.monotonic()
    ts = toy_pipeline["test_ts"]
    lam, gamma = toy_pipeline["lam"], toy_pipeline["gamma"]
    scores = predict_scores(toy_pipeline["ep"], ts)
    _, plain = run_plain(ts, lam)
    _, pred = run_with_predictor(ts, Thresholds(lam, gamma), scores)
    elapsed = toy_pipeline["build_seconds"] + (time.monotonic() - start)
    ok = (
        pred.mean_on_device_mflops < plain.mean_on_device_mflops
        and pred.accuracy >= plain.accuracy - 0.01
        and elapsed < 300.0
    )
    criterion(4, ok, (
        f"lam={lam} gamma={gamma}: on-device {pred.mean_on_device_mflops:.2f} < "
        f"{plain.mean_on_device_mflops:.2f} MFLOPs, accuracy {pred.accuracy:.4f} vs "
        f"{plain.accuracy:.4f} (drop <= 1pp) in {elapsed:.0f}s incl. training"
    ))


def test_criterion_5_latency_aware_adaptation(toy_pipeline):
    start = time.monotonic()
    ts = toy_pipeline["test_ts"]
    scores = predict_scores(toy_pipeline["ep"], ts)
    env = Environment(COMPUTE_SPEED, 1e6, BUDGET_S)

    points = sweep_bandwidths(ts, scores, env, CRITERION_BANDWIDTHS,
                              LAMBDA_GRID, GAMMA_GRID)
    all_feasible = all(p.feasible for p in points)

    monotone = True
    for lo, hi in INTERVALS:
        accs = [p.accuracy for p in points if lo <= p.bandwidth <= hi and p.feasible]
        monotone &= all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    train_points = sweep_bandwidths(ts, scores, env, TRAINING_BANDWIDTHS,
                                    LAMBDA_GRID, GAMMA_GRID)
    regressors = fit_regressors([p for p in train_points if p.feasible], INTERVALS)
    adapted_ok = True
    worst_latency = 0.0
    for bw in CRITERION_BANDWIDTHS:
        th = adapt(regressors, bw)
        stats = policy_stats(ts, th.lam, th.gamma, scores, replace(env, bandwidth=bw))
        worst_latency = max(worst_latency, stats.mean_latency_s)
        adapted_ok &= stats.mean_latency_s <= BUDGET_S + 1e-9
    elapsed = toy_pipeline["build_seconds"] + (time.monotonic() - start)
    ok = all_feasible and monotone and adapted_ok and elapsed < 600.0
    criterion(5, ok, (
        f"sweep feasible at all {len(points)} bandwidths, accuracy monotone per "
        f"interval, adapted policies worst latency {worst_latency * 1e3:.2f} ms "
        f"(budget 30 ms) in {elapsed:.0f}s"
    ))


def brute_force_point(ts, scores, env, lam_vals, gam_vals):
    topo = ts.topology
    n_early = topo.num_early_exits
    samples = tuple(ts.samples)  # built once, not once per combination
    best = None
    for lam in itertools.product(sorted(lam_vals), repeat=n_early):
        for gam in itertools.product(sorted(gam_vals), repeat=n_early):
            walks = []
            for i, s in enumerate(samples):
                taken, _, computed, tx = literal_predictor_walk(
                    s.confidences, scores[i], lam, gam, topo)
                walks.append((taken, computed, tx, s.predicted[taken - 1] == s.label))
            acc, _, lat = count_formula(walk_counts(walks, topo), len(samples), topo, env,
                                        gated=True)
            if lat > env.latency_budget:
                continue
            if best is None or acc > best[2] or (acc == best[2] and lat < best[3]):
                best = (lam, gam, acc, lat)
    return best


def test_criterion_6_optimizer_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    checked = 0
    for trial in range(100):
        ts = random_trace_set(rng, n_samples=int(rng.integers(8, 30)))
        n_early = ts.topology.num_early_exits
        scores = rng.uniform(0.0, 1.0, (len(ts), n_early))
        if trial == 0:
            # one full-size trial: exactly 10^4 grid points on two exits
            while ts.topology.num_early_exits != 2:
                ts = random_trace_set(rng, n_samples=10)
                scores = rng.uniform(0.0, 1.0, (len(ts), 2))
            lam_vals = sorted(rng.uniform(0.05, 0.99, 10).tolist())
            gam_vals = sorted(rng.uniform(0.0, 1.0, 10).tolist())
        else:
            lam_vals = sorted(rng.uniform(0.05, 0.99, int(rng.integers(2, 5))).tolist())
            gam_vals = sorted(rng.uniform(0.0, 1.0, int(rng.integers(2, 5))).tolist())
        n_points = (len(lam_vals) * len(gam_vals)) ** ts.topology.num_early_exits
        assert n_points <= 10_000
        env = Environment(COMPUTE_SPEED, float(rng.uniform(1e4, 1e7)),
                          float(rng.uniform(0.004, 0.15)))
        expected = brute_force_point(ts, scores, env, lam_vals, gam_vals)
        if expected is None:
            with pytest.raises(InfeasibleError):
                grid_search(ts, scores, env, lam_vals, gam_vals)
        else:
            best, frontier = grid_search(ts, scores, env, lam_vals, gam_vals)
            assert len(frontier) == n_points
            assert (best.lam, best.gamma) == (expected[0], expected[1])
            assert best.accuracy == expected[2]
            assert best.mean_latency_s == pytest.approx(expected[3], abs=0)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 100 and elapsed < 60.0
    criterion(6, ok, (
        f"grid_search equals nested-loop enumeration on {checked} random trials "
        f"in {elapsed:.1f}s"
    ))


def test_criterion_7_demo_determinism(tmp_path):
    start = time.monotonic()
    outputs = []
    for run in range(2):
        outdir = tmp_path / f"demo{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "exitsim", "demo", "--out", str(outdir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(outdir)
    names = sorted(p.name for p in outputs[0].iterdir())
    identical = names == sorted(p.name for p in outputs[1].iterdir()) and all(
        (outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes() for n in names
    )
    elapsed = time.monotonic() - start
    ok = identical and elapsed < 600.0
    criterion(7, ok, (
        f"two demo runs produced byte-identical artifacts "
        f"({len(names)} files) in {elapsed:.0f}s"
    ))
