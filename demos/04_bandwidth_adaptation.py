#!/usr/bin/env python3
"""Latency-aware thresholds across three decades of link bandwidth.

Solves the accuracy-maximization problem under a 30 ms mean-latency budget
at each bandwidth, turns the recorded optima into one threshold schedule
per bandwidth interval (piecewise linear in log10 bandwidth, nothing
trained), and re-evaluates the scheduled thresholds between and at the
sweep bandwidths so one predictor serves every channel condition.
"""

from dataclasses import replace

from exitsim import Environment, ExitTopology, SynthSpec, ToyEarlyExitNet, TrainConfig, train
from exitsim.engine import policy_stats
from exitsim.optimizer import adapt, fit_regressors, sweep_bandwidths
from exitsim.predictor import predict_scores, train_predictor
from exitsim.trace import split_trace_set
from exitsim.zoo import emit_traces, generate_dataset

topology = ExitTopology(
    num_exits=3, segment_flops=(1.97, 56.98), exit_flops=(16.70, 14.23),
    server_flops=274.13, predictor_flops=0.40, num_classes=10,
    raw_feature_bits=262144, compression_ratio=64.0,
)
env = Environment(compute_speed=3.62e9, bandwidth=1e6, latency_budget=0.030)

base = SynthSpec.ring(1, 10, 8, radius=2.5)
spec = SynthSpec(num_samples=2000, num_classes=10, input_dim=8,
                 centers=base.centers,
                 spreads=tuple(0.35 if k % 2 == 0 else 0.9 for k in range(10)),
                 label_noise=0.02, seed=7)
x_train, y_train = generate_dataset(spec)
x_test, y_test = generate_dataset(replace(spec, num_samples=1000, seed=8))

net = ToyEarlyExitNet.build(8, 10, seed=7)
net, _ = train(net, x_train, y_train, TrainConfig(weight_decay=5e-4, seed=7))
train_traces = emit_traces(net, x_train, y_train, topology, seed=7)
test_traces = emit_traces(net, x_test, y_test, topology, seed=8)
fit_traces, _ = split_trace_set(train_traces, 0.2, seed=7)
ep, _ = train_predictor(fit_traces, (0.9, 0.9),
                        cfg=TrainConfig(weight_decay=2e-4, seed=11))
scores = predict_scores(ep, test_traces)

lambda_grid = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
gamma_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
training_bandwidths = [1e5, 3e5, 5e5, 7e5, 1e6, 3e6, 5e6, 7e6, 1e7, 3e7, 5e7, 7e7, 1e8]
intervals = [(1e5, 1e6), (1e6, 1e7), (1e7, 1e8)]

print("grid-searching optimal thresholds per bandwidth (30 ms budget)...")
points = sweep_bandwidths(test_traces, scores, env, training_bandwidths,
                          lambda_grid, gamma_grid)
print(f"{'Mbit/s':>8}{'lambda':>16}{'gamma':>16}{'accuracy':>10}{'latency ms':>12}")
for p in points:
    print(f"{p.bandwidth / 1e6:>8.1f}{str(p.lam):>16}{str(p.gamma):>16}"
          f"{p.accuracy:>10.4f}{p.mean_latency_s * 1e3:>12.2f}")

regressors = fit_regressors([p for p in points if p.feasible], intervals)

print("\nscheduled thresholds re-evaluated at queried bandwidths:")
print(f"{'Mbit/s':>8}{'lambda':>14}{'gamma':>14}{'accuracy':>10}{'latency ms':>12}"
      f"{'within budget':>15}")
for bw in [1e5, 2e5, 7e5, 1e6, 2e6, 1e7, 4e7, 1e8]:
    th = adapt(regressors, bw)
    stats = policy_stats(test_traces, th.lam, th.gamma, scores,
                         replace(env, bandwidth=bw))
    lam, gamma = (", ".join(f"{v:.3f}" for v in vec) for vec in (th.lam, th.gamma))
    print(f"{bw / 1e6:>8.1f}{lam:>14}{gamma:>14}{stats.accuracy:>10.4f}"
          f"{stats.mean_latency_s * 1e3:>12.2f}"
          f"{str(stats.mean_latency_s <= env.latency_budget):>15}")
