#!/usr/bin/env python3
"""Cost model walkthrough on a hand-built trace set.

Builds 10,000 trace records whose exit fractions under confidence
thresholds (0.9, 0.9) are 66.62% / 19.81% / 13.57%, then compares the
per-sample FLOP accounting of the three policies and the latency model.
"""

import numpy as np

from exitsim import (
    Environment,
    ExitTopology,
    Thresholds,
    TraceSet,
    run_oracle,
    run_plain,
    run_with_predictor,
)

topology = ExitTopology(
    num_exits=3,
    segment_flops=(1.97, 56.98),   # backbone slice before each early exit
    exit_flops=(16.70, 14.23),     # the intermediate classifiers themselves
    server_flops=274.13,           # everything after the partition point
    predictor_flops=0.40,
    num_classes=10,
    raw_feature_bits=262144,       # 128x8x8 feature map at 32-bit
    compression_ratio=64.0,        # spatial/channel/bit-width combined
)

counts = [6662, 1981, 1357]
groups = [
    (0.95, 0.50, 0.90),            # confident at exit 1
    (0.50, 0.95, 0.90),            # needs exit 2
    (0.50, 0.50, 0.90),            # offloaded to the server exit
]
n = sum(counts)
traces = TraceSet.from_columns(topology, ids=np.arange(n), label=np.zeros(n, dtype=int),
                               conf=np.repeat(groups, counts, axis=0),
                               pred=np.zeros((n, 3), dtype=int))

lam = (0.9, 0.9)
env = Environment(compute_speed=3.62e9, bandwidth=1e6, latency_budget=0.030)

_, plain = run_plain(traces, lam, env)
_, oracle = run_oracle(traces, lam, env)
# a predictor that always computes every exit just adds its own cost
scores = np.ones((len(traces), 2))
_, passthrough = run_with_predictor(traces, Thresholds(lam, (0.0, 0.0)), scores, env)

print("exit shares:", ["%.4f" % v for v in plain.exit_distribution])
print()
print(f"{'policy':<22}{'on-device MFLOPs':>18}{'total MFLOPs':>16}{'latency ms':>12}")
for name, rep in [("plain", plain), ("predictor (no skips)", passthrough), ("oracle", oracle)]:
    print(f"{name:<22}{rep.mean_on_device_mflops:>18.2f}"
          f"{rep.mean_total_mflops:>16.2f}{rep.mean_latency_s * 1e3:>12.2f}")

print()
print("The no-skip predictor run costs exactly the plain run plus the")
print(f"predictor itself ({topology.predictor_flops} MFLOPs); the oracle bound shows how much")
print("of the exit-classifier computation is wasted on samples that exit later.")
print(f"Transmitted payload per offloaded sample: {topology.transmitted_bits} bits.")
