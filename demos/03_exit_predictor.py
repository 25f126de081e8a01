#!/usr/bin/env python3
"""Skip-score predictor end to end: train, pick gamma, compare policies.

The predictor learns, from the raw input alone, which early exits would
terminate a sample; exits unlikely to terminate are skipped.  Prediction
thresholds are chosen as the cheapest grid point that pushes fewer than 2%
additional samples to the final exit.
"""

from dataclasses import replace

from exitsim import (
    ExitTopology,
    SynthSpec,
    Thresholds,
    ToyEarlyExitNet,
    TrainConfig,
    run_oracle,
    run_plain,
    run_with_predictor,
    train,
)
from exitsim.predictor import predict_scores, select_gamma, train_predictor
from exitsim.trace import split_trace_set
from exitsim.zoo import emit_traces, generate_dataset

topology = ExitTopology(
    num_exits=3, segment_flops=(1.97, 56.98), exit_flops=(16.70, 14.23),
    server_flops=274.13, predictor_flops=0.40, num_classes=10,
    raw_feature_bits=262144, compression_ratio=64.0,
)

base = SynthSpec.ring(1, 10, 8, radius=2.5)
spec = SynthSpec(num_samples=1500, num_classes=10, input_dim=8,
                 centers=base.centers,
                 spreads=tuple(0.35 if k % 2 == 0 else 0.9 for k in range(10)),
                 label_noise=0.02, seed=7)
x_train, y_train = generate_dataset(spec)
x_test, y_test = generate_dataset(replace(spec, num_samples=700, seed=8))

net = ToyEarlyExitNet.build(8, 10, seed=7)
net, _ = train(net, x_train, y_train,
               TrainConfig(epochs=150, lr_end_epoch=140, weight_decay=5e-4, seed=7))
train_traces = emit_traces(net, x_train, y_train, topology, seed=7)
test_traces = emit_traces(net, x_test, y_test, topology, seed=8)

lam = (0.9, 0.9)
fit_traces, select_traces = split_trace_set(train_traces, 0.2, seed=7)
ep, curve = train_predictor(fit_traces, lam,
                            cfg=TrainConfig(epochs=150, lr_end_epoch=140,
                                            weight_decay=2e-4, seed=11))
print(f"predictor BCE: {curve[0]:.3f} -> {curve[-1]:.3f}")

gamma = select_gamma(select_traces, predict_scores(ep, select_traces), lam, grid_step=0.05)
print(f"selected prediction thresholds gamma = {gamma} at lambda = {lam}")

scores = predict_scores(ep, test_traces)
_, plain = run_plain(test_traces, lam)
_, aided = run_with_predictor(test_traces, Thresholds(lam, gamma), scores)
_, oracle = run_oracle(test_traces, lam)

print(f"\n{'policy':<12}{'on-device MFLOPs':>18}{'accuracy':>10}{'last-exit share':>17}")
for name, rep in [("plain", plain), ("predictor", aided), ("oracle", oracle)]:
    print(f"{name:<12}{rep.mean_on_device_mflops:>18.2f}{rep.accuracy:>10.4f}"
          f"{rep.exit_distribution[-1]:>17.3f}")

saved = plain.mean_on_device_mflops - aided.mean_on_device_mflops
room = plain.mean_on_device_mflops - oracle.mean_on_device_mflops
print(f"\nsaved {saved:.2f} of the {room:.2f} MFLOPs separating plain from the oracle bound"
      f" ({100 * saved / room:.0f}%).")
