#!/usr/bin/env python3
"""Train the toy multi-exit classifier on blobs and trace it.

Shows the accuracy/confidence spread across exits and how the confidence
threshold trades accuracy against on-device computation.
"""

from dataclasses import replace

from exitsim import ExitTopology, SynthSpec, ToyEarlyExitNet, TrainConfig, policy_stats, train
from exitsim.zoo import emit_traces, generate_dataset

topology = ExitTopology(
    num_exits=3, segment_flops=(1.97, 56.98), exit_flops=(16.70, 14.23),
    server_flops=274.13, predictor_flops=0.40, num_classes=10,
    raw_feature_bits=262144, compression_ratio=64.0,
)

# alternating tight/wide classes give curved boundaries, so the deeper
# exits (with their extra hidden layer) genuinely see more than the
# single-layer exit heads
base = SynthSpec.ring(1, 10, 8, radius=2.5)
spec = SynthSpec(num_samples=1200, num_classes=10, input_dim=8,
                 centers=base.centers,
                 spreads=tuple(0.35 if k % 2 == 0 else 0.9 for k in range(10)),
                 label_noise=0.02, seed=7)
x_train, y_train = generate_dataset(spec)
x_test, y_test = generate_dataset(replace(spec, num_samples=600, seed=8))

net = ToyEarlyExitNet.build(8, 10, seed=7)
net, curve = train(net, x_train, y_train,
                   TrainConfig(epochs=120, lr_end_epoch=110, weight_decay=5e-4, seed=7))
print(f"joint training loss: {curve[0]:.3f} -> {curve[-1]:.3f} over {len(curve)} epochs")

probs = net.exit_probs(x_test)
print(f"\n{'exit':<6}{'accuracy':>10}{'mean confidence':>17}")
for n, p in enumerate(probs, start=1):
    acc = (p.argmax(axis=1) == y_test).mean()
    print(f"{n:<6}{acc:>10.3f}{p.max(axis=1).mean():>17.3f}")

traces = emit_traces(net, x_test, y_test, topology, seed=8)
print(f"\n{'lambda':<8}{'accuracy':>10}{'on-device MFLOPs':>18}{'exit shares':>24}")
for lam in (0.5, 0.7, 0.8, 0.9, 0.95):
    rep = policy_stats(traces, (lam, lam))
    shares = "/".join("%.2f" % v for v in rep.exit_distribution)
    print(f"{lam:<8}{rep.accuracy:>10.3f}{rep.mean_on_device_mflops:>18.2f}{shares:>24}")

print("\nRaising the threshold sends harder samples deeper: accuracy climbs")
print("toward the final exit's while on-device computation grows with it.")
