"""Shared test utilities: independent policy walkers, trace builders and
a reference copy of the training losses.

The walkers below transliterate the skip/terminate procedure step by step
in plain Python, deliberately independent from the vectorized engine they
are used to check.  The ``ref_*`` loss functions are the straightforward
form of the nncore/zoo losses: every layer's activation is computed in the
forward pass, and each softmax-CE head takes a log-sum-exp and a second
softmax of its logits.  The package computes each piece once; its values
and gradients must equal these bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from exitsim.trace import ExitTopology, SampleTrace, TraceSet

VGG_TOPOLOGY = ExitTopology(
    num_exits=3,
    segment_flops=(1.97, 56.98),
    exit_flops=(16.70, 14.23),
    server_flops=274.13,
    predictor_flops=0.40,
    num_classes=10,
    raw_feature_bits=262144,
    compression_ratio=64.0,
)


def literal_plain_walk(conf, lam, topo):
    """Stepwise plain policy for one sample:
    (exit_taken, device_mflops, computed_exits, transmitted)."""
    n_early = topo.num_early_exits
    device = 0.0
    computed = []
    for n in range(n_early):
        device += topo.segment_flops[n]
        computed.append(n)
        device += topo.exit_flops[n]
        if conf[n] >= lam[n]:
            return n + 1, device, computed, False
    return n_early + 1, device, computed, True


def literal_predictor_walk(conf, scores, lam, gamma, topo):
    """Stepwise skip-aware policy for one sample.

    Returns (exit_taken, device_mflops, computed_exits, transmitted) with the
    predictor cost included in device_mflops.  The predictor cost is added
    after the walk so the addition order matches cost-by-cost accumulation.
    """
    n_early = topo.num_early_exits
    device = 0.0
    computed = []
    for n in range(n_early):
        device += topo.segment_flops[n]
        if scores[n] >= gamma[n]:
            computed.append(n)
            device += topo.exit_flops[n]
            if conf[n] >= lam[n]:
                return n + 1, device + topo.predictor_flops, computed, False
    return n_early + 1, device + topo.predictor_flops, computed, True


def literal_oracle_walk(conf, lam, topo):
    """Stepwise idealized policy: only the terminating exit is computed, none
    for the server exit.  Returns as ``literal_plain_walk``."""
    n_early = topo.num_early_exits
    taken = n_early + 1
    for n in range(n_early):
        if conf[n] >= lam[n]:
            taken = n + 1
            break
    device = sum(topo.segment_flops[: min(taken, n_early)])
    computed = []
    if taken <= n_early:
        computed.append(taken - 1)
        device += topo.exit_flops[taken - 1]
    return taken, device, computed, taken == n_early + 1


def latency_of(record, topology, env):
    """End-to-end seconds for one DecisionRecord: device compute plus
    transmission of the bits the record carries."""
    lat = record.on_device_mflops * 1e6 / env.compute_speed
    if record.transmitted:
        lat += record.transmitted_bits / env.bandwidth
    return lat


def literal_latency(device_mflops, transmitted, topo, env):
    lat = device_mflops * 1e6 / env.compute_speed
    if transmitted:
        lat += math.ceil(topo.raw_feature_bits / topo.compression_ratio) / env.bandwidth
    return lat


def assert_min_latency_fallback(best, frontier):
    """``best`` is a search's answer when no point of ``frontier`` meets the
    budget: the first minimum-latency point, flagged infeasible."""
    assert not best.feasible
    assert not any(p.feasible for p in frontier)
    # repr tells every float apart bit for bit
    assert repr(best) == repr(min(frontier, key=lambda p: p.mean_latency_s))


def walk_counts(walks, topo):
    """The integer counts of literal walks, each given as (exit_taken,
    computed_exits, transmitted, correct): per early exit the samples
    reaching, computing and terminating there, then the samples transmitted
    and the samples correct."""
    n_early = topo.num_early_exits
    reach, computed, term = [0] * n_early, [0] * n_early, [0] * n_early
    tx = correct = 0
    for taken, exits_computed, transmitted, right in walks:
        for n in range(min(taken, n_early)):
            reach[n] += 1
        for n in exits_computed:
            computed[n] += 1
        if taken <= n_early:
            term[taken - 1] += 1
        tx += transmitted
        correct += right
    return reach, computed, term, tx, correct


def count_formula(counts, n_samples, topo, env, gated):
    """(accuracy, mean device MFLOPs, mean latency) of walks from their
    counts: device MFLOPs are the segments times the samples reaching them
    plus the exits times the samples computing them, over the samples, plus
    the predictor when gated; latency adds the transmitted share's link time."""
    reach, computed, _, tx, correct = counts
    device = 0.0
    for n in range(topo.num_early_exits):
        device += topo.segment_flops[n] * reach[n]
    for n in range(topo.num_early_exits):
        device += topo.exit_flops[n] * computed[n]
    device = device / n_samples
    if gated:
        device += topo.predictor_flops
    bits = math.ceil(topo.raw_feature_bits / topo.compression_ratio)
    latency = device * 1e6 / env.compute_speed + tx / n_samples * bits / env.bandwidth
    return correct / n_samples, device, latency


def random_topology(rng, num_exits=None, num_classes=None) -> ExitTopology:
    n = int(num_exits if num_exits is not None else rng.integers(2, 5))
    p = int(num_classes if num_classes is not None else rng.integers(2, 12))
    return ExitTopology(
        num_exits=n,
        segment_flops=rng.uniform(0.5, 60.0, n - 1),
        exit_flops=rng.uniform(0.5, 20.0, n - 1),
        server_flops=float(rng.uniform(50.0, 400.0)),
        predictor_flops=float(rng.uniform(0.1, 2.0)),
        num_classes=p,
        raw_feature_bits=int(rng.integers(1_000, 1_000_000)),
        compression_ratio=float(rng.uniform(1.0, 128.0)),
    )


def random_trace_set(rng, topo=None, n_samples=50, with_features=False) -> TraceSet:
    topo = topo if topo is not None else random_topology(rng)
    n, p = topo.num_exits, topo.num_classes
    samples = []
    for i in range(n_samples):
        conf = rng.uniform(1.0 / p, 1.0 - 1e-6, n)
        samples.append(SampleTrace(
            id=i,
            label=int(rng.integers(0, p)),
            confidences=conf,
            predicted=rng.integers(0, p, n),
            features=rng.normal(size=4) if with_features else None,
        ))
    return TraceSet(topo, tuple(samples))


def golden_fraction_traces(label_rate=1.0):
    """10,000 samples whose exit fractions under lam=(0.9, 0.9) are exactly
    66.62% / 19.81% / 13.57%."""
    samples = []
    i = 0
    for count, conf in [
        (6662, (0.95, 0.5, 0.9)),
        (1981, (0.5, 0.95, 0.9)),
        (1357, (0.5, 0.5, 0.9)),
    ]:
        for _ in range(count):
            correct = (i % 1000) < label_rate * 1000
            samples.append(SampleTrace(
                id=i,
                label=0,
                confidences=conf,
                predicted=(0, 0, 0) if correct else (1, 1, 1),
            ))
            i += 1
    return TraceSet(VGG_TOPOLOGY, tuple(samples))


def small_topology_like(num_exits=3, num_classes=10) -> ExitTopology:
    n_early = num_exits - 1
    return ExitTopology(
        num_exits=num_exits,
        segment_flops=tuple(1.0 + 0.5 * i for i in range(n_early)),
        exit_flops=tuple(0.4 + 0.1 * i for i in range(n_early)),
        server_flops=8.0,
        predictor_flops=0.05,
        num_classes=num_classes,
        raw_feature_bits=4096,
        compression_ratio=8.0,
    )


def random_lambda(rng, n_early):
    return tuple(rng.uniform(0.05, 0.99, n_early).tolist())


def random_gamma(rng, n_early):
    return tuple(rng.uniform(0.0, 1.0, n_early).tolist())


# -- reference losses ------------------------------------------------------------

REF_BCE_CLAMP = 1e-7


def ref_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_logsumexp(z):
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


def ref_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_apply_act(z, act):
    return {"relu": lambda: np.maximum(z, 0.0), "sigmoid": lambda: ref_sigmoid(z),
            "softmax": lambda: ref_softmax(z)}[act]()


def ref_act_backward(da, z, a, act):
    """Backward through a relu or sigmoid layer; softmax heads start at the logits."""
    return {"relu": lambda: da * (z > 0), "sigmoid": lambda: da * a * (1.0 - a)}[act]()


def ref_forward_full(weights, biases, activations, x):
    acts = [x]
    pres = []
    a = x
    for w, b, act in zip(weights, biases, activations):
        z = a @ w + b
        a = ref_apply_act(z, act)
        pres.append(z)
        acts.append(a)
    return pres, acts


def ref_backward(weights, activations, pres, acts, dout=None, dlogits=None):
    """Backprop from d(output) or d(logits); returns (d_input, grads)."""
    n = len(weights)
    dz = dlogits if dlogits is not None else ref_act_backward(dout, pres[-1], acts[-1],
                                                              activations[-1])
    grads = [None] * (2 * n)
    for i in range(n - 1, -1, -1):
        grads[2 * i] = acts[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        da = dz @ weights[i].T
        if i > 0:
            dz = ref_act_backward(da, pres[i - 1], acts[i], activations[i - 1])
    return da, grads


def ref_softmax_ce_parts(logits, labels):
    rows = np.arange(logits.shape[0])
    losses = ref_logsumexp(logits) - logits[rows, labels]
    dlogits = ref_softmax(logits)
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


def ref_mlp_loss(net, x, target):
    """(value, grads) of an Mlp under BCE."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    pres, acts = ref_forward_full(net.weights, net.biases, net.activations, x2)
    out = acts[-1]
    y = np.asarray(target, dtype=np.float64).reshape(out.shape)
    sc = np.clip(out, REF_BCE_CLAMP, 1.0 - REF_BCE_CLAMP)
    value = float(np.mean(-(y * np.log(sc) + (1.0 - y) * np.log(1.0 - sc))))
    sc = np.clip(out, REF_BCE_CLAMP, 1.0 - REF_BCE_CLAMP)
    grad = (sc - y) / (sc * (1.0 - sc)) / out.size
    inside = (out > REF_BCE_CLAMP) & (out < 1.0 - REF_BCE_CLAMP)
    dout = np.where(inside, grad, 0.0)
    _, grads = ref_backward(net.weights, net.activations, pres, acts, dout=dout)
    return value, grads


def ref_toy_loss(net, x, labels):
    """(value, grads) of a ToyEarlyExitNet under its weighted softmax CE."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64).reshape(x2.shape[0])
    batch, w = x2.shape[0], net.weights

    def forward(m, inp):
        return ref_forward_full(m.weights, m.biases, m.activations, inp)

    trunk_caches = []
    a = x2
    for seg in net.trunk:
        trunk_caches.append(forward(seg, a))
        a = trunk_caches[-1][1][-1]
    exit_caches = [forward(h, c[1][-1]) for h, c in zip(net.heads, trunk_caches)]
    exit_caches.append(forward(net.final, a))
    value = 0.0
    exit_dx, exit_grads = [], []
    for m, wi, (pres, acts) in zip([*net.heads, net.final], w, exit_caches):
        losses, dlogits = ref_softmax_ce_parts(pres[-1], labels)
        value += wi * float(np.mean(losses))
        dx, grads = ref_backward(m.weights, m.activations, pres, acts,
                                 dlogits=dlogits * (wi / batch))
        exit_dx.append(dx)
        exit_grads.extend(grads)
    trunk_grads = [None] * len(net.trunk)
    da = exit_dx[-1] + exit_dx[-2]
    for i in range(len(net.trunk) - 1, -1, -1):
        seg = net.trunk[i]
        dxi, trunk_grads[i] = ref_backward(seg.weights, seg.activations, *trunk_caches[i],
                                           dout=da)
        if i > 0:
            da = dxi + exit_dx[i - 1]
    return value, [g for grads in trunk_grads for g in grads] + exit_grads


def ref_train(model, x, y, cfg, ref_loss):
    """The epoch loop in its straightforward form; returns the loss curve.

    Rows are shuffled by ``rng.permutation`` of one generator seeded
    ``cfg.seed``; the update is ``p -= lr * (g + weight_decay * p)``.
    """
    from exitsim.nncore import lr_at

    rng = np.random.default_rng(cfg.seed)
    curve = []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        perm = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            _, grads = ref_loss(model, x[idx], y[idx])
            for p, g in zip(model.parameters(), grads):
                p -= lr * (g + cfg.weight_decay * p)
        curve.append(ref_loss(model, x, y)[0])
    return curve
