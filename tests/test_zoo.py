import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from exitsim.nncore import Mlp, TrainConfig, numeric_gradient_check, train
from exitsim.trace import TraceFormatError, TraceSet, json_line
from exitsim.zoo import (
    SynthSpec,
    ToyEarlyExitNet,
    emit_traces,
    generate_dataset,
    load_dataset,
    save_dataset,
)

from helpers import VGG_TOPOLOGY, small_topology_like


def two_blob_spec(n=200, seed=0, spread=0.1):
    return SynthSpec(
        num_samples=n,
        num_classes=2,
        input_dim=2,
        centers=((2.0, 0.0), (-2.0, 0.0)),
        spreads=(spread, spread),
        seed=seed,
    )


def test_zero_spread_zero_noise_hits_centers():
    spec = SynthSpec(num_samples=30, num_classes=3, input_dim=2,
                     centers=((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)),
                     spreads=(0.0, 0.0, 0.0), seed=4)
    x, y = generate_dataset(spec)
    centers = np.array(spec.centers)
    assert np.array_equal(x, centers[y])


def test_class_counts_concentrate():
    spec = SynthSpec.ring(10_000, 10, 4, seed=12)
    _, y = generate_dataset(spec)
    counts = np.bincount(y, minlength=10)
    assert counts.min() >= 950 and counts.max() <= 1050


def test_generate_dataset_deterministic():
    spec = SynthSpec.ring(500, 5, 3, label_noise=0.1, seed=33)
    x1, y1 = generate_dataset(spec)
    x2, y2 = generate_dataset(spec)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_label_noise_flips_to_other_classes():
    spec = SynthSpec.ring(5000, 4, 2, spread=0.0, label_noise=0.25, seed=2)
    x, y = generate_dataset(spec)
    clean = SynthSpec.ring(5000, 4, 2, spread=0.0, label_noise=0.0, seed=2)
    _, y0 = generate_dataset(clean)
    flipped = (y != y0).mean()
    assert 0.2 <= flipped <= 0.3


def test_train_separable_blobs_reaches_95_percent():
    x, y = generate_dataset(two_blob_spec(n=200, seed=1))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(8, 8), final_hidden=8,
                                weights=(0.2, 0.3, 0.5), seed=1)
    cfg = TrainConfig(lr=0.1, lr_end=1e-3, lr_end_epoch=60, epochs=60,
                      batch_size=32, seed=1)
    untrained = net.loss_value(x, y)
    net, loss = train(net, x, y, cfg)
    assert loss < untrained
    final_acc = (net.exit_probs(x)[-1].argmax(axis=1) == y).mean()
    assert final_acc >= 0.95


def test_zero_weight_exits_get_zero_gradients():
    x, y = generate_dataset(two_blob_spec(n=16, seed=3))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(4, 4), final_hidden=4,
                                weights=(0.0, 0.0, 1.0), seed=3)
    _, grads = net.loss_and_grads(x, y)
    n_trunk = sum(len(m.parameters()) for m in net.trunk)
    n_heads = sum(len(m.parameters()) for m in net.heads)
    head_grads = grads[n_trunk:n_trunk + n_heads]
    for g in head_grads:
        assert np.all(g == 0.0)
    # the final head still learns
    assert any(np.any(g != 0.0) for g in grads[n_trunk + n_heads:])


def test_default_scale_training_completes_quickly():
    spec = SynthSpec.ring(2000, 10, 8, spread=0.55, label_noise=0.02, seed=7)
    x, y = generate_dataset(spec)
    net = ToyEarlyExitNet.build(8, 10, seed=7)
    cfg = TrainConfig(lr=0.1, lr_end=1e-4, lr_end_epoch=200, epochs=220,
                      batch_size=128, weight_decay=5e-4, seed=7)
    untrained = net.loss_value(x, y)
    start = time.monotonic()
    net, loss = train(net, x, y, cfg)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert loss < untrained


def test_full_set_loss_peaks_below_two_and_a_half_mebibytes():
    # The value path takes one head at a time: stacking the three heads'
    # logits for one pass, as a training step does, held about 3.15 MiB here.
    x, y = generate_dataset(SynthSpec.ring(2000, 10, 8, seed=7))
    net = ToyEarlyExitNet.build(8, 10, trunk_widths=(32, 32), final_hidden=32, seed=7)
    tracemalloc.start()
    try:
        loss = net.loss_value(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(loss)
    assert peak < 2.5 * 2**20


def test_emitted_confidences_within_softmax_bounds():
    x, y = generate_dataset(two_blob_spec(n=50, seed=5))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(4, 4), final_hidden=4, seed=5)
    topo = small_topology_like(num_exits=3, num_classes=2)
    ts = emit_traces(net, x, y, topo)
    conf = ts.conf_matrix
    assert np.all(conf >= 1.0 / 2 - 1e-9)
    assert np.all(conf < 1.0)


def test_uniform_logit_head_confidence_is_exactly_one_over_p():
    for p in (4, 10):
        trunk = [Mlp([np.eye(2)], [np.zeros(2)], ["relu"])]
        heads = [Mlp([np.zeros((2, p))], [np.zeros(p)], ["softmax"])]
        final = Mlp([np.zeros((2, p))], [np.zeros(p)], ["softmax"])
        net = ToyEarlyExitNet(trunk, heads, final, weights=(0.5, 0.5))
        topo = small_topology_like(num_exits=2, num_classes=p)
        x = np.array([[1.0, 2.0], [0.5, 0.25]])
        y = np.array([0, 1])
        ts = emit_traces(net, x, y, topo)
        assert np.all(ts.conf_matrix == 1.0 / p)


def test_trace_accuracy_at_final_exit_matches_direct_evaluation():
    x, y = generate_dataset(two_blob_spec(n=300, seed=6, spread=1.5))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(6, 6), final_hidden=6, seed=6)
    cfg = TrainConfig(lr=0.1, lr_end=1e-2, lr_end_epoch=30, epochs=30,
                      batch_size=64, seed=6)
    net, _ = train(net, x, y, cfg)
    topo = small_topology_like(num_exits=3, num_classes=2)
    ts = emit_traces(net, x, y, topo)
    direct = (net.exit_probs(x)[-1].argmax(axis=1) == y).mean()
    traced = (ts.pred_matrix[:, -1] == ts.label_vector).mean()
    assert traced == pytest.approx(direct, abs=1e-12)


def test_emitted_traces_validate_and_round_trip():
    x, y = generate_dataset(two_blob_spec(n=40, seed=8))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(4, 4), final_hidden=4, seed=8)
    ts = emit_traces(net, x, y, small_topology_like(num_exits=3, num_classes=2))
    assert isinstance(ts, TraceSet)  # construction already enforces invariants
    assert ts.has_features
    assert ts.feature_matrix.shape == (40, 2)


def test_easy_samples_are_more_confident_at_exit_one():
    spec = SynthSpec.ring(2000, 10, 8, spread=0.55, label_noise=0.02, seed=7)
    x, y = generate_dataset(spec)
    net = ToyEarlyExitNet.build(8, 10, seed=7)
    cfg = TrainConfig(lr=0.1, lr_end=1e-3, lr_end_epoch=80, epochs=80,
                      batch_size=128, weight_decay=5e-4, seed=7)
    net, _ = train(net, x, y, cfg)
    ts = emit_traces(net, x, y, VGG_TOPOLOGY)
    centers = np.array(spec.centers)
    dist = np.linalg.norm(x - centers[y], axis=1)
    near = dist <= np.median(dist)
    conf1 = ts.conf_matrix[:, 0]
    assert conf1[near].mean() > conf1[~near].mean()


def test_final_flip_prob_degrades_only_final_exit():
    x, y = generate_dataset(two_blob_spec(n=2000, seed=9))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(6, 6), final_hidden=6, seed=9)
    cfg = TrainConfig(lr=0.1, lr_end=1e-2, lr_end_epoch=40, epochs=40,
                      batch_size=64, seed=9)
    net, _ = train(net, x, y, cfg)
    topo = small_topology_like(num_exits=3, num_classes=2)
    clean = emit_traces(net, x, y, topo, final_flip_prob=0.0, seed=1)
    bent = emit_traces(net, x, y, topo, final_flip_prob=0.3, seed=1)
    assert np.array_equal(clean.pred_matrix[:, :2], bent.pred_matrix[:, :2])
    changed = (clean.pred_matrix[:, 2] != bent.pred_matrix[:, 2]).mean()
    assert 0.25 <= changed <= 0.35


@pytest.mark.parametrize("prob", [1.5, -0.5, math.nan, True])
def test_emit_traces_rejects_flip_probability_outside_unit_interval(prob):
    x, y = generate_dataset(two_blob_spec(n=20, seed=9))
    net = ToyEarlyExitNet.build(2, 2, trunk_widths=(6, 6), final_hidden=6, seed=9)
    topo = small_topology_like(num_exits=3, num_classes=2)
    # A non-number or a non-finite value fails as such, before its interval.
    with pytest.raises(ValueError, match=r"^final_flip_prob must (lie in \[0, 1\]|be a finite "
                                         r"real number), got "):
        emit_traces(net, x, y, topo, final_flip_prob=prob, seed=1)


def test_toy_net_gradient_check_weighted_ce():
    for seed in (0, 1):
        net = ToyEarlyExitNet.build(4, 3, trunk_widths=(6, 5), final_hidden=5,
                                    weights=(0.2, 0.3, 0.5), seed=seed)
        x = np.random.default_rng(seed).normal(size=4)
        assert numeric_gradient_check(net, x, 2) < 1e-5


@pytest.mark.parametrize("bad", [-1, 1.7, 3])
def test_bad_class_label_is_rejected_before_any_parameter_moves(bad):
    # -1 would read as the last class, 1.7 as class 1, and 3 (= P) would
    # escape as an IndexError.
    x, y = generate_dataset(SynthSpec.ring(40, 3, 2, seed=0))
    y = y.astype(type(bad))
    y[-1] = bad
    net = ToyEarlyExitNet.build(2, 3, trunk_widths=(4, 4), final_hidden=4, seed=0)
    before = [p.copy() for p in net.parameters()]
    message = rf"^labels\[39\] must (be an integer|lie in \[0, 3\)), got {bad}$"
    for call in (net.loss_value, net.loss_and_grads):
        with pytest.raises(ValueError, match=message):
            call(x, y)
    cfg = TrainConfig(epochs=2, lr_end_epoch=2, batch_size=8)
    with pytest.raises(ValueError, match=message):
        train(net, x, y, cfg)
    assert all(np.array_equal(p, q) for p, q in zip(net.parameters(), before))


def test_toy_net_checkpoint_round_trip(tmp_path):
    net = ToyEarlyExitNet.build(3, 4, trunk_widths=(5, 5), final_hidden=5, seed=13)
    path = tmp_path / "toy.json"
    net.save(path)
    loaded = ToyEarlyExitNet.load(path)
    assert loaded.weights == net.weights
    for p, q in zip(loaded.parameters(), net.parameters()):
        assert np.array_equal(p, q)


def test_dataset_file_round_trip(tmp_path):
    x, y = generate_dataset(two_blob_spec(n=25, seed=10))
    path = tmp_path / "d.jsonl"
    save_dataset(path, x, y, num_classes=2)
    x2, y2, p = load_dataset(path)
    assert p == 2
    assert np.array_equal(y, y2)
    # features come back at stored (9 significant digit) precision
    assert np.allclose(x, x2, rtol=1e-8, atol=1e-12)
    save_dataset(tmp_path / "d2.jsonl", x2, y2, num_classes=2)
    assert (tmp_path / "d2.jsonl").read_text() == path.read_text()


def _per_record_text(x, y, num_classes) -> str:
    """A dataset file rendered record by record with ``json_line``."""
    header = {"kind": "dataset", "num_samples": x.shape[0], "num_classes": num_classes,
              "input_dim": x.shape[1]}
    lines = [json_line(header)]
    lines += [json_line({"id": i, "label": int(y[i]), "features": [float(v) for v in x[i]]})
              for i in range(x.shape[0])]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), rows=st.integers(0, 6), dim=st.integers(1, 4))
def test_save_dataset_bytes_equal_per_record_rendering(tmp_path_factory, data, rows, dim):
    x = data.draw(arrays(np.float64, (rows, dim)), label="x")
    y = data.draw(arrays(np.int64, rows), label="y")
    path = tmp_path_factory.mktemp("ds") / "d.jsonl"
    if np.isfinite(x).all() and ((y >= 0) & (y < 3)).all():
        save_dataset(path, x, y, num_classes=3)
        assert path.read_text() == _per_record_text(x, y, 3)
    else:
        # What load_dataset would not read back is not written.
        with pytest.raises(ValueError, match=r"^(x\[\d+\]\[\d+\] must be a finite real number"
                                             r"|labels\[\d+\] must lie in \[0, 3\))"):
            save_dataset(path, x, y, num_classes=3)
        assert not path.exists()


@pytest.mark.parametrize("x, y, num_classes, message", [
    ([[0.5, math.inf]], [0], 2, r"x\[0\]\[1\] must be a finite real number, got inf"),
    ([[math.nan]], [0], 2, r"x\[0\]\[0\] must be a finite real number, got nan"),
    ([[0.5]], [1.7], 2, r"labels\[0\] must be an integer, got 1.7"),
    ([[0.5], [0.5]], [0, True], 2, r"labels\[1\] must be an integer, got True"),
    ([[0.5]], [2], 2, r"labels\[0\] must lie in \[0, 2\), got 2"),
    ([[0.5]], [0], 1.5, "num_classes must be an integer, got 1.5"),
    ([[], []], [0, 1], 2, r"input_dim must lie in \[1, inf\), got 0"),
    ([[0.5]], [0, 1], 2, "labels must have length 1, one per row of x, got 2"),
    ([[0.5], [0.5]], [0], 2, "labels must have length 2, one per row of x, got 1"),
], ids=["inf-feature", "nan-feature", "fractional-label", "bool-label", "label-out-of-range",
        "fractional-num_classes", "empty-rows", "more-labels-than-rows",
        "fewer-labels-than-rows"])
def test_save_dataset_writes_only_what_load_dataset_reads(tmp_path, x, y, num_classes, message):
    path = tmp_path / "d.jsonl"
    with pytest.raises(ValueError, match=f"^{message}$"):
        save_dataset(path, x, y, num_classes)
    assert not path.exists()


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(num_samples=0, num_classes=2, input_dim=1,
                  centers=((0.0,), (1.0,)), spreads=(0.1, 0.1))
    with pytest.raises(ValueError):
        SynthSpec(num_samples=5, num_classes=2, input_dim=1,
                  centers=((0.0,),), spreads=(0.1, 0.1))
    with pytest.raises(ValueError):
        SynthSpec(num_samples=5, num_classes=2, input_dim=1,
                  centers=((0.0,), (1.0,)), spreads=(0.1, 0.1), label_noise=1.5)
    for bad, message in [({"spreads": (0.1, math.nan)}, r"spreads\[1\] must be a finite real"),
                         ({"centers": ((0.0,), (math.nan,))}, r"centers\[1\]\[0\] must be a finite"),
                         ({"num_samples": 2.5}, "num_samples must be an integer, got 2.5")]:
        with pytest.raises(ValueError, match=f"^{message}"):
            SynthSpec(**{"num_samples": 5, "num_classes": 2, "input_dim": 1,
                         "centers": ((0.0,), (1.0,)), "spreads": (0.1, 0.1), **bad})


def test_toy_net_weights_validation():
    with pytest.raises(ValueError, match="weight"):
        ToyEarlyExitNet.build(2, 2, weights=(0.2, 0.3))
    with pytest.raises(ValueError, match="positive sum"):
        ToyEarlyExitNet.build(2, 2, weights=(0.0, 0.0, 0.0))


_HEADER = '{"kind":"dataset","num_samples":1,"num_classes":2,"input_dim":2}'
_RECORD = '{"id":0,"label":1,"features":[0.5,1.5]}'


@pytest.mark.parametrize("header, record, message", [
    ('{"kind":"dataset","num_samples":1,"input_dim":2}', _RECORD,
     "line 1: header missing key 'num_classes'"),
    ('{"kind":"dataset","num_classes":2,"input_dim":2}', _RECORD,
     "line 1: header missing key 'num_samples'"),
    (_HEADER, '{"id":0,"label":1,"features":5}', "line 2: sample 0: features must be a list"),
    (_HEADER, '{"id":0,"label":1,"features":["a","b"]}', "line 2: "),
    (_HEADER, '{"id":0,"label":1,"features":[NaN,1]}', "line 2: sample 0: features must be finite"),
    (_HEADER, '{"label":1,"features":[0.5,1.5]}', "line 2: record missing key 'id'"),
    (_HEADER, '{"id":"x","label":1,"features":[0.5,1.5]}', "line 2: id must be an integer"),
    (_HEADER, '{"id":0.5,"label":1,"features":[0.5,1.5]}', "line 2: id must be an integer"),
    (_HEADER.replace('"num_samples":1', '"num_samples":2'), f"{_RECORD}\n{_RECORD}",
     "line 3: sample 0: duplicate id"),
    (_HEADER, '{"id":0,"label":true,"features":[0.5,1.5]}',
     "line 2: sample 0: label must be an integer, got True"),
    (_HEADER, '{"id":0,"label":1,"features":[0.5,"1.5"]}',
     "line 2: sample 0: features must be finite numbers, got '1.5'"),
], ids=["no-num_classes", "no-num_samples", "scalar-features", "string-features",
        "nan-feature", "no-id", "string-id", "fractional-id", "duplicate-id", "bool-label",
        "string-feature"])
def test_malformed_dataset_names_path_and_line(tmp_path, header, record, message):
    path = tmp_path / "d.jsonl"
    path.write_text(f"{header}\n{record}\n")
    with pytest.raises(TraceFormatError) as exc:
        load_dataset(path)
    assert str(exc.value).startswith(f"{path}: {message}")
