import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim import engine
from exitsim.engine import policy_stats, run_oracle
from exitsim.nncore import Mlp, TrainConfig
from exitsim.predictor import (
    ExitPredictor,
    load_predictor,
    make_labels,
    predict_scores,
    save_predictor,
    select_gamma,
    train_predictor,
)
from exitsim.trace import ExitTopology, SampleTrace, TraceSet

from helpers import VGG_TOPOLOGY, random_trace_set


def feature_traces(n=400, seed=0):
    """Traces whose exit-1/2 step labels are linear in the features."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 4))
    samples = []
    for i in range(n):
        want1 = feats[i, 0] > 0.0
        want2 = feats[i, 1] > 0.0
        conf = (0.95 if want1 else 0.5, 0.95 if want2 else 0.5, 0.9)
        samples.append(SampleTrace(id=i, label=0, confidences=conf,
                                   predicted=(0, 0, 0), features=feats[i]))
    return TraceSet(VGG_TOPOLOGY, tuple(samples))


def mixture_traces(shares=(0.5, 0.3, 0.2), n=1000):
    """Deterministic mix of exit-1 / exit-2 / transmit samples at lam=(0.9, 0.9)."""
    confs = [(0.95, 0.5, 0.9), (0.5, 0.95, 0.9), (0.5, 0.5, 0.9)]
    samples = []
    i = 0
    for share, conf in zip(shares, confs):
        for _ in range(int(round(share * n))):
            samples.append(SampleTrace(id=i, label=0, confidences=conf,
                                       predicted=(0, 0, 0)))
            i += 1
    return TraceSet(VGG_TOPOLOGY, tuple(samples))


def test_make_labels_direct_step():
    samples = (SampleTrace(id=0, label=0, confidences=(0.96, 0.80, 0.9),
                           predicted=(0, 0, 0)),)
    ts = TraceSet(VGG_TOPOLOGY, samples)
    labels = make_labels(ts, (0.95, 0.85))
    assert labels.tolist() == [[1.0, 0.0]]


def test_make_labels_weak_inequality_at_threshold():
    samples = (SampleTrace(id=0, label=0, confidences=(0.85, 0.85, 0.9),
                           predicted=(0, 0, 0)),)
    ts = TraceSet(VGG_TOPOLOGY, samples)
    assert make_labels(ts, (0.85, 0.85)).tolist() == [[1.0, 1.0]]


def test_make_labels_all_ones_at_softmax_floor():
    rng = np.random.default_rng(1)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=30)
    labels = make_labels(ts, (0.1, 0.1))  # 1/P for P=10
    assert np.all(labels == 1.0)


def test_make_labels_idempotent_and_matches_itself():
    rng = np.random.default_rng(2)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=25)
    lam = (0.7, 0.8)
    a = make_labels(ts, lam)
    b = make_labels(ts, lam)
    assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       lam1=st.floats(0.11, 0.98), bump=st.floats(0.0, 0.5))
def test_make_labels_monotone_in_lambda(seed, lam1, bump):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=15)
    lam2 = min(0.999, lam1 + bump)
    low = make_labels(ts, (lam1, 0.5))
    high = make_labels(ts, (lam2, 0.5))
    # raising lambda never flips a 0 label to 1
    assert not np.any((low[:, 0] == 0.0) & (high[:, 0] == 1.0))


def test_train_predictor_learns_linear_labels():
    ts = feature_traces(n=400, seed=3)
    cfg = TrainConfig(lr=0.2, lr_end=1e-3, lr_end_epoch=120, epochs=120,
                      batch_size=64, weight_decay=2e-4, seed=3)
    ep, curve = train_predictor(ts, (0.9, 0.9), cfg=cfg)
    assert curve[-1] < curve[0]
    scores = predict_scores(ep, ts)
    labels = make_labels(ts, (0.9, 0.9))
    for n in range(2):
        acc = np.mean((scores[:, n] >= 0.5) == labels[:, n])
        assert acc >= 0.9


def test_train_predictor_constant_target_scores_above_half():
    ts = feature_traces(n=100, seed=4)
    cfg = TrainConfig(lr=0.2, lr_end=1e-2, lr_end_epoch=40, epochs=40,
                      batch_size=32, seed=4)
    ep, _ = train_predictor(ts, (0.1, 0.1), cfg=cfg)  # all labels are 1
    scores = predict_scores(ep, ts)
    assert np.all(scores > 0.5)


def test_train_predictor_deterministic_checkpoints(tmp_path):
    ts = feature_traces(n=80, seed=5)
    cfg = TrainConfig(lr=0.1, lr_end=1e-2, lr_end_epoch=20, epochs=20,
                      batch_size=16, weight_decay=2e-4, seed=5)
    paths = []
    for run in range(2):
        ep, _ = train_predictor(ts, (0.9, 0.9), cfg=cfg)
        path = tmp_path / f"ep{run}.json"
        save_predictor(ep, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_train_predictor_requires_features():
    rng = np.random.default_rng(6)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=10, with_features=False)
    with pytest.raises(ValueError, match="features"):
        train_predictor(ts, (0.9, 0.9))
    with pytest.raises(ValueError, match="features"):
        predict_scores(
            ExitPredictor(Mlp.init([4, 2], ["sigmoid"], 0), (0.9, 0.9), 0.4), ts)


def test_zero_parameter_net_scores_half():
    rng = np.random.default_rng(7)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=12, with_features=True)
    net = Mlp([np.zeros((4, 2))], [np.zeros(2)], ["sigmoid"])
    ep = ExitPredictor(net=net, lam=(0.9, 0.9), predictor_flops=0.4)
    assert np.all(predict_scores(ep, ts) == 0.5)


def test_checkpoint_round_trip_produces_identical_scores(tmp_path):
    ts = feature_traces(n=50, seed=8)
    cfg = TrainConfig(lr=0.1, lr_end=1e-2, lr_end_epoch=10, epochs=10,
                      batch_size=16, seed=8)
    ep, _ = train_predictor(ts, (0.9, 0.9), cfg=cfg)
    path = tmp_path / "ep.json"
    save_predictor(ep, path)
    loaded = load_predictor(path)
    assert loaded.lam == ep.lam
    assert loaded.predictor_flops == ep.predictor_flops
    assert np.array_equal(predict_scores(loaded, ts), predict_scores(ep, ts))


def test_scores_match_hand_composition():
    ts = feature_traces(n=3, seed=9)
    net = Mlp.init([4, 6, 2], ["relu", "sigmoid"], seed=9)
    ep = ExitPredictor(net=net, lam=(0.9, 0.9), predictor_flops=0.4)
    x = ts.features[1]
    w1, w2 = net.weights
    b1, b2 = net.biases
    z = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    by_hand = 1.0 / (1.0 + np.exp(-z))
    assert np.allclose(predict_scores(ep, ts)[1], by_hand, atol=1e-12)


def test_scores_invariant_to_trace_ordering():
    ts = feature_traces(n=40, seed=10)
    net = Mlp.init([4, 6, 2], ["relu", "sigmoid"], seed=10)
    ep = ExitPredictor(net=net, lam=(0.9, 0.9), predictor_flops=0.4)
    fwd = predict_scores(ep, ts)
    perm = np.random.default_rng(0).permutation(len(ts))
    shuffled = ts.subset(perm.tolist())
    assert np.allclose(predict_scores(ep, shuffled), fwd[perm], atol=0)


def test_select_gamma_perfect_predictor_reaches_oracle_cost():
    ts = mixture_traces()
    lam = (0.9, 0.9)
    scores = make_labels(ts, lam)  # a perfect predictor
    gamma = select_gamma(ts, scores, lam, grid_step=0.05)
    stats = policy_stats(ts, lam, gamma, scores)
    _, oracle = run_oracle(ts, lam)
    expected = oracle.mean_on_device_mflops + ts.topology.predictor_flops
    assert stats.mean_on_device_mflops == pytest.approx(expected, abs=1e-9)


def test_select_gamma_uninformative_predictor_stays_plain():
    ts = mixture_traces()
    lam = (0.9, 0.9)
    scores = np.full((len(ts), 2), 0.5)
    gamma = select_gamma(ts, scores, lam, grid_step=0.5)
    assert gamma == (0.0, 0.0)


def test_select_gamma_unconstrained_budget_skips_everything():
    # exit classifiers dominate the backbone segments here, so with the
    # last-exit budget lifted the cheapest policy computes no exit at all
    topo = ExitTopology(num_exits=3, segment_flops=(2.0, 2.0),
                        exit_flops=(16.0, 14.0), server_flops=100.0,
                        predictor_flops=0.4, num_classes=10,
                        raw_feature_bits=4096, compression_ratio=4.0)
    base = mixture_traces()
    ts = TraceSet(topo, base.samples)
    lam = (0.9, 0.9)
    scores = np.full((len(ts), 2), 0.5)
    gamma = select_gamma(ts, scores, lam, grid_step=0.5, budget_fraction=1.0)
    assert gamma == (1.0, 1.0)
    # the default 2% budget forbids that much re-routing to the last exit
    tight = select_gamma(ts, scores, lam, grid_step=0.5, budget_fraction=0.02)
    assert tight == (0.0, 0.0)
    for bad in (0.0, 1.5, True):
        with pytest.raises(ValueError, match="^budget_fraction must "):
            select_gamma(ts, scores, lam, grid_step=0.5, budget_fraction=bad)


def test_select_gamma_walks_no_sample(monkeypatch):
    ts = mixture_traces()
    scores = np.random.default_rng(8).uniform(0.0, 1.0, (len(ts), 2))
    walk = engine._walk
    walks = []
    monkeypatch.setattr(engine, "_walk", lambda *a: walks.append(a) or walk(*a))
    for step in (0.5, 0.25, 0.05):
        select_gamma(ts, scores, (0.9, 0.9), grid_step=step)
        # the table counts every gamma combination without a walk
        assert walks == []


def test_select_gamma_result_respects_budget_under_engine():
    ts = feature_traces(n=300, seed=11)
    lam = (0.9, 0.9)
    cfg = TrainConfig(lr=0.2, lr_end=1e-3, lr_end_epoch=80, epochs=80,
                      batch_size=64, weight_decay=2e-4, seed=11)
    ep, _ = train_predictor(ts, lam, cfg=cfg)
    scores = predict_scores(ep, ts)
    for budget in (0.02, 0.1):
        gamma = select_gamma(ts, scores, lam, grid_step=0.25, budget_fraction=budget)
        plain_last = policy_stats(ts, lam).exit_distribution[-1]
        pred_last = policy_stats(ts, lam, gamma, scores).exit_distribution[-1]
        assert pred_last - plain_last < budget


def test_exit_predictor_validation():
    with pytest.raises(ValueError, match="sigmoid"):
        ExitPredictor(Mlp.init([4, 2], ["relu"], 0), (0.9, 0.9), 0.4)
    with pytest.raises(ValueError, match="length"):
        ExitPredictor(Mlp.init([4, 2], ["sigmoid"], 0), (0.9,), 0.4)
    with pytest.raises(ValueError, match="lambda"):
        ExitPredictor(Mlp.init([4, 2], ["sigmoid"], 0), (0.9, 1.5), 0.4)
