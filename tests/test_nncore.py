import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim.nncore import (
    BCE_CLAMP,
    Mlp,
    MlpStack,
    TrainConfig,
    bce_loss,
    lr_at,
    numeric_gradient_check,
    sigmoid,
    softmax,
    train,
    weighted_ce_loss,
)


def test_forward_zero_net_sigmoid_is_half():
    net = Mlp([np.zeros((4, 3))], [np.zeros(3)], ["sigmoid"])
    for x in (np.zeros(4), np.ones(4), np.array([5.0, -2.0, 0.1, 9.0])):
        assert np.all(net.forward(x) == 0.5)


def test_forward_identity_net_passes_input_through():
    net = Mlp([np.eye(5)], [np.zeros(5)], ["identity"])
    x = np.array([1.0, -2.0, 3.5, 0.0, 7.0])
    assert np.array_equal(net.forward(x), x)


def test_forward_matches_straight_line_hand_computation():
    net = Mlp.init([6, 4, 3], ["relu", "identity"], seed=123)
    rng = np.random.default_rng(9)
    x = rng.normal(size=6)
    w1, w2 = net.weights
    b1, b2 = net.biases
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    assert np.allclose(net.forward(x), expected, rtol=0, atol=1e-15)


def test_forward_batched_matches_per_sample():
    net = Mlp.init([5, 7, 2], ["relu", "sigmoid"], seed=1)
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(11, 5))
    batched = net.forward(xs)
    for i in range(11):
        assert np.allclose(batched[i], net.forward(xs[i]), atol=1e-14)


def test_forward_dimension_mismatch():
    net = Mlp.init([4, 2], ["identity"], seed=0)
    with pytest.raises(ValueError, match="dimension"):
        net.forward(np.zeros(5))


def test_bce_symmetric_point_is_ln2():
    assert bce_loss([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_fit_bounded_by_clamp():
    targets = np.array([1.0, 0.0, 1.0, 1.0])
    loss = bce_loss(targets, targets)
    assert 0.0 <= loss <= -math.log(1.0 - BCE_CLAMP) + 1e-15


def test_bce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    scores = rng.uniform(0.01, 0.99, 8)
    targets = rng.integers(0, 2, 8).astype(float)
    total = 0.0
    for s, y in zip(scores, targets):
        s = min(max(s, BCE_CLAMP), 1.0 - BCE_CLAMP)
        total += -(y * math.log(s) + (1.0 - y) * math.log(1.0 - s))
    assert bce_loss(scores, targets) == pytest.approx(total / 8, abs=1e-12)


def test_bce_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        bce_loss([0.5, 0.5], [1.0])


def test_weighted_ce_uniform_logits_is_ln_p():
    for p in (3, 10):
        logits = [np.zeros(p)] * 3
        loss = weighted_ce_loss(logits, 1, [0.2, 0.3, 0.5])
        assert loss == pytest.approx(math.log(p), abs=1e-12)


def test_weighted_ce_default_weights_sum_to_plain_ce():
    rng = np.random.default_rng(1)
    z = rng.normal(size=6)
    label = 4
    plain = -math.log(softmax(z)[label])
    loss = weighted_ce_loss([z, z, z], label, [0.2, 0.3, 0.5])
    assert loss == pytest.approx(plain, abs=1e-12)


def test_weighted_ce_matches_per_exit_loop_oracle():
    rng = np.random.default_rng(11)
    logits = [rng.normal(size=4) for _ in range(3)]
    weights = [0.5, 1.2, 0.1]
    label = 2
    total = 0.0
    for z, w in zip(logits, weights):
        probs = np.exp(z) / np.exp(z).sum()
        total += w * -math.log(probs[label])
    assert weighted_ce_loss(logits, label, weights) == pytest.approx(total, abs=1e-12)


def test_weighted_ce_dimension_errors():
    with pytest.raises(ValueError, match="weights"):
        weighted_ce_loss([np.zeros(3)], 0, [0.5, 0.5])
    with pytest.raises(ValueError, match="label"):
        weighted_ce_loss([np.zeros(3)], 3, [1.0])


def test_train_separable_two_point_task_converges():
    net = Mlp.init([2, 4, 1], ["relu", "sigmoid"], seed=5)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[1.0], [0.0]])
    cfg = TrainConfig(lr=0.5, lr_end=0.01, lr_end_epoch=200, epochs=200,
                      batch_size=2, seed=5)
    net, curve = train(net, x, y, "bce", cfg)
    assert curve[-1] < 0.1
    assert len(curve) == 200


def test_train_zero_epochs_is_noop():
    net = Mlp.init([3, 2], ["sigmoid"], seed=8)
    before = [p.copy() for p in net.parameters()]
    cfg = TrainConfig(epochs=0, lr_end_epoch=1, batch_size=4, seed=0)
    net, curve = train(net, np.zeros((4, 3)), np.zeros((4, 2)), "bce", cfg)
    assert curve == []
    for p, q in zip(net.parameters(), before):
        assert np.array_equal(p, q)


def test_train_same_seed_bit_identical():
    runs = []
    for _ in range(2):
        net = Mlp.init([3, 5, 2], ["relu", "sigmoid"], seed=21)
        x = np.random.default_rng(4).normal(size=(32, 3))
        y = (x[:, :2] > 0).astype(float)
        cfg = TrainConfig(lr=0.1, lr_end=0.01, lr_end_epoch=20, epochs=20,
                          batch_size=8, weight_decay=2e-4, seed=21)
        net, _ = train(net, x, y, "bce", cfg)
        runs.append(b"".join(p.tobytes() for p in net.parameters()))
    assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_reports_epoch():
    net = Mlp.init([2, 2], ["identity"], seed=0)
    x = np.ones((4, 2)) * 10
    y = np.ones((4, 2)) * 1e154
    cfg = TrainConfig(lr=1e6, lr_end=1e6, lr_end_epoch=5, epochs=5, batch_size=4, seed=0)
    with pytest.raises(ValueError, match="epoch"):
        train(net, x, y, "mse", cfg)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_check_bce(seed):
    net = Mlp.init([5, 8, 3], ["relu", "sigmoid"], seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=5)
    y = rng.integers(0, 2, 3).astype(float)
    assert numeric_gradient_check(net, x, y, "bce") < 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_check_softmax_ce(seed):
    net = Mlp.init([4, 6, 5], ["relu", "softmax"], seed=seed)
    rng = np.random.default_rng(seed + 50)
    x = rng.normal(size=4)
    assert numeric_gradient_check(net, x, 3, "softmax_ce") < 1e-5


def test_gradient_check_linear_identity_bce_at_half():
    # constant 0.5 output: the symmetric point of the BCE
    net = Mlp([np.zeros((3, 2))], [np.full(2, 0.5)], ["identity"])
    x = np.array([0.3, -0.2, 0.9])
    y = np.array([1.0, 0.0])
    assert numeric_gradient_check(net, x, y, "bce") < 1e-7


def test_gradient_check_rejects_large_nets():
    net = Mlp.init([120, 120], ["identity"], seed=0)
    with pytest.raises(ValueError, match="small nets"):
        numeric_gradient_check(net, np.zeros(120), np.zeros(120), "mse")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
def test_softmax_rows_are_distributions(z):
    p = softmax(np.array(z))
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-700, max_value=700))
def test_sigmoid_stays_inside_unit_interval(z):
    s = sigmoid(np.array([z]))[0]
    assert 0.0 < s < 1.0 or (s in (0.0, 1.0) and abs(z) > 30)
    assert 0.0 <= s <= 1.0


def test_checkpoint_round_trip_exact(tmp_path):
    net = Mlp.init([4, 7, 2], ["relu", "sigmoid"], seed=77)
    path = tmp_path / "net.json"
    net.save(path)
    loaded = Mlp.load(path)
    assert loaded.activations == net.activations
    assert loaded.seed == net.seed
    for p, q in zip(loaded.parameters(), net.parameters()):
        assert np.array_equal(p, q)


def test_lr_schedule_endpoints():
    cfg = TrainConfig(lr=0.1, lr_end=1e-4, lr_end_epoch=200, epochs=220)
    assert lr_at(cfg, 0) == pytest.approx(0.1)
    assert lr_at(cfg, 200) == pytest.approx(1e-4)
    assert lr_at(cfg, 219) == pytest.approx(1e-4)
    assert lr_at(cfg, 100) == pytest.approx((0.1 + 1e-4) / 2)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, lr_end_epoch=11)
    TrainConfig(epochs=0, lr_end_epoch=1)  # zero-epoch configs are allowed


BAD_TRAIN_CONFIG_VALUES = {
    "lr": [math.nan, math.inf, -math.inf, True, "0.1"],
    "lr_end": [math.nan, math.inf, -math.inf],
    "weight_decay": [math.nan, math.inf, -math.inf, 10 ** 400],
    "epochs": [16.5, True, "16", math.inf],
    "batch_size": [16.5, False, math.nan],
    "lr_end_epoch": [16.5, True, None],
    "seed": [0.5, True],
}


@pytest.mark.parametrize("field", sorted(BAD_TRAIN_CONFIG_VALUES))
def test_train_config_names_the_bad_field(field):
    for value in BAD_TRAIN_CONFIG_VALUES[field]:
        with pytest.raises(ValueError, match=f"^{field} must be "):
            TrainConfig(**{field: value})


def test_train_config_accepts_integral_floats_as_integers():
    cfg = TrainConfig(epochs=16.0, lr_end_epoch=np.int64(8), batch_size=4.0, seed=np.float64(3))
    assert (cfg.epochs, cfg.lr_end_epoch, cfg.batch_size, cfg.seed) == (16, 8, 4, 3)
    assert all(type(v) is int for v in (cfg.epochs, cfg.lr_end_epoch, cfg.batch_size, cfg.seed))
    assert TrainConfig(lr=1, weight_decay=np.float32(0.5)).lr == 1.0


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_diverging_stack_member_stops_the_stack_at_its_epoch():
    def member(seed):
        return Mlp.init([2, 2], ["identity"], seed=seed)

    # Inputs of 100 make this learning rate too large for member 1 only.
    tame, wild, y = np.ones((4, 2)), np.ones((4, 2)) * 100, np.ones((4, 2))
    cfg = TrainConfig(lr=0.01, lr_end=0.01, lr_end_epoch=40, epochs=40, batch_size=2)
    with pytest.raises(ValueError, match="^training diverged at epoch ") as alone:
        train(member(1), wild, y, "mse", replace(cfg, seed=1))
    epoch = int(re.match(r"training diverged at epoch (\d+)", str(alone.value)).group(1))
    assert epoch > 1
    train(member(0), tame, y, "mse", cfg)  # the tame member alone trains fine
    stack = MlpStack([member(0), member(1)])
    with pytest.raises(ValueError, match=f"^training diverged at epoch {epoch}: "):
        train(stack, np.concatenate([tame, wild]), np.concatenate([y, y]), "mse", cfg)


def test_stack_rejects_mixed_shapes_and_other_losses():
    with pytest.raises(ValueError, match="share"):
        MlpStack([Mlp.init([1, 4, 2], ["relu", "identity"]), Mlp.init([1, 5, 2], ["relu", "identity"])])
    stack = MlpStack([Mlp.init([1, 4, 2], ["relu", "identity"], seed=s) for s in (0, 1)])
    with pytest.raises(ValueError, match="equal blocks"):
        train(stack, np.zeros((5, 1)), np.zeros((5, 2)), "mse", TrainConfig(epochs=1, lr_end_epoch=1))
    with pytest.raises(ValueError, match="unknown loss"):
        train(stack, np.zeros((4, 1)), np.zeros((4, 2)), "bce", TrainConfig(epochs=1, lr_end_epoch=1))
