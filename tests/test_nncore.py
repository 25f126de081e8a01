import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim.nncore import (
    BCE_CLAMP,
    Mlp,
    TrainConfig,
    bce_parts,
    lr_at,
    numeric_gradient_check,
    sigmoid,
    softmax,
    train,
)
from exitsim.zoo import ToyEarlyExitNet


def bce(scores, targets) -> float:
    return bce_parts(np.asarray(scores, dtype=np.float64),
                     np.asarray(targets, dtype=np.float64), want_grad=False)[0]


def sigmoid_net(in_dim: int, out_dim: int) -> Mlp:
    """A one-layer sigmoid net with zero weights and biases: it outputs 0.5."""
    return Mlp([np.zeros((in_dim, out_dim))], [np.zeros(out_dim)], ["sigmoid"])


def same_logit_toy_net(w, b, weights) -> ToyEarlyExitNet:
    """A toy net whose every exit computes the logits ``x @ w + b`` of a
    nonnegative ``x``: each trunk segment and the final head's hidden layer
    are identity matrices under relu."""
    d = w.shape[0]
    eye = Mlp([np.eye(d)], [np.zeros(d)], ["relu"])
    head = Mlp([w], [b], ["softmax"])
    final = Mlp([np.eye(d), w], [np.zeros(d), b], ["relu", "softmax"])
    return ToyEarlyExitNet([eye] * (len(weights) - 1), [head] * (len(weights) - 1), final,
                           weights)


def test_forward_zero_net_sigmoid_is_half():
    net = Mlp([np.zeros((4, 3))], [np.zeros(3)], ["sigmoid"])
    for x in (np.zeros(4), np.ones(4), np.array([5.0, -2.0, 0.1, 9.0])):
        assert np.all(net.forward(x) == 0.5)


def test_forward_matches_straight_line_hand_computation():
    net = Mlp.init([6, 4, 3], ["relu", "sigmoid"], seed=123)
    rng = np.random.default_rng(9)
    x = rng.normal(size=6)
    w1, w2 = net.weights
    b1, b2 = net.biases
    expected = 1.0 / (1.0 + np.exp(-(np.maximum(x @ w1 + b1, 0.0) @ w2 + b2)))
    assert np.allclose(net.forward(x), expected, rtol=0, atol=1e-15)


def test_forward_batched_matches_per_sample():
    net = Mlp.init([5, 7, 2], ["relu", "sigmoid"], seed=1)
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(11, 5))
    batched = net.forward(xs)
    for i in range(11):
        assert np.allclose(batched[i], net.forward(xs[i]), atol=1e-14)


def test_forward_dimension_mismatch():
    net = Mlp.init([4, 2], ["sigmoid"], seed=0)
    with pytest.raises(ValueError, match="dimension"):
        net.forward(np.zeros(5))


def test_bce_symmetric_point_is_ln2():
    assert bce([0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)
    net = sigmoid_net(3, 2)
    assert net.loss_value(np.ones((4, 3)), np.tile([1.0, 0.0], (4, 1))) == pytest.approx(
        math.log(2), abs=1e-12)


def test_bce_perfect_fit_bounded_by_clamp():
    targets = np.array([1.0, 0.0, 1.0, 1.0])
    loss = bce(targets, targets)
    assert 0.0 <= loss <= -math.log(1.0 - BCE_CLAMP) + 1e-15


def test_bce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    scores = rng.uniform(0.01, 0.99, 8)
    targets = rng.integers(0, 2, 8).astype(float)
    total = 0.0
    for s, y in zip(scores, targets):
        s = min(max(s, BCE_CLAMP), 1.0 - BCE_CLAMP)
        total += -(y * math.log(s) + (1.0 - y) * math.log(1.0 - s))
    assert bce(scores, targets) == pytest.approx(total / 8, abs=1e-12)
    net = sigmoid_net(1, 8)
    net.biases[0][:] = np.log(scores / (1.0 - scores))  # sigmoid(bias) == scores
    assert net.loss_value(np.zeros((1, 1)), targets) == pytest.approx(total / 8, abs=1e-12)


def test_bce_length_mismatch():
    with pytest.raises(ValueError, match="reshape"):
        sigmoid_net(3, 2).loss_value(np.ones((1, 3)), [1.0])


def test_weighted_ce_uniform_logits_is_ln_p():
    for p in (3, 10):
        net = same_logit_toy_net(np.zeros((2, p)), np.zeros(p), (0.2, 0.3, 0.5))
        loss = net.loss_value(np.ones((1, 2)), [1])
        assert loss == pytest.approx(math.log(p), abs=1e-12)


def test_weighted_ce_default_weights_sum_to_plain_ce():
    rng = np.random.default_rng(1)
    w, b = rng.normal(size=(3, 6)), rng.normal(size=6)
    x = rng.uniform(0.0, 1.0, size=(1, 3))
    label = 4
    plain = -math.log(softmax(x[0] @ w + b)[label])
    loss = same_logit_toy_net(w, b, (0.2, 0.3, 0.5)).loss_value(x, [label])
    assert loss == pytest.approx(plain, abs=1e-12)


def test_weighted_ce_matches_per_exit_loop_oracle():
    net = ToyEarlyExitNet.build(3, 4, trunk_widths=(5, 5), final_hidden=5,
                                weights=(0.5, 1.2, 0.1), seed=11)
    x = np.random.default_rng(11).normal(size=(1, 3))
    label = 2
    total = 0.0
    for probs, w in zip(net.exit_probs(x), net.weights):
        total += w * -math.log(probs[0, label])
    assert net.loss_value(x, [label]) == pytest.approx(total, abs=1e-12)


def test_weighted_ce_dimension_errors():
    net = same_logit_toy_net(np.zeros((2, 3)), np.zeros(3), (0.5, 0.5))
    with pytest.raises(ValueError, match="weight"):
        ToyEarlyExitNet(net.trunk, net.heads, net.final, (0.5, 0.5, 0.5))
    for label in (3, -1, 1.7):
        with pytest.raises(ValueError, match=r"^labels\[0\] must (be an integer|lie in \[0, 3\))"):
            net.loss_value(np.ones((1, 2)), [label])


def test_train_separable_two_point_task_converges():
    net = Mlp.init([2, 4, 1], ["relu", "sigmoid"], seed=5)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[1.0], [0.0]])
    cfg = TrainConfig(lr=0.5, lr_end=0.01, lr_end_epoch=200, epochs=200,
                      batch_size=2, seed=5)
    net, loss = train(net, x, y, cfg)
    assert loss < 0.1 and loss == net.loss_value(x, y)


def test_train_zero_epochs_is_noop():
    net = Mlp.init([3, 2], ["sigmoid"], seed=8)
    before = [p.copy() for p in net.parameters()]
    cfg = TrainConfig(epochs=0, lr_end_epoch=1, batch_size=4, seed=0)
    untrained = net.loss_value(np.zeros((4, 3)), np.zeros((4, 2)))
    net, loss = train(net, np.zeros((4, 3)), np.zeros((4, 2)), cfg)
    assert loss == untrained
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
        net, _ = train(net, x, y, cfg)
        runs.append(b"".join(p.tobytes() for p in net.parameters()))
    assert runs[0] == runs[1]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_divergence_reports_epoch():
    # The weight decay flips and scales every parameter by 1e200 per step:
    # the parameters overflow in epoch 2, and epoch 3's first minibatch loss
    # is the first loss that reads non-finite.
    net = Mlp.init([2, 2], ["sigmoid"], seed=0)
    cfg = TrainConfig(lr=1.0, lr_end=1.0, lr_end_epoch=5, epochs=5, batch_size=4,
                      weight_decay=1e200, seed=0)
    with pytest.raises(ValueError, match="^training diverged at epoch 3: non-finite minibatch"):
        train(net, np.ones((4, 2)), np.ones((4, 2)), cfg)


@pytest.mark.parametrize("head, targets, message", [
    ("relu", np.ones((4, 2)), "BCE expects a sigmoid head"),
    ("sigmoid", np.ones((4, 3)), "cannot reshape"),
], ids=["relu-head", "target-shape"])
def test_train_reports_a_bad_head_or_target_shape_as_itself(head, targets, message):
    net = Mlp.init([2, 2], [head], seed=0)
    before = [p.copy() for p in net.parameters()]
    cfg = TrainConfig(epochs=3, lr_end_epoch=3, batch_size=4)
    with pytest.raises(ValueError, match=message) as err:
        train(net, np.ones((4, 2)), targets, cfg)
    assert "diverged" not in str(err.value)
    assert all(np.array_equal(p, q) for p, q in zip(net.parameters(), before))


@pytest.mark.parametrize("kind", ["toy", "mlp"])
@pytest.mark.parametrize("targets", [
    lambda t: 5, lambda t: None, lambda t: np.array(1), lambda t: t[:-1],
], ids=["scalar", "none", "zero-d", "one-row-short"])
def test_train_rejects_targets_of_another_sample_count(kind, targets):
    net, x, t = small_net_and_batch(kind)
    before = net.params.copy()
    with pytest.raises(ValueError, match="^inputs and targets disagree on sample count$"):
        train(net, x, targets(t), TrainConfig(epochs=2, lr_end_epoch=2, batch_size=5))
    assert np.array_equal(net.params, before)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_check_bce(seed):
    net = Mlp.init([5, 8, 3], ["relu", "sigmoid"], seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=5)
    y = rng.integers(0, 2, 3).astype(float)
    assert numeric_gradient_check(net, x, y) < 1e-5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gradient_check_softmax_ce(seed):
    # Softmax CE trains the toy net; its heads backprop from their logits.
    net = ToyEarlyExitNet.build(4, 5, trunk_widths=(6, 6), final_hidden=6, seed=seed)
    rng = np.random.default_rng(seed + 50)
    x = rng.normal(size=4)
    assert numeric_gradient_check(net, x, 3) < 1e-5


@pytest.mark.parametrize("hidden", ["relu", "sigmoid"])
def test_gradient_check_through_each_hidden_activation(hidden):
    # Equal widths, so reading a layer's input where its output belongs
    # would run and give wrong gradients rather than fail on a shape.
    net = Mlp.init([4, 4, 4, 3], [hidden, hidden, "sigmoid"], seed=3)
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(5, 4)), rng.integers(0, 2, (5, 3)).astype(float)
    assert numeric_gradient_check(net, x, y) < 1e-5


@pytest.mark.parametrize("label", [-1, 1.7, 4])
def test_softmax_ce_rejects_a_label_outside_the_classes(label):
    net = ToyEarlyExitNet.build(2, 4, trunk_widths=(3, 3), final_hidden=3, seed=0)
    labels = np.array([0.0, 3.0, label])
    for call in (net.loss_value, net.loss_and_grads):
        message = rf"^labels\[2\] must (be an integer|lie in \[0, 4\)), got {float(label)}$"
        with pytest.raises(ValueError, match=message):
            call(np.ones((3, 2)), labels)


def test_gradient_check_rejects_large_nets():
    net = Mlp.init([120, 120], ["sigmoid"], seed=0)
    with pytest.raises(ValueError, match="small nets"):
        numeric_gradient_check(net, np.zeros(120), np.zeros(120))


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


def test_checkpoint_round_trip_exact():
    # A net is checkpointed as a dict inside its owner's JSON document.
    net = Mlp.init([4, 7, 2], ["relu", "sigmoid"], seed=77)
    loaded = Mlp.from_dict(json.loads(json.dumps(net.to_dict())))
    assert loaded.activations == net.activations
    assert loaded.seed == net.seed
    for p, q in zip(loaded.parameters(), net.parameters()):
        assert np.array_equal(p, q)
    # Integral float sizes read as integers, as they do everywhere else.
    doc = net.to_dict()
    doc["sizes"] = [4.0, 7.0, 2.0]
    assert all(np.array_equal(p, q)
               for p, q in zip(Mlp.from_dict(doc).parameters(), net.parameters()))
    doc["sizes"] = [4, 7, 2, 5]
    with pytest.raises(ValueError, match=r"^net.sizes must have 3 entries, one more than "):
        Mlp.from_dict(doc, "net.")


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


def small_net_and_batch(kind: str):
    """A small net of each kind with inputs and targets for its loss."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(24, 3))
    if kind == "toy":
        return (ToyEarlyExitNet.build(3, 4, trunk_widths=(5, 4), final_hidden=5, seed=3), x,
                rng.integers(0, 4, 24))
    return Mlp.init([3, 6, 2], ["relu", "sigmoid"], seed=3), x, rng.integers(0, 2, (24, 2))


@pytest.mark.parametrize("kind", ["toy", "mlp"])
def test_parameters_are_views_of_one_buffer(kind):
    net, _, _ = small_net_and_batch(kind)
    params = net.parameters()
    assert net.params.size == sum(p.size for p in params)
    assert all(p.base is net.params for p in params)
    assert np.array_equal(np.concatenate([p.reshape(-1) for p in params]), net.params)
    if kind == "toy":
        parts = [*net.trunk, *net.heads, net.final]
        assert all(p.base is net.params for m in parts for p in m.parameters())


@pytest.mark.parametrize("kind", ["toy", "mlp"])
def test_returned_gradients_stay_the_callers(kind):
    net, x, t = small_net_and_batch(kind)
    _, first = net.loss_and_grads(x[:8], t[:8])
    kept = [g.copy() for g in first]
    _, second = net.loss_and_grads(x[8:], t[8:])
    train(net, x, t, TrainConfig(epochs=2, lr_end_epoch=2, batch_size=5))
    assert all(np.array_equal(g, k) for g, k in zip(first, kept))
    assert not any(np.shares_memory(g, h) for g in first for h in second)
    assert not any(np.shares_memory(g, net.grads) for g in first + second)


def _round_trip(cls):
    return lambda net, _: cls.from_dict(json.loads(json.dumps(net.to_dict())))


def _save_and_load(net, path):
    net.save(path)
    return ToyEarlyExitNet.load(path)


RESTORES = {
    "Mlp.from_dict": ("mlp", _round_trip(Mlp)),
    "ToyEarlyExitNet.from_dict": ("toy", _round_trip(ToyEarlyExitNet)),
    "ToyEarlyExitNet.load": ("toy", _save_and_load),
}


@pytest.mark.parametrize("name", list(RESTORES))
def test_a_restored_net_rebuilds_its_buffer_and_trains_bit_identically(name, tmp_path):
    kind, restore = RESTORES[name]
    net, x, t = small_net_and_batch(kind)
    loaded = restore(net, tmp_path / "net.json")
    assert type(loaded) is type(net) and not np.shares_memory(loaded.params, net.params)
    assert np.array_equal(loaded.params, net.params)
    assert all(p.base is loaded.params for p in loaded.parameters())
    cfg = TrainConfig(lr=0.3, lr_end=0.01, lr_end_epoch=3, epochs=3, batch_size=7,
                      weight_decay=1e-3, seed=4)
    _, loss = train(net, x, t, cfg)
    _, loaded_loss = train(loaded, x, t, cfg)
    assert np.array_equal(loss, loaded_loss)
    assert np.array_equal(net.params, loaded.params)


@pytest.mark.parametrize("kind", ["toy", "mlp"])
def test_parameter_pokes_reach_loss_value(kind):
    # numeric_gradient_check moves one entry of parameters() at a time.
    net, x, t = small_net_and_batch(kind)
    for p in net.parameters():
        p.reshape(-1)[-1] += 0.25
        fresh = type(net).from_dict(net.to_dict())
        assert net.loss_value(x, t) == fresh.loss_value(x, t)
    assert numeric_gradient_check(net, x[:3], t[:3]) < 1e-5


def test_softmax_serves_only_as_a_head():
    # A softmax layer's entry holds its logits, so no layer may read it.
    with pytest.raises(ValueError, match="^layer 1: reads a softmax layer"):
        Mlp.init([2, 3, 2], ["softmax", "sigmoid"])
    eye, head = Mlp([np.eye(2)], [np.zeros(2)], ["relu"]), Mlp.init([2, 3], ["softmax"])
    with pytest.raises(ValueError, match="^every exit head must end in a softmax layer$"):
        ToyEarlyExitNet([eye], [Mlp.init([2, 3], ["sigmoid"])], head, (0.5, 0.5))
    with pytest.raises(ValueError, match="^layer 1: reads a softmax layer"):
        ToyEarlyExitNet([Mlp([np.eye(2)], [np.zeros(2)], ["softmax"])], [head], head, (0.5, 0.5))
