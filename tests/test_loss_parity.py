"""Training keeps the bits of its straightforward form.

Each property builds a random net and batch, and checks that ``loss_value``,
``loss_and_grads`` and the reference copy in ``helpers`` agree exactly: the
same value, and every gradient ``array_equal``.  ``train`` must match the
reference epoch loop in its final loss and every parameter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim.nncore import Mlp, TrainConfig, train
from exitsim.zoo import ToyEarlyExitNet

from helpers import ref_mlp_loss, ref_toy_loss, ref_train

PARITY = settings(max_examples=60, deadline=None, derandomize=True)


def assert_same_bits(model, x, target, reference):
    value = model.loss_value(x, target)
    grad_value, grads = model.loss_and_grads(x, target)
    ref_value, ref_grads = reference
    assert np.array_equal(value, grad_value) and np.array_equal(value, ref_value)
    assert len(grads) == len(ref_grads) == len(model.parameters())
    for g, r in zip(grads, ref_grads):
        assert g.shape == r.shape and np.array_equal(g, r)


@PARITY
@given(num_exits=st.integers(2, 4), classes=st.integers(2, 12), rows=st.integers(1, 50),
       in_dim=st.integers(1, 6), widths=st.lists(st.integers(1, 9), min_size=4, max_size=4),
       off=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 2 ** 16))
def test_toy_net_loss_matches_reference_bits(num_exits, classes, rows, in_dim, widths, off,
                                             seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, num_exits)
    weights[np.array(off[:num_exits])] = 0.0  # switched-off exits
    if weights.sum() == 0.0:
        weights[-1] = 0.5
    net = ToyEarlyExitNet.build(in_dim, classes, num_exits=num_exits,
                                trunk_widths=widths[:num_exits - 1], final_hidden=widths[-1],
                                weights=weights, seed=seed % 50)
    x = rng.normal(scale=3.0, size=(rows, in_dim))
    y = rng.integers(0, classes, rows)
    assert_same_bits(net, x, y, ref_toy_loss(net, x, y))


@PARITY
@given(rows=st.integers(1, 50), sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4),
       hidden=st.sampled_from(["relu", "sigmoid"]), scale=st.sampled_from([0.5, 3.0, 40.0]),
       seed=st.integers(0, 2 ** 16))
def test_mlp_loss_matches_reference_bits(rows, sizes, hidden, scale, seed):
    rng = np.random.default_rng(seed)
    net = Mlp.init(sizes, [hidden] * (len(sizes) - 2) + ["sigmoid"], seed=seed)
    x = rng.normal(scale=scale, size=(rows, sizes[0]))
    target = rng.integers(0, 2, (rows, sizes[-1])).astype(float)
    assert_same_bits(net, x, target, ref_mlp_loss(net, x, target))


@pytest.mark.parametrize("kind", ["toy", "mlp"])
def test_train_matches_the_reference_loop_bit_for_bit(kind):
    rng = np.random.default_rng(5)
    cfg = TrainConfig(lr=0.2, lr_end=0.01, lr_end_epoch=4, epochs=5, batch_size=7,
                      weight_decay=3e-3, seed=11)
    if kind == "toy":
        def build():
            return ToyEarlyExitNet.build(3, 4, trunk_widths=(6, 5), final_hidden=5, seed=2)
        x, y = rng.normal(size=(30, 3)), rng.integers(0, 4, 30)
        ref_loss = ref_toy_loss
    else:
        def build():
            return Mlp.init([3, 6, 4], ["relu", "sigmoid"], seed=2)
        x, y = rng.normal(size=(30, 3)), rng.integers(0, 2, (30, 4)).astype(float)
        ref_loss = ref_mlp_loss
    model, ref_model = build(), build()
    _, loss = train(model, x, y, cfg)
    ref_curve = ref_train(ref_model, x, y, cfg, ref_loss)
    assert len(ref_curve) == cfg.epochs and np.array_equal(loss, ref_curve[-1])
    for p, q in zip(model.parameters(), ref_model.parameters()):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("kind", ["toy", "mlp"])
def test_train_matches_the_reference_loop_at_the_demo_shapes(kind):
    # Batches of 128 over 2000 rows leave a ragged last batch of 80.
    rng = np.random.default_rng(8)
    cfg = TrainConfig(lr=0.1, lr_end=1e-4, lr_end_epoch=3, epochs=3, batch_size=128,
                      weight_decay=5e-4, seed=7)
    x = rng.normal(size=(2000, 8))
    if kind == "toy":
        def build():
            return ToyEarlyExitNet.build(8, 10, seed=7)
        y, ref_loss = rng.integers(0, 10, 2000), ref_toy_loss
    else:
        def build():
            return Mlp.init([8, 64, 2], ["relu", "sigmoid"], seed=7)
        y, ref_loss = rng.integers(0, 2, (2000, 2)).astype(float), ref_mlp_loss
    model, ref_model = build(), build()
    _, loss = train(model, x, y, cfg)
    ref_curve = ref_train(ref_model, x, y, cfg, ref_loss)
    assert len(ref_curve) == cfg.epochs and np.array_equal(loss, ref_curve[-1])
    for p, q in zip(model.parameters(), ref_model.parameters()):
        assert np.array_equal(p, q)
