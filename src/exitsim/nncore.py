"""Minimal dense network core: one parameter buffer per net, one layer loop,
two losses, plain SGD.

Two nets train, each under its own loss.  An ``Mlp`` (the skip predictor:
relu hidden layers, a sigmoid head) trains under binary cross entropy.
``zoo.ToyEarlyExitNet`` trains under the weighted softmax cross entropy of
its exits, from ``softmax_ce_parts``.  Both are a ``Net``: every weight and
bias is a view of one float64 buffer, and one forward and one backward
loop over the layers serve both.  ``train`` is the one epoch loop: it
checks the targets once, each minibatch's gradients land in place in a
second buffer, and the update is one pass over the parameter buffer.  One
full-set loss, after the last epoch, is all it reports.
``loss_and_grads`` returns fresh arrays.  Training is single-threaded and
bit-reproducible for a fixed seed.

Each loss piece is computed once per step.  A softmax-CE head takes its
softmax and log-sum-exp from one max, exp and sum, and its gradient from
that softmax; the toy net's heads share one such pass over their stacked
logits.  BCE clamps once for its value and its gradient.  ``sigmoid`` is
``where(z >= 0, 1, e) / (1 + e)`` with ``e = exp(-|z|)``, and an epoch
gathers its shuffled rows once.  The value path (``loss_value``,
``train``'s final full-set loss) builds no gradients, stops a softmax-CE
head at its logits and takes one head at a time.  Every value and
gradient has the bits of the straightforward form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trace import as_int, as_ints, as_real, as_reals

ACTIVATIONS = ("relu", "sigmoid", "softmax")

# Scores are clamped before the BCE logs; saturated sigmoids would
# otherwise produce infinities.
BCE_CLAMP = 1e-7


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, as
    ``e = exp(-|z|)`` over ``1 + e`` with numerator 1 or ``e``: no exp
    overflows, and no boolean mask splits the array."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a float array, in a new array."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _act_backward(da: np.ndarray, a: np.ndarray, act: str) -> np.ndarray:
    """d(pre-activation) of a relu or sigmoid layer, in place of its
    d(output) ``da``, from its output ``a``; relu's mask ``a > 0`` is its
    pre-activation's ``z > 0``."""
    if act == "relu":
        da *= a > 0
    else:
        da *= a
        da *= 1.0 - a
    return da


def _views(shapes, buf: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per (fan_in, fan_out) in ``shapes``, that weight and then its bias as
    views of consecutive stretches of ``buf``."""
    views, at = [], 0
    for fan_in, fan_out in shapes:
        w = buf[at:at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        views.append((w, buf[at:at + fan_out]))
        at += fan_out
    return views


class Net:
    """Dense layers whose parameters are views of one float64 buffer.

    ``params`` holds each layer's (fan_in, fan_out) weight, then its bias,
    layer after layer; ``grads`` has the same layout, and only the training
    step writes it.  Layer l runs in buffer order and reads entry
    ``sources[l]`` of the activation list: entry 0 is the input, entry l + 1
    layer l's output.  A softmax layer is a head: its entry holds its
    logits, its loss backprops from them, and no layer reads it.  A
    subclass supplies ``targets`` (the check) and ``_loss``.
    """

    def _lay_out(self, shapes, activations, sources, params, grads) -> None:
        self.shapes, self.activations = list(shapes), tuple(activations)
        self.sources = tuple(sources)
        for i, src in enumerate(self.sources):
            if src and self.activations[src - 1] == "softmax":
                raise ValueError(f"layer {i}: reads a softmax layer, which serves only as a head")
        self.params, self.grads = params, grads
        self.layers = _views(self.shapes, params)
        self._grad_layers = _views(self.shapes, grads)

    @property
    def in_dim(self) -> int:
        return self.shapes[0][0]

    def parameters(self) -> list[np.ndarray]:
        """Every weight and bias in buffer order, as views of ``params``."""
        return [p for layer in self.layers for p in layer]

    def _promote(self, x) -> tuple[np.ndarray, bool]:
        x = as_reals(x, "inputs", rows=np.ndim(x) > 1)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.ndim != 2 or x2.shape[1] != self.in_dim:
            raise ValueError(f"input dimension {x.shape} incompatible with {self.in_dim}")
        return x2, single

    def _forward(self, x2: np.ndarray) -> list[np.ndarray]:
        """The activation list of a batch of rows."""
        acts = [x2]
        for (w, b), act, src in zip(self.layers, self.activations, self.sources):
            z = acts[src] @ w
            z += b
            if act == "relu":
                np.maximum(z, 0.0, out=z)
            elif act == "sigmoid":
                z = sigmoid(z)
            acts.append(z)
        return acts

    def _backward(self, acts: list[np.ndarray], d: list, grads) -> None:
        """Backprop into ``grads``, in place, a (weight, bias) pair per layer.

        ``d`` parallels ``acts`` and holds the loss's gradient at each head's
        entry (in a softmax head's logits).  The input's gradient is never formed.
        """
        for i in range(len(self.layers) - 1, -1, -1):
            act, src, (gw, gb) = self.activations[i], self.sources[i], grads[i]
            dz = d[i + 1] if act == "softmax" else _act_backward(d[i + 1], acts[i + 1], act)
            np.matmul(acts[src].T, dz, out=gw)
            np.add.reduce(dz, axis=0, out=gb)
            if src:
                dx = dz @ self.layers[i][0].T
                d[src] = dx if d[src] is None else d[src] + dx

    def loss_value(self, x, targets) -> float:
        x2, _ = self._promote(x)
        return self._loss(x2, self.targets(targets, len(x2)), None)

    def loss_and_grads(self, x, targets) -> tuple[float, list[np.ndarray]]:
        """The loss and its gradients, aligned to parameters(), in fresh
        arrays that no later call writes."""
        x2, _ = self._promote(x)
        grads = _views(self.shapes, np.empty_like(self.params))
        value = self._loss(x2, self.targets(targets, len(x2)), grads)
        return value, [g for layer in grads for g in layer]


class Mlp(Net):
    """Fully-connected net with per-layer activation tags, trained under BCE.

    Weight matrices are (fan_in, fan_out); forward accepts a single vector
    or a batch of rows and returns the matching shape.  Softmax may only be
    the last layer.
    """

    def __init__(self, weights, biases, activations, seed: int = 0):
        weights = [as_reals(w, f"weights[{i}]", rows=True) for i, w in enumerate(weights)]
        biases = [as_reals(b, f"biases[{i}]") for i, b in enumerate(biases)]
        activations = tuple(activations)
        self.seed = as_int(seed, "seed", "[0, inf)")
        if not (len(weights) == len(biases) == len(activations)):
            raise ValueError("weights, biases and activations must align")
        if not weights:
            raise ValueError("net needs at least one layer")
        for i, (w, b, act) in enumerate(zip(weights, biases, activations)):
            if act not in ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes inconsistent")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: dimension does not chain")
        params = np.concatenate([p.reshape(-1) for pair in zip(weights, biases) for p in pair])
        self._lay_out([w.shape for w in weights], activations, range(len(weights)), params,
                      np.zeros_like(params))

    @classmethod
    def init(cls, sizes: Sequence[int], activations: Sequence[str], seed: int = 0) -> "Mlp":
        """Seeded init: all parameters uniform in +-sqrt(6/(fan_in+fan_out)).

        Biases share the uniform scheme; an exactly-zero bias would park
        relu units on their kink whenever the previous layer goes dead.
        """
        sizes = as_ints(sizes, "sizes", "[1, inf)").tolist()
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ValueError("need len(sizes) >= 2 and one activation per layer")
        seed = as_int(seed, "seed", "[0, inf)")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-limit, limit, size=fan_out))
        return cls(weights, biases, activations, seed=seed)

    def _over(self, params: np.ndarray, grads: np.ndarray) -> "Mlp":
        """This net with its layers as views of ``params`` and ``grads``,
        stretches of a larger net's buffers that already hold its values."""
        net = Mlp.__new__(Mlp)
        net.seed = self.seed
        net._lay_out(self.shapes, self.activations, self.sources, params, grads)
        return net

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][1]

    def _lay_out(self, *layout) -> None:
        super()._lay_out(*layout)
        self.weights, self.biases = map(list, zip(*self.layers))

    def forward(self, x) -> np.ndarray:
        x2, single = self._promote(x)
        a = self._forward(x2)[-1]
        if self.activations[-1] == "softmax":
            a = softmax(a)
        return a[0] if single else a

    # -- the BCE loss on this net --------------------------------------------

    def targets(self, targets, rows: int) -> np.ndarray:
        """BCE targets as (rows, out_dim) float64; the head must be a sigmoid."""
        if self.activations[-1] != "sigmoid":
            raise ValueError("BCE expects a sigmoid head")
        return as_reals(targets, "targets", rows=np.ndim(targets) > 1).reshape(rows, self.out_dim)

    def _loss(self, x2: np.ndarray, y: np.ndarray, grads) -> float:
        """The BCE of the head's output against ``y``; with ``grads``, its
        gradients are written there.  The value path builds no gradient."""
        acts = self._forward(x2)
        value, dout = bce_parts(acts[-1], y, grads is not None)
        if grads is not None:
            self._backward(acts, [None] * (len(acts) - 1) + [dout], grads)
        return value

    # -- checkpointing -----------------------------------------------------

    def to_dict(self) -> dict:
        sizes = [self.in_dim] + [w.shape[1] for w in self.weights]
        return {
            "sizes": sizes,
            "activations": list(self.activations),
            "seed": self.seed,
            "layers": [
                {"w": w.reshape(-1).tolist(), "b": b.tolist()}
                for w, b in zip(self.weights, self.biases)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict, field: str = "") -> "Mlp":
        """The net of a ``to_dict`` document, its fields named under ``field``
        ("net.": ``net.sizes``, ``net.layers[0].w``)."""
        sizes, layers = as_ints(d["sizes"], f"{field}sizes", "[1, inf)"), d["layers"]
        if len(sizes) != len(layers) + 1:
            raise ValueError(f"{field}sizes must have {len(layers) + 1} entries, one more than "
                             f"{field}layers, got {len(sizes)}")
        at = lambda i, key: as_reals(layers[i][key], f"{field}layers[{i}].{key}")
        return cls([at(i, "w").reshape(sizes[i], sizes[i + 1]) for i in range(len(layers))],
                   [at(i, "b") for i in range(len(layers))], d["activations"],
                   seed=d.get("seed", 0))


# -- loss functions ---------------------------------------------------------


def bce_parts(scores: np.ndarray, targets: np.ndarray, want_grad: bool):
    """Binary cross entropy of same-shaped arrays, averaged over all
    elements with clamped logs, and, with ``want_grad``, its gradient in the
    scores, zero where the clamp is active (else None).  The value and the
    gradient share one clamp."""
    sc = np.clip(scores, BCE_CLAMP, 1.0 - BCE_CLAMP)
    rest = 1.0 - sc
    losses = -(targets * np.log(sc) + (1.0 - targets) * np.log(rest))
    value = float(np.add.reduce(losses, axis=None) / scores.size)
    if not want_grad:
        return value, None
    grad = (sc - targets) / (sc * rest) / scores.size
    inside = (scores > BCE_CLAMP) & (scores < 1.0 - BCE_CLAMP)
    return value, np.where(inside, grad, 0.0)


def class_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels`` (or one label for one row) as (rows,) int64 class indices.

    A label that is no integer in [0, classes) raises ValueError naming it:
    indexing would read -1 as the last class, and a cast would truncate 1.7
    to 1.
    """
    labels = [labels] if np.ndim(labels) == 0 else labels
    return as_ints(labels, "labels", f"[0, {classes})").reshape(rows)


def softmax_ce_parts(logits: np.ndarray, labels: np.ndarray, want_grad: bool = False):
    """Per-row cross entropy of softmax(logits) against checked int64
    ``labels`` and, with ``want_grad``, its gradient in the logits (else None).

    ``logits`` is (rows, P), or (H, rows, P) for H heads against the same
    labels: each head's losses and gradient have the bits of its own call.
    The log-sum-exp and the softmax share one max, exp and sum.  The row
    max runs over a column-major copy, one column at a time: exact in any
    order (NaN too), and far faster than numpy's reduction of short rows.
    """
    rows = np.arange(len(labels))
    m = np.asfortranarray(logits).max(axis=-1, keepdims=True)
    e = logits - m
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    losses = (m + np.log(s))[..., 0] - logits[..., rows, labels]
    if not want_grad:
        return losses, None
    e /= s
    e[..., rows, labels] -= 1.0
    return losses, e


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Plain SGD with a cosine-annealed learning rate.

    The rate decays from ``lr`` to ``lr_end`` at epoch ``lr_end_epoch`` and
    stays there for any remaining epochs.  Weight decay is folded into the
    gradient.
    """

    lr: float = 0.1
    lr_end: float = 1e-4
    lr_end_epoch: int = 200
    epochs: int = 220
    batch_size: int = 128
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, bounds in (("lr", "(0, inf)"), ("lr_end", "(0, inf)"),
                             ("weight_decay", "[0, inf)")):
            object.__setattr__(self, name, as_real(getattr(self, name), name, bounds))
        for name, bounds in (("lr_end_epoch", "[1, inf)"), ("epochs", "[0, inf)"),
                             ("batch_size", "[1, inf)"), ("seed", "[0, inf)")):
            object.__setattr__(self, name, as_int(getattr(self, name), name, bounds))
        if self.epochs and self.lr_end_epoch > self.epochs:
            raise ValueError("lr_end_epoch must not exceed epochs")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index."""
    if epoch >= cfg.lr_end_epoch:
        return cfg.lr_end
    span = cfg.lr - cfg.lr_end
    return cfg.lr_end + 0.5 * span * (1.0 + math.cos(math.pi * epoch / cfg.lr_end_epoch))


def sgd_epoch(model, inputs, targets, cfg: TrainConfig, lr: float,
              rng: np.random.Generator) -> None:
    """One shuffled pass of minibatch SGD over the dataset, in place, under
    the model's own loss.

    ``targets`` are as ``model.targets`` returns them.  ``rng`` shuffles the
    rows, gathered once per epoch, and a minibatch is the next
    ``batch_size`` of them, a slice of that copy.  Each step
    writes its gradients into ``model.grads`` and updates all of
    ``model.params`` in one pass.  A non-finite minibatch loss raises
    FloatingPointError.
    """
    params, grads = model.params, model.grads
    perm = rng.permutation(inputs.shape[0])
    x, t = inputs[perm], targets[perm]
    for start in range(0, len(perm), cfg.batch_size):
        batch = slice(start, start + cfg.batch_size)
        if not math.isfinite(model._loss(x[batch], t[batch], model._grad_layers)):
            raise FloatingPointError("non-finite minibatch loss")
        # params -= lr * (grads + wd * params), in place on the fresh
        # gradient: the same products and sums, and products commute exactly.
        grads += cfg.weight_decay * params
        grads *= lr
        params -= grads


def train(net, inputs, targets, cfg: TrainConfig = TrainConfig()):
    """Train the net in place; returns it and its full-set loss after the last epoch.

    The one epoch loop: ``net`` is a ``Net`` under its own loss, an Mlp
    under BCE or a ToyEarlyExitNet under its weighted softmax CE.  The input
    width, the sample count, the head, the target shape and every label are
    checked once, before any parameter moves.  Rows are shuffled by one
    generator seeded ``cfg.seed``.  Only a non-finite loss reads ``training
    diverged at epoch N``: N is the epoch of a non-finite minibatch loss, or
    ``cfg.epochs`` for a non-finite final loss.  With no epochs the loss is
    the untrained net's.
    """
    x, single = net._promote(inputs)
    if single or not len(x):
        raise ValueError("inputs must be a nonempty (samples, dim) array")
    if np.ndim(targets) == 0 or len(targets) != len(x):
        raise ValueError("inputs and targets disagree on sample count")
    t = net.targets(targets, len(x))
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        try:
            sgd_epoch(net, x, t, cfg, lr_at(cfg, epoch), rng)
        except FloatingPointError as exc:
            raise ValueError(f"training diverged at epoch {epoch + 1}: {exc}") from exc
    loss = net._loss(x, t, None)
    if not math.isfinite(loss):
        raise ValueError(f"training diverged at epoch {cfg.epochs}: loss={loss}")
    return net, loss


def numeric_gradient_check(model, x, target, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Works on anything exposing parameters() / loss_value() / loss_and_grads()
    over a scalar loss; intended for small nets only.
    """
    params = model.parameters()
    total = sum(p.size for p in params)
    if total >= 10_000:
        raise ValueError(f"gradient check is for small nets (< 1e4 params), got {total}")
    _, grads = model.loss_and_grads(x, target)
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            lp = model.loss_value(x, target)
            p[idx] = orig - step
            lm = model.loss_value(x, target)
            p[idx] = orig
            num = (lp - lm) / (2.0 * step)
            ana = float(g[idx])
            denom = max(abs(num), abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    return worst
