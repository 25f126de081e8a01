"""Minimal dense network core: batched forward/backward, two losses, plain SGD.

Two nets train, each under its own loss.  An ``Mlp`` (the skip predictor:
relu hidden layers, a sigmoid head) trains under binary cross entropy.
``zoo.ToyEarlyExitNet`` trains under the weighted softmax cross entropy of
its exits, from ``softmax_ce_parts``; its softmax heads are ``Mlp`` layers
that backprop from their logits.  Training is single-threaded and
bit-reproducible for a fixed seed.  ``train`` is the one epoch loop.

Each loss piece is computed once per step.  A softmax-CE head takes its
softmax and log-sum-exp from one max, exp and sum, and its gradient from
that softmax; BCE clamps once for its value and its gradient.  The value
path (``loss_value``, the post-epoch full-set loss) keeps no caches,
builds no gradients, and stops a softmax-CE head at its logits.  Every
value and gradient has the bits of the straightforward form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trace import as_int, as_real

ACTIVATIONS = ("relu", "sigmoid", "softmax")

# Scores are clamped before the BCE logs; saturated sigmoids would
# otherwise produce infinities.
BCE_CLAMP = 1e-7


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


def _softmax_lse(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(z)`` and ``_logsumexp(z)`` from one max, exp and sum.

    Both functions run exactly these operations on the same inputs, so the
    pair has the bits each returns alone.
    """
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, (m + np.log(s))[..., 0]


def _apply_act(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return relu(z)
    if act == "sigmoid":
        return sigmoid(z)
    if act == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation {act!r}")


def _act_backward(da: np.ndarray, z: np.ndarray, a: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return da * (z > 0)
    if act == "sigmoid":
        return da * a * (1.0 - a)
    # A softmax layer is only ever a head, and a head backprops from its logits.
    raise ValueError(f"no backward through a {act!r} layer")


class Mlp:
    """Fully-connected net with per-layer activation tags.

    Weight matrices are (fan_in, fan_out); forward accepts a single vector
    or a batch of rows and returns the matching shape.
    """

    def __init__(self, weights, biases, activations, seed: int = 0):
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        self.biases = [np.array(b, dtype=np.float64) for b in biases]
        self.activations = tuple(activations)
        self.seed = int(seed)
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("weights, biases and activations must align")
        if not self.weights:
            raise ValueError("net needs at least one layer")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if act not in ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes inconsistent")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: dimension does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")

    @classmethod
    def init(cls, sizes: Sequence[int], activations: Sequence[str], seed: int = 0) -> "Mlp":
        """Seeded init: all parameters uniform in +-sqrt(6/(fan_in+fan_out)).

        Biases share the uniform scheme; an exactly-zero bias would park
        relu units on their kink whenever the previous layer goes dead.
        """
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ValueError("need len(sizes) >= 2 and one activation per layer")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-limit, limit, size=fan_out))
        return cls(weights, biases, activations, seed=seed)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def _promote(self, x) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        x2 = x[None, :] if single else x
        if x2.ndim != 2 or x2.shape[1] != self.in_dim:
            raise ValueError(f"input dimension {x.shape} incompatible with {self.in_dim}")
        return x2, single

    def forward(self, x) -> np.ndarray:
        x2, single = self._promote(x)
        a = self._output(x2)
        return a[0] if single else a

    def _logits(self, x2: np.ndarray) -> np.ndarray:
        """The last layer's pre-activation, keeping nothing for backprop."""
        a = x2
        for w, b, act in zip(self.weights[:-1], self.biases[:-1], self.activations[:-1]):
            a = _apply_act(a @ w + b, act)
        return a @ self.weights[-1] + self.biases[-1]

    def _output(self, x2: np.ndarray) -> np.ndarray:
        return _apply_act(self._logits(x2), self.activations[-1])

    def _forward_full(self, x2: np.ndarray, last: bool = True):
        """Every layer's pre-activation and input, for ``_backward``.

        ``acts`` ends with the net's output; with ``last=False`` it ends at the
        last layer's input, for a loss that starts backprop from the logits.
        """
        acts = [x2]
        pres = []
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            pres.append(acts[-1] @ w + b)
            if last or i < len(self.weights) - 1:
                acts.append(_apply_act(pres[-1], act))
        return pres, acts

    def _backward(self, pres, acts, dout=None, dlogits=None):
        """Backprop from either d(output activation) or d(last pre-activation).

        Returns (d_input, grads) with grads aligned to parameters().
        """
        if (dout is None) == (dlogits is None):
            raise ValueError("provide exactly one of dout, dlogits")
        if dlogits is not None:
            dz = dlogits
        else:
            dz = _act_backward(dout, pres[-1], acts[-1], self.activations[-1])
        grads: list[np.ndarray | None] = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            grads[2 * i] = acts[i].T @ dz
            grads[2 * i + 1] = dz.sum(axis=0)
            da = dz @ self.weights[i].T
            if i > 0:
                # acts[i] is layer i-1's output, which sigmoid reads.
                dz = _act_backward(da, pres[i - 1], acts[i], self.activations[i - 1])
        return da, grads

    # -- the BCE loss on this net --------------------------------------------

    def _loss_parts(self, x, target, want_grads: bool):
        """The BCE of the sigmoid head's output against ``target`` (reshaped
        to the output's shape) and, with ``want_grads``, its gradients
        (else None).  The value path keeps no caches.
        """
        if self.activations[-1] != "sigmoid":
            raise ValueError("BCE expects a sigmoid head")
        x2, _ = self._promote(x)
        if want_grads:
            pres, acts = self._forward_full(x2)
            out = acts[-1]
        else:
            out = self._output(x2)
        y = np.asarray(target, dtype=np.float64).reshape(out.shape)
        value, dout = bce_parts(out, y, want_grads)
        if not want_grads:
            return value, None
        _, grads = self._backward(pres, acts, dout=dout)
        return value, grads

    def loss_value(self, x, target) -> float:
        return self._loss_parts(x, target, want_grads=False)[0]

    def loss_and_grads(self, x, target):
        return self._loss_parts(x, target, want_grads=True)

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
    def from_dict(cls, d: dict) -> "Mlp":
        sizes = d["sizes"]
        weights = []
        biases = []
        for i, layer in enumerate(d["layers"]):
            w = np.array(layer["w"], dtype=np.float64).reshape(sizes[i], sizes[i + 1])
            weights.append(w)
            biases.append(np.array(layer["b"], dtype=np.float64))
        return cls(weights, biases, d["activations"], seed=d.get("seed", 0))


# -- loss functions ---------------------------------------------------------


def bce_parts(scores: np.ndarray, targets: np.ndarray, want_grad: bool):
    """Binary cross entropy of same-shaped arrays, averaged over all
    elements with clamped logs, and, with ``want_grad``, its gradient in the
    scores, zero where the clamp is active (else None).  The value and the
    gradient share one clamp."""
    sc = np.clip(scores, BCE_CLAMP, 1.0 - BCE_CLAMP)
    value = float(np.mean(-(targets * np.log(sc) + (1.0 - targets) * np.log(1.0 - sc))))
    if not want_grad:
        return value, None
    grad = (sc - targets) / (sc * (1.0 - sc)) / scores.size
    inside = (scores > BCE_CLAMP) & (scores < 1.0 - BCE_CLAMP)
    return value, np.where(inside, grad, 0.0)


def class_labels(labels, rows: int, classes: int) -> np.ndarray:
    """``labels`` as (rows,) int64 class indices.

    A label that is not an integer in [0, classes) raises ValueError naming
    ``labels``: indexing would read -1 as the last class, and a cast would
    truncate 1.7 to 1.
    """
    given = np.asarray(labels).reshape(rows)
    if given.dtype.kind in "iu":
        bad = (given < 0) | (given >= classes)
    elif given.dtype.kind == "f":
        # Written so that NaN fails too.
        bad = ~((given >= 0) & (given < classes) & (given == np.rint(given)))
    else:
        raise ValueError(f"labels must be integers, got dtype {given.dtype}")
    if bad.any():
        raise ValueError(f"labels must be integers in [0, {classes}), "
                         f"got {given[bad][0].item()!r}")
    return given.astype(np.int64, copy=False)


def softmax_ce_parts(logits: np.ndarray, labels: np.ndarray, want_grad: bool = False):
    """Per-row cross entropy of softmax(logits) against checked int64
    ``labels`` and, with ``want_grad``, its gradient in the logits (else None).

    The value alone needs only the log-sum-exp; the gradient takes the
    softmax and the log-sum-exp from one pass.
    """
    rows = np.arange(len(labels))
    picked = logits[rows, labels]
    if not want_grad:
        return _logsumexp(logits) - picked, None
    dlogits, lse = _softmax_lse(logits)
    dlogits[rows, labels] -= 1.0
    return lse - picked, dlogits


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
        for name in ("lr", "lr_end", "weight_decay"):
            object.__setattr__(self, name, as_real(getattr(self, name), name))
        for name in ("lr_end_epoch", "epochs", "batch_size", "seed"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("lr", "lr_end"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr_end_epoch < 1:
            raise ValueError("lr_end_epoch must be >= 1")
        if self.epochs and self.lr_end_epoch > self.epochs:
            raise ValueError("lr_end_epoch must not exceed epochs")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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

    ``rng`` shuffles the rows, and a minibatch is the next ``batch_size`` of
    them.  A non-finite minibatch loss raises FloatingPointError.
    """
    perm = rng.permutation(inputs.shape[0])
    for start in range(0, len(perm), cfg.batch_size):
        idx = perm[start:start + cfg.batch_size]
        batch_loss, grads = model.loss_and_grads(inputs[idx], targets[idx])
        if not np.isfinite(batch_loss):
            raise FloatingPointError("non-finite minibatch loss")
        for p, g in zip(model.parameters(), grads):
            # p -= lr * (g + wd * p), in place on the fresh gradient: the
            # same products and sums, and products commute exactly.
            g += cfg.weight_decay * p
            g *= lr
            p -= g


def train(net, inputs, targets, cfg: TrainConfig = TrainConfig()):
    """Train the net in place; returns it plus the post-epoch full-set loss curve.

    The one epoch loop: ``net`` is anything exposing parameters() /
    loss_value() / loss_and_grads() over its own loss, an Mlp under BCE or
    a ToyEarlyExitNet under its weighted softmax CE.  Rows are shuffled by
    one generator seeded ``cfg.seed``.  Only a non-finite loss reads
    ``training diverged at epoch N``.
    """
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("inputs must be a nonempty (samples, dim) array")
    if t.shape[0] != x.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    rng = np.random.default_rng(cfg.seed)
    # The loss at the starting parameters checks the head, the target shape
    # and every label before any parameter moves.
    net.loss_value(x, t)
    curve: list[float] = []
    for epoch in range(cfg.epochs):
        try:
            sgd_epoch(net, x, t, cfg, lr_at(cfg, epoch), rng)
        except FloatingPointError as exc:
            raise ValueError(f"training diverged at epoch {epoch + 1}: {exc}") from exc
        full = net.loss_value(x, t)
        if not np.isfinite(full):
            raise ValueError(f"training diverged at epoch {epoch + 1}: loss={full}")
        curve.append(full)
    return net, curve


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
