"""Minimal dense network core: batched forward/backward, losses, plain SGD.

Big enough for a toy multi-exit classifier, a fully-connected skip
predictor, and two-layer threshold regressors; deliberately nothing more.
Training is single-threaded and bit-reproducible for a fixed seed.
``train`` is the one epoch loop.  It also trains an ``MlpStack``: K
same-shaped nets in lockstep, their parameters stacked on a leading net
axis, each net with its own seed and shuffle and with the same bits as
when trained alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trace import as_int, atomic_write_text, load_checkpoint

ACTIVATIONS = ("relu", "sigmoid", "softmax", "identity")

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


def _apply_act(z: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return relu(z)
    if act == "sigmoid":
        return sigmoid(z)
    if act == "softmax":
        return softmax(z)
    if act == "identity":
        return z
    raise ValueError(f"unknown activation {act!r}")


def _act_backward(da: np.ndarray, z: np.ndarray, a: np.ndarray, act: str) -> np.ndarray:
    if act == "relu":
        return da * (z > 0)
    if act == "sigmoid":
        return da * a * (1.0 - a)
    if act == "softmax":
        return a * (da - (da * a).sum(axis=-1, keepdims=True))
    if act == "identity":
        return da
    raise ValueError(f"unknown activation {act!r}")


# Layer math shared by one net and a stack: x is (rows, d) for one net, or
# (K, rows, d) for K nets whose parameters lead with the net axis (biases
# (K, 1, fan_out)); np.matmul runs the same per-net product either way.


def _forward_full(weights, biases, activations, x: np.ndarray):
    acts = [x]
    pres = []
    a = x
    for w, b, act in zip(weights, biases, activations):
        z = a @ w + b
        a = _apply_act(z, act)
        pres.append(z)
        acts.append(a)
    return pres, acts


def _backward(weights, activations, pres, acts, dout=None, dlogits=None):
    """Backprop from either d(output activation) or d(last pre-activation).

    Returns (d_input, grads) with grads aligned to parameters().
    """
    n_layers = len(weights)
    if (dout is None) == (dlogits is None):
        raise ValueError("provide exactly one of dout, dlogits")
    if dlogits is not None:
        dz = dlogits
    else:
        dz = _act_backward(dout, pres[-1], acts[-1], activations[-1])
    grads: list[np.ndarray | None] = [None] * (2 * n_layers)
    for i in range(n_layers - 1, -1, -1):
        grads[2 * i] = np.swapaxes(acts[i], -1, -2) @ dz
        grads[2 * i + 1] = dz.sum(axis=-2, keepdims=dz.ndim == 3)
        da = dz @ np.swapaxes(weights[i], -1, -2)
        if i > 0:
            dz = _act_backward(da, pres[i - 1], acts[i - 1], activations[i - 1])
    return da, grads


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
        a = x2
        for w, b, act in zip(self.weights, self.biases, self.activations):
            a = _apply_act(a @ w + b, act)
        return a[0] if single else a

    def _forward_full(self, x2: np.ndarray):
        return _forward_full(self.weights, self.biases, self.activations, x2)

    def _backward(self, pres, acts, dout=None, dlogits=None):
        return _backward(self.weights, self.activations, pres, acts, dout, dlogits)

    # -- losses on this net ------------------------------------------------

    def _loss_parts(self, x, target, loss: str, want_grads: bool):
        x2, _ = self._promote(x)
        pres, acts = self._forward_full(x2)
        out = acts[-1]
        if loss == "bce":
            y = np.asarray(target, dtype=np.float64).reshape(out.shape)
            value = bce_loss(out, y)
            if not want_grads:
                return value, None
            dout = bce_grad(out, y)
            _, grads = self._backward(pres, acts, dout=dout)
            return value, grads
        if loss == "softmax_ce":
            if self.activations[-1] not in ("softmax", "identity"):
                raise ValueError("softmax_ce expects a softmax or identity head")
            labels = np.asarray(target, dtype=np.int64).reshape(x2.shape[0])
            logits = pres[-1]
            losses, dlogits = softmax_ce_parts(logits, labels)
            value = float(np.mean(losses))
            if not want_grads:
                return value, None
            _, grads = self._backward(pres, acts, dlogits=dlogits / len(labels))
            return value, grads
        if loss == "mse":
            y = np.asarray(target, dtype=np.float64).reshape(out.shape)
            diff = out - y
            value = float(np.mean(diff * diff))
            if not want_grads:
                return value, None
            dout = 2.0 * diff / diff.size
            _, grads = self._backward(pres, acts, dout=dout)
            return value, grads
        raise ValueError(f"unknown loss tag {loss!r} for Mlp")

    def loss_value(self, x, target, loss: str) -> float:
        return self._loss_parts(x, target, loss, want_grads=False)[0]

    def loss_and_grads(self, x, target, loss: str):
        return self._loss_parts(x, target, loss, want_grads=True)

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

    def save(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, json.dumps({"kind": "mlp", **self.to_dict()}) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Mlp":
        return load_checkpoint(path, "mlp", cls.from_dict)


class MlpStack:
    """K same-shaped Mlps trained in lockstep under "mse".

    Every parameter gains a leading net axis.  Inputs and targets are K
    row blocks of equal length, net-major: net k owns rows k*n .. (k+1)*n - 1.
    Each net's loss and gradient are those it has alone, so ``train`` (which
    shuffles each block with the net's own seed) leaves every member with
    the bits that training it by itself gives.
    """

    def __init__(self, nets: Sequence[Mlp]):
        if not nets:
            raise ValueError("a stack needs at least one net")
        shapes = [w.shape for w in nets[0].weights]
        for net in nets:
            if net.activations != nets[0].activations or [w.shape for w in net.weights] != shapes:
                raise ValueError("stacked nets must share layer sizes and activations")
        self.activations = nets[0].activations
        self.seeds = tuple(net.seed for net in nets)
        self.weights = [np.stack(ws) for ws in zip(*(net.weights for net in nets))]
        self.biases = [np.stack(bs)[:, None, :] for bs in zip(*(net.biases for net in nets))]

    def nets(self) -> list[Mlp]:
        """The members as separate Mlps, copied out of the stack."""
        return [Mlp([w[k] for w in self.weights], [b[k, 0] for b in self.biases],
                    self.activations, seed=seed) for k, seed in enumerate(self.seeds)]

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def _loss_parts(self, x, target, loss: str, want_grads: bool):
        """Per-net MSE, shape (K,), and each net's gradient at its own scale."""
        if loss != "mse":
            raise ValueError(f"unknown loss tag {loss!r} for MlpStack")
        x3 = np.asarray(x, dtype=np.float64).reshape(len(self.seeds), -1, self.weights[0].shape[1])
        pres, acts = _forward_full(self.weights, self.biases, self.activations, x3)
        diff = acts[-1] - np.asarray(target, dtype=np.float64).reshape(acts[-1].shape)
        value = np.mean(diff * diff, axis=(1, 2))
        if not want_grads:
            return value, None
        _, grads = _backward(self.weights, self.activations, pres, acts,
                             dout=2.0 * diff / diff[0].size)
        return value, grads

    def loss_value(self, x, target, loss: str) -> np.ndarray:
        return self._loss_parts(x, target, loss, want_grads=False)[0]

    def loss_and_grads(self, x, target, loss: str):
        return self._loss_parts(x, target, loss, want_grads=True)


# -- loss functions ---------------------------------------------------------


def bce_loss(scores, targets) -> float:
    """Binary cross entropy, averaged over all elements, clamped logs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if s.shape != y.shape:
        raise ValueError(f"scores shape {s.shape} != targets shape {y.shape}")
    sc = np.clip(s, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(np.mean(-(y * np.log(sc) + (1.0 - y) * np.log(1.0 - sc))))


def bce_grad(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(bce_loss)/d(scores); zero where the clamp is active."""
    sc = np.clip(scores, BCE_CLAMP, 1.0 - BCE_CLAMP)
    grad = (sc - targets) / (sc * (1.0 - sc)) / scores.size
    inside = (scores > BCE_CLAMP) & (scores < 1.0 - BCE_CLAMP)
    return np.where(inside, grad, 0.0)


def softmax_ce_parts(logits: np.ndarray, labels: np.ndarray):
    """Per-row cross entropy of softmax(logits) and its gradient in logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.arange(logits.shape[0])
    losses = _logsumexp(logits) - logits[rows, labels]
    dlogits = softmax(logits)
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


def weighted_ce_loss(per_exit_logits: Sequence, label: int, weights: Sequence[float]) -> float:
    """Sum over exits of weight * crossentropy(softmax(logits), onehot(label))."""
    if len(per_exit_logits) != len(weights):
        raise ValueError(
            f"{len(per_exit_logits)} exit outputs but {len(weights)} weights"
        )
    label = int(label)
    total = 0.0
    for z, w in zip(per_exit_logits, weights):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 1:
            raise ValueError("per-exit logits must be vectors")
        if not (0 <= label < z.shape[0]):
            raise ValueError(f"label {label} outside logit width {z.shape[0]}")
        total += w * float(_logsumexp(z[None, :])[0] - z[label])
    return total


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
            object.__setattr__(self, name, _as_real(getattr(self, name), name))
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


def _as_real(value, field: str) -> float:
    """A finite real field's value; NaN, an infinity, a bool or a non-number
    raises ValueError naming ``field``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the double range
            pass
    raise ValueError(f"{field} must be a finite real number, got {value!r}")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch index."""
    if epoch >= cfg.lr_end_epoch:
        return cfg.lr_end
    span = cfg.lr - cfg.lr_end
    return cfg.lr_end + 0.5 * span * (1.0 + math.cos(math.pi * epoch / cfg.lr_end_epoch))


def sgd_epoch(model, inputs, targets, loss: str, cfg: TrainConfig, lr: float,
              rngs: Sequence[np.random.Generator]) -> None:
    """One shuffled pass of minibatch SGD over the dataset, in place.

    ``rngs`` holds one generator per net: one for a single net, K for an
    MlpStack whose rows are K blocks of n.  Each net shuffles its own block
    with its own generator, and a minibatch is the next ``batch_size`` rows
    of every block, net-major.
    """
    n = inputs.shape[0] // len(rngs)
    perm = np.stack([rng.permutation(n) + k * n for k, rng in enumerate(rngs)])
    for start in range(0, n, cfg.batch_size):
        idx = perm[:, start:start + cfg.batch_size].reshape(-1)
        batch_loss, grads = model.loss_and_grads(inputs[idx], targets[idx], loss)
        if not np.isfinite(batch_loss).all():
            raise ValueError("non-finite minibatch loss")
        for p, g in zip(model.parameters(), grads):
            p -= lr * (g + cfg.weight_decay * p)


def train(net, inputs, targets, loss: str = "bce", cfg: TrainConfig = TrainConfig()):
    """Train the net in place; returns it plus the post-epoch full-set loss curve.

    The one epoch loop: ``net`` is anything exposing parameters() /
    loss_value() / loss_and_grads(), an Mlp under "bce", "softmax_ce" or
    "mse", or a ToyEarlyExitNet under "weighted_ce".  A single net shuffles
    with a generator seeded ``cfg.seed``.  An MlpStack of K nets under "mse"
    takes its members' row blocks stacked net-major; member k shuffles with
    a generator seeded by its own ``Mlp.seed``, and each curve entry holds
    the K members' losses.  A member that diverges stops the whole stack.
    """
    x = np.asarray(inputs, dtype=np.float64)
    t = np.asarray(targets)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("inputs must be a nonempty (samples, dim) array")
    if t.shape[0] != x.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    seeds = net.seeds if isinstance(net, MlpStack) else (cfg.seed,)
    if x.shape[0] % len(seeds):
        raise ValueError(f"{x.shape[0]} rows do not split into {len(seeds)} equal blocks")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    curve: list = []
    for epoch in range(cfg.epochs):
        try:
            sgd_epoch(net, x, t, loss, cfg, lr_at(cfg, epoch), rngs)
            full = net.loss_value(x, t, loss)
        except ValueError as exc:
            raise ValueError(f"training diverged at epoch {epoch + 1}: {exc}") from exc
        if not np.isfinite(full).all():
            raise ValueError(f"training diverged at epoch {epoch + 1}: loss={full}")
        curve.append(full)
    return net, curve


def numeric_gradient_check(model, x, target, loss: str, step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Works on anything exposing parameters() / loss_value() / loss_and_grads()
    over a scalar loss; intended for small nets only.
    """
    params = model.parameters()
    total = sum(p.size for p in params)
    if total >= 10_000:
        raise ValueError(f"gradient check is for small nets (< 1e4 params), got {total}")
    _, grads = model.loss_and_grads(x, target, loss)
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + step
            lp = model.loss_value(x, target, loss)
            p[idx] = orig - step
            lm = model.loss_value(x, target, loss)
            p[idx] = orig
            num = (lp - lm) / (2.0 * step)
            ana = float(g[idx])
            denom = max(abs(num), abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    return worst
