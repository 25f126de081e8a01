"""Toy multi-exit classifier on synthetic blobs, and trace emission.

The classifier is a small dense trunk with one softmax head per exit, the
desk-scale stand-in that makes the whole pipeline runnable end to end.  The
FLOP costs attached to emitted traces are configuration, not measurements
of the toy net itself.  A dataset file is line-delimited like a trace
file, so ``save_dataset`` and ``load_dataset`` live in ``trace`` (and are
imported here, beside the generator).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nncore import Mlp, class_labels, softmax_ce_parts
from .trace import (ExitTopology, TraceSet, atomic_write_text, load_checkpoint, load_dataset,
                    save_dataset)

# Emitted confidences stay strictly below 1 so 9-digit storage cannot round
# them onto the open bound.
_CONF_CEIL = 1.0 - 1e-9


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian-blob dataset description, fully determined by its seed."""

    num_samples: int
    num_classes: int
    input_dim: int
    centers: tuple[tuple[float, ...], ...]
    spreads: tuple[float, ...]
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "centers", tuple(tuple(float(v) for v in c) for c in self.centers)
        )
        object.__setattr__(self, "spreads", tuple(float(v) for v in self.spreads))
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if len(self.centers) != self.num_classes:
            raise ValueError("need one center per class")
        if any(len(c) != self.input_dim for c in self.centers):
            raise ValueError("center dimension must equal input_dim")
        if len(self.spreads) != self.num_classes:
            raise ValueError(f"spreads must have one entry per class, got {len(self.spreads)}")
        if any(s < 0 for s in self.spreads):
            raise ValueError("spreads must be >= 0")
        if not (0.0 <= self.label_noise <= 1.0):
            raise ValueError("label_noise must lie in [0, 1]")

    @classmethod
    def ring(cls, num_samples: int, num_classes: int, input_dim: int,
             radius: float = 2.5, spread: float = 0.55, label_noise: float = 0.0,
             seed: int = 0) -> "SynthSpec":
        """Class centers evenly spaced on a circle in the first two dims."""
        if input_dim < 2:
            raise ValueError("ring layout needs input_dim >= 2")
        centers = []
        for k in range(num_classes):
            ang = 2.0 * math.pi * k / num_classes
            c = [radius * math.cos(ang), radius * math.sin(ang)] + [0.0] * (input_dim - 2)
            centers.append(tuple(c))
        return cls(
            num_samples=num_samples,
            num_classes=num_classes,
            input_dim=input_dim,
            centers=tuple(centers),
            spreads=(spread,) * num_classes,
            label_noise=label_noise,
            seed=seed,
        )


def generate_dataset(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sample (features, labels) from the blob spec, deterministically.

    Class priors are uniform up to rounding: samples are allocated to
    classes as evenly as possible before shuffling.  Label noise replaces a
    label with a uniformly random other class while keeping the features,
    so the flipped samples are irreducibly hard.
    """
    n, p, d = spec.num_samples, spec.num_classes, spec.input_dim
    counts = [n // p + (1 if k < n % p else 0) for k in range(p)]
    labels = np.repeat(np.arange(p, dtype=np.int64), counts)
    rng_order = np.random.default_rng([spec.seed, 0])
    rng_sample = np.random.default_rng([spec.seed, 1])
    rng_noise = np.random.default_rng([spec.seed, 2])
    y = labels[rng_order.permutation(n)]
    centers = np.asarray(spec.centers, dtype=np.float64)
    spreads = np.asarray(spec.spreads, dtype=np.float64)
    x = centers[y] + rng_sample.standard_normal((n, d)) * spreads[y][:, None]
    if spec.label_noise > 0.0:
        flip = rng_noise.random(n) < spec.label_noise
        offsets = rng_noise.integers(1, p, size=n)
        y = np.where(flip, (y + offsets) % p, y)
    return x, y


def check_exit_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """The one loss-weight check: each weight >= 0, with a positive sum.

    Weight 0 is allowed so individual exits can be switched off.
    """
    weights = tuple(float(w) for w in weights)
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("exit weights must be >= 0 with positive sum")
    return weights


class ToyEarlyExitNet:
    """Shared dense trunk with one softmax head per exit.

    Trunk segment i feeds exit head i; the final head sits after the last
    trunk segment (the partition point).  Per-exit loss weights live on the
    net so training and gradient checks agree on them.
    """

    def __init__(self, trunk: Sequence[Mlp], heads: Sequence[Mlp], final: Mlp,
                 weights: Sequence[float], seed: int = 0):
        self.trunk = list(trunk)
        self.heads = list(heads)
        self.final = final
        self.weights = check_exit_weights(weights)
        self.seed = int(seed)
        if not self.trunk or len(self.trunk) != len(self.heads):
            raise ValueError("need one head per trunk segment")
        if len(self.weights) != len(self.trunk) + 1:
            raise ValueError("need one loss weight per exit")
        for i, (seg, head) in enumerate(zip(self.trunk, self.heads)):
            if i > 0 and self.trunk[i - 1].out_dim != seg.in_dim:
                raise ValueError(f"trunk segment {i} does not chain")
            if head.in_dim != seg.out_dim:
                raise ValueError(f"head {i} does not match its trunk segment")
        if self.final.in_dim != self.trunk[-1].out_dim:
            raise ValueError("final head does not match the last trunk segment")
        out_dims = {h.out_dim for h in self.heads} | {self.final.out_dim}
        if len(out_dims) != 1:
            raise ValueError("all exits must share the class count")

    @classmethod
    def build(cls, input_dim: int, num_classes: int, num_exits: int = 3,
              trunk_widths: Sequence[int] = (32, 32), final_hidden: int = 32,
              weights: Sequence[float] = (0.2, 0.3, 0.5), seed: int = 0) -> "ToyEarlyExitNet":
        if num_exits < 2:
            raise ValueError("num_exits must be >= 2")
        if len(trunk_widths) != num_exits - 1:
            raise ValueError("need one trunk width per early exit")
        trunk, heads = [], []
        prev = input_dim
        for i, width in enumerate(trunk_widths):
            trunk.append(Mlp.init([prev, width], ["relu"], seed=seed * 100 + 2 * i))
            heads.append(Mlp.init([width, num_classes], ["softmax"], seed=seed * 100 + 2 * i + 1))
            prev = width
        final = Mlp.init([prev, final_hidden, num_classes], ["relu", "softmax"],
                         seed=seed * 100 + 99)
        return cls(trunk, heads, final, weights, seed=seed)

    @property
    def num_exits(self) -> int:
        return len(self.trunk) + 1

    @property
    def num_classes(self) -> int:
        return self.final.out_dim

    def parameters(self) -> list[np.ndarray]:
        out = []
        for seg in self.trunk:
            out.extend(seg.parameters())
        for head in self.heads:
            out.extend(head.parameters())
        out.extend(self.final.parameters())
        return out

    def exit_probs(self, x) -> list[np.ndarray]:
        a = np.asarray(x, dtype=np.float64)
        outs = []
        for seg, head in zip(self.trunk, self.heads):
            a = seg.forward(a)
            outs.append(head.forward(a))
        outs.append(self.final.forward(a))
        return outs

    def _joint_parts(self, x, labels, want_grads: bool):
        """The weighted sum of the exits' mean cross entropies and, with
        ``want_grads``, its gradients aligned to parameters() (else None).

        Each exit's softmax and log-sum-exp come from one pass over its
        logits; the value path stops at the logits and keeps no caches.
        """
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        labels = class_labels(labels, x2.shape[0], self.num_classes)
        if not want_grads:
            value, a = 0.0, x2
            for w, seg, head in zip(self.weights, self.trunk, self.heads):
                a = seg.forward(a)
                value += w * float(np.mean(softmax_ce_parts(head._logits(a), labels)[0]))
            final = softmax_ce_parts(self.final._logits(a), labels)[0]
            return value + self.weights[-1] * float(np.mean(final)), None

        trunk_caches = []
        a = x2
        for seg in self.trunk:
            pres, acts = seg._forward_full(a)
            trunk_caches.append((pres, acts))
            a = acts[-1]
        value = 0.0
        exit_dx, exit_grads = [], []
        exit_inputs = [acts[-1] for _, acts in trunk_caches] + [a]
        for w, head, inp in zip(self.weights, [*self.heads, self.final], exit_inputs):
            pres, acts = head._forward_full(inp, last=False)
            losses, dlogits = softmax_ce_parts(pres[-1], labels, want_grad=True)
            value += w * float(np.mean(losses))
            dlogits *= w / len(labels)
            dx, grads = head._backward(pres, acts, dlogits=dlogits)
            exit_dx.append(dx)
            exit_grads.extend(grads)
        trunk_grads: list[np.ndarray] = []
        da = exit_dx[-1] + exit_dx[-2]
        for i in range(len(self.trunk) - 1, -1, -1):
            dx, grads = self.trunk[i]._backward(*trunk_caches[i], dout=da)
            trunk_grads[:0] = grads
            if i > 0:
                da = dx + exit_dx[i - 1]
        return value, trunk_grads + exit_grads

    def loss_value(self, x, labels) -> float:
        return self._joint_parts(x, labels, want_grads=False)[0]

    def loss_and_grads(self, x, labels):
        return self._joint_parts(x, labels, want_grads=True)

    def to_dict(self) -> dict:
        return {
            "kind": "toy_early_exit",
            "weights": list(self.weights),
            "seed": self.seed,
            "trunk": [m.to_dict() for m in self.trunk],
            "heads": [m.to_dict() for m in self.heads],
            "final": self.final.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToyEarlyExitNet":
        return cls(
            [Mlp.from_dict(m) for m in d["trunk"]],
            [Mlp.from_dict(m) for m in d["heads"]],
            Mlp.from_dict(d["final"]),
            d["weights"],
            seed=d.get("seed", 0),
        )

    def save(self, path: str | os.PathLike) -> None:
        atomic_write_text(path, json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike, doc: dict | None = None) -> "ToyEarlyExitNet":
        """The checkpoint at ``path`` (``doc``: as for ``load_checkpoint``)."""
        return load_checkpoint(path, "toy_early_exit", cls.from_dict, doc)


def emit_traces(net: ToyEarlyExitNet, x, y, topology: ExitTopology,
                final_flip_prob: float = 0.0, seed: int = 0) -> TraceSet:
    """Run every sample through all exits and record confidences/argmaxes.

    ``final_flip_prob`` flips that fraction of final-exit predictions to a
    random wrong class (the compression accuracy penalty); earlier exits are
    untouched.
    """
    if not 0.0 <= final_flip_prob <= 1.0:  # written so that NaN fails too
        raise ValueError(f"final_flip_prob must lie in [0, 1], got {final_flip_prob!r}")
    x = np.asarray(x, dtype=np.float64)
    if net.num_exits != topology.num_exits:
        raise ValueError(
            f"net has {net.num_exits} exits but topology expects {topology.num_exits}"
        )
    if net.num_classes != topology.num_classes:
        raise ValueError(
            f"net has {net.num_classes} classes but topology expects {topology.num_classes}"
        )
    probs = net.exit_probs(x)
    conf = np.stack([p.max(axis=1) for p in probs], axis=1)
    conf = np.minimum(conf, _CONF_CEIL)
    pred = np.stack([p.argmax(axis=1) for p in probs], axis=1)
    if final_flip_prob > 0.0:
        p = topology.num_classes
        rng = np.random.default_rng([seed, 3])
        flip = rng.random(x.shape[0]) < final_flip_prob
        offsets = rng.integers(1, p, size=x.shape[0])
        pred[:, -1] = np.where(flip, (pred[:, -1] + offsets) % p, pred[:, -1])
    return TraceSet.from_columns(topology, np.arange(x.shape[0]), y, conf, pred, x)
