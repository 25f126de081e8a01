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

from .nncore import Mlp, Net, class_labels, softmax, softmax_ce_parts
from .trace import (ExitTopology, TraceSet, as_int, as_real, as_reals, atomic_write_text,
                    load_checkpoint, load_dataset, save_dataset)

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
        for name, bounds in (("num_samples", "[1, inf)"), ("num_classes", "[2, inf)"),
                             ("input_dim", "[1, inf)"), ("seed", "[0, inf)")):
            object.__setattr__(self, name, as_int(getattr(self, name), name, bounds))
        centers = as_reals(self.centers, "centers", rows=True)
        object.__setattr__(self, "centers", tuple(map(tuple, centers.tolist())))
        object.__setattr__(self, "spreads",
                           tuple(as_reals(self.spreads, "spreads", "[0, inf)").tolist()))
        object.__setattr__(self, "label_noise", as_real(self.label_noise, "label_noise", "[0, 1]"))
        if len(centers) != self.num_classes:
            raise ValueError("need one center per class")
        if centers.shape[1] != self.input_dim:
            raise ValueError("center dimension must equal input_dim")
        if len(self.spreads) != self.num_classes:
            raise ValueError(f"spreads must have one entry per class, got {len(self.spreads)}")

    @classmethod
    def ring(cls, num_samples: int, num_classes: int, input_dim: int,
             radius: float = 2.5, spread: float = 0.55, label_noise: float = 0.0,
             seed: int = 0) -> "SynthSpec":
        """Class centers evenly spaced on a circle in the first two dims."""
        input_dim = as_int(input_dim, "input_dim", "[2, inf)")
        radius = as_real(radius, "radius")
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
    centers, spreads = np.array(spec.centers), np.array(spec.spreads)
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
    weights = as_reals(weights, "exit weights", "[0, inf)")
    if weights.sum() <= 0:
        raise ValueError("exit weights must be >= 0 with positive sum")
    return tuple(weights.tolist())


class ToyEarlyExitNet(Net):
    """Shared dense trunk with one softmax head per exit.

    Trunk segment i feeds exit head i; the final head sits after the last
    trunk segment (the partition point).  They are one layer list over one
    buffer (``nncore.Net``): the trunk's layers, the heads', the final's.
    ``trunk``, ``heads`` and ``final`` are ``Mlp`` views of it, the
    checkpoint layout.  Per-exit loss weights live on the net.
    """

    def __init__(self, trunk: Sequence[Mlp], heads: Sequence[Mlp], final: Mlp,
                 weights: Sequence[float], seed: int = 0):
        parts = [*trunk, *heads, final]
        self.weights = check_exit_weights(weights)
        self.seed = as_int(seed, "seed", "[0, inf)")
        if not trunk or len(trunk) != len(heads):
            raise ValueError("need one head per trunk segment")
        if len(self.weights) != len(trunk) + 1:
            raise ValueError("need one loss weight per exit")
        for i, (seg, head) in enumerate(zip(trunk, heads)):
            if i > 0 and trunk[i - 1].out_dim != seg.in_dim:
                raise ValueError(f"trunk segment {i} does not chain")
            if head.in_dim != seg.out_dim:
                raise ValueError(f"head {i} does not match its trunk segment")
        if final.in_dim != trunk[-1].out_dim:
            raise ValueError("final head does not match the last trunk segment")
        if len({m.out_dim for m in parts[len(trunk):]}) != 1:
            raise ValueError("all exits must share the class count")
        if any(m.activations[-1] != "softmax" for m in parts[len(trunk):]):
            raise ValueError("every exit head must end in a softmax layer")
        sources: list[int] = []

        def place(part: Mlp, src: int) -> int:
            """Chain ``part``'s layers from entry ``src``; its output's entry."""
            sources.extend([src, *range(len(sources) + 1, len(sources) + len(part.shapes))])
            return len(sources)

        outs = [0]
        for seg in trunk:
            outs.append(place(seg, outs[-1]))
        # The entries of the exits' logits.
        self._exits = [place(m, src) for m, src in zip([*heads, final], [*outs[1:], outs[-1]])]
        params = np.concatenate([m.params for m in parts])
        self._lay_out([s for m in parts for s in m.shapes],
                      [a for m in parts for a in m.activations], sources, params,
                      np.zeros_like(params))
        ends = np.cumsum([0] + [m.params.size for m in parts])
        views = [m._over(self.params[a:b], self.grads[a:b])
                 for m, a, b in zip(parts, ends, ends[1:])]
        self.trunk, self.heads, self.final = views[:len(trunk)], views[len(trunk):-1], views[-1]

    @classmethod
    def build(cls, input_dim: int, num_classes: int, num_exits: int = 3,
              trunk_widths: Sequence[int] = (32, 32), final_hidden: int = 32,
              weights: Sequence[float] = (0.2, 0.3, 0.5), seed: int = 0) -> "ToyEarlyExitNet":
        if len(trunk_widths) != as_int(num_exits, "num_exits", "[2, inf)") - 1:
            raise ValueError("need one trunk width per early exit")
        seed = as_int(seed, "seed", "[0, inf)")
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

    def exit_probs(self, x) -> list[np.ndarray]:
        x2, single = self._promote(x)
        acts = self._forward(x2)
        return [softmax(acts[e][0] if single else acts[e]) for e in self._exits]

    def targets(self, labels, rows: int) -> np.ndarray:
        """Checked class labels; ``train`` checks them once per call."""
        return class_labels(labels, rows, self.num_classes)

    def _loss(self, x2: np.ndarray, labels: np.ndarray, grads) -> float:
        """The weighted sum of the exits' mean cross entropies; with
        ``grads``, its gradients are written there."""
        acts = self._forward(x2)
        d = [None] * len(acts)
        value = 0.0
        for w, e in zip(self.weights, self._exits):
            losses, dlogits = softmax_ce_parts(acts[e], labels, grads is not None)
            value += w * float(np.mean(losses))
            if grads is not None:
                dlogits *= w / len(labels)
                d[e] = dlogits
        if grads is not None:
            self._backward(acts, d, grads)
        return value

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
            [Mlp.from_dict(m, f"trunk[{i}].") for i, m in enumerate(d["trunk"])],
            [Mlp.from_dict(m, f"heads[{i}].") for i, m in enumerate(d["heads"])],
            Mlp.from_dict(d["final"], "final."),
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
    final_flip_prob = as_real(final_flip_prob, "final_flip_prob", "[0, 1]")
    seed = as_int(seed, "seed", "[0, inf)")
    x = as_reals(x, "x", rows=True)
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
