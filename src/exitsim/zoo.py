"""Toy multi-exit classifier on synthetic blobs, and trace emission.

The classifier is a small dense trunk with one softmax head per exit, the
desk-scale stand-in that makes the whole pipeline runnable end to end.  The
FLOP costs attached to emitted traces are configuration, not measurements
of the toy net itself.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nncore import Mlp, softmax_ce_parts
from .trace import (
    ExitTopology,
    TraceFormatError,
    TraceSet,
    all_finite,
    as_int,
    atomic_write_text,
    json_line,
    load_checkpoint,
    read_jsonl,
)

# Emitted confidences stay strictly below 1 so 9-digit storage cannot round
# them onto the open bound.
_CONF_CEIL = 1.0 - 1e-9


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian-blob dataset description, fully determined by its seed.

    ``final_flip_prob`` is an accuracy-penalty knob applied to final-exit
    predictions at trace-emission time, modelling lossy feature compression.
    """

    num_samples: int
    num_classes: int
    input_dim: int
    centers: tuple[tuple[float, ...], ...]
    spreads: tuple[float, ...]
    label_noise: float = 0.0
    final_flip_prob: float = 0.0
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
            raise ValueError("need one spread per class")
        if any(s < 0 for s in self.spreads):
            raise ValueError("spreads must be >= 0")
        for name in ("label_noise", "final_flip_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")

    @classmethod
    def ring(cls, num_samples: int, num_classes: int, input_dim: int,
             radius: float = 2.5, spread: float = 0.55, label_noise: float = 0.0,
             final_flip_prob: float = 0.0, seed: int = 0) -> "SynthSpec":
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
            final_flip_prob=final_flip_prob,
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


def save_dataset(path: str | os.PathLike, x: np.ndarray, y: np.ndarray,
                 num_classes: int) -> None:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    header = {
        "kind": "dataset",
        "num_samples": int(x.shape[0]),
        "num_classes": int(num_classes),
        "input_dim": int(x.shape[1]),
    }
    lines = [json_line(header)]
    for i in range(x.shape[0]):
        lines.append(json_line({
            "id": i,
            "label": int(y[i]),
            "features": [float(v) for v in x[i]],
        }))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_dataset(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse a dataset file; returns (features, labels, num_classes).

    Raises TraceFormatError naming the path and line of the first bad line.
    """
    rows = read_jsonl(path)
    _, header = next(rows)
    if header.get("kind") != "dataset":
        raise TraceFormatError(f"{path}: line 1: not a dataset header")
    try:
        n, p, d = (as_int(header[k], k) for k in ("num_samples", "num_classes", "input_dim"))
    except KeyError as exc:
        raise TraceFormatError(f"{path}: line 1: header missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"{path}: line 1: {exc}") from exc
    xs, ys = [], []
    for lineno, rec in rows:
        try:
            label = as_int(rec["label"], "label")
            feats = rec["features"]
            if not isinstance(feats, list):
                raise TypeError("features must be a list of numbers")
            if len(feats) != d:
                raise ValueError(f"features length {len(feats)} != {d}")
            if not all_finite(feats):
                raise ValueError("features must be finite")
            if not 0 <= label < p:
                raise ValueError(f"label {label} outside [0, {p})")
        except KeyError as exc:
            raise TraceFormatError(f"{path}: line {lineno}: record missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(f"{path}: line {lineno}: {exc}") from exc
        xs.append(feats)
        ys.append(label)
    if n != len(xs):
        raise TraceFormatError(f"{path}: header claims {n} samples, file has {len(xs)}")
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.int64), p


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
        self.weights = tuple(float(w) for w in weights)
        self.seed = int(seed)
        if not self.trunk or len(self.trunk) != len(self.heads):
            raise ValueError("need one head per trunk segment")
        if len(self.weights) != len(self.trunk) + 1:
            raise ValueError("need one loss weight per exit")
        # Weight 0 is allowed so individual exits can be switched off.
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("exit weights must be >= 0 with positive sum")
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
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        labels = np.asarray(labels, dtype=np.int64).reshape(x2.shape[0])
        batch = x2.shape[0]
        w = self.weights
        trunk_caches = []
        a = x2
        for seg in self.trunk:
            pres, acts = seg._forward_full(a)
            trunk_caches.append((pres, acts))
            a = acts[-1]
        head_caches = []
        value = 0.0
        head_dlogits = []
        for i, head in enumerate(self.heads):
            inp = trunk_caches[i][1][-1]
            pres, acts = head._forward_full(inp)
            head_caches.append((pres, acts))
            losses, dlogits = softmax_ce_parts(pres[-1], labels)
            value += w[i] * float(np.mean(losses))
            head_dlogits.append(dlogits)
        fpres, facts = self.final._forward_full(a)
        flosses, fdlogits = softmax_ce_parts(fpres[-1], labels)
        value += w[-1] * float(np.mean(flosses))
        if not want_grads:
            return value, None

        head_grads = []
        head_dx = []
        for i, head in enumerate(self.heads):
            dlog = head_dlogits[i] * (w[i] / batch)
            dx, grads = head._backward(*head_caches[i], dlogits=dlog)
            head_grads.append(grads)
            head_dx.append(dx)
        final_dx, final_grads = self.final._backward(
            fpres, facts, dlogits=fdlogits * (w[-1] / batch)
        )
        trunk_grads: list[list[np.ndarray]] = [None] * len(self.trunk)
        da = final_dx + head_dx[-1]
        for i in range(len(self.trunk) - 1, -1, -1):
            dxi, grads = self.trunk[i]._backward(*trunk_caches[i], dout=da)
            trunk_grads[i] = grads
            if i > 0:
                da = dxi + head_dx[i - 1]
        all_grads: list[np.ndarray] = []
        for g in trunk_grads:
            all_grads.extend(g)
        for g in head_grads:
            all_grads.extend(g)
        all_grads.extend(final_grads)
        return value, all_grads

    def loss_value(self, x, labels, loss: str = "weighted_ce") -> float:
        if loss != "weighted_ce":
            raise ValueError(f"toy net only supports weighted_ce, got {loss!r}")
        return self._joint_parts(x, labels, want_grads=False)[0]

    def loss_and_grads(self, x, labels, loss: str = "weighted_ce"):
        if loss != "weighted_ce":
            raise ValueError(f"toy net only supports weighted_ce, got {loss!r}")
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
    def load(cls, path: str | os.PathLike) -> "ToyEarlyExitNet":
        return load_checkpoint(path, "toy_early_exit", cls.from_dict)


def emit_traces(net: ToyEarlyExitNet, x, y, topology: ExitTopology,
                final_flip_prob: float = 0.0, seed: int = 0,
                include_features: bool = True, id_start: int = 0) -> TraceSet:
    """Run every sample through all exits and record confidences/argmaxes.

    ``final_flip_prob`` flips that fraction of final-exit predictions to a
    random wrong class (the compression accuracy penalty); earlier exits are
    untouched.
    """
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
    ids = np.arange(id_start, id_start + x.shape[0])
    return TraceSet.from_columns(topology, ids, y, conf, pred,
                                 x if include_features else None)
