"""Timing against a fixed calibration loop, for a host whose speed drifts.

The benchmark's host is shared.  Its neighbours change its speed by up to
a half, for seconds to minutes at a time, and a whole run can fall into a
slow spell.  So ``calibration``, a fixed mix of the program's kinds of work
(small-array numpy walks, trace-line JSON and small matrix products), runs
at the start and the end of every timed call and, while one is under way,
every ``TICK_S`` seconds on a timer signal.  Each piece of a call's time
between two calibrations is also kept in calibration units: its seconds
over the mean of the two calibration times.  The host's speed cancels out
of that ratio.

A timing in seconds is then calibration units times ``REFERENCE_CAL_S``,
the calibration loop's time on the 2-vCPU x86-64 host the baseline was taken
on when that host ran at full speed.  It reads as seconds on that host at
full speed.
"""

from __future__ import annotations

import json
import signal
import time
from typing import Callable

import numpy as np

import reference as ref

# Shortest time of ``calibration()`` seen on the baseline host (2 vCPU x86-64,
# Python 3.11, numpy 2.4); a constant, so it scales every run alike.
REFERENCE_CAL_S = 0.0134
# Longest piece of a timed call between two calibrations, short enough that
# the host's speed seldom changes within one; each tick costs one calibration.
TICK_S = 0.3


def _calibration_inputs():
    rng = np.random.default_rng(0)
    n, n_exits = 2000, 3
    conf = rng.random((n, n_exits))
    label = rng.integers(0, 10, n)
    pred = rng.integers(0, 10, (n, n_exits))
    costs = ref.Costs.from_header({
        "segment_flops": [1.97, 56.98], "exit_flops": [16.7, 14.23], "server_flops": 274.13,
        "predictor_flops": 0.4, "raw_feature_bits": 262144, "compression_ratio": 64.0})
    lines = [json.dumps({"id": i, "label": int(label[i]), "confidences": conf[i].tolist(),
                         "predicted": pred[i].tolist(), "features": rng.random(8).tolist()})
             for i in range(600)]
    x, w1, w2 = rng.normal(size=(256, 8)), rng.normal(size=(8, 16)), rng.normal(size=(16, 2))
    return conf, label, pred, costs, lines, x, w1, w2


_INPUTS = _calibration_inputs()


def calibration() -> None:
    """A fixed amount of work; only its duration matters.

    It runs in the middle of the program's calls, so it holds next to no
    memory at a time: each object it makes is freed before the next, and
    the program's peak memory stays its own.
    """
    conf, label, pred, costs, lines, x, w1, w2 = _INPUTS
    for lam in np.linspace(0.2, 0.95, 16):
        ref.aggregate(ref.walk(conf, (lam, lam), costs), pred, label, costs, False)
    for line in lines:
        json.dumps(json.loads(line))
    for _ in range(80):
        h = np.maximum(x @ w1, 0.0)
        out = 1.0 / (1.0 + np.exp(-(h @ w2)))
        grad = h.T @ (out - 0.5)
        w2 = w2 - 1e-6 * grad


class Stopwatch:
    """Per-phase times of one iteration, as seconds and as calibration units.

    A phase's figures are summed over its calls in the iteration.  A call
    timed inside another timed call is a phase of its own, so the enclosing
    phase keeps its self time.  Calibrations count for no phase.  With
    ``calibrated`` False nothing runs but the clock and the units read NaN;
    the traced run times that way so that no calibration lands inside a
    traced span.  A calibrated stopwatch owns the process's SIGALRM.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.phases: dict[str, list[float]] = {}
        self._running: list[str] = []   # phases of the timed calls under way
        self._start = time.perf_counter()
        self._cal = 0.0
        self._marking = False
        if calibrated:
            signal.signal(signal.SIGALRM, lambda *_: self._running and self._mark())

    def lap(self) -> dict[str, tuple[float, float]]:
        """The iteration's phases as {name: (seconds, units)}; starts a new one."""
        phases, self.phases = self.phases, {}
        return {name: (s, u) for name, (s, u) in phases.items()}

    def _mark(self) -> None:
        """Credit the time since the last mark to the innermost running phase."""
        if self._marking:  # a tick during a mark
            return
        self._marking = True
        try:
            seconds = time.perf_counter() - self._start
            cal = float("nan")
            if self.calibrated:
                start = time.perf_counter()
                calibration()
                cal = time.perf_counter() - start
            if self._running:
                entry = self.phases.setdefault(self._running[-1], [0.0, 0.0])
                entry[0] += seconds
                entry[1] += seconds / ((self._cal + cal) / 2)
            self._cal = cal
            self._start = time.perf_counter()
        finally:
            self._marking = False

    def time(self, phase: str, fn: Callable, *args, **kwargs):
        outermost = not self._running
        self._mark()
        self._running.append(phase)
        if outermost and self.calibrated:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            return fn(*args, **kwargs)
        finally:
            if outermost and self.calibrated:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self._mark()
            self._running.pop()


def reference_seconds(iterations: list[dict[str, tuple[float, float]]]) -> float:
    """Sum over phases of the median calibration units, in reference seconds.

    The median over iterations drops the calls that a change of host speed
    in mid-call left mis-scaled.
    """
    names = {name for it in iterations for name in it}
    return REFERENCE_CAL_S * sum(
        float(np.median([it[name][1] if name in it else 0.0 for it in iterations]))
        for name in names)
