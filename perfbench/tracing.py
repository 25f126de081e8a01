"""In-memory span recorder that wraps a package's functions from outside.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in a list until the caller
writes them out.  A span's self time is its duration minus the part of it
that its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterable

# hook(tracer, args, kwargs, result) runs after the call; result is None if it raised.
CountHook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []
        self.paused = False
        # "module.attr" of each target that ``installed`` could not find.
        self.missing: list[str] = []

    def reset(self) -> None:
        self.spans, self.counts, self.keys = [], {}, {}

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    @contextmanager
    def pause(self):
        """Calls made inside the block leave no span and no count."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn: Callable, hook: CountHook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result)
        return traced


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def by_name(spans: list[list]) -> dict[str, list[float]]:
    """Self time of every span, grouped by span name in call order."""
    grouped: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        grouped.setdefault(span[0], []).append(own)
    return grouped


@contextmanager
def installed(tracer: Tracer, package: str,
              targets: Iterable[tuple[str, str, CountHook | None]]):
    """Wrap ``package.<module>.<attr>`` for each target while the block runs.

    A function is replaced in every module of the package that binds it, so
    calls through a ``from .x import f`` binding are traced too.  ``attr``
    may name a ``cached_property`` as ``Class.prop``; then only the first
    access per instance is a span.  A target the package no longer has is
    skipped and listed in ``tracer.missing``, so that a metric reading zero
    because its function is gone can be told from one whose work vanished.
    Everything is restored on exit.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo: list[tuple[object, str, object]] = []
    tracer.missing = []
    try:
        for module_name, attr, hook in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            span_name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, prop = attr.split(".")
                original = vars(getattr(module, cls_name, object)).get(prop)
                if not isinstance(original, cached_property):
                    tracer.missing.append(span_name)
                    continue
                cls = getattr(module, cls_name)
                patched = cached_property(tracer.wrap(span_name, original.func, hook))
                patched.__set_name__(cls, prop)
                undo.append((cls, prop, original))
                setattr(cls, prop, patched)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.append(span_name)
                continue
            traced = tracer.wrap(span_name, fn, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        undo.append((m, name, value))
                        setattr(m, name, traced)
        yield tracer
    finally:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
