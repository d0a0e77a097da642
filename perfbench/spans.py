"""In-memory span and counter recording for the benchmark's traced runs.

A span has a name, a start and end time and the index of its parent span.
Spans nest on one thread, so the children of a span never overlap and its
self time is its duration minus the sum of its direct children's durations.
Counts are attached to the innermost open span, so a count can be summed
over the whole run or over the subtree of one task.

Tracing is installed from outside the library: ``Tracer.installed`` swaps
module and class attributes for recording wrappers and restores the
originals on exit, so untraced passes run the library's own functions.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index into the owning Tracer.spans
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (children follow parents)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


def self_time_by_name(spans: list[Span], indices=None) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for i in range(len(spans)) if indices is None else indices:
        out[spans[i].name] = out.get(spans[i].name, 0.0) + own[i]
    return out


def count_totals(spans: list[Span], indices=None) -> dict[str, int]:
    out: dict[str, int] = {}
    for i in range(len(spans)) if indices is None else indices:
        for key, n in spans[i].counts.items():
            out[key] = out.get(key, 0) + n
    return out


@dataclass(frozen=True)
class SpanTarget:
    """Attribute ``owner.attr`` recorded as span ``name``.

    ``observe(result, tracer)`` may add counts read from the returned value.
    """

    owner: object
    attr: str
    name: str
    observe: Callable | None = None


@dataclass(frozen=True)
class CountTarget:
    """Attribute ``owner.attr`` whose calls are counted by ``on_call``.

    ``on_call(result, tracer)`` runs after each call with its return value.
    """

    owner: object
    attr: str
    on_call: Callable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent))
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx].end = self._clock()

    def count(self, key: str, n: int = 1) -> None:
        if not self._stack:
            raise RuntimeError(f"count {key!r} recorded outside any span")
        counts = self.spans[self._stack[-1]].counts
        counts[key] = counts.get(key, 0) + int(n)

    def _span_wrapper(self, fn, target: SpanTarget):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(target.name):
                result = fn(*args, **kwargs)
                if target.observe is not None:
                    target.observe(result, self)
            return result

        return wrapper

    def _count_wrapper(self, fn, target: CountTarget):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            target.on_call(result, self)
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Replace each target attribute by a recording wrapper while inside."""
        saved = []
        try:
            for target in targets:
                orig = target.owner.__dict__[target.attr]
                saved.append((target.owner, target.attr, orig))
                if isinstance(target, SpanTarget):
                    wrapper = self._span_wrapper(orig, target)
                else:
                    wrapper = self._count_wrapper(orig, target)
                setattr(target.owner, target.attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
