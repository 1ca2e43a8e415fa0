"""In-memory spans recorded around calls into the program's modules.

A span is opened by wrapping a module attribute, so the wrapper sees the
call exactly where the caller looks the name up. Spans nest through a
stack (the benchmark is single-threaded); each records its parent and
the item it belongs to. Counters are computed from the call's arguments
and result only after the item has ended, so computing them costs no
span any time.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

ROOT = "bench.item"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    item: int = -1
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one stack, so children never overlap and never leave
    their parent: the self times of an item's spans sum to its root span.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


class Tracer:
    """Records spans; ``patched`` installs wrappers for one traced item."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pending: list[tuple[Span, Callable, tuple, dict, object]] = []
        self._item = -1

    def _open(self, name: str) -> Span:
        span = Span(name=name, start=0.0,
                    parent=self._stack[-1] if self._stack else -1,
                    item=self._item)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def item(self, index: int):
        """Root span of one item; resolves deferred counters on exit."""
        self._item = index
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)
            self._item = -1
            for target, count, args, kwargs, result in self._pending:
                target.counts = count(args, kwargs, result)
            self._pending.clear()

    def wrap(self, name: str, fn: Callable,
             count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                self._pending.append((span, count, args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Replace ``(module, attr, span_name, count)`` targets, then restore."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def item_spans(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.item == index]
