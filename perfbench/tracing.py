"""Span tracing around the package's entry points, applied from outside.

`Tracer.patch` replaces a module attribute with a wrapper that records one
span per call (name, start, end, parent) and restores the original when the
tracer is closed, so the package itself is not modified. Callers must reach
the wrapped functions through the patched module attribute at call time.

Spans are kept in memory; `summary` and the per-layer metrics are computed
from them after the traced pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from patched functions and explicit blocks.

    `overhead_s` accumulates the wrappers' own time outside the wrapped
    call: span bookkeeping and the clock reads themselves.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._patches: list = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    @contextmanager
    def block(self, name: str):
        """Record one span around the enclosed code."""
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name, annotate=None) -> None:
        """Wrap owner.attr; name is a string or a callable of the call's
        (args, kwargs) returning the span name. annotate(span, args, result)
        may copy cheap facts about the call into span.attrs."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                annotate(span, args, result)
            tracer.overhead_s += (span.start - t0) + (time.perf_counter() - span.end)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- queries ---------------------------------------------------------

    def named(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called name; with under, only those with an ancestor so named."""
        return [s for s in self.spans if s.name == name and (under is None or self.has_ancestor(s, under))]

    def has_ancestor(self, span: Span, name: str) -> bool:
        pid = span.parent
        while pid is not None:
            parent = self.spans[pid]
            if parent.name == name:
                return True
            pid = parent.parent
        return False

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time[s.id]
        return out

    def to_json(self) -> list:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]

