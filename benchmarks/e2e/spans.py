"""Benchmark-side spans around the calls into each layer.

The system under test has its own tracer (``repro.obs``); this one lives
in the benchmark so the per-layer table does not depend on it: a span is
recorded around each public call the adapter makes, kept in memory, and
written out when the run ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[str] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span tree; a disabled tracer records nothing.

    Spans nest by call order on one thread (the traced run is
    sequential), so the open-span stack is the parent chain.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None,
             **attrs: Any) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(span_id=len(self.spans) + 1, name=name,
                    start=time.perf_counter(),
                    parent=parent.span_id if parent else None,
                    request=request if request is not None
                    else (parent.request if parent else None),
                    attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(
            {"spans": [asdict(span) for span in self.spans]}, indent=1))


def child_coverage(parent: Span, children: list[Span]) -> float:
    """Seconds of ``parent``'s interval covered by the union of children."""
    covered = 0.0
    cursor = parent.start
    for child in sorted(children, key=lambda span: span.start):
        start = max(child.start, cursor)
        end = min(child.end, parent.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus child coverage."""
    children: dict[Optional[int], list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return {span.span_id:
            span.duration - child_coverage(span,
                                           children.get(span.span_id, []))
            for span in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, in seconds."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def root_time(spans: list[Span]) -> float:
    """Total duration of the root spans (those without a parent)."""
    return sum(span.duration for span in spans if span.parent is None)


def durations(spans: list[Span], name: str, **attrs: Any) -> list[float]:
    """Durations of the spans called ``name`` (with these attributes)."""
    return [span.duration for span in spans if span.name == name and
            all(span.attrs.get(key) == value
                for key, value in attrs.items())]
