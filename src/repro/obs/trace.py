"""Lightweight span trees for per-request profiling.

A trace is opened with :func:`start_trace`; while it is active,
:func:`start_span` attaches timed child spans to the current position
in the tree.  The current span travels in a :mod:`contextvars` variable,
so it survives ``await`` boundaries; :func:`wrap` carries it into
thread-pool workers (``run_in_executor`` does not copy context by
itself).  Everything a trace times runs in this process.

When no trace is active — the overwhelmingly common case —
:func:`start_span` costs one context-variable read and yields a shared
no-op span.  Setting ``REPRO_OBS=0`` disables tracing entirely;
:func:`set_enabled` toggles it at runtime for overhead benchmarks.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from typing import Any, Callable, Iterator, Optional, TypeVar

_T = TypeVar("_T")

_enabled = os.environ.get("REPRO_OBS", "1").strip().lower() not in (
    "0", "false", "no", "off")

_current: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_span", default=None)


def enabled() -> bool:
    """True unless tracing was disabled via REPRO_OBS or set_enabled."""
    return _enabled


def set_enabled(on: bool) -> bool:
    """Toggle tracing at runtime; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "attributes", "children", "duration_ms",
                 "_start")

    def __init__(self, name: str,
                 attributes: Optional[dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.children: list[Span] = []
        self.duration_ms = 0.0
        self._start = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly tree rendering (profile payloads)."""
        return {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }


class _NullSpan:
    """No-op stand-in yielded when no trace is active."""

    __slots__ = ()

    name = ""
    duration_ms = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


def current_span() -> Optional[Span]:
    """The live span at this context position, or None."""
    if not _enabled:
        return None
    return _current.get()


@contextmanager
def start_trace(name: str, **attributes: Any,
                ) -> Iterator[Optional[Span]]:
    """Open a trace root; yields None when tracing is disabled."""
    if not _enabled:
        yield None
        return
    root = Span(name, attributes)
    token = _current.set(root)
    start = time.perf_counter()
    try:
        yield root
    finally:
        root.duration_ms = (time.perf_counter() - start) * 1000.0
        _current.reset(token)


@contextmanager
def start_span(name: str, **attributes: Any) -> Iterator[Any]:
    """Attach a timed child span to the active trace, if any.

    Outside a trace this yields a shared no-op span, so call sites
    never need to guard instrumentation with their own checks.
    """
    parent = _current.get() if _enabled else None
    if parent is None:
        yield NULL_SPAN
        return
    span = Span(name, attributes)
    token = _current.set(span)
    start = time.perf_counter()
    try:
        yield span
    finally:
        span.duration_ms = (time.perf_counter() - start) * 1000.0
        _current.reset(token)
        parent.children.append(span)


def wrap(fn: Callable[..., _T]) -> Callable[..., _T]:
    """Bind the caller's context (incl. active span) into ``fn``.

    Use when handing work to a thread pool: ``executor.submit`` /
    ``run_in_executor`` run the callable in the worker's own context,
    which would silently drop the trace.
    """
    ctx = copy_context()

    def runner(*args: Any, **kwargs: Any) -> _T:
        return ctx.run(fn, *args, **kwargs)

    return runner


def render_span_tree(tree: dict[str, Any]) -> str:
    """Pretty-print an ``as_dict`` span tree for terminal output."""
    lines: list[str] = []

    def walk(node: dict[str, Any], depth: int) -> None:
        attrs = " ".join(f"{key}={value}" for key, value
                         in sorted(node.get("attributes", {}).items()))
        pad = "  " * depth
        line = f"{pad}- {node['name']}  {node['duration_ms']:.3f} ms"
        if attrs:
            line += f"  [{attrs}]"
        lines.append(line)
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(tree, 0)
    return "\n".join(lines)
