"""Thread-safe metrics registry with Prometheus text exposition.

The registry understands three instrument kinds — monotonically
increasing counters, settable gauges, and fixed-bucket histograms — each
optionally labelled.  Registration is idempotent: fetching an existing
family with the same kind, help text and label names returns the same
object, so instrumented code can look its handles up lazily at event
time without holding module-level state.

Rendering follows the Prometheus text format, version 0.0.4: one
``# HELP`` / ``# TYPE`` pair per family, cumulative ``_bucket`` series
with an explicit ``+Inf`` bound plus ``_sum`` / ``_count`` for
histograms, and backslash escaping for label values.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Iterator, Sequence, Union

#: Content type for `GET /metrics` responses.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds), tuned for millisecond-scale
#: queries up to multi-second hunts.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (value.replace("\\", "\\\\")
            .replace("\"", "\\\"")
            .replace("\n", "\\n"))


def escape_help(value: str) -> str:
    """Escape a HELP string (backslash and newline only)."""
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A single (possibly labelled) monotonically increasing series."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A single (possibly labelled) settable series."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A single fixed-bucket histogram series."""

    __slots__ = ("_lock", "_buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock,
                 buckets: tuple[float, ...]) -> None:
        self._lock = lock
        self._buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._buckets, value)
        with self._lock:
            self._sum += value
            self._count += 1
            if index < len(self._counts):
                self._counts[index] += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count


Child = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """A named metric with HELP/TYPE metadata and labelled children."""

    def __init__(self, name: str, help_text: str, kind: str,
                 label_names: tuple[str, ...],
                 buckets: tuple[float, ...],
                 lock: threading.Lock) -> None:
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.label_names = label_names
        self.buckets = buckets
        self._lock = lock
        self._children: dict[tuple[str, ...], Child] = {}

    def _make_child(self) -> Child:
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets)

    def labels(self, *values: str) -> Child:
        """Return the child series for the given label values."""
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects "
                f"{len(self.label_names)} label value(s), got {len(key)}")
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    # Unlabelled convenience pass-throughs -------------------------------
    def _solo(self) -> Child:
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled; use .labels(...)")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        child = self._solo()
        if isinstance(child, Histogram):
            raise TypeError("histograms use observe()")
        child.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        child = self._solo()
        if not isinstance(child, Gauge):
            raise TypeError("only gauges can decrease")
        child.dec(amount)

    def set(self, value: float) -> None:
        child = self._solo()
        if not isinstance(child, Gauge):
            raise TypeError("only gauges can be set")
        child.set(value)

    def observe(self, value: float) -> None:
        child = self._solo()
        if not isinstance(child, Histogram):
            raise TypeError("only histograms can observe()")
        child.observe(value)

    # Rendering ----------------------------------------------------------
    def _label_text(self, values: tuple[str, ...],
                    extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = [f'{name}="{escape_label_value(value)}"'
                 for name, value in zip(self.label_names, values)]
        pairs.extend(f'{name}="{escape_label_value(value)}"'
                     for name, value in extra)
        if not pairs:
            return ""
        return "{" + ",".join(pairs) + "}"

    def render(self) -> Iterator[str]:
        yield f"# HELP {self.name} {escape_help(self.help_text)}"
        yield f"# TYPE {self.name} {self.kind}"
        with self._lock:
            children = sorted(self._children.items())
        for values, child in children:
            if isinstance(child, Histogram):
                counts, total, count = child.snapshot()
                cumulative = 0
                for bound, bucket in zip(self.buckets, counts):
                    cumulative += bucket
                    labels = self._label_text(
                        values, (("le", format_value(bound)),))
                    yield (f"{self.name}_bucket{labels} "
                           f"{cumulative}")
                labels = self._label_text(values, (("le", "+Inf"),))
                yield f"{self.name}_bucket{labels} {count}"
                labels = self._label_text(values)
                yield f"{self.name}_sum{labels} {format_value(total)}"
                yield f"{self.name}_count{labels} {count}"
            else:
                labels = self._label_text(values)
                yield (f"{self.name}{labels} "
                       f"{format_value(child.value)}")


class MetricsRegistry:
    """Process-wide home for metric families; safe across threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name: str, help_text: str, kind: str,
                  labels: Sequence[str],
                  buckets: tuple[float, ...]) -> MetricFamily:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_NAME.match(label) or label == "le":
                raise ValueError(f"invalid label name: {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (family.kind != kind
                        or family.label_names != label_names):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels "
                        f"{family.label_names}")
                return family
            family = MetricFamily(name, help_text, kind, label_names,
                                  buckets, threading.Lock())
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labels: Sequence[str] = ()) -> MetricFamily:
        """Get or create a counter family."""
        return self._register(name, help_text, "counter", labels, ())

    def gauge(self, name: str, help_text: str,
              labels: Sequence[str] = ()) -> MetricFamily:
        """Get or create a gauge family."""
        return self._register(name, help_text, "gauge", labels, ())

    def histogram(self, name: str, help_text: str,
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  ) -> MetricFamily:
        """Get or create a fixed-bucket histogram family."""
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b >= c for b, c
                             in zip(bounds, bounds[1:])):
            raise ValueError(
                "histogram buckets must be strictly increasing")
        return self._register(name, help_text, "histogram", labels,
                              bounds)

    def render(self) -> str:
        """Render every family as Prometheus text exposition."""
        with self._lock:
            families = sorted(self._families.values(),
                              key=lambda family: family.name)
        lines: list[str] = []
        for family in families:
            lines.extend(family.render())
        return "\n".join(lines) + "\n" if lines else ""


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """Return the process-wide default registry."""
    return _default_registry


def ingest_stage_histogram() -> MetricFamily:
    """The per-stage histogram parses, loads, appends and seals record into."""
    return get_registry().histogram(
        "repro_ingest_stage_seconds",
        "Per-stage ingest durations (parse; reduce, build, relational, "
        "graph; seal_columnar, seal_stats when a segment seals), in "
        "seconds.", labels=("stage",))


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one (tests)."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
