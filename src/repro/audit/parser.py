"""Audit log parsing: raw records -> ordered system event stream.

The parser consumes auditd-style record lines (see :mod:`repro.audit.logfmt`)
and produces the clean event stream the rest of the system operates on.  It is
deliberately tolerant of noise: blank lines and comment lines are ignored and
malformed records are counted but do not abort parsing, because real kernel
audit logs routinely interleave records the downstream analysis does not use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import AuditError
from ..gcpause import gc_paused
from ..obs.metrics import ingest_stage_histogram
from .entities import SystemEvent, iter_unique_entities
from .logfmt import RecordParser


@dataclass
class ParseReport:
    """Summary statistics produced while parsing an audit log."""

    total_lines: int = 0
    parsed_events: int = 0
    skipped_lines: int = 0
    malformed_lines: int = 0
    errors: list[str] = field(default_factory=list)
    #: Wall time from the first line to the last (a lazy consumer's own
    #: time between events included).
    seconds: float = 0.0
    #: Entity objects built, for ``2 * parsed_events`` references.
    entities_created: int = 0

    def record_error(self, line_number: int, message: str) -> None:
        self.malformed_lines += 1
        if len(self.errors) < 50:
            self.errors.append(f"line {line_number}: {message}")


class AuditLogParser:
    """Parses auditd-style logs into :class:`SystemEvent` sequences.

    Args:
        strict: when True, any malformed record raises :class:`AuditError`
            instead of being skipped.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.last_report = ParseReport()

    def iter_events(self, lines: Iterable[str]) -> Iterator[SystemEvent]:
        """Yield events parsed from an iterable of record lines.

        Entities are interned (:class:`RecordParser`) for this one call:
        a long-running tailer shares objects within a batch and holds
        nothing between batches.
        """
        report = ParseReport()
        self.last_report = report
        records = RecordParser()
        parse = records.parse
        started = time.perf_counter()
        try:
            for line in lines:
                report.total_lines += 1
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    report.skipped_lines += 1
                    continue
                try:
                    event = parse(stripped)
                except AuditError as exc:
                    if self.strict:
                        raise
                    report.record_error(report.total_lines, str(exc))
                    continue
                report.parsed_events += 1
                yield event
        finally:
            report.seconds = time.perf_counter() - started
            report.entities_created = records.entities_created

    @gc_paused()
    def parse_lines(self, lines: Iterable[str]) -> list[SystemEvent]:
        """Parse an iterable of record lines, sorted by start time."""
        events = list(self.iter_events(lines))
        events.sort(key=attrgetter("start_time", "event_id"))
        ingest_stage_histogram().labels("parse").observe(
            self.last_report.seconds)
        return events

    def parse_text(self, text: str) -> list[SystemEvent]:
        """Parse a log provided as a single string."""
        return self.parse_lines(text.splitlines())

    def parse_file(self, path: str | Path) -> list[SystemEvent]:
        """Parse a log file from disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.parse_lines(handle)


def parse_audit_log(text: str, strict: bool = False) -> list[SystemEvent]:
    """Convenience wrapper: parse log text into a sorted event list."""
    return AuditLogParser(strict=strict).parse_text(text)


def summarize_events(events: list[SystemEvent]) -> dict:
    """Return summary statistics of an event stream.

    The summary mirrors the scale numbers reported in Section IV (number of
    system entities and system events) plus per-category breakdowns.
    """
    entities = list(iter_unique_entities(events))
    by_category: dict[str, int] = {}
    for event in events:
        by_category[event.category.value] = (
            by_category.get(event.category.value, 0) + 1)
    return {
        "num_events": len(events),
        "num_entities": len(entities),
        "events_by_category": by_category,
        "time_span": (
            (min(e.start_time for e in events),
             max(e.end_time for e in events)) if events else (0.0, 0.0)),
    }


__all__ = [
    "ParseReport",
    "AuditLogParser",
    "parse_audit_log",
    "summarize_events",
]
