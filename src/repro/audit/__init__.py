"""System auditing substrate.

Provides the system entity/event model (Tables I-III of the paper), the
syscall-to-event mapping, an auditd-style log format with parser, a synthetic
collector that replays scripted activities, a benign background workload
generator, and the data reduction pass from Section III-B.
"""

from .collector import AuditCollector, CollectorConfig
from .entities import (DEFAULT_ATTRIBUTES, EntityType, EventCategory,
                       FileEntity, NetworkEntity, Operation, ProcessEntity,
                       SystemEntity, SystemEvent, default_attribute_for,
                       iter_unique_entities, make_entity)
from .logfmt import format_log, format_record, parse_record
from .parser import AuditLogParser, ParseReport, parse_audit_log, \
    summarize_events
from .reduction import (DEFAULT_MERGE_THRESHOLD, ReductionStats, mergeable,
                        reduce_events, sweep_thresholds)
from .syscalls import SYSCALL_TABLE, is_monitored, lookup_syscall, syscall_for
from .workload import (BenignWorkloadGenerator, WorkloadConfig,
                       generate_benign_noise)

__all__ = [
    "AuditCollector",
    "CollectorConfig",
    "DEFAULT_ATTRIBUTES",
    "EntityType",
    "EventCategory",
    "FileEntity",
    "NetworkEntity",
    "Operation",
    "ProcessEntity",
    "SystemEntity",
    "SystemEvent",
    "default_attribute_for",
    "iter_unique_entities",
    "make_entity",
    "format_log",
    "format_record",
    "parse_record",
    "AuditLogParser",
    "ParseReport",
    "parse_audit_log",
    "summarize_events",
    "DEFAULT_MERGE_THRESHOLD",
    "ReductionStats",
    "mergeable",
    "reduce_events",
    "sweep_thresholds",
    "SYSCALL_TABLE",
    "is_monitored",
    "lookup_syscall",
    "syscall_for",
    "BenignWorkloadGenerator",
    "WorkloadConfig",
    "generate_benign_noise",
]
