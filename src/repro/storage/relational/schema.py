"""Relational schema for system entities and events.

ThreatRaptor stores entities and events in separate tables (Section III-B)
with indexes on the key attributes used by threat hunting filters (file name,
process executable name, source/destination IP, operation type, and the
subject/object foreign keys used by joins).

The reproduction uses SQLite as the relational engine standing in for
PostgreSQL; the schema and the compiled SQL are engine-agnostic.
"""

from __future__ import annotations

#: DDL for the entity table.  One row per unique system entity; attribute
#: columns that do not apply to a given entity type are NULL.
ENTITY_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS entities (
    id          INTEGER PRIMARY KEY,
    type        TEXT NOT NULL,
    name        TEXT,
    path        TEXT,
    exename     TEXT,
    pid         INTEGER,
    user        TEXT,
    grp         TEXT,
    cmdline     TEXT,
    srcip       TEXT,
    srcport     INTEGER,
    dstip       TEXT,
    dstport     INTEGER,
    protocol    TEXT
)
"""

#: DDL for the event table.  One row per (possibly reduced) system event.
EVENT_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS events (
    id           INTEGER PRIMARY KEY,
    subject_id   INTEGER NOT NULL REFERENCES entities(id),
    object_id    INTEGER NOT NULL REFERENCES entities(id),
    operation    TEXT NOT NULL,
    category     TEXT NOT NULL,
    start_time   REAL NOT NULL,
    end_time     REAL NOT NULL,
    duration     REAL NOT NULL,
    data_amount  INTEGER NOT NULL DEFAULT 0,
    failure_code INTEGER NOT NULL DEFAULT 0,
    host         TEXT NOT NULL DEFAULT 'host-0'
)
"""

#: Indexes on key attributes (Section III-B): file name, process executable
#: name, source/destination IP, plus the join/filter columns on events.
INDEX_DDL = [
    "CREATE INDEX IF NOT EXISTS idx_entities_type ON entities(type)",
    "CREATE INDEX IF NOT EXISTS idx_entities_name ON entities(name)",
    "CREATE INDEX IF NOT EXISTS idx_entities_exename ON entities(exename)",
    "CREATE INDEX IF NOT EXISTS idx_entities_dstip ON entities(dstip)",
    "CREATE INDEX IF NOT EXISTS idx_entities_srcip ON entities(srcip)",
    "CREATE INDEX IF NOT EXISTS idx_events_operation ON events(operation)",
    "CREATE INDEX IF NOT EXISTS idx_events_subject ON events(subject_id)",
    "CREATE INDEX IF NOT EXISTS idx_events_object ON events(object_id)",
    "CREATE INDEX IF NOT EXISTS idx_events_start ON events(start_time)",
]

#: Names of the indexes in :data:`INDEX_DDL` (so ``append_rows`` can drop
#: and rebuild them around a batch into the empty ``events`` table).
INDEX_NAMES = [ddl.split(" ON ")[0].rsplit(" ", 1)[-1] for ddl in INDEX_DDL]

#: Columns accepted by the entity table, in insertion order.
ENTITY_COLUMNS = [
    "id", "type", "name", "path", "exename", "pid", "user", "grp",
    "cmdline", "srcip", "srcport", "dstip", "dstport", "protocol",
]

#: Columns accepted by the event table, in insertion order.
EVENT_COLUMNS = [
    "id", "subject_id", "object_id", "operation", "category", "start_time",
    "end_time", "duration", "data_amount", "failure_code", "host",
]

#: Attributes a TBQL query may reference per entity type, mapped to the
#: relational column that stores them.  ``group`` is renamed because GROUP is
#: an SQL keyword.
ENTITY_ATTRIBUTE_COLUMNS = {
    "name": "name",
    "path": "path",
    "exename": "exename",
    "pid": "pid",
    "user": "user",
    "group": "grp",
    "cmdline": "cmdline",
    "srcip": "srcip",
    "srcport": "srcport",
    "dstip": "dstip",
    "dstport": "dstport",
    "protocol": "protocol",
    "type": "type",
}

#: Event-level attributes a TBQL query may reference.
EVENT_ATTRIBUTE_COLUMNS = {
    "operation": "operation",
    "start_time": "start_time",
    "end_time": "end_time",
    "duration": "duration",
    "data_amount": "data_amount",
    "failure_code": "failure_code",
    "host": "host",
    "category": "category",
}


def all_ddl() -> list[str]:
    """Return every DDL statement needed to create the schema."""
    return [ENTITY_TABLE_DDL, EVENT_TABLE_DDL, *INDEX_DDL]


__all__ = [
    "ENTITY_TABLE_DDL",
    "EVENT_TABLE_DDL",
    "INDEX_DDL",
    "INDEX_NAMES",
    "ENTITY_COLUMNS",
    "EVENT_COLUMNS",
    "ENTITY_ATTRIBUTE_COLUMNS",
    "EVENT_ATTRIBUTE_COLUMNS",
    "all_ddl",
]
