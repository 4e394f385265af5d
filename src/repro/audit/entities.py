"""System entity and system event model.

This module mirrors Tables I-III of the ThreatRaptor paper.  System entities
are files, processes, and network connections; system events are interactions
``<subject_entity, operation, object_entity>`` where the subject is always a
process and the object is a file, process, or network connection.

Entities carry the representative attributes listed in Table II and events the
attributes listed in Table III.  Unique identity follows Section III-A:

* process  -> (executable name, pid)
* file     -> absolute path
* network  -> (src ip, src port, dst ip, dst port, protocol)
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Union


class EntityType(enum.Enum):
    """The three kinds of system entities considered by ThreatRaptor."""

    FILE = "file"
    PROCESS = "proc"
    NETWORK = "ip"

    @classmethod
    def from_string(cls, value: str) -> "EntityType":
        normalized = value.strip().lower()
        aliases = {
            "file": cls.FILE,
            "f": cls.FILE,
            "proc": cls.PROCESS,
            "process": cls.PROCESS,
            "p": cls.PROCESS,
            "ip": cls.NETWORK,
            "network": cls.NETWORK,
            "netconn": cls.NETWORK,
            "connection": cls.NETWORK,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown entity type: {value!r}")
        return aliases[normalized]


class EventCategory(enum.Enum):
    """Event categories, keyed by the type of the object entity."""

    FILE_EVENT = "file_event"
    PROCESS_EVENT = "process_event"
    NETWORK_EVENT = "network_event"


class Operation(enum.Enum):
    """Operation types of system events (Table III)."""

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"
    START = "start"
    END = "end"
    RENAME = "rename"
    DELETE = "delete"
    CONNECT = "connect"
    ACCEPT = "accept"
    SEND = "send"
    RECEIVE = "receive"
    OPEN = "open"
    CHMOD = "chmod"
    FORK = "fork"

    @classmethod
    def from_string(cls, value: str) -> "Operation":
        normalized = value.strip().lower()
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown operation: {value!r}")


#: Operations whose object entity is expected to be a network connection.
NETWORK_OPERATIONS = frozenset({
    Operation.CONNECT, Operation.ACCEPT, Operation.SEND, Operation.RECEIVE,
})

#: Operations whose object entity is expected to be a process.
PROCESS_OPERATIONS = frozenset({
    Operation.START, Operation.END, Operation.FORK,
})


_ENTITY_ID_COUNTER = itertools.count(1)
_EVENT_ID_COUNTER = itertools.count(1)


def _next_entity_id() -> int:
    return next(_ENTITY_ID_COUNTER)


def _next_event_id() -> int:
    return next(_EVENT_ID_COUNTER)


@dataclass(frozen=True)
class FileEntity:
    """A file system entity (Table II)."""

    path: str
    name: str = ""
    user: str = "root"
    group: str = "root"
    entity_id: int = field(default_factory=_next_entity_id)

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", self.path)

    @property
    def entity_type(self) -> EntityType:
        return EntityType.FILE

    @cached_property
    def unique_key(self) -> tuple:
        # cached_property: the key is recomputed per event during reduction
        # keying and store loading; entities are frozen, so caching is safe
        # (functools stores the value straight into __dict__, bypassing the
        # frozen __setattr__).
        return (EntityType.FILE, self.path)

    def attributes(self) -> dict:
        """Return the attribute dictionary used by the storage backends."""
        return {
            "type": self.entity_type.value,
            "name": self.name,
            "path": self.path,
            "user": self.user,
            "group": self.group,
        }

    @property
    def default_attribute(self) -> str:
        return "name"


@dataclass(frozen=True)
class ProcessEntity:
    """A process entity (Table II)."""

    exename: str
    pid: int
    user: str = "root"
    group: str = "root"
    cmdline: str = ""
    entity_id: int = field(default_factory=_next_entity_id)

    @property
    def entity_type(self) -> EntityType:
        return EntityType.PROCESS

    @cached_property
    def unique_key(self) -> tuple:
        return (EntityType.PROCESS, self.exename, self.pid)

    def attributes(self) -> dict:
        return {
            "type": self.entity_type.value,
            "exename": self.exename,
            "pid": self.pid,
            "user": self.user,
            "group": self.group,
            "cmdline": self.cmdline or self.exename,
        }

    @property
    def default_attribute(self) -> str:
        return "exename"


@dataclass(frozen=True)
class NetworkEntity:
    """A network connection entity identified by its 5-tuple (Table II)."""

    srcip: str
    srcport: int
    dstip: str
    dstport: int
    protocol: str = "tcp"
    entity_id: int = field(default_factory=_next_entity_id)

    @property
    def entity_type(self) -> EntityType:
        return EntityType.NETWORK

    @cached_property
    def unique_key(self) -> tuple:
        return (EntityType.NETWORK, self.srcip, self.srcport, self.dstip,
                self.dstport, self.protocol)

    def attributes(self) -> dict:
        return {
            "type": self.entity_type.value,
            "srcip": self.srcip,
            "srcport": self.srcport,
            "dstip": self.dstip,
            "dstport": self.dstport,
            "protocol": self.protocol,
        }

    @property
    def default_attribute(self) -> str:
        return "dstip"


SystemEntity = Union[FileEntity, ProcessEntity, NetworkEntity]


#: Default attribute per entity type, used by TBQL syntactic sugar.
DEFAULT_ATTRIBUTES = {
    EntityType.FILE: "name",
    EntityType.PROCESS: "exename",
    EntityType.NETWORK: "dstip",
}


@dataclass(frozen=True)
class SystemEvent:
    """A system event ``<subject, operation, object>`` (Table III).

    Times are floating point seconds (UNIX epoch style).  ``data_amount``
    accumulates bytes transferred when events are merged by data reduction.
    """

    subject: ProcessEntity
    operation: Operation
    obj: SystemEntity
    start_time: float
    end_time: float
    data_amount: int = 0
    failure_code: int = 0
    host: str = "host-0"
    event_id: int = field(default_factory=_next_event_id)

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError(
                f"event end_time {self.end_time} precedes start_time "
                f"{self.start_time}")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def category(self) -> EventCategory:
        if isinstance(self.obj, FileEntity):
            return EventCategory.FILE_EVENT
        if isinstance(self.obj, ProcessEntity):
            return EventCategory.PROCESS_EVENT
        return EventCategory.NETWORK_EVENT

    def attributes(self) -> dict:
        """Return the attribute dictionary used by the storage backends.

        The dictionary is computed once per event and cached (events are
        frozen, so the attributes never change); callers must treat the
        returned dictionary as read-only and copy it before mutating.
        """
        cached = self.__dict__.get("_attributes")
        if cached is None:
            cached = {
                "operation": self.operation.value,
                "start_time": self.start_time,
                "end_time": self.end_time,
                "duration": self.duration,
                "data_amount": self.data_amount,
                "failure_code": self.failure_code,
                "host": self.host,
                "category": self.category.value,
            }
            self.__dict__["_attributes"] = cached
        return cached

    def merged_with(self, later: "SystemEvent") -> "SystemEvent":
        """Return the reduction merge of this event with a later event.

        The attributes follow Section III-B: start time from the earlier
        event, end time from the later event, data amounts summed.
        """
        return self.with_merged_span(later.end_time,
                                     self.data_amount + later.data_amount)

    def with_merged_span(self, end_time: float,
                         data_amount: int) -> "SystemEvent":
        """Copy of this event with a widened span and summed data amount.

        The reduction hot path: built by copying the instance state directly
        (skipping the dataclass constructor, whose field-by-field rebuild
        dominates merge cost) — valid because every field but the two
        overrides is shared and ``end_time`` only ever grows, so the
        ``__post_init__`` ordering check cannot fail.
        """
        merged = object.__new__(SystemEvent)
        state = dict(self.__dict__)
        state.pop("_attributes", None)  # cached attrs describe the old span
        state["end_time"] = end_time
        state["data_amount"] = data_amount
        merged.__dict__.update(state)
        return merged


def entity_matches_type(entity: SystemEntity, entity_type: EntityType) -> bool:
    """Return whether ``entity`` has the requested :class:`EntityType`."""
    return entity.entity_type is entity_type


def iter_unique_entities(events: list[SystemEvent]) -> Iterator[SystemEntity]:
    """Yield each distinct entity referenced by ``events`` exactly once.

    Distinctness follows the per-type unique keys from Section III-A.
    """
    seen: set[tuple] = set()
    for event in events:
        for entity in (event.subject, event.obj):
            key = entity.unique_key
            if key not in seen:
                seen.add(key)
                yield entity


def make_entity(entity_type: EntityType, **kwargs) -> SystemEntity:
    """Construct an entity of the given type from keyword attributes."""
    if entity_type is EntityType.FILE:
        return FileEntity(**kwargs)
    if entity_type is EntityType.PROCESS:
        return ProcessEntity(**kwargs)
    if entity_type is EntityType.NETWORK:
        return NetworkEntity(**kwargs)
    raise ValueError(f"unsupported entity type: {entity_type}")


def default_attribute_for(entity_type: EntityType) -> str:
    """Return the TBQL default attribute name for ``entity_type``."""
    return DEFAULT_ATTRIBUTES[entity_type]


def reset_id_counters() -> None:
    """Reset the global id counters (intended for tests and benchmarks)."""
    global _ENTITY_ID_COUNTER, _EVENT_ID_COUNTER
    _ENTITY_ID_COUNTER = itertools.count(1)
    _EVENT_ID_COUNTER = itertools.count(1)


__all__ = [
    "EntityType",
    "EventCategory",
    "Operation",
    "NETWORK_OPERATIONS",
    "PROCESS_OPERATIONS",
    "FileEntity",
    "ProcessEntity",
    "NetworkEntity",
    "SystemEntity",
    "SystemEvent",
    "DEFAULT_ATTRIBUTES",
    "entity_matches_type",
    "iter_unique_entities",
    "make_entity",
    "default_attribute_for",
    "reset_id_counters",
]
