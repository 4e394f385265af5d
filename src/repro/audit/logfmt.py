"""Auditd-style textual log format.

The physical testbed in the paper runs Sysdig / Linux Audit and stores raw
kernel audit records.  This module defines the textual record format used by
our synthetic collector, which intentionally follows the ``key=value`` style
of auditd so the parser exercises a realistic parsing path (quoting, escaped
values, per-object-type attribute sets, malformed record handling).

A record looks like::

    type=SYSCALL ts=1523451123.201 te=1523451123.204 host=host-0 \
        syscall=read pid=4021 exe="/bin/tar" user=root group=root \
        cmdline="tar cf /tmp/upload.tar /etc/passwd" obj=file \
        path="/etc/passwd" name="passwd" bytes=4096 exit=0
"""

from __future__ import annotations

import re
import shlex
from math import inf

from ..errors import AuditError
from .entities import (EntityType, FileEntity, NetworkEntity, ProcessEntity,
                       SystemEntity, SystemEvent, _next_event_id)
from .syscalls import lookup_syscall, syscall_for

#: ``key=value`` with the value quoted (escapes allowed) or bare.  A bare
#: value that starts with ``"`` is a quote that never closed.
_KV_RE = re.compile(r'([^\s="]+)=(?:"((?:[^"\\]|\\.)*)"|(\S*))')


def _quote(value: object) -> str:
    text = str(value)
    if text == "" or re.search(r"\s", text) or '"' in text:
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return text


def format_record(event: SystemEvent) -> str:
    """Serialize one :class:`SystemEvent` into an auditd-style record line."""
    subject = event.subject
    fields: list[tuple[str, object]] = [
        ("type", "SYSCALL"),
        ("ts", f"{event.start_time:.6f}"),
        ("te", f"{event.end_time:.6f}"),
        ("host", event.host),
        ("syscall", syscall_for(event.operation, event.obj.entity_type)),
        ("pid", subject.pid),
        ("exe", subject.exename),
        ("user", subject.user),
        ("group", subject.group),
        ("cmdline", subject.cmdline or subject.exename),
        ("obj", event.obj.entity_type.value),
    ]
    obj = event.obj
    if isinstance(obj, FileEntity):
        fields += [("path", obj.path), ("name", obj.name),
                   ("obj_user", obj.user), ("obj_group", obj.group)]
    elif isinstance(obj, ProcessEntity):
        fields += [("obj_exe", obj.exename), ("obj_pid", obj.pid),
                   ("obj_user", obj.user), ("obj_group", obj.group),
                   ("obj_cmdline", obj.cmdline or obj.exename)]
    elif isinstance(obj, NetworkEntity):
        fields += [("srcip", obj.srcip), ("srcport", obj.srcport),
                   ("dstip", obj.dstip), ("dstport", obj.dstport),
                   ("proto", obj.protocol)]
    fields += [("bytes", event.data_amount), ("exit", event.failure_code)]
    return " ".join(f"{key}={_quote(value)}" for key, value in fields)


def _split_unescaped(line: str) -> dict[str, str] | None:
    """Fields of a line that holds no backslash, or ``None``.

    Without an escape every ``"`` delimits, so ``split('"')`` leaves runs
    of ``key=value`` tokens at the even positions and the quoted values at
    the odd ones, each run before a quoted value ending in its ``key=``.
    ``None`` hands any other shape (a bare word, a stray or unterminated
    quote, an empty key) to :func:`_split_escaped`, which owns the verdict.
    """
    pieces = line.split('"')
    if not len(pieces) & 1:
        return None
    fields: dict[str, str] = {}
    try:
        for index in range(0, len(pieces) - 1, 2):
            run = pieces[index]
            tokens = run.split()
            fields.update([token.split("=", 1) for token in tokens])
            if not run.endswith("="):
                return None
            key = tokens[-1][:-1]
            if fields.get(key) != "":   # "a=b=" is no lone key before a quote
                return None
            fields[key] = pieces[index + 1]
        fields.update([token.split("=", 1)
                       for token in pieces[-1].split()])
    except ValueError:              # a token without "="
        return None
    return None if "" in fields else fields


def _split_escaped(line: str) -> dict[str, str]:
    """Fields of any line, by :data:`_KV_RE`: the reference tokenizer."""
    fields: dict[str, str] = {}
    for key, quoted, bare in _KV_RE.findall(line):
        if bare.startswith('"'):
            raise AuditError(f"unterminated quote in audit record: {line!r}")
        fields[key] = bare or \
            quoted.replace('\\"', '"').replace("\\\\", "\\")
    return fields


def parse_fields(line: str) -> dict[str, str]:
    """Parse one record line into a raw ``{key: value}`` dictionary.

    Later duplicates of a key win; words without ``=`` are ignored.

    Raises:
        AuditError: on an empty line, a line without any field, or a
            quoted value that is never closed.
    """
    line = line.strip()
    if not line:
        raise AuditError("empty audit record")
    fields = None if "\\" in line else _split_unescaped(line)
    if fields is None:
        fields = _split_escaped(line)
    if not fields:
        raise AuditError(f"unparseable audit record: {line!r}")
    return fields


class RecordParser:
    """Record lines to events, one entity object per distinct entity.

    Entities are interned by their full raw attribute tuple: a process or
    file that recurs across lines is one shared object, so ``int()`` and
    the dataclass constructor run on first sight only and the store
    builder recognises a repeat by identity.  Lines that agree on
    ``(exe, pid)`` but not on ``cmdline`` stay two objects (the store's
    first-seen-wins rule decides between them).  The tables live as long
    as the instance: scope one to a batch of lines, never to the process.
    """

    def __init__(self) -> None:
        self._processes: dict[tuple, ProcessEntity] = {}
        self._files: dict[tuple, FileEntity] = {}
        self._connections: dict[tuple, NetworkEntity] = {}

    @property
    def entities_created(self) -> int:
        """Entity objects built so far (one per distinct attribute tuple)."""
        return len(self._processes) + len(self._files) + \
            len(self._connections)

    def parse(self, line: str) -> SystemEvent:
        """Parse one record line; see :func:`parse_record`."""
        fields = parse_fields(line)
        get = fields.get
        if get("type", "SYSCALL") != "SYSCALL":
            raise AuditError(f"unsupported record type: {get('type')!r}")
        try:
            spec = lookup_syscall(fields["syscall"])
        except KeyError as exc:
            raise AuditError(
                f"unmonitored or missing syscall in record: {line!r}"
            ) from exc
        try:
            start_time = float(fields["ts"])
            end_time = float(get("te", start_time))
            if not 0.0 <= end_time - start_time < inf:
                raise ValueError("non-finite or reversed time span")
            key = (fields["exe"], fields["pid"], get("user", "root"),
                   get("group", "root"), get("cmdline", ""))
            subject = self._processes.get(key)
            if subject is None:
                subject = self._processes[key] = ProcessEntity(
                    key[0], int(key[1]), *key[2:])
            # The span is checked above, so skip the dataclass constructor
            # (as SystemEvent.with_merged_span does).
            event = object.__new__(SystemEvent)
            event.__dict__.update(
                subject=subject, operation=spec.operation,
                obj=self._object(spec.object_type, get),
                start_time=start_time, end_time=end_time,
                data_amount=int(get("bytes", 0)),
                failure_code=int(get("exit", 0)),
                host=get("host", "host-0"), event_id=_next_event_id())
            return event
        except (KeyError, ValueError) as exc:
            raise AuditError(f"malformed audit record: {line!r}") from exc

    def _object(self, object_type: EntityType, get) -> SystemEntity:
        if object_type is EntityType.FILE:
            path = get("path")
            if not path:
                raise AuditError("file event record is missing 'path'")
            key = (path, get("name", path), get("obj_user", "root"),
                   get("obj_group", "root"))
            entity = self._files.get(key)
            if entity is None:
                entity = self._files[key] = FileEntity(*key)
            return entity
        if object_type is EntityType.PROCESS:
            exe = get("obj_exe")
            if not exe:
                raise AuditError("process event record is missing 'obj_exe'")
            key = (exe, get("obj_pid", "0"), get("obj_user", "root"),
                   get("obj_group", "root"), get("obj_cmdline", ""))
            entity = self._processes.get(key)
            if entity is None:
                entity = self._processes[key] = ProcessEntity(
                    key[0], int(key[1]), *key[2:])
            return entity
        dstip = get("dstip")
        if not dstip:
            raise AuditError("network event record is missing 'dstip'")
        key = (get("srcip", "0.0.0.0"), get("srcport", "0"), dstip,
               get("dstport", "0"), get("proto", "tcp"))
        entity = self._connections.get(key)
        if entity is None:
            entity = self._connections[key] = NetworkEntity(
                key[0], int(key[1]), key[2], int(key[3]), key[4])
        return entity


def parse_record(line: str) -> SystemEvent:
    """Parse one auditd-style record line into a :class:`SystemEvent`.

    Raises:
        AuditError: when the record is malformed (including a non-finite
            or reversed time span and an unterminated quote), references
            an unmonitored syscall, or is missing required attributes.
    """
    return RecordParser().parse(line)


def format_log(events: list[SystemEvent]) -> str:
    """Serialize a list of events into a newline-terminated audit log."""
    return "".join(format_record(event) + "\n" for event in events)


def split_cmdline(cmdline: str) -> list[str]:
    """Split a recorded command line into argv, tolerating odd quoting."""
    try:
        return shlex.split(cmdline)
    except ValueError:
        return cmdline.split()


__all__ = [
    "format_record",
    "format_log",
    "parse_fields",
    "parse_record",
    "RecordParser",
    "split_cmdline",
]
