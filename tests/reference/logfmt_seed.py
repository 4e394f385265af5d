"""The seed log parser, frozen verbatim as a differential oracle.

``parse_fields``/``parse_record`` exactly as ``repro.audit.logfmt`` had
them before the interning single-pass parser replaced them: one regex
``findall`` plus an ``_unquote`` call per field, fresh entity objects per
line.  Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import re

from repro.audit.entities import (EntityType, FileEntity, NetworkEntity,
                                  ProcessEntity, SystemEntity, SystemEvent)
from repro.audit.syscalls import lookup_syscall
from repro.errors import AuditError

_KV_RE = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')


def _unquote(value: str) -> str:
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        inner = value[1:-1]
        return inner.replace('\\"', '"').replace("\\\\", "\\")
    return value


def parse_fields(line: str) -> dict[str, str]:
    """Parse one record line into a raw ``{key: value}`` dictionary."""
    line = line.strip()
    if not line:
        raise AuditError("empty audit record")
    fields: dict[str, str] = {}
    for key, value in _KV_RE.findall(line):
        fields[key] = _unquote(value)
    if not fields:
        raise AuditError(f"unparseable audit record: {line!r}")
    return fields


def parse_record(line: str) -> SystemEvent:
    """Parse one auditd-style record line into a :class:`SystemEvent`.

    Raises:
        AuditError: when the record is malformed, references an unmonitored
            syscall, or is missing required attributes.
    """
    fields = parse_fields(line)
    if fields.get("type", "SYSCALL") != "SYSCALL":
        raise AuditError(f"unsupported record type: {fields.get('type')!r}")
    try:
        syscall = fields["syscall"]
        spec = lookup_syscall(syscall)
    except KeyError as exc:
        raise AuditError(f"unmonitored or missing syscall in record: {line!r}"
                         ) from exc
    try:
        start_time = float(fields["ts"])
        end_time = float(fields.get("te", fields["ts"]))
        subject = ProcessEntity(
            exename=fields["exe"],
            pid=int(fields["pid"]),
            user=fields.get("user", "root"),
            group=fields.get("group", "root"),
            cmdline=fields.get("cmdline", ""),
        )
        obj = _parse_object(spec.object_type, fields)
        return SystemEvent(
            subject=subject,
            operation=spec.operation,
            obj=obj,
            start_time=start_time,
            end_time=end_time,
            data_amount=int(fields.get("bytes", 0)),
            failure_code=int(fields.get("exit", 0)),
            host=fields.get("host", "host-0"),
        )
    except AuditError:
        raise
    except (KeyError, ValueError) as exc:
        raise AuditError(f"malformed audit record: {line!r}") from exc


def _parse_object(object_type: EntityType, fields: dict[str, str]
                  ) -> SystemEntity:
    if object_type is EntityType.FILE:
        path = fields.get("path")
        if not path:
            raise AuditError("file event record is missing 'path'")
        return FileEntity(path=path, name=fields.get("name", path),
                          user=fields.get("obj_user", "root"),
                          group=fields.get("obj_group", "root"))
    if object_type is EntityType.PROCESS:
        exe = fields.get("obj_exe")
        if not exe:
            raise AuditError("process event record is missing 'obj_exe'")
        return ProcessEntity(exename=exe, pid=int(fields.get("obj_pid", 0)),
                             user=fields.get("obj_user", "root"),
                             group=fields.get("obj_group", "root"),
                             cmdline=fields.get("obj_cmdline", ""))
    dstip = fields.get("dstip")
    if not dstip:
        raise AuditError("network event record is missing 'dstip'")
    return NetworkEntity(srcip=fields.get("srcip", "0.0.0.0"),
                         srcport=int(fields.get("srcport", 0)),
                         dstip=dstip,
                         dstport=int(fields.get("dstport", 0)),
                         protocol=fields.get("proto", "tcp"))
