"""Shared fixtures for the test suite.

Expensive artifacts (the data-leak case store, the extraction result of the
Figure-2 text) are session-scoped so the integration tests stay fast.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import pytest

from repro.audit import AuditCollector, CollectorConfig, generate_benign_noise
from repro.benchmark import get_case
from repro.benchmark.case import CaseBuilder
from repro.extraction import extract_threat_behaviors
from repro.hunting import ThreatRaptor
from repro.storage import DualStore
from repro.storage.columnar import ColumnarSegment

#: The running example of the paper (Figure 2), reused by many tests.
DATA_LEAK_TEXT = (
    "As a first step, the attacker used /bin/tar to read user credentials "
    "from /etc/passwd. It wrote the gathered information to a file "
    "/tmp/upload.tar. Then, the attacker leveraged /bin/bzip2 utility to "
    "compress the tar file. /bin/bzip2 read from /tmp/upload.tar and wrote "
    "to /tmp/upload.tar.bz2. /usr/bin/gpg read from /tmp/upload.tar.bz2 and "
    "wrote the encrypted information to /tmp/upload. Finally, the attacker "
    "used /usr/bin/curl to read the data from /tmp/upload. He leaked the "
    "gathered sensitive information back to the C2 host by using "
    "/usr/bin/curl to connect to 192.168.29.128."
)

#: The eight ground-truth steps of the data-leak attack, in order.
DATA_LEAK_EDGES = [
    ("/bin/tar", "read", "/etc/passwd"),
    ("/bin/tar", "write", "/tmp/upload.tar"),
    ("/bin/bzip2", "read", "/tmp/upload.tar"),
    ("/bin/bzip2", "write", "/tmp/upload.tar.bz2"),
    ("/usr/bin/gpg", "read", "/tmp/upload.tar.bz2"),
    ("/usr/bin/gpg", "write", "/tmp/upload"),
    ("/usr/bin/curl", "read", "/tmp/upload"),
    ("/usr/bin/curl", "connect", "192.168.29.128"),
]


#: The HTTP front ends the service tests run against.
SERVER_BACKENDS = ["threaded", "asyncio"]


def start_backend_server(service, backend, **kwargs):
    """Start a server of the given backend on a daemon thread.

    Returns ``(server, thread)``; stop with :func:`stop_backend_server`.
    Both backends bind an ephemeral port in their constructor, so
    ``server.server_address`` is valid immediately.
    """
    import threading

    from repro.service import AsyncThreatHuntingServer, ThreatHuntingServer

    if backend == "asyncio":
        server = AsyncThreatHuntingServer(("127.0.0.1", 0), service,
                                          **kwargs)
    else:
        server = ThreatHuntingServer(("127.0.0.1", 0), service, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    if backend == "asyncio":
        assert server.wait_ready(10)
    return server, thread


def stop_backend_server(server, thread) -> None:
    """Shut a test server down and release its resources."""
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def assert_exact_entity_blocks(store: DualStore) -> list[int]:
    """Every sealed segment's ``events.col`` holds exactly the entity
    rows its events reference, resolves every event, and — whichever
    route wrote it (buffered columns, compaction, a snapshot segment
    that arrived without one) — equals the payload of the same id range
    read back from the combined store, byte for byte.  Returns the
    entity-row count of each segment."""
    counts = []
    with tempfile.TemporaryDirectory() as scratch:
        for info in store.segment_view().sealed:
            segment = ColumnarSegment(info.columnar_path)
            try:
                subjects = list(segment.column("event.subject_id"))
                objects = list(segment.column("event.object_id"))
                ids = list(segment.column("entity.id"))
                assert ids == sorted(set(subjects) | set(objects)), info.name
                assert segment.entity_count == len(ids) == \
                    info.entity_row_count
                subject_rows, object_rows = segment.entity_rows()
                assert [ids[row] for row in subject_rows] == subjects
                assert [ids[row] for row in object_rows] == objects
            finally:
                segment.close()
            rebuilt = dataclasses.replace(info, directory=tempfile.mkdtemp(
                dir=scratch))
            store._write_payload(rebuilt)
            assert Path(rebuilt.columnar_path).read_bytes() == \
                Path(info.columnar_path).read_bytes(), info.name
            counts.append(len(ids))
    return counts


def snapshot_files(directory: Path) -> dict[str, bytes]:
    """Every file under a snapshot directory but the ``-shm`` / ``-wal``
    side files SQLite itself leaves beside a WAL database it reads."""
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()
            and not path.name.endswith(("-shm", "-wal"))}


def record_data_leak_attack(collector: AuditCollector) -> None:
    """Replay the data-leak attack steps through a collector."""
    tar = collector.spawn_process("/bin/tar")
    collector.read_file(tar, "/etc/passwd", burst=3)
    collector.write_file(tar, "/tmp/upload.tar", burst=3)
    bzip2 = collector.spawn_process("/bin/bzip2")
    collector.read_file(bzip2, "/tmp/upload.tar")
    collector.write_file(bzip2, "/tmp/upload.tar.bz2")
    gpg = collector.spawn_process("/usr/bin/gpg")
    collector.read_file(gpg, "/tmp/upload.tar.bz2")
    collector.write_file(gpg, "/tmp/upload")
    curl = collector.spawn_process("/usr/bin/curl")
    collector.read_file(curl, "/tmp/upload")
    collector.connect_ip(curl, "192.168.29.128")


@pytest.fixture(scope="session")
def data_leak_events():
    """Malicious data-leak events plus a small benign background."""
    collector = AuditCollector(CollectorConfig(seed=11))
    record_data_leak_attack(collector)
    return collector.events() + generate_benign_noise(num_sessions=15,
                                                      seed=23)


@pytest.fixture(scope="session")
def data_leak_store(data_leak_events):
    """A dual store loaded with the data-leak events."""
    store = DualStore()
    store.load_events(data_leak_events)
    yield store
    store.close()


@pytest.fixture(scope="session")
def data_leak_extraction():
    """Extraction result for the Figure-2 OSCTI text."""
    return extract_threat_behaviors(DATA_LEAK_TEXT)


@pytest.fixture(scope="session")
def data_leak_raptor(data_leak_events):
    """A ThreatRaptor instance with the data-leak events ingested."""
    raptor = ThreatRaptor()
    raptor.ingest_events(data_leak_events)
    yield raptor
    raptor.store.close()


@pytest.fixture(scope="session")
def clearscope_built():
    """The smallest benchmark case, materialized (for fast case tests)."""
    return CaseBuilder().build(get_case("tc_clearscope_3"),
                               benign_sessions=5)
