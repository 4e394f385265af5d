"""Asyncio front-end tests: keep-alive, backpressure, drain, hygiene.

The shared endpoint/correctness suite runs over HTTP in
``tests/test_service.py`` and ``tests/test_streaming_service.py``; this
file covers the transport itself — admission-queue backpressure (429 +
``Retry-After``, never a hang or a 500), the ingest lane that cannot
starve queries, single-connection keep-alive reuse, graceful-shutdown
drain of in-flight requests, read timeouts — plus the request-hygiene
answers (413/400/411).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ServiceError
from repro.service import (QueryService, ServiceClient, result_payload,
                           run_load)
from repro.storage import DualStore
from repro.streaming import DetectionEngine, FlushPolicy
from repro.tbql.executor import TBQLExecutor

from .conftest import start_server, stop_server
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

QUERY = 'proc p["%/bin/tar%"] read file f as e1 return distinct f'


@pytest.fixture()
def store(data_leak_events):
    with DualStore() as store:
        store.load_events(data_leak_events)
        yield store


class TestKeepAlive:
    def test_request_train_reuses_one_connection(self, store):
        service = QueryService(store)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                for _ in range(8):
                    assert client.healthz()["status"] == "ok"
                client.query(QUERY)
            assert server.connections_accepted == 1
            assert server.requests_served == 9
        finally:
            stop_server(server, thread)

    def test_client_reconnects_after_server_side_close(self, store):
        # An idle connection the read timeout reaped must be replaced
        # transparently on the next call, not surface as an error.
        service = QueryService(store)
        server, thread = start_server(service, read_timeout=0.3)
        host, port = server.server_address[:2]
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                assert client.healthz()["status"] == "ok"
                time.sleep(0.8)   # let the server reap the idle socket
                assert client.healthz()["status"] == "ok"
            assert server.connections_accepted == 2
        finally:
            stop_server(server, thread)

    def test_load_generator_round_trip(self, store):
        service = QueryService(store)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        try:
            result = run_load(host, port, EQUIVALENCE_CORPUS[:4],
                              clients=8, requests_per_client=6)
            assert result.errors == 0
            assert result.statuses == {200: 48}
            assert result.qps > 0 and result.p99_ms >= result.p50_ms
            assert server.connections_accepted == 8
        finally:
            stop_server(server, thread)


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, store,
                                                     monkeypatch):
        service = QueryService(store)
        release = threading.Event()
        original = QueryService.query

        def slow_query(self, text, use_cache=True, **kwargs):
            release.wait(10)
            return original(self, text, use_cache=use_cache, **kwargs)

        monkeypatch.setattr(QueryService, "query", slow_query)
        server, thread = start_server(service, exec_threads=1,
                                      queue_limit=1)
        host, port = server.server_address[:2]
        try:
            base = f"http://{host}:{port}"
            outcomes: list[object] = []

            def fire():
                with ServiceClient(base, timeout=30) as client:
                    try:
                        outcomes.append(client.query(QUERY)["result"])
                    except ServiceError as exc:
                        outcomes.append(exc)

            # Capacity is 1 executing + 1 queued; the rest must be
            # rejected immediately — not hang, not 500.
            threads = [threading.Thread(target=fire) for _ in range(6)]
            for worker in threads:
                worker.start()
            deadline = time.monotonic() + 10
            while server.rejected_busy < 4 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            release.set()
            for worker in threads:
                worker.join(timeout=15)
            assert not any(worker.is_alive() for worker in threads)
            rejected = [outcome for outcome in outcomes
                        if isinstance(outcome, ServiceError)]
            served = [outcome for outcome in outcomes
                      if not isinstance(outcome, ServiceError)]
            assert len(served) == 2 and len(rejected) == 4
            for error in rejected:
                assert error.status == 429
                assert error.retry_after is not None \
                    and error.retry_after > 0
            # The lane recovered: the next request is served normally.
            with ServiceClient(base) as client:
                assert client.query(QUERY)["result"]["rows"]
            assert server.stats()["lanes"]["query"]["rejected"] == 4
        finally:
            release.set()
            stop_server(server, thread)

    def test_saturated_ingest_lane_does_not_starve_queries(self,
                                                           monkeypatch):
        store = DualStore()
        engine = DetectionEngine(store, policy=FlushPolicy(max_events=1,
                                                           max_seconds=0))
        service = QueryService(store, engine=engine)
        release = threading.Event()

        def slow_ingest(self, log_text, seal=True):
            release.wait(10)
            return {"stored": 0, "malformed": 0, "alerts": [],
                    "watermark": None}

        monkeypatch.setattr(QueryService, "ingest", slow_ingest)
        server, thread = start_server(service, exec_threads=2,
                                      queue_limit=4)
        host, port = server.server_address[:2]
        try:
            base = f"http://{host}:{port}"
            ingest_errors: list[ServiceError] = []

            def chatty_ingest():
                with ServiceClient(base, timeout=30) as client:
                    try:
                        client.ingest("type=NOISE")
                    except ServiceError as exc:
                        ingest_errors.append(exc)

            writers = [threading.Thread(target=chatty_ingest)
                       for _ in range(8)]
            for worker in writers:
                worker.start()
            # Wait until the ingest lane is saturated (1 executing slot
            # for exec_threads=2, 2 queued for queue_limit=4, rest 429).
            deadline = time.monotonic() + 10
            while server.stats()["lanes"]["ingest"]["rejected"] < 5 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            # Queries still go through: the ingest lane can never take
            # more than half the executor threads.
            started = time.monotonic()
            with ServiceClient(base, timeout=30) as client:
                response = client.query(QUERY, use_cache=False)
            assert response["result"] is not None
            assert time.monotonic() - started < 5
            release.set()
            for worker in writers:
                worker.join(timeout=15)
            assert not any(worker.is_alive() for worker in writers)
            assert all(error.status == 429 for error in ingest_errors)
            assert len(ingest_errors) == 5
        finally:
            release.set()
            stop_server(server, thread)
            store.close()


class TestRequestHygiene:
    def test_oversized_body_is_413(self, store):
        service = QueryService(store)
        server, thread = start_server(service, max_body_bytes=1024)
        host, port = server.server_address[:2]
        try:
            client = ServiceClient(f"http://{host}:{port}")
            big = "x" * 4096
            with pytest.raises(ServiceError) as excinfo:
                client._post("/query", {"tbql": big})
            assert excinfo.value.status == 413
            # The connection was closed by the server; a fresh request
            # still works (transparent reconnect).
            assert client.healthz()["status"] == "ok"
            client.close()
        finally:
            stop_server(server, thread)

    def test_malformed_json_is_structured_400(self, store):
        service = QueryService(store)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        try:
            for raw in (b"{not json", b"[1, 2, 3]", b""):
                with socket.create_connection((host, port),
                                              timeout=10) as sock:
                    head = (f"POST /query HTTP/1.1\r\n"
                            f"Host: {host}:{port}\r\n"
                            f"Content-Type: application/json\r\n"
                            f"Content-Length: {len(raw)}\r\n"
                            f"Connection: close\r\n\r\n").encode()
                    sock.sendall(head + raw)
                    response = _read_all(sock)
                status, body = _split_response(response)
                assert status == 400
                assert "error" in json.loads(body)
        finally:
            stop_server(server, thread)

    def test_chunked_transfer_is_rejected(self, store):
        service = QueryService(store)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port),
                                          timeout=10) as sock:
                sock.sendall(b"POST /query HTTP/1.1\r\n"
                             b"Host: x\r\n"
                             b"Transfer-Encoding: chunked\r\n\r\n")
                response = _read_all(sock)
            status, _body = _split_response(response)
            assert status == 411
        finally:
            stop_server(server, thread)

    def test_read_timeout_reaps_silent_connection(self, store):
        service = QueryService(store)
        server, thread = start_server(service, read_timeout=0.3)
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port),
                                          timeout=10) as sock:
                sock.settimeout(5)
                started = time.monotonic()
                assert sock.recv(1) == b""   # EOF: server closed it
                assert time.monotonic() - started < 4
        finally:
            stop_server(server, thread)


class TestGracefulShutdown:
    def test_drain_completes_in_flight_request(self, store, monkeypatch):
        service = QueryService(store)
        original = QueryService.query
        entered = threading.Event()

        def slow_query(self, text, use_cache=True, **kwargs):
            entered.set()
            time.sleep(0.5)
            return original(self, text, use_cache=use_cache, **kwargs)

        monkeypatch.setattr(QueryService, "query", slow_query)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        outcome: dict = {}

        def fire():
            with ServiceClient(f"http://{host}:{port}",
                               timeout=30) as client:
                outcome["response"] = client.query(QUERY)

        requester = threading.Thread(target=fire)
        requester.start()
        assert entered.wait(10)
        # Shutdown while the request is executing: it must be answered
        # 200 before the server stops, not dropped.
        assert server.shutdown_gracefully(drain_timeout=15) is True
        requester.join(timeout=15)
        assert not requester.is_alive()
        assert outcome["response"]["result"]["rows"]
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_drain_timeout_reports_the_abandoned_request(self, store,
                                                         monkeypatch):
        """A request still executing when the drain timeout expires is
        abandoned, and ``shutdown_gracefully`` says so."""
        service = QueryService(store)
        original = QueryService.query
        entered = threading.Event()

        def stuck_query(self, text, use_cache=True, **kwargs):
            entered.set()
            time.sleep(1.0)
            return original(self, text, use_cache=use_cache, **kwargs)

        monkeypatch.setattr(QueryService, "query", stuck_query)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        outcome: dict = {}

        def fire():
            try:
                with ServiceClient(f"http://{host}:{port}",
                                   timeout=30) as client:
                    outcome["response"] = client.query(QUERY)
            except Exception as exc:   # the server drops the request
                outcome["error"] = exc

        requester = threading.Thread(target=fire)
        requester.start()
        assert entered.wait(10)
        assert server.shutdown_gracefully(drain_timeout=0.1) is False
        requester.join(timeout=15)
        assert not requester.is_alive()
        assert "response" not in outcome
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_shutdown_gracefully_idempotent_when_idle(self, store):
        service = QueryService(store)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        with ServiceClient(f"http://{host}:{port}") as client:
            assert client.healthz()["status"] == "ok"
        assert server.shutdown_gracefully() is True
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestConcurrentEquivalence:
    def test_concurrent_equals_serial_byte_for_byte(self, store):
        # The asyncio-specific replay of the flagship guarantee: many
        # threads hammering the bounded executor still observe exactly
        # the single-threaded payloads.
        service = QueryService(store)
        server, thread = start_server(service, exec_threads=4)
        host, port = server.server_address[:2]
        try:
            base = f"http://{host}:{port}"
            with ServiceClient(base) as client:
                serial = {
                    text: json.dumps(
                        client.query(text, use_cache=False)["result"],
                        sort_keys=True)
                    for text in EQUIVALENCE_CORPUS
                }

            def run(index):
                text = EQUIVALENCE_CORPUS[index % len(EQUIVALENCE_CORPUS)]
                with ServiceClient(base) as client:
                    response = client.query(text, use_cache=False)
                return text, json.dumps(response["result"],
                                        sort_keys=True)

            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(
                    run, range(3 * len(EQUIVALENCE_CORPUS))))
            for text, payload in outcomes:
                assert payload == serial[text]
        finally:
            stop_server(server, thread)


@pytest.fixture(scope="module")
def segmented_store(data_leak_events):
    """The data-leak events in sealed segments plus an active tail, so
    single-pattern ``count()`` texts take the aggregate pushdown."""
    events = sorted(data_leak_events,
                    key=lambda event: (event.start_time, event.event_id))
    with DualStore(layout="segmented") as store:
        for start in range(0, len(events), 80):
            store.append_events(events[start:start + 80])
            store.flush_appends(seal_segment=start + 80 < len(events))
        assert store.segment_view().active_events
        yield store


class TestWireContract:
    def test_aggregated_answers_are_their_rows(self, segmented_store):
        """An aggregate's ``/query`` answer lists no events, counts them
        in ``per_pattern_matches``, and a cache hit repeats its miss
        byte for byte; every other answer keeps ``matched_events``."""
        service = QueryService(segmented_store)
        server, thread = start_server(service)
        host, port = server.server_address[:2]
        executor = TBQLExecutor(segmented_store)
        pushed = 0
        try:
            with ServiceClient(f"http://{host}:{port}") as client:
                for text in EQUIVALENCE_CORPUS:
                    reference = executor.execute(text)
                    miss, hit = client.query(text), client.query(text)
                    assert (miss["cached"], hit["cached"]) == (False, True)
                    assert json.dumps(hit["result"]) == \
                        json.dumps(miss["result"])
                    result = miss["result"]
                    assert result == result_payload(reference)
                    if reference.aggregated:
                        pushed += reference.plan[0].aggregate_pushdown
                        assert list(result) == ["rows", "per_pattern_matches",
                                                "plan"]
                        assert sum(result["per_pattern_matches"].values()) \
                            == len(reference.matched_events) > 0
                    else:
                        assert result["matched_events"] == \
                            reference.matched_events
        finally:
            stop_server(server, thread)
        assert pushed == 1


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except (ConnectionResetError, socket.timeout):
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _split_response(raw: bytes) -> tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body
