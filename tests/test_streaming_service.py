"""Live service tests: ingest/rules/alerts on a writable store, over HTTP
and through ``route()`` in process.

Covers the streaming endpoints (``POST /ingest``, ``POST /rules``,
``DELETE /rules/{id}``, ``GET /rules``, ``GET /alerts``), the 409 answer
when streaming is disabled, result-cache invalidation under live ingest
observable via ``GET /stats`` (``data_version`` + hit/miss counters), and
a concurrent ingest-vs-query consistency smoke under the single-writer /
multi-reader lock, and the checkpoint a ``repro serve --live`` process
writes when SIGTERM stops it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.audit import AuditCollector, CollectorConfig
from repro.audit.logfmt import format_log
from repro.errors import ServiceError
from repro.service import QueryService, ServiceClient
from repro.storage import DualStore
from repro.streaming import (DetectionEngine, FlushPolicy, has_checkpoint,
                             resume_engine)

from .conftest import TRANSPORTS, RoutedClient, service_client

EXFIL_RULE = ('proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
              'proc q["%/usr/bin/curl%"] connect ip i as e2 '
              'with e1 before e2 return p, q, i.dstip')

TAR_QUERY = 'proc p["%/bin/tar%"] read file f as e1 return distinct f'


def _attack_log_parts() -> tuple[str, str]:
    collector = AuditCollector(CollectorConfig(seed=5))
    tar = collector.spawn_process("/bin/tar")
    collector.read_file(tar, "/etc/passwd", burst=2)
    first = list(collector.events())
    collector.advance(10.0)
    curl = collector.spawn_process("/usr/bin/curl")
    collector.connect_ip(curl, "192.168.29.128")
    second = collector.events()[len(first):]
    return format_log(first), format_log(second)


@pytest.fixture(params=TRANSPORTS)
def live_server(request):
    store = DualStore()
    engine = DetectionEngine(store,
                             policy=FlushPolicy(max_events=1,
                                                max_seconds=0))
    service = QueryService(store, engine=engine)
    with service_client(service, request.param) as client:
        yield client, service, engine
    store.close()


def _raw_get(client, target: str) -> tuple[int, bytes]:
    """``(status, body)`` of a GET, read past the client's error mapping."""
    from urllib.error import HTTPError
    from urllib.request import urlopen
    if isinstance(client, RoutedClient):
        return client.exchange("GET", target)
    try:
        with urlopen(f"{client.base_url}{target}") as response:
            return response.status, response.read()
    except HTTPError as error:
        return error.code, error.read()


class TestLiveEndpoints:
    def test_ingest_rules_alerts_roundtrip(self, live_server):
        client, _service, engine = live_server
        first_log, second_log = _attack_log_parts()
        rule = client.add_rule(EXFIL_RULE, rule_id="exfil")["rule"]
        assert rule["id"] == "exfil"
        assert [r["id"] for r in client.rules()["rules"]] == ["exfil"]

        first = client.ingest(first_log)
        assert first["accepted"] > 0
        assert first["alerts"] == []
        second = client.ingest(second_log)
        assert second["stored"] > 0
        assert len(second["alerts"]) == 1
        alert = second["alerts"][0]
        assert alert["rule_id"] == "exfil"
        assert alert["rows"]
        signatures = {(event["subject"], event["operation"],
                       event["object"])
                      for event in alert["matched_events"]}
        assert ("/usr/bin/curl", "connect", "192.168.29.128") in signatures

        listed = client.alerts()
        assert len(listed["alerts"]) == 1
        assert listed["next_since_id"] == alert["alert_id"]
        assert client.alerts(since_id=alert["alert_id"])["alerts"] == []
        assert engine.alerts.counters()["fired"] == 1

    def test_delete_rule_stops_detection(self, live_server):
        client, _service, _engine = live_server
        first_log, second_log = _attack_log_parts()
        client.add_rule(EXFIL_RULE, rule_id="exfil")
        removed = client.delete_rule("exfil")["removed"]
        assert removed["id"] == "exfil"
        client.ingest(first_log)
        response = client.ingest(second_log)
        assert response["alerts"] == []
        assert client.rules()["rules"] == []
        with pytest.raises(ServiceError) as excinfo:
            client.delete_rule("exfil")
        assert excinfo.value.status == 404

    def test_rule_id_with_url_special_characters(self, live_server):
        client, _service, _engine = live_server
        rule_id = "my rule/v1"
        client.add_rule(TAR_QUERY, rule_id=rule_id)
        assert [r["id"] for r in client.rules()["rules"]] == [rule_id]
        assert client.delete_rule(rule_id)["removed"]["id"] == rule_id
        assert client.rules()["rules"] == []

    def test_invalid_rule_is_400(self, live_server):
        client, _service, _engine = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.add_rule("this { is not TBQL")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._post("/rules", {})
        assert excinfo.value.status == 400

    def test_invalid_rule_carries_diagnostic(self, live_server):
        client, _service, _engine = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.add_rule("proc p read fil f return p")
        diagnostic = excinfo.value.diagnostic
        assert diagnostic is not None
        assert (diagnostic["line"], diagnostic["column"]) == (1, 13)
        assert diagnostic["context"] == "proc p read fil f return p"

    def test_query_sees_live_data_and_cache_invalidates(self, live_server):
        client, _service, _engine = live_server
        first_log, second_log = _attack_log_parts()
        empty = client.query(TAR_QUERY)
        assert empty["result"]["rows"] == []
        assert client.query(TAR_QUERY)["cached"] is True

        stats_before = client.stats()
        client.ingest(first_log + second_log)
        stats_after = client.stats()
        assert stats_after["data_version"] > stats_before["data_version"]
        assert stats_after["streaming"]["events_stored"] > 0
        for cache in ("plan_cache", "result_cache"):
            assert {"hits", "misses"} <= set(stats_after[cache])

        refreshed = client.query(TAR_QUERY)
        assert refreshed["cached"] is False     # invalidated by ingest
        assert refreshed["result"]["rows"] == [{"f.name": "/etc/passwd"}]

    def test_malformed_ingest_lines_are_reported(self, live_server):
        client, _service, _engine = live_server
        response = client.ingest("not an audit record\nalso garbage\n")
        assert response["accepted"] == 0
        assert response["stored"] == 0
        assert response["lines"] == 2
        assert response["malformed"] == 2
        assert response["parse_errors"]

    def test_stats_exposes_streaming_section(self, live_server):
        client, _service, _engine = live_server
        stats = client.stats()
        streaming = stats["streaming"]
        assert {"rules", "alerts", "batches", "watermark",
                "events_stored", "pending_runs"} <= set(streaming)
        assert stats["counters"]["ingests"] == 0

    def test_concurrent_ingest_and_query_consistency(self, live_server):
        client, _service, _engine = live_server
        collector = AuditCollector(CollectorConfig(seed=41))
        shells = [collector.spawn_process("/bin/bash") for _ in range(4)]
        batches = []
        for index in range(12):
            collector.advance(5.0)
            collector.read_file(shells[index % 4],
                                f"/var/data/file_{index}")
            batches.append(format_log(collector.events()[-1:]))
        query = 'proc p["%/bin/bash%"] read file f as e1 return distinct f'
        errors: list[str] = []

        def do_ingest(batch: str) -> None:
            client.ingest(batch)

        def do_query(_index: int) -> None:
            response = client.query(query, use_cache=False)
            rows = response["result"]["rows"]
            if len(rows) != len({tuple(sorted(r.items())) for r in rows}):
                errors.append("duplicate rows observed")

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(do_ingest, batch) for batch in batches]
            futures += [pool.submit(do_query, index) for index in range(24)]
            for future in futures:
                future.result(timeout=60)
        assert not errors
        final = client.query(query, use_cache=False)
        assert len(final["result"]["rows"]) >= 1


class TestAlertsValidation:
    @pytest.mark.parametrize("query_string", [
        "since_id=abc", "since_id=1.5", "limit=xyz",
        "since_id=abc&limit=2",
    ])
    def test_non_integer_parameters_answer_400(self, live_server,
                                               query_string):
        """Bad ``since_id``/``limit`` must be a 400 with the shared JSON
        error shape — never an unhandled 500."""
        import json as json_module
        client, _service, _engine = live_server
        status, raw = _raw_get(client, f"/alerts?{query_string}")
        assert status == 400
        body = json_module.loads(raw.decode("utf-8"))
        assert "error" in body
        assert "integer" in body["error"]

    def test_valid_parameters_still_answer(self, live_server):
        client, _service, _engine = live_server
        assert client.alerts(since_id=0)["alerts"] == []


class TestStreamingDisabled:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_endpoints_answer_409_without_engine(self, transport):
        store = DualStore()
        service = QueryService(store)
        try:
            with service_client(service, transport) as client:
                for call in (lambda: client.ingest("x"),
                             lambda: client.add_rule(TAR_QUERY),
                             lambda: client.rules(),
                             lambda: client.alerts(),
                             lambda: client.delete_rule("any")):
                    with pytest.raises(ServiceError) as excinfo:
                        call()
                    assert excinfo.value.status == 409
                # Plain serving still works and reports its data_version.
                assert client.stats()["data_version"] == store.data_version
        finally:
            store.close()


class TestServeProcess:
    def test_sigterm_writes_a_checkpoint_and_exits_zero(self, tmp_path):
        """SIGTERM stops ``repro serve --live`` through the event loop's
        signal handler: the server drains, the engine checkpoints, and
        the process exits 0 with a checkpoint ``resume_engine`` reopens."""
        first, second = _attack_log_parts()
        log = tmp_path / "audit.log"
        log.write_text(first, encoding="utf-8")
        checkpoint = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--live",
             "--checkpoint", str(checkpoint), "--log", str(log),
             "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=env)
        # Bounds the banner read below: a server that hangs is killed.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            for line in proc.stderr:
                if "serving on http://" in line:
                    break
            else:
                pytest.fail("repro serve exited before serving")
            address = line.split("serving on ", 1)[1].split()[0]
            with ServiceClient(address) as client:
                client.add_rule(EXFIL_RULE, rule_id="exfil")
                assert client.ingest(second)["alerts"]
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert has_checkpoint(checkpoint)
        engine = resume_engine(checkpoint)
        try:
            assert [rule.rule_id for rule in engine.rules.list()] == \
                ["exfil"]
            # The ingested batch is in the checkpoint, not only the log.
            assert engine.events_stored > 0
            assert engine.executor.execute(
                'proc q["%/usr/bin/curl%"] connect ip i return q').rows
        finally:
            engine.store.close()
