"""Service-level observability: /metrics, /healthz, profile, slow log.

The HTTP tests run against the asyncio front end, which reports itself
as ``"backend": "asyncio"`` in ``/healthz`` and in the request metrics'
``backend`` label.  Each test gets a fresh default registry so metric
assertions never see another test's increments.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import QueryService, ServiceClient
from repro.service.server import canonical_endpoint
from repro.storage import DualStore

from .conftest import start_server, stop_server
from .promtext import parse_prometheus_text

QUERY = 'proc p["%/bin/tar%"] read file f as e1 return distinct f'


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


@pytest.fixture()
def store(data_leak_events):
    with DualStore() as store:
        store.load_events(data_leak_events)
        yield store


@pytest.fixture()
def client(store):
    service = QueryService(store)
    server, thread = start_server(service)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield client
    finally:
        client.close()
        stop_server(server, thread)


class TestHealthz:
    def test_payload_shape_is_pinned(self, client):
        payload = client.healthz()
        assert set(payload) == {"status", "uptime_seconds", "version",
                                "backend"}
        assert payload["status"] == "ok"
        assert payload["version"] == repro.__version__
        assert payload["backend"] == "asyncio"
        assert payload["uptime_seconds"] >= 0


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_covers_requests(self, client):
        client.query(QUERY)
        client.query(QUERY)          # second call: result-cache hit
        client.healthz()
        families = parse_prometheus_text(client.metrics())
        requests = families["repro_http_requests_total"]
        query_hits = [value for name, labels, value
                      in requests["samples"]
                      if labels["path"] == "/query"
                      and labels["status"] == "200"
                      and labels["backend"] == "asyncio"]
        assert query_hits == [2.0]
        latency = families["repro_http_request_seconds"]
        counts = [value for name, labels, value in latency["samples"]
                  if name.endswith("_count")
                  and labels["path"] == "/query"]
        assert counts == [2.0]
        cache = {(labels["cache"], labels["outcome"]): value
                 for _name, labels, value
                 in families["repro_cache_requests_total"]["samples"]}
        assert cache[("result", "hit")] == 1.0
        assert cache[("result", "miss")] == 1.0
        assert families["repro_uptime_seconds"]["samples"][0][2] >= 0
        ((_n, build_labels, build_value),) = \
            families["repro_build_info"]["samples"]
        assert build_labels == {"version": repro.__version__}
        assert build_value == 1.0

    def test_scrape_does_not_count_itself_before_rendering(self, client):
        parse_prometheus_text(client.metrics())   # must parse clean
        second = parse_prometheus_text(client.metrics())
        # The second scrape must observe the first one.
        metric_hits = [value for _name, labels, value
                       in second["repro_http_requests_total"]["samples"]
                       if labels["path"] == "/metrics"]
        assert metric_hits == [1.0]


class TestProfile:
    def test_profile_returns_span_tree(self, client):
        response = client.query(QUERY, profile=True)
        tree = response["profile"]
        assert tree["name"] == "query"
        child_names = [child["name"] for child in tree["children"]]
        assert "parse" in child_names
        assert tree["duration_ms"] > 0
        # The result itself is unchanged by profiling.
        plain = client.query(QUERY, use_cache=False)
        assert response["result"] == plain["result"]
        assert "profile" not in plain

    def test_profile_bypasses_result_cache(self, client):
        client.query(QUERY)                       # warm the cache
        profiled = client.query(QUERY, profile=True)
        assert profiled["cached"] is False
        assert "profile" in profiled
        cached = client.query(QUERY)
        assert cached["cached"] is True
        assert "profile" not in cached


class TestSlowQueryLog:
    def test_threshold_zero_logs_json_record(self, store, capsys):
        service = QueryService(store, slow_query_ms=0.0)
        response = service.query(QUERY)
        assert "profile" not in response          # log-only tracing
        record = json.loads(capsys.readouterr().err.strip()
                            .splitlines()[-1])
        assert record["event"] == "slow_query"
        assert record["query"] == QUERY
        assert record["elapsed_ms"] >= 0
        assert record["threshold_ms"] == 0.0
        assert record["profile"]["name"] == "query"

    def test_fast_queries_stay_quiet(self, store, capsys):
        service = QueryService(store, slow_query_ms=60_000.0)
        service.query(QUERY)
        assert capsys.readouterr().err == ""


class TestSlowIngestLog:
    RULE = ('proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
            'proc q["%/usr/bin/curl%"] connect ip i as e2 '
            'with e1 before e2 return p, q')

    @staticmethod
    def _live(slow_query_ms):
        from repro.streaming import DetectionEngine
        store = DualStore()
        engine = DetectionEngine(store)
        engine.add_rule(TestSlowIngestLog.RULE, rule_id="exfil")
        return QueryService(store, engine=engine,
                            slow_query_ms=slow_query_ms), store

    def test_flush_logs_a_span_tree_per_stage_and_rule(self, capsys):
        from repro.audit import AuditCollector, CollectorConfig
        collector = AuditCollector(CollectorConfig(seed=5))
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd")
        first = collector.to_log()
        collector.clear()
        collector.advance(10.0)
        curl = collector.spawn_process("/usr/bin/curl")
        collector.connect_ip(curl, "192.168.29.128")
        second = collector.to_log()
        service, store = self._live(0.0)
        try:
            service.ingest(first)       # the retro-hunt: no gate yet
            service.ingest(second)      # completes the match
            service.ingest(first.replace("/etc/passwd", "/etc/motd"))
            records = [json.loads(line) for line
                       in capsys.readouterr().err.strip().splitlines()]
            assert [record["event"] for record in records] == \
                ["slow_ingest"] * 3
            assert records[1]["stored"] >= 1 and records[1]["lines"] >= 1

            def rule_spans(record):
                tree = record["profile"]
                assert tree["name"] == "ingest"
                stages = {child["name"]: child
                          for child in tree["children"]}
                assert set(stages) == {"parse", "append", "rule_eval"}
                return [(span["name"], span["attributes"])
                        for span in stages["rule_eval"]["children"]]

            assert [name for name, _ in rule_spans(records[0])] == \
                ["full_eval"]
            (gate, attrs), (full, _) = rule_spans(records[1])
            assert (gate, full) == ("delta_gate", "full_eval")
            assert attrs["rule"] == "exfil" and attrs["outcome"] == "match"
            assert attrs["delta_rows"] == {"e1": 0, "e2": 1}
            [(gate, attrs)] = rule_spans(records[2])
            assert gate == "delta_gate" and attrs["outcome"] == "no_match"
            # The counter beside the unchanged one, and the rule view.
            [view] = service.rules()["rules"]
            assert (view["evaluations"], view["full_evaluations"]) == (3, 2)
            from repro.obs.metrics import get_registry
            scrape = parse_prometheus_text(get_registry().render())
            for family, count in (
                    ("repro_rule_evaluations_total", 3.0),
                    ("repro_rule_full_evaluations_total", 2.0)):
                assert scrape[family]["samples"] == \
                    [(family, {"rule": "exfil"}, count)]
        finally:
            service.close()
            store.close()

    def test_untraced_ingest_stays_quiet(self, capsys):
        service, store = self._live(None)
        try:
            service.ingest("")
            assert capsys.readouterr().err == ""
        finally:
            service.close()
            store.close()


class TestEndpointCanonicalisation:
    def test_known_paths_pass_through(self):
        assert canonical_endpoint("/query") == "/query"
        assert canonical_endpoint("/metrics") == "/metrics"

    def test_rule_ids_collapse(self):
        assert canonical_endpoint("/rules/abc-123") == "/rules/{id}"

    def test_unknown_paths_collapse_to_other(self):
        assert canonical_endpoint("/../../etc/passwd") == "other"
        assert canonical_endpoint("/query/extra") == "other"
