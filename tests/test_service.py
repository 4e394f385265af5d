"""Query service tests: concurrent HTTP serving over one shared store.

The flagship guarantee: ``/query`` under concurrent clients returns results
byte-identical to serial in-process execution, over a read-only store opened
from a snapshot.  The endpoint suites run twice: over HTTP and through
``route()`` in process.  Also covers the compiled-plan and result caches, the
``/hunt`` pipeline, error mapping, and the LRU cache primitive.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter

import pytest

from repro.errors import ServiceError
from repro.service import (LRUCache, QueryService, query_is_time_dependent,
                           result_payload)
from repro.storage import DualStore
from repro.tbql.executor import PlanStep, TBQLExecutor
from repro.tbql.parser import parse_tbql

from .conftest import (DATA_LEAK_EDGES, DATA_LEAK_TEXT, TRANSPORTS,
                       service_client)
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

#: A query whose resolution depends on the wall clock ("last N" window).
TIME_DEPENDENT_QUERY = \
    'last 2 hours proc p["%/bin/tar%"] read file f as e1 return p'


@pytest.fixture(scope="module")
def served_store(data_leak_events, tmp_path_factory):
    """The data-leak store, snapshotted and reopened read-only."""
    directory = tmp_path_factory.mktemp("service") / "snapshot"
    with DualStore() as store:
        store.load_events(data_leak_events)
        store.save(directory)
    reopened = DualStore.open(directory)
    yield reopened
    reopened.close()


@pytest.fixture(scope="module")
def sealed_reference(data_leak_events):
    """The data-leak store in process, never saved: sealed as ``save()``
    seals, so its plans match the served snapshot's."""
    with DualStore() as store:
        store.load_events(data_leak_events)
        store.flush_appends()
        yield store


@pytest.fixture(scope="module", params=TRANSPORTS)
def client(request, served_store):
    """A client over each transport — the whole endpoint and correctness
    suite runs over the wire and through ``route()`` in process."""
    with service_client(QueryService(served_store),
                        request.param) as client:
        yield client


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz()["status"] == "ok"

    def test_stats_shape(self, client, served_store):
        stats = client.stats()
        assert stats["read_only"] is True
        assert stats["store"]["relational_events"] == \
            served_store.relational.count_events()
        for cache in ("plan_cache", "result_cache"):
            assert set(stats[cache]) >= {"size", "maxsize", "hits",
                                         "misses", "evictions"}
        assert stats["uptime_seconds"] >= 0.0

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._get("/nope")
        assert excinfo.value.status == 404

    def test_bad_tbql_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query("this is ! not tbql")
        assert excinfo.value.status == 400

    def test_parse_error_carries_structured_diagnostic(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query("proc p read file f\nreturn p,")
        error = excinfo.value
        assert error.status == 400
        assert error.diagnostic is not None
        assert error.diagnostic["line"] == 2
        assert error.diagnostic["context"] == "return p,"
        assert isinstance(error.diagnostic["column"], int)
        assert error.diagnostic["message"]

    def test_semantic_error_has_no_diagnostic(self, client):
        # Resolution failures have no source position: the payload keeps
        # the error string and omits the diagnostic field entirely.
        with pytest.raises(ServiceError) as excinfo:
            client.query("proc p read file f return q")
        assert excinfo.value.status == 400
        assert excinfo.value.diagnostic is None

    def test_missing_body_fields_are_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._post("/query", {})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._post("/hunt", {"report": "   "})
        assert excinfo.value.status == 400


class TestQueryCorrectness:
    @pytest.mark.parametrize("text", EQUIVALENCE_CORPUS)
    def test_served_results_match_in_process(self, client,
                                             sealed_reference, text):
        reference = TBQLExecutor(sealed_reference).execute(text)
        result = client.query(text, use_cache=False)["result"]
        assert result == result_payload(reference)
        # An aggregate's answer is its rows: its events are counted, not
        # listed.  Every other answer lists them.
        assert reference.aggregated == ("count()" in text)
        if reference.aggregated:
            assert list(result) == ["rows", "per_pattern_matches", "plan"]
            assert sum(result["per_pattern_matches"].values()) == \
                len(reference.matched_events) > 0
        else:
            assert list(result) == ["rows", "matched_events",
                                    "per_pattern_matches", "plan"]

    def test_concurrent_queries_byte_identical_to_serial(self, client):
        serial = {
            text: json.dumps(client.query(text, use_cache=False)["result"],
                             sort_keys=True)
            for text in EQUIVALENCE_CORPUS
        }

        def run(index):
            text = EQUIVALENCE_CORPUS[index % len(EQUIVALENCE_CORPUS)]
            response = client.query(text, use_cache=False)
            return text, json.dumps(response["result"], sort_keys=True)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(run,
                                     range(4 * len(EQUIVALENCE_CORPUS))))
        for text, payload in outcomes:
            assert payload == serial[text]

    def test_concurrent_mixed_cache_modes_stay_identical(self, client):
        text = EQUIVALENCE_CORPUS[0]
        baseline = json.dumps(client.query(text, use_cache=False)["result"],
                              sort_keys=True)

        def run(index):
            response = client.query(text, use_cache=bool(index % 2))
            return json.dumps(response["result"], sort_keys=True)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(run, range(32)))
        assert all(payload == baseline for payload in outcomes)


class TestCaches:
    def test_result_cache_hit_flag(self, served_store):
        service = QueryService(served_store)
        text = EQUIVALENCE_CORPUS[0]
        first = service.query(text)
        second = service.query(text)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["result"] == second["result"]
        bypass = service.query(text, use_cache=False)
        assert bypass["cached"] is False

    def test_plan_cache_reused_when_results_bypass(self, served_store):
        service = QueryService(served_store)
        text = EQUIVALENCE_CORPUS[1]
        service.query(text, use_cache=False)
        before = service.plan_cache.stats()["hits"]
        service.query(text, use_cache=False)
        assert service.plan_cache.stats()["hits"] > before

    def test_time_dependent_queries_never_result_cached(self, served_store):
        assert query_is_time_dependent(parse_tbql(TIME_DEPENDENT_QUERY))
        assert not query_is_time_dependent(parse_tbql(EQUIVALENCE_CORPUS[0]))
        service = QueryService(served_store)
        first = service.query(TIME_DEPENDENT_QUERY)
        second = service.query(TIME_DEPENDENT_QUERY)
        assert first["cached"] is False
        assert second["cached"] is False
        assert service.result_cache.stats()["size"] == 0

    def test_caches_can_be_disabled(self, served_store):
        service = QueryService(served_store, plan_cache_size=0,
                               result_cache_size=0)
        text = EQUIVALENCE_CORPUS[0]
        assert service.query(text)["cached"] is False
        assert service.query(text)["cached"] is False
        assert len(service.plan_cache) == 0
        assert len(service.result_cache) == 0

    def test_counters_track_requests(self, served_store):
        service = QueryService(served_store)
        text = EQUIVALENCE_CORPUS[0]
        service.query(text)
        service.query(text)
        counters = service.stats()["counters"]
        assert counters["queries"] == 2
        assert counters["query_cache_hits"] == 1

    def test_result_cache_invalidated_on_store_reload(self, data_leak_events):
        # A writable store behind the service: reloading its data must not
        # leave the result cache answering from the replaced contents.
        with DualStore() as store:
            store.load_events(data_leak_events)
            service = QueryService(store)
            text = 'proc p["%/bin/tar%"] read file f as e1 return distinct f'
            before = service.query(text)
            assert service.query(text)["cached"] is True
            store.load_events([])   # replace with nothing
            after = service.query(text)
            assert after["cached"] is False
            assert after["result"]["rows"] == []
            assert before["result"]["rows"] != []

    def test_hunt_does_not_pollute_result_cache(self, served_store):
        service = QueryService(served_store)
        hunted = service.hunt(DATA_LEAK_TEXT)
        synthesized = hunted["synthesized_tbql"]
        cached = service.query(synthesized)
        assert cached["cached"] is True
        assert "synthesized_tbql" not in cached
        assert "fuzzy" not in cached


class TestHunt:
    def test_hunt_matches_in_process_pipeline(self, client):
        response = client.hunt(DATA_LEAK_TEXT)
        assert "synthesized_tbql" in response
        signatures = {(event["subject"], event["operation"],
                       event["object"])
                      for event in response["result"]["matched_events"]}
        assert signatures == set(DATA_LEAK_EDGES)

    def test_hunt_payload_lists_events(self, client, served_store):
        # Synthesized hunts never aggregate: their payload keeps every key.
        response = client.hunt(DATA_LEAK_TEXT)
        reference = TBQLExecutor(served_store).execute(
            response["synthesized_tbql"])
        assert not reference.aggregated
        assert list(response["result"]) == ["rows", "matched_events",
                                            "per_pattern_matches", "plan"]
        assert response["result"] == result_payload(reference)

    def test_hunt_fuzzy_fallback_field(self, client):
        # A report whose exact query cannot match: fuzzy fallback runs.
        report = ("The attacker used /bin/absent-tool to read "
                  "/etc/nothing-here.")
        response = client.hunt(report, fuzzy_fallback=True)
        if not response["result"]["rows"]:
            assert "fuzzy" in response
            assert response["fuzzy"]["alignments"] >= 0


@pytest.fixture(scope="module", params=TRANSPORTS)
def segmented_client(request, data_leak_events, tmp_path_factory):
    """A client over each transport against a segmented snapshot."""
    directory = tmp_path_factory.mktemp("segmented") / "snapshot"
    events = sorted(data_leak_events,
                    key=attrgetter("start_time", "event_id"))
    step = len(events) // 3 + 1         # three sealed segments
    with DualStore() as store:
        for start in range(0, len(events), step):
            store.append_events(events[start:start + step])
            store.flush_appends()
        store.save(directory)
    with DualStore.open(directory) as reopened, \
            service_client(QueryService(reopened), request.param) as client:
        yield client


class TestWireContract:
    """What a client of a segmented store sees, pinned on both transports:
    the plan step fields, the ``/stats`` segments section and the
    metric families."""

    #: Plan step fields a payload leaves out (see ``result_payload``).
    VOLATILE = ("seconds", "hydration_queries")

    @pytest.mark.parametrize("text", [
        'proc p read file f as e1 proc p write file g as e2 return p, f, g',
        'proc p read file f return p, count() group by p top 3'])
    def test_plan_steps_carry_exactly_the_plan_step_fields(
            self, segmented_client, text):
        plan = segmented_client.query(text, use_cache=False)["result"]["plan"]
        assert plan and all(step["segments_scanned"] is not None
                            for step in plan)
        fields = [name for name in PlanStep.__annotations__
                  if name not in self.VOLATILE]
        assert "pool_fallback" not in fields
        assert [list(step) for step in plan] == [fields] * len(plan)

    def test_stats_segments_section(self, segmented_client):
        segments = segmented_client.stats()["segments"]
        assert segments["sealed_segments"] == 3
        assert "pruning" in segments
        assert not {"workers", "pool_fallback"} & set(segments)

    def test_metrics_have_no_scatter_family(self, segmented_client):
        segmented_client.query('proc p read file f return p',
                               use_cache=False)
        text = segmented_client.metrics()
        assert "repro_tbql_segments_pruned_total" in text
        assert "repro_scatter_" not in text


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1       # refresh "a"
        cache.put("c", 3)                # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_zero_size_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_stats_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_access_smoke(self):
        cache = LRUCache(64)

        def worker(seed):
            for index in range(200):
                key = (seed * index) % 97
                cache.put(key, key)
                value = cache.get(key)
                assert value is None or value == key

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(1, 9)))
        assert len(cache) <= 64
