"""Span-tree tracing: structure, propagation, and per-segment scans.

The propagation test mirrors the one place a trace must survive a
thread hop in production: the asyncio front end's bounded
``ThreadPoolExecutor`` (contextvars must be copied by hand).  The
scatter tests pin the per-segment ``segment_scan`` spans, opened in
process inside the ``scatter`` span.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter

import pytest

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.obs import trace
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor

from .conftest import record_data_leak_attack

QUERY = ('proc p["%/usr/bin/scp%"] read file f["%/var/log/auth.log%"] '
         'as e1 return p, f')

#: Segments to cut the corpus into (enough for a real fan-out).
SEGMENT_BATCHES = 5


def _events():
    collector = AuditCollector(CollectorConfig(seed=7))
    record_data_leak_attack(collector)
    events = collector.events() + generate_benign_noise(num_sessions=6,
                                                        seed=13)
    events.sort(key=attrgetter("start_time", "event_id"))
    return events


@pytest.fixture(scope="module")
def segmented_store():
    events = _events()
    store = DualStore()
    size = max(1, len(events) // SEGMENT_BATCHES)
    for start in range(0, len(events), size):
        store.append_events(events[start:start + size])
        store.flush_appends()
    yield store
    store.close()


def _find(node, name):
    """Depth-first search for every span named ``name``."""
    found = []
    if node["name"] == name:
        found.append(node)
    for child in node["children"]:
        found.extend(_find(child, name))
    return found


class TestSpanTree:
    def test_nested_spans_attach_to_parent(self):
        with trace.start_trace("root", request="r1") as root:
            with trace.start_span("outer") as outer:
                outer.set_attribute("k", "v")
                with trace.start_span("inner"):
                    pass
        tree = root.as_dict()
        assert tree["name"] == "root"
        assert tree["attributes"] == {"request": "r1"}
        assert tree["duration_ms"] >= 0
        (outer_node,) = tree["children"]
        assert outer_node["name"] == "outer"
        assert outer_node["attributes"] == {"k": "v"}
        assert [child["name"] for child in outer_node["children"]] \
            == ["inner"]

    def test_span_outside_trace_is_noop(self):
        with trace.start_span("orphan") as span:
            span.set_attribute("ignored", 1)
        assert span is trace.NULL_SPAN
        assert trace.current_span() is None

    def test_disabled_mode_yields_none_root(self):
        previous = trace.set_enabled(False)
        try:
            with trace.start_trace("root") as root:
                assert root is None
                with trace.start_span("child") as span:
                    assert span is trace.NULL_SPAN
                assert trace.current_span() is None
        finally:
            trace.set_enabled(previous)

    def test_render_span_tree(self):
        with trace.start_trace("query") as root:
            with trace.start_span("scan", pattern="e1"):
                pass
        text = trace.render_span_tree(root.as_dict())
        lines = text.splitlines()
        assert lines[0].startswith("- query")
        assert lines[1].strip().startswith("- scan")
        assert "pattern=e1" in lines[1]


class TestExecutorPoolPropagation:
    def test_wrap_carries_trace_into_worker_thread(self):
        def work():
            with trace.start_span("in_pool") as span:
                span.set_attribute("thread", "worker")
            return trace.current_span() is not None

        with ThreadPoolExecutor(max_workers=1) as pool:
            with trace.start_trace("request") as root:
                saw_trace = pool.submit(trace.wrap(work)).result()
            # Without wrap() the worker thread must NOT see the trace.
            with trace.start_trace("request2") as root2:
                pool.submit(work).result()
        assert saw_trace
        assert [child["name"] for child
                in root.as_dict()["children"]] == ["in_pool"]
        assert root2.as_dict()["children"] == []


class TestScatterPropagation:
    def test_per_segment_spans_nest_inside_scatter(self, segmented_store):
        with trace.start_trace("query") as root:
            result = TBQLExecutor(segmented_store).execute(QUERY)
        tree = root.as_dict()
        (scatter,) = _find(tree, "scatter")
        scanned = scatter["attributes"]["segments"]
        assert scanned == result.plan[0].segments_scanned
        segment_spans = scatter["children"]
        assert [span["name"] for span in segment_spans] == \
            ["segment_scan"] * scanned
        assert scanned > 1
        for span in segment_spans:
            assert span["duration_ms"] > 0
            assert list(span["attributes"]) == [
                "segment", "strategy", "rows", "filter_tables_hit",
                "filter_tables_built"]
            assert span["attributes"]["segment"].startswith("seg-")
            assert span["attributes"]["strategy"] == "columnar"
            assert span["attributes"]["rows"] >= 0
        # In-process scans run one after the other inside the scatter
        # span; rendered durations are rounded to the microsecond.
        total_child_ms = sum(span["duration_ms"] for span in segment_spans)
        assert total_child_ms <= \
            scatter["duration_ms"] + 0.0005 * (scanned + 1)

    def test_rows_identical_with_and_without_tracing(self,
                                                     segmented_store):
        executor = TBQLExecutor(segmented_store)
        plain = executor.execute(QUERY)
        with trace.start_trace("query"):
            traced = executor.execute(QUERY)
        assert traced.rows == plain.rows
        assert traced.matched_events == plain.matched_events

    def test_stage_spans_cover_pipeline(self, segmented_store):
        with trace.start_trace("query") as root:
            TBQLExecutor(segmented_store).execute(QUERY)
        tree = root.as_dict()
        names = {child["name"] for child in tree["children"]}
        assert {"parse", "plan", "scan", "join"} <= names
        (scan,) = _find(tree, "scan")
        nested = {child["name"] for child in scan["children"]}
        assert {"scatter", "hydrate"} <= nested
