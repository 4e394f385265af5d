"""Metrics registry units + Prometheus exposition round-trips.

Every rendering test goes through :mod:`tests.promtext`, the same
minimal scraper-grade validator the service tests use, so the registry
and the validator keep each other honest.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (DEFAULT_BUCKETS, MetricsRegistry,
                               get_registry, set_registry)

from .promtext import ExpositionError, parse_prometheus_text


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("repro_t_total", "a counter")
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().value == 3.5

    def test_counter_rejects_decrease(self, registry):
        counter = registry.counter("repro_t_total", "a counter")
        with pytest.raises(ValueError):
            counter.labels().inc(-1)

    def test_gauge_set_inc_dec(self, registry):
        gauge = registry.gauge("repro_g", "a gauge")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.labels().value == 12.0

    def test_histogram_buckets(self, registry):
        hist = registry.histogram("repro_h", "a histogram",
                                  buckets=(1.0, 5.0))
        for value in (0.5, 3.0, 100.0):
            hist.observe(value)
        counts, total, count = hist.labels().snapshot()
        assert counts == [1, 1]       # per-bucket, +Inf implicit
        assert total == 103.5 and count == 3

    def test_labelled_children_are_independent(self, registry):
        counter = registry.counter("repro_l_total", "labelled",
                                   labels=("kind",))
        counter.labels("a").inc()
        counter.labels("b").inc(2)
        assert counter.labels("a").value == 1
        assert counter.labels("b").value == 2

    def test_label_arity_enforced(self, registry):
        counter = registry.counter("repro_l_total", "labelled",
                                   labels=("kind",))
        with pytest.raises(ValueError):
            counter.labels("a", "b")
        with pytest.raises(ValueError):
            counter.inc()             # labelled family: no solo child


class TestRegistration:
    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("repro_i_total", "idempotent")
        second = registry.counter("repro_i_total", "idempotent")
        assert first is second

    def test_kind_conflict_raises(self, registry):
        registry.counter("repro_k_total", "as counter")
        with pytest.raises(ValueError):
            registry.gauge("repro_k_total", "as gauge")

    def test_label_conflict_raises(self, registry):
        registry.counter("repro_c_total", "x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("repro_c_total", "x", labels=("b",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("0bad", "leading digit")
        with pytest.raises(ValueError):
            registry.counter("has-dash_total", "dash")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total", "bad label",
                             labels=("le",))

    def test_invalid_label_rejected_on_first_registration(self,
                                                          registry):
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_bad_label_total", "x",
                             labels=("bad-label",))
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.histogram("bad name", "x", labels=("ok",))

    def test_bucket_conflict_raises(self, registry):
        first = registry.histogram("repro_bk", "x", buckets=(1.0, 5.0))
        assert registry.histogram("repro_bk", "x", buckets=(1, 5)) is first
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("repro_bk", "x", buckets=(1.0, 10.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("repro_bk", "x")     # the defaults
        registry.histogram("repro_bk_default", "x")
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("repro_bk_default", "x", buckets=(1.0,))

    def test_names_are_validated_only_on_creation(self, registry,
                                                   monkeypatch):
        """A repeat registration is a dict lookup: the name and label
        patterns run when the family is created, never again."""
        checked: list[str] = []

        class Spy:
            def __init__(self, pattern):
                self.pattern = pattern

            def match(self, text):
                checked.append(text)
                return self.pattern.match(text)
        monkeypatch.setattr(metrics, "_METRIC_NAME",
                            Spy(metrics._METRIC_NAME))
        monkeypatch.setattr(metrics, "_LABEL_NAME",
                            Spy(metrics._LABEL_NAME))
        family = registry.counter("repro_once_total", "x",
                                  labels=("a", "b"))
        assert checked == ["repro_once_total", "a", "b"]
        for _ in range(3):
            assert registry.counter("repro_once_total", "x",
                                    labels=("a", "b")) is family
        assert checked == ["repro_once_total", "a", "b"]

    def test_bucket_validation(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("repro_b", "bad", buckets=(5.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("repro_b2", "empty", buckets=())

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestExposition:
    def test_rendered_output_validates(self, registry):
        registry.counter("repro_req_total", "requests",
                         labels=("path", "status"),
                         ).labels("/query", "200").inc(7)
        registry.gauge("repro_uptime_seconds", "uptime").set(1.25)
        hist = registry.histogram("repro_lat_seconds", "latency",
                                  labels=("path",))
        hist.labels("/query").observe(0.004)
        hist.labels("/query").observe(42.0)
        families = parse_prometheus_text(registry.render())
        assert families["repro_req_total"]["type"] == "counter"
        samples = families["repro_req_total"]["samples"]
        assert samples == [("repro_req_total",
                            {"path": "/query", "status": "200"}, 7.0)]
        latency = families["repro_lat_seconds"]
        bucket_bounds = [labels["le"] for name, labels, _value
                         in latency["samples"]
                         if name.endswith("_bucket")]
        assert len(bucket_bounds) == len(DEFAULT_BUCKETS) + 1
        assert bucket_bounds[-1] == "+Inf"

    def test_label_value_escaping_round_trips(self, registry):
        nasty = 'quote " backslash \\ newline \n end'
        registry.counter("repro_esc_total", "escapes",
                         labels=("text",)).labels(nasty).inc()
        families = parse_prometheus_text(registry.render())
        ((_name, labels, value),) = families["repro_esc_total"]["samples"]
        assert labels["text"] == nasty and value == 1.0

    def test_help_and_type_precede_every_sample(self, registry):
        registry.counter("repro_a_total", "a").inc()
        registry.gauge("repro_b", "b").set(2)
        lines = registry.render().splitlines()
        seen_help: set[str] = set()
        for line in lines:
            if line.startswith("# HELP "):
                seen_help.add(line.split(" ")[2])
            elif not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                assert name in seen_help

    def test_validator_rejects_bad_exposition(self):
        with pytest.raises(ExpositionError):
            parse_prometheus_text("orphan_metric 1\n")
        with pytest.raises(ExpositionError):
            parse_prometheus_text(
                "# HELP x h\n# TYPE x counter\nx{bad-name=\"v\"} 1\n")

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""
        assert parse_prometheus_text("") == {}

    def test_thread_safety_under_contention(self, registry):
        counter = registry.counter("repro_race_total", "contended")
        hist = registry.histogram("repro_race_seconds", "contended")

        def hammer():
            for _ in range(500):
                counter.inc()
                hist.observe(0.01)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.labels().value == 4000
        _counts, _total, count = hist.labels().snapshot()
        assert count == 4000
        parse_prometheus_text(registry.render())
