"""The always-re-evaluate detection engine, frozen as a differential oracle.

``DetectionEngine._evaluate_rules`` exactly as it stood before the delta
gate: every flush executes every standing rule as a full query over the
whole history and then throws away the events at or below the rule's
high-water mark.  The loop body is verbatim; only the class around it is
new.  Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.streaming import DetectionEngine
from repro.streaming.alerts import Alert


class FullReevalEngine(DetectionEngine):
    """A :class:`DetectionEngine` without the delta gate."""

    def _evaluate_rules(self) -> list[Alert]:
        """Run every standing rule; returns the alerts this delta fired."""
        rules = self.rules.list()
        if not rules:
            return []
        fired: list[Alert] = []
        watermark = self.watermark
        max_event_id = self.store.max_event_id
        data_version = self.store.data_version
        registry = get_registry()
        eval_counter = registry.counter(
            "repro_rule_evaluations_total",
            "Standing-rule evaluations, per rule.", labels=("rule",))
        error_counter = registry.counter(
            "repro_rule_errors_total",
            "Standing-rule evaluations that raised, per rule.",
            labels=("rule",))
        alert_counter = registry.counter(
            "repro_rule_alerts_total",
            "Alerts fired by standing rules, per rule.",
            labels=("rule",))
        with self.lock.read_lock():
            for rule in rules:
                try:
                    result = self.executor.execute(rule.resolve(watermark))
                except ReproError as exc:
                    rule.last_error = str(exc)
                    self.rule_errors += 1
                    error_counter.labels(rule.rule_id).inc()
                    continue
                rule.last_error = None
                rule.evaluations += 1
                eval_counter.labels(rule.rule_id).inc()
                high_water = rule.high_water_event_id
                # A standing rule fires only on *complete* matches: an
                # event satisfying one pattern of a multi-pattern rule is
                # not a detection until the join closes, so firing keys on
                # the join-participating events, and only when the delta
                # contributed at least one of them.
                new_ids = sorted({
                    event_id for event in result.joined_events
                    for event_id in event["event_ids"]
                    if event_id > high_water})
                rule.high_water_event_id = max_event_id
                if not new_ids:
                    continue
                alert = self.alerts.fire(
                    rule_id=rule.rule_id, query=rule.text,
                    batch_seq=self.batch_seq, data_version=data_version,
                    watermark=watermark if watermark is not None else 0.0,
                    new_event_ids=new_ids,
                    matched_events=result.joined_events,
                    rows=result.rows)
                if alert is not None:
                    rule.alerts_fired += 1
                    alert_counter.labels(rule.rule_id).inc()
                    fired.append(alert)
        return fired


__all__ = ["FullReevalEngine"]
