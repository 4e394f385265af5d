"""Standing TBQL rules: hunts registered once, evaluated on every flush.

A *standing rule* is a TBQL query compiled at registration time (lexer,
parser, and — for time-independent queries — semantic resolution run once,
exactly like the query service's compiled-plan cache) and then evaluated
incrementally by the detection engine whenever a flush stores new events.
Time-dependent rules (``last N`` windows) are re-resolved per evaluation
against the engine's event-time *watermark*, so a rule like ``last 5 min``
means "the last five minutes of event time", independent of how far behind
the wall clock the stream is running.

Each rule carries a *high-water event id*: the highest stored event id the
rule has already been evaluated over.  Matches whose events all lie at or
below the mark were either alerted on before or predate the rule, which is
what makes standing rules fire exactly once per matching delta.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ..errors import StreamingError, TBQLError
from ..tbql.ast import TBQLQuery
from ..tbql.parser import parse_tbql
from ..tbql.semantics import (ResolvedQuery, query_is_time_dependent,
                              resolve_query)

#: File suffix rule files use inside a rules directory.
RULE_FILE_SUFFIX = ".tbql"


@dataclass
class StandingRule:
    """One registered detection rule and its incremental-evaluation state."""

    rule_id: str
    text: str
    time_dependent: bool
    parsed: TBQLQuery = field(repr=False)
    #: Fully resolved form, pre-computed for time-independent rules;
    #: ``None`` means "re-resolve against the watermark per evaluation".
    resolved: Optional[ResolvedQuery] = field(default=None, repr=False)
    created_at: float = field(default_factory=time.time)
    #: Highest stored event id this rule has been evaluated over.
    high_water_event_id: int = 0
    evaluations: int = 0
    #: Evaluations the delta gate let through to a full query.
    full_evaluations: int = 0
    alerts_fired: int = 0
    last_error: Optional[str] = None

    def resolve(self, watermark: Optional[float]) -> ResolvedQuery:
        """The executable plan, resolved against event time when needed."""
        if self.resolved is not None:
            return self.resolved
        return resolve_query(self.parsed, now=watermark)

    def as_dict(self) -> dict:
        """JSON-ready view served by ``GET /rules`` and ``repro rules``."""
        return {
            "id": self.rule_id,
            "tbql": self.text,
            "time_dependent": self.time_dependent,
            "patterns": len(self.parsed.patterns),
            "created_at": self.created_at,
            "high_water_event_id": self.high_water_event_id,
            "evaluations": self.evaluations,
            "full_evaluations": self.full_evaluations,
            "alerts_fired": self.alerts_fired,
            "last_error": self.last_error,
        }


def compile_rule(text: str, rule_id: str,
                 high_water_event_id: int = 0) -> StandingRule:
    """Parse and validate TBQL text into a :class:`StandingRule`.

    Compilation errors (syntax or semantics) surface immediately — a rule
    that cannot execute is rejected at registration, not at its first
    flush.  Time-dependent rules are resolved once here purely for
    validation; their per-evaluation resolution happens against the
    watermark.
    """
    parsed = parse_tbql(text)
    time_dependent = query_is_time_dependent(parsed)
    resolved = resolve_query(parsed)
    return StandingRule(
        rule_id=rule_id, text=text, time_dependent=time_dependent,
        parsed=parsed, resolved=None if time_dependent else resolved,
        high_water_event_id=high_water_event_id)


class RuleRegistry:
    """Thread-safe collection of standing rules, keyed by rule id."""

    def __init__(self) -> None:
        self._rules: dict[str, StandingRule] = {}
        self._lock = threading.Lock()
        self._auto_counter = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._rules)

    def __iter__(self) -> Iterator[StandingRule]:
        return iter(self.list())

    def list(self) -> list[StandingRule]:
        """Snapshot of the registered rules, in registration order."""
        with self._lock:
            return list(self._rules.values())

    def get(self, rule_id: str) -> Optional[StandingRule]:
        with self._lock:
            return self._rules.get(rule_id)

    def add(self, text: str, rule_id: Optional[str] = None,
            high_water_event_id: int = 0) -> StandingRule:
        """Compile and register a rule; returns it.

        Raises:
            StreamingError: when ``rule_id`` is already registered.
            TBQLError: when the text fails to compile.
        """
        with self._lock:
            if rule_id is None:
                self._auto_counter += 1
                while f"rule-{self._auto_counter}" in self._rules:
                    self._auto_counter += 1
                rule_id = f"rule-{self._auto_counter}"
            elif rule_id in self._rules:
                raise StreamingError(
                    f"rule id {rule_id!r} is already registered "
                    f"(remove it first to replace)")
        return self.add_compiled(compile_rule(
            text, rule_id, high_water_event_id=high_water_event_id))

    def add_compiled(self, rule: StandingRule) -> StandingRule:
        """Register an already-compiled rule (no recompilation); returns it.

        Raises:
            StreamingError: when the rule's id is already registered.
        """
        with self._lock:
            if rule.rule_id in self._rules:
                raise StreamingError(
                    f"rule id {rule.rule_id!r} is already registered "
                    f"(remove it first to replace)")
            self._rules[rule.rule_id] = rule
        return rule

    def remove(self, rule_id: str) -> StandingRule:
        """Deregister and return a rule.

        Raises:
            StreamingError: when the id is unknown.
        """
        with self._lock:
            rule = self._rules.pop(rule_id, None)
        if rule is None:
            raise StreamingError(f"unknown rule id: {rule_id!r}",
                                 status=404)
        return rule


def load_rules_directory(directory: str | Path
                         ) -> list[tuple[str, str, Optional[StandingRule],
                                         Optional[TBQLError]]]:
    """Read every ``*.tbql`` file in a directory as a candidate rule.

    Returns ``(rule_id, text, rule, error)`` tuples in filename order —
    the rule id is the file stem, ``rule`` is the compiled
    :class:`StandingRule` (compiled exactly once; register it via
    :meth:`RuleRegistry.add_compiled`) and ``error`` the compilation
    failure; exactly one of the two is ``None``.  Callers decide whether
    invalid rules are fatal (``repro rules``) or skipped with a warning
    (``repro tail``).
    """
    rules_dir = Path(directory)
    if not rules_dir.is_dir():
        raise StreamingError(f"rules directory not found: {rules_dir}")
    entries: list[tuple[str, str, Optional[StandingRule],
                        Optional[TBQLError]]] = []
    for path in sorted(rules_dir.glob(f"*{RULE_FILE_SUFFIX}")):
        text = path.read_text(encoding="utf-8").strip()
        rule: Optional[StandingRule] = None
        error: Optional[TBQLError] = None
        try:
            rule = compile_rule(text, path.stem)
        except TBQLError as exc:
            error = exc
        entries.append((path.stem, text, rule, error))
    return entries


__all__ = ["StandingRule", "RuleRegistry", "compile_rule",
           "load_rules_directory", "RULE_FILE_SUFFIX"]
