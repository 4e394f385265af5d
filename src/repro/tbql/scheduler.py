"""Data query scheduling (Section III-F).

Each TBQL pattern compiles into one data query (SQL for event patterns,
the path operator for path patterns).  The scheduler decides the order:

* every pattern gets a *pruning score* — the number of constraints it
  declares; variable-length path patterns are additionally penalized by their
  maximum path length (longer searches prune less per unit cost);
* execution starts from the highest-scoring pattern; afterwards, among the
  patterns connected to already-executed ones (sharing an entity ID), the
  highest-scoring is executed next, so that results from selective patterns
  constrain the rest.  Disconnected components fall back to the global
  maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .semantics import ResolvedPattern, ResolvedQuery


@dataclass(frozen=True)
class ScheduledStep:
    """One step of the execution plan."""

    pattern: ResolvedPattern
    score: float
    #: Entity IDs already bound by earlier steps (candidates can be injected).
    bound_entities: frozenset[str]

    @property
    def candidate_entities(self) -> frozenset[str]:
        """This pattern's entity IDs that earlier steps already bound.

        The executor only considers these entities for candidate pushdown
        into the pattern's data query (whether a restriction is actually
        injected also depends on the candidate-set size cap).
        """
        return frozenset({self.pattern.subject.entity_id,
                          self.pattern.obj.entity_id}) & self.bound_entities


def pruning_score(pattern: ResolvedPattern) -> float:
    """Return the pruning score of one pattern.

    More declared constraints -> higher score.  For variable-length path
    patterns the score is reduced as the maximum path length grows, matching
    the paper's description ("a pattern with a smaller maximum path length
    has a higher score").
    """
    score = float(pattern.constraint_count)
    if pattern.is_path:
        max_length = pattern.max_length or 8
        score += 1.0 / max_length - 0.5
    return score


def schedule(query: ResolvedQuery,
             first: Optional[ResolvedPattern] = None) -> list[ScheduledStep]:
    """Return the ordered execution plan for ``query``.

    Only positive patterns are scheduled: ``and not`` absence patterns
    never bind candidates or join, so the executor scans them *after*
    every positive step (receiving the accumulated candidate pushdown)
    and applies them as an anti-join.  ``first`` pins the leading step
    (the standing-rule delta gate starts from the pattern it restricted
    to the delta); the rest follows by score and connectivity as usual.
    """
    remaining = [pattern for pattern in query.patterns
                 if not pattern.negated]
    executed: list[ScheduledStep] = []
    bound: set[str] = set()
    while remaining:
        connected = [pattern for pattern in remaining
                     if {pattern.subject.entity_id,
                         pattern.obj.entity_id} & bound]
        pool = connected if connected else remaining
        if first is not None and not executed:
            pool = [first]
        best = max(pool, key=lambda pattern: (pruning_score(pattern),
                                              -pattern.index))
        executed.append(ScheduledStep(pattern=best,
                                      score=pruning_score(best),
                                      bound_entities=frozenset(bound)))
        bound.update({best.subject.entity_id, best.obj.entity_id})
        remaining.remove(best)
    return executed


def naive_schedule(query: ResolvedQuery) -> list[ScheduledStep]:
    """Execution plan in declaration order, ignoring pruning scores.

    Used by the scheduler ablation benchmark to quantify what the
    pruning-score ordering contributes.  Absence patterns are excluded
    exactly as in :func:`schedule`.
    """
    steps: list[ScheduledStep] = []
    bound: set[str] = set()
    for pattern in query.patterns:
        if pattern.negated:
            continue
        steps.append(ScheduledStep(pattern=pattern,
                                   score=pruning_score(pattern),
                                   bound_entities=frozenset(bound)))
        bound.update({pattern.subject.entity_id, pattern.obj.entity_id})
    return steps


__all__ = ["ScheduledStep", "pruning_score", "schedule", "naive_schedule"]
