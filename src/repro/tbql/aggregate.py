"""Post-join aggregation for TBQL v2 (``count()`` / ``group by`` / ``top``).

Aggregation runs over the *joined* result rows, after the scatter-gather
stage has merged per-segment partial results back into the global
``(start_time, event_id)`` order and the join has enumerated assignments
in its canonical order.  Every partial contribution a segment scan made is
therefore re-combined here exactly once, which is what keeps aggregated
results byte-identical across segment cuts — the partitioned equivalence
corpus pins this.

Accumulation is one dict keyed by the group tuple, O(rows), in row order
(first-seen group order).  The naive linear-lookup accumulator it is
tested against lives in ``tests/reference/``.
"""

from __future__ import annotations

from typing import Any, Optional

from .semantics import ResolvedAggregation

#: Name of the aggregate output column.
COUNT_COLUMN = "count"


def _group_key(row: dict[str, Any],
               group_by: list[tuple[str, str]]) -> tuple:
    return tuple(row.get(f"{entity_id}.{attribute}")
                 for entity_id, attribute in group_by)


def _order_key(key: tuple) -> tuple:
    """Deterministic total order over heterogeneous group-key tuples."""
    return tuple((value is None, str(value), type(value).__name__)
                 for value in key)


def apply_aggregation(rows: list[dict[str, Any]],
                      aggregation: Optional[ResolvedAggregation]
                      ) -> list[dict[str, Any]]:
    """Collapse joined rows into one row per group.

    Output rows follow the declared return-item order (``count()`` where
    it appeared); groups are ordered by descending count, then ascending
    group key, and truncated to ``top_n`` when set.
    """
    if aggregation is None:
        return rows
    counts: dict[tuple, int] = {}
    for row in rows:
        key = _group_key(row, aggregation.group_by)
        counts[key] = counts.get(key, 0) + 1
    return rows_from_counts(counts, aggregation)


def rows_from_counts(counted: dict[tuple, int],
                     aggregation: ResolvedAggregation
                     ) -> list[dict[str, Any]]:
    """Render merged group counts as output rows.

    Shared by the post-join accumulator above and the partial-aggregate
    pushdown path (which merges per-segment ``group key -> count``
    partials before calling this).  The sort key ``(-count,
    _order_key(key))`` is a *total* order over primitive group keys —
    ``_order_key`` is injective on SQLite cell values — so the rendered
    order is independent of accumulation order.
    """
    groups = sorted(counted.items(),
                    key=lambda item: (-item[1], _order_key(item[0])))
    if aggregation.top_n is not None:
        groups = groups[:aggregation.top_n]
    position = {pair: index
                for index, pair in enumerate(aggregation.group_by)}
    out_rows: list[dict[str, Any]] = []
    for key, count in groups:
        row: dict[str, Any] = {}
        for pair in aggregation.output:
            if pair is None:
                row[COUNT_COLUMN] = count
            else:
                entity_id, attribute = pair
                row[f"{entity_id}.{attribute}"] = key[position[pair]]
        out_rows.append(row)
    return out_rows


__all__ = ["COUNT_COLUMN", "apply_aggregation", "rows_from_counts"]
