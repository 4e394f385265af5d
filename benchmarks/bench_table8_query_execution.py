"""Table VIII — efficiency of TBQL query execution, exact mode (RQ4).

For each representative case the bench times semantically equivalent
queries of the paper's comparison:

(a) scheduled TBQL (event patterns, relational backend),
(b) one giant SQL statement,
(c) scheduled TBQL with length-1 event path patterns (the path operator
    over the stored rows),
(d) one giant SQL statement of (c), each path a recursive CTE.

The paper's (d), giant Cypher on Neo4j, is not reproduced: there is no
graph database.
"""

import pytest

from repro.benchmark import format_table
from repro.benchmark.evaluation import build_case_store, run_query_execution
from repro.benchmark import get_case
from repro.tbql.executor import TBQLExecutor
from tests.reference.executor_seed import BacktrackingJoinExecutor

from .conftest import BENCH_CASE_IDS, write_result_table

_COLUMNS = ["case", "tbql_mean", "sql_mean", "tbql_path_mean",
            "sql_path_mean"]

#: Three event patterns sharing one process entity with no entity filters:
#: each pattern matches a large slice of the benign background, which is
#: exactly where the seed's cross-product backtracking join degenerated.
_JOIN_SCALING_QUERY = """
proc p read file f as e1
proc p write file g as e2
proc p read file h as e3
return distinct p
"""


@pytest.mark.parametrize("case_id", BENCH_CASE_IDS)
def test_table8_tbql_scheduled(benchmark, bench_case_stores,
                               bench_case_queries, case_id):
    """(a) scheduled TBQL query on the relational backend."""
    _case, store, _truth = bench_case_stores[case_id]
    queries = bench_case_queries[case_id]
    executor = TBQLExecutor(store)
    result = benchmark(lambda: executor.execute(queries.tbql))
    assert result is not None


@pytest.mark.parametrize("case_id", BENCH_CASE_IDS)
def test_table8_giant_sql(benchmark, bench_case_stores, bench_case_queries,
                          case_id):
    """(b) the single giant SQL statement."""
    _case, store, _truth = bench_case_stores[case_id]
    queries = bench_case_queries[case_id]
    benchmark(lambda: store.execute_sql(queries.sql))


@pytest.mark.parametrize("case_id", BENCH_CASE_IDS)
def test_table8_tbql_length1_path(benchmark, bench_case_stores,
                                  bench_case_queries, case_id):
    """(c) scheduled TBQL with length-1 path patterns (path operator)."""
    _case, store, _truth = bench_case_stores[case_id]
    queries = bench_case_queries[case_id]
    executor = TBQLExecutor(store)
    benchmark(lambda: executor.execute(queries.tbql_path))


@pytest.mark.parametrize("case_id", BENCH_CASE_IDS)
def test_table8_giant_sql_length1_path(benchmark, bench_case_stores,
                                       bench_case_queries, case_id):
    """(d) the single giant SQL statement of the length-1 path variant."""
    _case, store, _truth = bench_case_stores[case_id]
    queries = bench_case_queries[case_id]
    benchmark(lambda: store.execute_sql(queries.sql_path))


def test_table8_join_scaling_hash_vs_backtracking(benchmark):
    """The hash join must not blow up on unselective 3-pattern queries.

    Runs the same multi-pattern query through the pipelined hash join and
    the seed's backtracking join (kept in ``tests/reference``) and writes
    the per-strategy join timings; the structured plan also proves each SQL
    pattern hydrated its entities with at most one batched query (no N+1).
    """
    store, _ = build_case_store(get_case("data_leak"), benign_sessions=300)
    hash_executor = TBQLExecutor(store)
    backtracking_executor = BacktrackingJoinExecutor(store)

    hash_result = benchmark.pedantic(
        lambda: hash_executor.execute(_JOIN_SCALING_QUERY),
        iterations=1, rounds=3)
    backtracking_result = backtracking_executor.execute(_JOIN_SCALING_QUERY)

    rows = [
        {"join": strategy, "join_seconds": result.join_seconds,
         "elapsed_seconds": result.elapsed_seconds,
         "result_rows": len(result.rows)}
        for strategy, result in (("hash", hash_result),
                                 ("backtracking", backtracking_result))
    ]
    write_result_table("table8_join_scaling",
                       format_table(rows, floatfmt="{:.4f}"))
    # Identical answers, measurably faster join on multi-pattern queries.
    assert hash_result.rows == backtracking_result.rows
    assert hash_result.matched_events == backtracking_result.matched_events
    assert hash_result.join_seconds < backtracking_result.join_seconds
    # Batched hydration: the per-pattern statement count is set by the
    # store's chunking of one IN-list batch, never by the row count — the
    # seed issued up to 2 lookups per row.
    for step in hash_result.plan:
        assert step.backend == "sql"
        assert step.hydration_queries < max(2, step.rows_in)
    store.close()


def test_table8_regenerate_rows(benchmark):
    """Regenerate the Table VIII rows (mean/std over rounds) for the
    representative cases and persist them."""

    def regenerate():
        return [run_query_execution(get_case(case_id), rounds=3,
                                    benign_sessions=60)
                for case_id in BENCH_CASE_IDS]

    rows = benchmark.pedantic(regenerate, iterations=1, rounds=1)
    table = format_table(rows, _COLUMNS, floatfmt="{:.4f}")
    write_result_table("table8_query_execution", table)
    # Note on shape vs. the paper: at laptop scale, with synthesized queries
    # whose every pattern carries a highly selective IOC filter, the giant
    # SQL statements stay competitive with scheduled execution (the
    # engines prune on the selective filters immediately).  The paper's
    # giant-query penalty appears when patterns are unselective or data is
    # orders of magnitude larger; bench_ablation_scheduler reproduces that
    # mechanism explicitly.  Here we only sanity-check the measurements.
    for row in rows:
        for key in ("tbql_mean", "sql_mean", "tbql_path_mean",
                    "sql_path_mean"):
            assert row[key] > 0.0
    # Execution cost grows with the number of patterns in the query.
    ordered = {row["case"]: row["tbql_mean"] for row in rows}
    assert ordered["data_leak"] > ordered["tc_clearscope_3"]
