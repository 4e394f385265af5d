"""Table IX — fuzzy search mode vs Poirot (RQ4, inexact matching).

Times the three phases the paper reports (loading, preprocessing, searching)
for ThreatRaptor's exhaustive fuzzy mode and for the Poirot baseline that
stops at the first acceptable alignment.

The module also regenerates a strategy-comparison table on a large synthetic
store (``BENCH_FUZZY_SESSIONS`` benign sessions, ~100k events by default):
the indexed fast path (bigram-prefiltered candidates, bit-parallel
Levenshtein, one cached flow closure per first-mapped endpoint of a query
edge, branch-and-bound enumeration) against the seed's
brute-force search kept in ``tests/reference``, asserting identical
alignments and a ≥5x speedup at scale, both searches cold; an
``indexed (warm)`` row times a second search that reuses the store's
memoised index and the node candidates that index memoised for the
same query, so it pays for the alignment alone.
"""

import os
import time

import pytest

from repro.benchmark import format_table, get_case
from repro.benchmark.evaluation import build_case_store, run_fuzzy_comparison
from repro.benchmark.queries import build_case_queries
from repro.tbql.fuzzy import FuzzySearcher, _forget_index
from repro.tbql.poirot import PoirotSearcher
from tests.reference.fuzzy_bruteforce import BruteForceFuzzySearcher

from .conftest import BENCH_CASE_IDS, write_result_table

_COLUMNS = ["case", "fuzzy_loading", "fuzzy_preprocessing",
            "fuzzy_searching", "fuzzy_total", "fuzzy_alignments",
            "poirot_searching", "poirot_total", "poirot_alignments"]

#: Benign sessions behind the strategy-comparison store; 3400 ≈ 100k events.
#: CI smoke runs set this low via the environment.
BENCH_FUZZY_SESSIONS = int(os.environ.get("BENCH_FUZZY_SESSIONS", "3400"))


@pytest.mark.parametrize("case_id", BENCH_CASE_IDS)
def test_table9_fuzzy_mode(benchmark, bench_case_stores, bench_case_queries,
                           case_id):
    """ThreatRaptor-Fuzzy: exhaustive alignment search."""
    _case, store, _truth = bench_case_stores[case_id]
    queries = bench_case_queries[case_id]
    searcher = FuzzySearcher(store)
    result = benchmark(lambda: searcher.search(queries.tbql))
    assert result.total_seconds >= 0


@pytest.mark.parametrize("case_id", BENCH_CASE_IDS)
def test_table9_poirot_baseline(benchmark, bench_case_stores,
                                bench_case_queries, case_id):
    """Poirot: stop at the first acceptable alignment."""
    _case, store, _truth = bench_case_stores[case_id]
    queries = bench_case_queries[case_id]
    searcher = PoirotSearcher(store)
    benchmark(lambda: searcher.search(queries.tbql))


def test_table9_regenerate_rows(benchmark, bench_case_stores,
                                bench_case_queries):
    """Regenerate Table IX rows and check the exact-vs-fuzzy cost shape."""

    def regenerate():
        return [run_fuzzy_comparison(get_case(case_id), benign_sessions=60,
                                     queries=bench_case_queries[case_id])
                for case_id in BENCH_CASE_IDS]

    rows = benchmark.pedantic(regenerate, iterations=1, rounds=1)
    table = format_table(rows, _COLUMNS, floatfmt="{:.4f}")
    write_result_table("table9_fuzzy_search", table)
    for row in rows:
        # The exhaustive fuzzy search never does less work than Poirot's
        # first-acceptable-alignment search on the same case.
        assert row["fuzzy_alignments"] >= row["poirot_alignments"]


def test_table9_strategy_speedup(benchmark):
    """Indexed fast path vs brute-force reference on the ~100k-event store."""
    case = get_case("data_leak")
    store, _truth = build_case_store(case,
                                     benign_sessions=BENCH_FUZZY_SESSIONS)
    queries = build_case_queries(case)
    searchers = {
        "indexed": FuzzySearcher(store),
        "bruteforce": BruteForceFuzzySearcher(store),
    }

    def run(strategy):
        start = time.perf_counter()
        result = searchers[strategy].search(queries.tbql)
        return result, time.perf_counter() - start

    # The speedup compares cold searches: the brute force builds its index
    # on every search, so the indexed leg starts without the memoised one.
    _forget_index(store)
    indexed, indexed_seconds = benchmark.pedantic(
        lambda: run("indexed"), iterations=1, rounds=1)
    bruteforce, bruteforce_seconds = run("bruteforce")
    warm, warm_seconds = run("indexed")

    def alignment_key(alignment):
        return (sorted(alignment.mapping.items()), alignment.score)

    for result in (indexed, warm):
        assert sorted(map(alignment_key, result.alignments)) == \
            sorted(map(alignment_key, bruteforce.alignments))
        assert result.candidate_counts == bruteforce.candidate_counts
    assert not indexed.index_reused and warm.index_reused
    assert indexed.candidates_reused == 0
    assert warm.candidates_reused == len(warm.candidate_counts) > 0

    speedup = bruteforce_seconds / max(indexed_seconds, 1e-9)
    rows = [
        {"strategy": name, "loading": r.loading_seconds,
         "preprocessing": r.preprocessing_seconds,
         "searching": r.searching_seconds, "total_wall": seconds,
         "alignments": len(r.alignments),
         "speedup": seconds and bruteforce_seconds / seconds}
        for name, (r, seconds) in (("bruteforce",
                                    (bruteforce, bruteforce_seconds)),
                                   ("indexed", (indexed, indexed_seconds)),
                                   ("indexed (warm)", (warm, warm_seconds)))
    ]
    table = format_table(rows, ["strategy", "loading", "preprocessing",
                                "searching", "total_wall", "alignments",
                                "speedup"], floatfmt="{:.4f}")
    write_result_table("table9_fuzzy_strategy_speedup", table)
    store.close()
    if BENCH_FUZZY_SESSIONS >= 1000:
        # Acceptance bar: >=5x on the ~100k-event workload (measured ~16x
        # on the reference hardware).
        assert speedup >= 5.0
    else:
        assert speedup > 0.0


def test_table9_exact_vs_fuzzy_cost(benchmark, bench_case_stores,
                                    bench_case_queries):
    """The paper's headline: exact search is far cheaper than fuzzy search."""
    from repro.tbql.executor import TBQLExecutor
    _case, store, _truth = bench_case_stores["data_leak"]
    queries = bench_case_queries["data_leak"]
    executor = TBQLExecutor(store)
    exact_result = benchmark(lambda: executor.execute(queries.tbql))
    # The paper's comparison is against a fuzzy search that loads and
    # preprocesses; earlier tests may have memoised this store's index.
    _forget_index(store)
    fuzzy_result = FuzzySearcher(store).search(queries.tbql)
    assert exact_result.elapsed_seconds < fuzzy_result.total_seconds
