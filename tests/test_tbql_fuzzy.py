"""Tests for the fuzzy search mode, the Poirot baseline, and conciseness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tbql.conciseness import (compare_conciseness, measure_conciseness,
                                    strip_comments)
from repro.tbql.fuzzy import (FuzzySearcher, GraphAligner, ProvenanceIndex,
                              QueryGraph, QueryNode, _forget_index,
                              _score_flows, levenshtein_distance,
                              levenshtein_within, string_similarity)
from repro.tbql.parser import parse_tbql
from repro.tbql.paths import adjacency
from repro.tbql.poirot import PoirotSearcher
from repro.tbql.semantics import resolve_query

from .reference.fuzzy_bruteforce import (BruteForceFuzzySearcher,
                                         BruteForcePoirotSearcher,
                                         candidates_for_bruteforce,
                                         flow_score_bruteforce,
                                         joined_event_rows)


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("abc", "abc") == 0
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_similarity_range_and_symmetry(self):
        assert string_similarity("pass_mgr.exe", "pass_mgr_v2.exe") > 0.6
        assert string_similarity("abc", "xyz") < 0.5
        assert string_similarity("a", "a") == 1.0

    def test_substring_containment_boost(self):
        assert string_similarity("upload.tar", "/tmp/upload.tar") >= 0.9

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_distance_symmetric_and_triangle_with_empty(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)
        assert levenshtein_distance(a, b) <= max(len(a), len(b))

    @given(st.text(max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0

    @given(st.text(max_size=16), st.text(max_size=16),
           st.integers(min_value=0, max_value=18))
    @settings(max_examples=150, deadline=None)
    def test_banded_matches_full_dp(self, a, b, bound):
        """levenshtein_within returns the exact distance iff within bound."""
        full = levenshtein_distance(a, b)
        banded = levenshtein_within(a, b, bound)
        if full <= bound:
            assert banded == full
        else:
            assert banded is None

    def test_banded_early_exit_cases(self):
        assert levenshtein_within("kitten", "sitting", 3) == 3
        assert levenshtein_within("kitten", "sitting", 2) is None
        assert levenshtein_within("abc", "abc", 0) == 0
        assert levenshtein_within("abc", "abd", 0) is None
        assert levenshtein_within("", "abcd", 3) is None
        assert levenshtein_within("", "abcd", 4) == 4
        assert levenshtein_within("x", "y", -1) is None

    @given(st.text(min_size=60, max_size=130),
           st.lists(st.tuples(st.sampled_from(["sub", "ins", "del"]),
                              st.integers(0, 130), st.characters()),
                    max_size=20),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_parallel_beyond_a_machine_word(self, a, edits, data):
        """Strings longer than 64 characters span several words of the
        bit vectors; near neighbours exercise the early exit."""
        chars = list(a)
        for kind, position, char in edits:
            position %= len(chars) + 1
            if kind == "ins":
                chars.insert(position, char)
            elif position < len(chars):
                if kind == "sub":
                    chars[position] = char
                else:
                    del chars[position]
        b = "".join(chars)
        bound = data.draw(st.integers(-1, max(len(a), len(b))))
        full = levenshtein_distance(a, b)
        for left, right in ((a, b), (b, a)):
            assert levenshtein_within(left, right, bound) == \
                (full if full <= bound else None)


class TestQueryGraph:
    def test_built_from_resolved_query(self):
        resolved = resolve_query(parse_tbql(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
            'proc p connect ip i["1.2.3.4"] as e2 return p'))
        graph = QueryGraph.from_resolved(resolved)
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 2
        search_strings = {node.entity_id: node.search_string
                          for node in graph.nodes}
        assert search_strings["p"] == "/bin/tar"
        assert search_strings["i"] == "1.2.3.4"


class TestProvenanceIndex:
    def _index(self, store):
        index = ProvenanceIndex()
        for row in joined_event_rows(store.relational):
            index.add_event(row)
        return index

    def test_candidates_by_similarity(self, data_leak_store):
        index = self._index(data_leak_store)
        resolved = resolve_query(parse_tbql(
            'proc p["%/bin/tar%"] read file f return p'))
        graph = QueryGraph.from_resolved(resolved)
        candidates = index.candidates_for(graph.nodes[0])
        assert candidates
        names = {index.node_names[node_id] for node_id, _ in candidates}
        assert "/bin/tar" in names

    def test_flow_score_direct_edge(self, data_leak_store):
        index = self._index(data_leak_store)
        tar_id = next(node_id for node_id, name in index.node_names.items()
                      if name == "/bin/tar" and
                      index.node_types[node_id] == "proc")
        passwd_id = next(node_id for node_id, name in
                         index.node_names.items() if name == "/etc/passwd")
        assert index.flow_score(tar_id, passwd_id, frozenset({"read"})) == 1.0
        assert index.flow_score(passwd_id, tar_id, None) == 0.0


#: Alphabet with heavy collisions so random names share bigrams often.
_NAME_ALPHABET = "ab/.t"
#: Strings holding one bigram several times: the prefilter must count
#: min(needle occurrences, name occurrences) of it.
_REPEATED_GRAMS = ["aaaa", "aaa", "aa", "/usr/usr", "/usr/usr/bin",
                   "/usr/bin/usr", "usr", "abab", "ababab"]
_NAMES = st.one_of(st.text(_NAME_ALPHABET, max_size=12),
                   st.sampled_from(_REPEATED_GRAMS))


def _index_from_names(names):
    index = ProvenanceIndex()
    for node_id, (name, node_type) in enumerate(names, start=1):
        index.node_names[node_id] = name
        index.node_types[node_id] = node_type
    return index


class TestCandidatePrefilterEquivalence:
    """The bigram prefilter is lossless: indexed == brute-force candidates."""

    @given(st.lists(st.tuples(_NAMES,
                              st.sampled_from(["proc", "file", "ip"])),
                    max_size=25),
           _NAMES,
           st.sampled_from(["proc", "file", ""]),
           st.sampled_from([0.3, 0.5, 0.6, 0.7, 0.9, 0.95]))
    @settings(max_examples=200, deadline=None)
    def test_candidate_sets_identical(self, names, needle, query_type,
                                      threshold):
        index = _index_from_names(names)
        query_node = QueryNode(entity_id="q", entity_type=query_type,
                               search_string=needle)
        fast = index.candidates_for(query_node, threshold=threshold)
        slow = candidates_for_bruteforce(index, query_node,
                                         threshold=threshold)
        assert fast == slow

    def test_boundary_similarity_not_dropped(self):
        # "abcde" vs "abxye": distance 2 over length 5 -> similarity exactly
        # 0.6, the NODE_SIMILARITY_THRESHOLD boundary; the prefilter must
        # keep it (>= comparison, like the brute force).
        index = _index_from_names([("abxye", "proc"), ("zzzzz", "proc")])
        query_node = QueryNode(entity_id="q", entity_type="proc",
                               search_string="abcde")
        fast = index.candidates_for(query_node, threshold=0.6)
        slow = candidates_for_bruteforce(index, query_node, threshold=0.6)
        assert fast == slow == [(1, 0.6)]

    def test_containment_candidates_survive_prefilter(self):
        # A short IOC inside a much longer path passes only through the
        # containment boost; the gram count filter must not prune it.
        long_path = "/var/spool/deep/nested/dirs/upload.tar"
        index = _index_from_names([(long_path, "file"),
                                   ("/other/file", "file")])
        query_node = QueryNode(entity_id="q", entity_type="file",
                               search_string="upload.tar")
        fast = index.candidates_for(query_node, threshold=0.6)
        slow = candidates_for_bruteforce(index, query_node, threshold=0.6)
        assert fast == slow
        assert fast and fast[0][0] == 1 and fast[0][1] >= 0.9

    def test_empty_needle_matches_bruteforce(self):
        index = _index_from_names([("/bin/tar", "proc"), ("/etc", "file")])
        query_node = QueryNode(entity_id="q", entity_type="proc",
                               search_string="")
        for threshold in (0.4, 0.5, 0.6):
            assert index.candidates_for(query_node, threshold=threshold) == \
                candidates_for_bruteforce(index, query_node,
                                          threshold=threshold)

    def test_mutation_invalidates_name_index(self, data_leak_store):
        index = ProvenanceIndex()
        rows = joined_event_rows(data_leak_store.relational)
        for row in rows[:-1]:
            index.add_event(row)
        query_node = QueryNode(entity_id="q", entity_type="",
                               search_string="/bin/tar")
        first = index.candidates_for(query_node)
        index.add_event(rows[-1])
        assert index.candidates_for(query_node) == \
            candidates_for_bruteforce(index, query_node)
        assert first  # the pre-mutation query found something


class TestFlowClosureEquivalence:
    """The cached flow closure scores exactly like the per-edge BFS."""

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8),
                              st.sampled_from(["read", "write", "connect"])),
                    max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_flow_scores_identical(self, edge_specs):
        index = ProvenanceIndex()
        for node in range(1, 9):
            index.node_names[node] = f"n{node}"
            index.node_types[node] = "proc"
        index.edges.add([(event_id, source, target, operation, 0.0, 0.0)
                         for event_id, (source, target, operation)
                         in enumerate(edge_specs, start=1)])
        operation_filters = [None, frozenset(), frozenset({"read"}),
                             frozenset({"write", "connect"})]
        for source in range(1, 9):
            for target in range(1, 9):
                for operations in operation_filters:
                    assert index.flow_score(source, target, operations) == \
                        flow_score_bruteforce(index, source, target,
                                              operations), \
                        (source, target, operations)

    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6),
                              st.sampled_from(["read", "write", "connect"])),
                    max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_target_closures_mirror_source_closures(self, edge_specs):
        """``flows_to(t)[s] == flows_from(s)[t]`` on multigraphs with
        self-loops and cycles, ``s == t`` included, and both score like
        the per-edge BFS."""
        index = ProvenanceIndex()
        for source, target, operation in edge_specs:
            index.add_event({"subject_id": source, "object_id": target,
                             "operation": operation, "subject_type": "proc",
                             "object_type": "proc"})
        operation_filters = [None, frozenset(), frozenset({"read"}),
                             frozenset({"write", "connect"})]
        for target in range(1, 7):
            into = index.flows_to(target)
            for source in range(1, 7):
                assert into.get(source) == \
                    index.flows_from(source).get(target), (source, target)
                for operations in operation_filters:
                    assert _score_flows(into.get(source), operations) == \
                        flow_score_bruteforce(index, source, target,
                                              operations), \
                        (source, target, operations)

    def test_closure_cache_invalidated_by_add_event(self, data_leak_store):
        index = ProvenanceIndex()
        rows = joined_event_rows(data_leak_store.relational)
        for row in rows:
            index.add_event(row)
        tar_id = next(node_id for node_id, name in index.node_names.items()
                      if name == "/bin/tar" and
                      index.node_types[node_id] == "proc")
        before = index.flows_from(tar_id)
        assert before  # closure materialized and cached
        synthetic = dict(rows[0])
        synthetic["subject_id"] = tar_id
        synthetic["object_id"] = max(index.node_names) + 1
        synthetic["operation"] = "write"
        index.add_event(synthetic)
        after = index.flows_from(tar_id)
        assert synthetic["object_id"] in after


class TestStrategyEquivalence:
    """indexed and bruteforce searches return identical alignments."""

    QUERY = ('proc p["%/bin/tarr%"] read file f["%/etc/passwd0%"] as evt1 '
             'proc p write file g["%/tmp/upload.tar%"] as evt2 '
             'return p, f, g')

    @staticmethod
    def _alignment_key(alignment):
        return (sorted(alignment.mapping.items()), alignment.score)

    @staticmethod
    def _set_memo(store, memo):
        """Start from no memoised index, or from one another search built."""
        _forget_index(store)
        if memo == "warm":
            FuzzySearcher(store).search('proc p read file f return p')

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_fuzzy_strategies_agree(self, data_leak_store, memo):
        self._set_memo(data_leak_store, memo)
        fast = FuzzySearcher(data_leak_store).search(self.QUERY)
        slow = BruteForceFuzzySearcher(data_leak_store).search(self.QUERY)
        assert fast.index_reused == (memo == "warm")
        assert [self._alignment_key(a) for a in fast.alignments] == \
               [self._alignment_key(a) for a in slow.alignments]
        assert fast.candidate_counts == slow.candidate_counts
        assert fast.alignments  # the deviated IOCs still align

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_poirot_strategies_agree(self, data_leak_store, memo):
        self._set_memo(data_leak_store, memo)
        fast = PoirotSearcher(data_leak_store).search(self.QUERY)
        slow = BruteForcePoirotSearcher(data_leak_store).search(self.QUERY)
        assert fast.index_reused == (memo == "warm")
        assert [self._alignment_key(a) for a in fast.alignments] == \
               [self._alignment_key(a) for a in slow.alignments]
        assert len(fast.alignments) == 1

    def test_indexed_sees_appends_after_a_load(self):
        # Events appended after a load reach the indexed search as they
        # reach the reference, which reads the relational rows.
        from repro.audit import AuditCollector
        from repro.storage import DualStore

        collector = AuditCollector()
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd")
        with DualStore() as store:
            store.load_events(collector.events())
            late = AuditCollector()
            curl = late.spawn_process("/usr/bin/curl")
            late.connect_ip(curl, "192.168.29.128")
            store.append_events(late.events())
            store.flush_appends()
            query = ('proc p["%/usr/bin/curl%"] connect ip '
                     'i["%192.168.29.128%"] return p')
            fast = FuzzySearcher(store).search(query)
            slow = BruteForceFuzzySearcher(store).search(query)
            assert [self._alignment_key(a) for a in fast.alignments] == \
                   [self._alignment_key(a) for a in slow.alignments]
            assert fast.alignments  # the appended events were seen

    def test_branch_and_bound_prunes_like_threshold(self, data_leak_store):
        # With an impossible threshold the bounded search must agree with
        # the brute force: no alignments, regardless of pruning.
        fast = FuzzySearcher(data_leak_store,
                             score_threshold=1.01).search(self.QUERY)
        slow = BruteForceFuzzySearcher(
            data_leak_store, score_threshold=1.01).search(self.QUERY)
        assert fast.alignments == slow.alignments == []


def _wide_to_narrow_store(seed: int):
    """Many ``/usr/bin/toolN`` processes around three dissimilar files: a
    query aimed from a tool at one of the files maps the file first."""
    import random

    from repro.audit import AuditCollector, CollectorConfig
    from repro.storage import DualStore

    rng = random.Random(seed)
    collector = AuditCollector(CollectorConfig(seed=seed))
    files = ["/tmp/alpha.bin", "/tmp/quebec.dat", "/tmp/zulu.log"]
    processes = [collector.spawn_process(f"/usr/bin/tool{number}")
                 for number in range(40)]
    for _ in range(160):
        process = rng.choice(processes)
        kind = rng.randrange(4)
        if kind == 0:
            collector.write_file(process, rng.choice(files))
        elif kind == 1:
            collector.read_file(process, rng.choice(files))
        elif kind == 2:
            child, _ = collector.start_process(
                process, f"/usr/bin/tool{rng.randrange(40)}")
            processes.append(child)
        else:
            collector.connect_ip(process, f"10.0.0.{rng.randrange(4)}")
    store = DualStore()
    store.load_events(collector.events())
    return store


class TestReversedEdges:
    """Edges scored from their target's closure give the seed's answers."""

    QUERIES = [
        'proc p["%/usr/bin/tool%"] write file f["%/tmp/quebec%"] as e1 '
        'proc q["%/usr/bin/tool%"] read file f as e2 return p, f, q',
        'proc p["%/usr/bin/tool%"] write file f["%/tmp/zulu.log%"] as e1 '
        'proc p connect ip i["10.0.0.1"] as e2 return p, f, i',
        'proc p["%/usr/bin/tool%"] start proc q["%/usr/bin/tool%"] as e1 '
        'proc q read file f["%/tmp/alpha.bin%"] as e2 return p, q, f',
    ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("searchers", [
        (FuzzySearcher, BruteForceFuzzySearcher),
        (PoirotSearcher, BruteForcePoirotSearcher)])
    def test_matches_bruteforce_on_random_stores(self, seed, searchers):
        fast_searcher, slow_searcher = searchers
        store = _wide_to_narrow_store(seed)
        try:
            for query in self.QUERIES:
                fast = fast_searcher(store).search(query)
                slow = slow_searcher(store).search(query)
                assert fast.candidate_counts == slow.candidate_counts
                assert [(a.mapping, a.score, a.node_names)
                        for a in fast.alignments] == \
                    [(a.mapping, a.score, a.node_names)
                     for a in slow.alignments], query
        finally:
            store.close()

    def test_wide_source_costs_one_target_closure(self):
        store = _wide_to_narrow_store(1)
        try:
            index = ProvenanceIndex.from_store(store, adjacency(store))
            aligner = GraphAligner(QueryGraph.from_resolved(resolve_query(
                parse_tbql(self.QUERIES[0]))), index)
            alignments = list(aligner.alignments())
            counts = aligner.candidate_counts()
            assert counts["f"] == 1 and counts["p"] > 40
            # Both edges point at f, mapped first: each is scored from
            # f's one closure, never from a closure per tool process.
            assert len(aligner._reversed) == 2
            assert list(aligner._flow_closure_to) == \
                [alignments[0].mapping["f"]]
            assert aligner._flow_closure == {}
        finally:
            store.close()


class TestFuzzyAndPoirot:
    QUERY = ('proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as evt1 '
             'proc p write file g["%/tmp/upload.tar%"] as evt2 '
             'return p, f, g')

    def test_exact_alignment_found(self, data_leak_store):
        result = FuzzySearcher(data_leak_store).search(self.QUERY)
        assert result.alignments
        best = result.best
        assert best.score > 0.9
        assert best.node_names["p"] == "/bin/tar"
        assert best.node_names["f"] == "/etc/passwd"

    def test_fuzzy_tolerates_ioc_deviation(self, data_leak_store):
        deviated = self.QUERY.replace("/bin/tar", "/bin/tarr").replace(
            "/etc/passwd", "/etc/passwd0")
        result = FuzzySearcher(data_leak_store).search(deviated)
        assert result.alignments
        assert result.best.node_names["p"] == "/bin/tar"

    def test_exact_mode_misses_deviated_iocs(self, data_leak_store):
        from repro.tbql.executor import TBQLExecutor
        deviated = self.QUERY.replace("/bin/tar", "/bin/tarr")
        assert TBQLExecutor(data_leak_store).execute(deviated).rows == []

    def test_poirot_stops_at_first_alignment(self, data_leak_store):
        fuzzy = FuzzySearcher(data_leak_store).search(self.QUERY)
        poirot = PoirotSearcher(data_leak_store).search(self.QUERY)
        assert len(poirot.alignments) == 1
        assert len(fuzzy.alignments) >= len(poirot.alignments)

    def test_timing_breakdown_present(self, data_leak_store):
        result = FuzzySearcher(data_leak_store).search(self.QUERY)
        assert result.loading_seconds >= 0
        assert result.preprocessing_seconds >= 0
        assert result.searching_seconds >= 0
        assert result.total_seconds == pytest.approx(
            result.loading_seconds + result.preprocessing_seconds +
            result.searching_seconds)

    def test_candidate_counts_reported(self, data_leak_store):
        result = FuzzySearcher(data_leak_store).search(self.QUERY)
        assert set(result.candidate_counts) == {"p", "f", "g"}

    def test_no_alignment_when_nothing_similar(self, data_leak_store):
        query = ('proc p["%/opt/totally/unknown/binary%"] read file '
                 'f["%/zzz/not/here%"] return p')
        result = FuzzySearcher(data_leak_store).search(query)
        assert result.best is None

    def test_truncated_search_is_reported(self, data_leak_store):
        resolved = resolve_query(parse_tbql(self.QUERY))
        index = ProvenanceIndex()
        for row in joined_event_rows(data_leak_store.relational):
            index.add_event(row)
        graph = QueryGraph.from_resolved(resolved)
        complete = GraphAligner(graph, index)
        assert list(complete.alignments()) and not complete.truncated
        cut = GraphAligner(graph, index, max_expansions=1)
        assert list(cut.alignments()) == []
        assert cut.truncated
        assert not FuzzySearcher(data_leak_store).search(
            self.QUERY).truncated

    def test_aligner_respects_score_threshold(self, data_leak_store):
        resolved = resolve_query(parse_tbql(self.QUERY))
        index = ProvenanceIndex()
        for row in joined_event_rows(data_leak_store.relational):
            index.add_event(row)
        aligner = GraphAligner(QueryGraph.from_resolved(resolved), index,
                               score_threshold=1.01)
        assert list(aligner.alignments()) == []


class TestConciseness:
    def test_counts_exclude_whitespace(self):
        metrics = measure_conciseness("proc p read file f\nreturn p")
        assert metrics.characters == len("procpreadfilefreturnp")
        assert metrics.words == 7

    def test_comments_stripped(self):
        assert strip_comments("SELECT 1 -- trailing").strip() == "SELECT 1"
        assert "comment" not in strip_comments("/* comment */ MATCH (n)")

    def test_ratio(self):
        tbql = measure_conciseness("proc p read file f return p")
        sql = measure_conciseness("SELECT something FROM events e JOIN "
                                  "entities s ON e.subject_id = s.id")
        assert tbql.ratio_to(sql) > 1.0

    def test_compare_conciseness_keys(self):
        result = compare_conciseness({"TBQL": "a b", "SQL": "longer query"})
        assert set(result) == {"TBQL", "SQL"}

    def test_tbql_more_concise_than_sql_and_cypher(self, data_leak_store,
                                                   data_leak_extraction):
        from repro.benchmark.queries import build_case_queries
        from repro.benchmark import get_case
        queries = build_case_queries(get_case("data_leak"))
        tbql = measure_conciseness(queries.tbql)
        sql = measure_conciseness(queries.sql)
        cypher = measure_conciseness(queries.cypher)
        assert sql.characters > 2.8 * tbql.characters
        assert cypher.characters > 1.5 * tbql.characters
