"""Tests for the threat behavior extraction pipeline (Algorithm 1)."""

from repro.extraction import (ClauseOpenIE, PatternOpenIE, PipelineConfig,
                              ThreatBehaviorExtractor,
                              extract_threat_behaviors)
from repro.extraction.annotate import (RELATION_VERB_KEYWORDS, annotate_tree,
                                       simplify_tree)
from repro.extraction.behavior_graph import build_behavior_graph
from repro.extraction.coref import resolve_coreferences
from repro.extraction.ioc import IOCType
from repro.extraction.merge import MergedIOC, scan_and_merge_iocs
from repro.extraction.protection import protect_iocs, restore_tree
from repro.extraction.relations import IOCRelation, extract_relations
from repro.nlp.depparse import RuleDependencyParser

from .conftest import DATA_LEAK_EDGES, DATA_LEAK_TEXT


def _annotated_tree(sentence):
    protected = protect_iocs(sentence)
    tree = RuleDependencyParser().parse(protected.text)
    restore_tree(tree, protected, 0)
    return annotate_tree(tree)


class TestAnnotation:
    def test_relation_verbs_annotated(self):
        tree = _annotated_tree("/bin/tar read /etc/passwd.")
        verbs = [n.annotations.get("relation_verb") for n in tree.nodes
                 if "relation_verb" in n.annotations]
        assert verbs == ["read"]

    def test_ioc_nodes_annotated(self):
        tree = _annotated_tree("/bin/tar read /etc/passwd.")
        assert sum("is_ioc" in n.annotations for n in tree.nodes) == 2

    def test_pronouns_annotated(self):
        tree = _annotated_tree("It wrote data to /tmp/upload.tar.")
        assert any("coref_pronoun" in n.annotations for n in tree.nodes)

    def test_keyword_list_covers_core_operations(self):
        for verb in ("read", "write", "execute", "connect", "download",
                     "send", "delete"):
            assert verb in RELATION_VERB_KEYWORDS

    def test_simplify_drops_irrelevant_tree(self):
        tree = _annotated_tree("The weather was pleasant that day.")
        assert simplify_tree(tree) is None

    def test_simplify_keeps_relevant_tree(self):
        tree = _annotated_tree("/bin/tar read /etc/passwd.")
        simplified = simplify_tree(tree)
        assert simplified is not None
        assert sum("is_ioc" in n.annotations for n in simplified.nodes) == 2

    def test_simplify_preserves_extraction_outcome(self):
        sentence = ("As a first step, the attacker used /bin/tar to read "
                    "user credentials from /etc/passwd.")
        full = extract_relations(_annotated_tree(sentence))
        simplified_tree = simplify_tree(_annotated_tree(sentence))
        pruned = extract_relations(simplified_tree)
        assert {(r.subject, r.verb, r.obj) for r in full} == \
            {(r.subject, r.verb, r.obj) for r in pruned}


class TestRelationExtraction:
    def _triples(self, sentence):
        return [(r.subject, r.verb, r.obj)
                for r in extract_relations(_annotated_tree(sentence))]

    def test_simple_svo(self):
        assert self._triples("/bin/bzip2 read /tmp/upload.tar.") == \
            [("/bin/bzip2", "read", "/tmp/upload.tar")]

    def test_instrument_pattern(self):
        triples = self._triples("the attacker used /bin/tar to read user "
                                "credentials from /etc/passwd.")
        assert ("/bin/tar", "read", "/etc/passwd") in triples

    def test_coordinated_verbs_share_subject(self):
        triples = self._triples("/bin/bzip2 read from /tmp/upload.tar and "
                                "wrote to /tmp/upload.tar.bz2.")
        assert ("/bin/bzip2", "read", "/tmp/upload.tar") in triples
        assert ("/bin/bzip2", "write", "/tmp/upload.tar.bz2") in triples

    def test_download_produces_file_and_ip_relations(self):
        triples = self._triples("/usr/bin/wget downloaded the cracker "
                                "/tmp/john from 192.168.29.128.")
        assert ("/usr/bin/wget", "download", "/tmp/john") in triples
        assert ("/usr/bin/wget", "download", "192.168.29.128") in triples

    def test_execute_object_extracted(self):
        assert self._triples("/bin/bash executed /tmp/payload.sh.") == \
            [("/bin/bash", "execute", "/tmp/payload.sh")]

    def test_linking_verb_object_not_event_object(self):
        triples = self._triples("the attacker used /bin/tar to scan the "
                                "host.")
        assert all(obj != "/bin/tar" for _, _, obj in triples)

    def test_connect_relation(self):
        assert ("/usr/bin/curl", "connect", "192.168.29.128") in \
            self._triples("the attacker used /usr/bin/curl to connect to "
                          "192.168.29.128.")

    def test_passive_voice(self):
        triples = self._triples("/tmp/drakon was downloaded by "
                                "/usr/bin/firefox.")
        assert ("/usr/bin/firefox", "download", "/tmp/drakon") in triples

    def test_no_relation_between_two_objects(self):
        triples = self._triples("/bin/bzip2 read from /tmp/upload.tar and "
                                "wrote to /tmp/upload.tar.bz2.")
        assert ("/tmp/upload.tar", "write", "/tmp/upload.tar.bz2") not in \
            triples

    def test_no_relation_without_candidate_verb(self):
        assert self._triples("/bin/tar and /etc/passwd were interesting "
                             "artifacts.") == []

    def test_relations_deduplicated(self):
        relations = extract_relations(_annotated_tree(
            "/bin/tar read /etc/passwd."))
        keys = [(r.subject, r.verb, r.obj) for r in relations]
        assert len(keys) == len(set(keys))


class TestCoreference:
    def _trees(self, text):
        protected = protect_iocs(text)
        parser = RuleDependencyParser()
        from repro.nlp.sentences import split_sentences
        trees = []
        consumed = 0
        for sentence in split_sentences(protected.text):
            tree = parser.parse(sentence.text)
            consumed = restore_tree(tree, protected, consumed)
            trees.append(annotate_tree(tree))
        return trees

    def test_pronoun_resolves_to_recent_actor(self):
        trees = self._trees("the attacker used /bin/tar to read "
                            "/etc/passwd. It wrote the data to "
                            "/tmp/upload.tar.")
        resolved = resolve_coreferences(trees)
        assert resolved == 1
        pronoun = next(n for n in trees[1].nodes
                       if "coref_pronoun" in n.annotations)
        assert pronoun.annotations["coref_ioc"] == "/bin/tar"

    def test_unresolvable_pronoun_left_alone(self):
        trees = self._trees("It wrote the data to /tmp/upload.tar.")
        resolve_coreferences(trees)
        pronoun = next(n for n in trees[0].nodes
                       if "coref_pronoun" in n.annotations)
        assert "coref_ioc" not in pronoun.annotations

    def test_nominal_with_own_ioc_not_resolved(self):
        trees = self._trees("the attacker used /bin/tar to read "
                            "/etc/passwd. the process /usr/bin/gpg wrote "
                            "data to /tmp/upload.")
        resolve_coreferences(trees)
        for node in trees[1].nodes:
            if node.text == "process":
                assert "coref_ioc" not in node.annotations


class TestMerge:
    def test_mentions_of_same_path_merge(self):
        trees_block1 = [_annotated_tree("/bin/tar wrote /tmp/upload.tar.")]
        trees_block2 = [_annotated_tree("/bin/bzip2 read upload.tar.")]
        merged = scan_and_merge_iocs([trees_block1, trees_block2])
        canonical = {m.canonical for m in merged}
        assert "/tmp/upload.tar" in canonical
        # the bare "upload.tar" mention merged into the full path
        target = next(m for m in merged if m.canonical == "/tmp/upload.tar")
        assert "upload.tar" in target.mentions

    def test_distinct_extensions_not_merged(self):
        trees = [[_annotated_tree("/bin/bzip2 read /tmp/upload.tar and "
                                  "wrote /tmp/upload.tar.bz2.")]]
        merged = scan_and_merge_iocs(trees)
        assert {m.canonical for m in merged} >= {"/tmp/upload.tar",
                                                 "/tmp/upload.tar.bz2"}

    def test_merged_ioc_covers(self):
        merged = MergedIOC(canonical="/tmp/a", ioc_type=IOCType.FILEPATH,
                           mentions=["/tmp/a", "a"])
        assert merged.covers("a")
        assert not merged.covers("b")


class TestBehaviorGraph:
    def test_sequence_numbers_follow_text_order(self, data_leak_extraction):
        edges = [(e.source, e.relation, e.target)
                 for e in data_leak_extraction.graph.ordered_edges()]
        assert edges == DATA_LEAK_EDGES
        sequences = [e.sequence for e in
                     data_leak_extraction.graph.ordered_edges()]
        assert sequences == list(range(1, len(edges) + 1))

    def test_nodes_cover_all_iocs(self, data_leak_extraction):
        names = {node.ioc for node in data_leak_extraction.graph.nodes}
        assert "/bin/tar" in names and "192.168.29.128" in names

    def test_successors_predecessors(self, data_leak_extraction):
        graph = data_leak_extraction.graph
        assert {e.target for e in graph.successors("/bin/tar")} == \
            {"/etc/passwd", "/tmp/upload.tar"}
        assert {e.source for e in graph.predecessors("/tmp/upload.tar")} == \
            {"/bin/tar", "/bin/bzip2"}

    def test_self_loop_only_for_execution_verbs(self):
        relations = [IOCRelation("a.exe", "write", None, "a.exe", None, 0),
                     IOCRelation("b.exe", "run", None, "b.exe", None, 1)]
        iocs = [MergedIOC("a.exe", IOCType.FILENAME, ["a.exe"]),
                MergedIOC("b.exe", IOCType.FILENAME, ["b.exe"])]
        relations = [IOCRelation(r.subject, r.verb, r.obj, r.obj, None,
                                 r.verb_offset)
                     for r in relations]
        graph = build_behavior_graph(iocs, [
            IOCRelation("a.exe", None, "write", "a.exe", None, 0),
            IOCRelation("b.exe", None, "run", "b.exe", None, 1)])
        edge_relations = {e.relation for e in graph.edges}
        assert edge_relations == {"run"}

    def test_summary_text(self, data_leak_extraction):
        summary = data_leak_extraction.graph.summary()
        assert "8 relations" in summary


class TestEndToEndPipeline:
    def test_figure2_graph_reproduced(self, data_leak_extraction):
        assert [(e.source, e.relation, e.target)
                for e in data_leak_extraction.graph.ordered_edges()] == \
            DATA_LEAK_EDGES

    def test_iocs_extracted_exactly(self, data_leak_extraction):
        assert set(data_leak_extraction.ioc_values) == {
            "/bin/tar", "/etc/passwd", "/tmp/upload.tar", "/bin/bzip2",
            "/tmp/upload.tar.bz2", "/usr/bin/gpg", "/tmp/upload",
            "/usr/bin/curl", "192.168.29.128"}

    def test_timings_recorded(self, data_leak_extraction):
        assert data_leak_extraction.extraction_seconds > 0
        assert data_leak_extraction.graph_seconds >= 0

    def test_multi_block_document(self):
        text = ("The attacker penetrated the host.\n\n"
                "/usr/bin/wget downloaded the cracker /tmp/john from "
                "192.168.29.128.\n\n/bin/bash executed /tmp/john.")
        result = extract_threat_behaviors(text)
        triples = {(e.source, e.relation, e.target)
                   for e in result.graph.edges}
        assert ("/usr/bin/wget", "download", "/tmp/john") in triples
        assert ("/bin/bash", "execute", "/tmp/john") in triples

    def test_empty_document(self):
        result = extract_threat_behaviors("")
        assert result.graph.nodes == []
        assert result.relations == []

    def test_document_without_iocs(self):
        result = extract_threat_behaviors(
            "The attacker read many files and connected to many servers.")
        assert result.graph.edges == []

    def test_disabling_protection_degrades_extraction(self):
        with_protection = extract_threat_behaviors(DATA_LEAK_TEXT)
        without = ThreatBehaviorExtractor(PipelineConfig(
            ioc_protection=False)).extract(DATA_LEAK_TEXT)
        assert len(without.relations) < len(with_protection.relations)


class TestOpenIEBaselines:
    def test_clause_openie_extracts_triples_from_plain_text(self):
        triples = ClauseOpenIE().extract(
            "the attacker stole the credentials from the server.")
        assert triples

    def test_baselines_shred_iocs_without_protection(self):
        entities = ClauseOpenIE().entities(DATA_LEAK_TEXT)
        assert "/etc/passwd" not in entities

    def test_protection_restores_ioc_strings(self):
        entities = PatternOpenIE(ioc_protection=True).entities(
            DATA_LEAK_TEXT)
        known_iocs = {"/bin/tar", "/etc/passwd", "/bin/bzip2",
                      "/tmp/upload.tar", "/usr/bin/curl"}
        assert known_iocs & set(entities)

    def test_pattern_openie_produces_more_triples(self):
        clause = ClauseOpenIE(ioc_protection=True).extract(DATA_LEAK_TEXT)
        pattern = PatternOpenIE(ioc_protection=True).extract(DATA_LEAK_TEXT)
        assert len(pattern) >= len(clause)

    def test_baselines_much_worse_than_threatraptor(self,
                                                    data_leak_extraction):
        from repro.benchmark.metrics import score_ioc_relations
        gold = DATA_LEAK_EDGES
        ours = score_ioc_relations(data_leak_extraction.relation_triples,
                                   gold)
        baseline_triples = [(t.subject, t.relation, t.obj)
                            for t in PatternOpenIE(ioc_protection=True)
                            .extract(DATA_LEAK_TEXT)]
        baseline = score_ioc_relations(baseline_triples, gold)
        assert ours.f1 > baseline.f1 + 0.4
