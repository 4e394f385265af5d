"""Fuzzy search mode: inexact graph pattern matching (Section III-F).

The exact search mode misses attack activities when the OSCTI text deviates
from the ground truth (typos, renamed IOCs, extra intermediate processes).
The fuzzy mode, which extends Poirot's alignment algorithm, tolerates such
deviations:

* *node-level alignment* uses Levenshtein similarity between the IOC strings
  in the TBQL query and entity attributes in the store, so small string
  changes still retrieve the right entities;
* *graph-level alignment* matches the query's subgraph shape against the
  provenance graph: for every query edge the aligner looks for an information
  flow (a bounded-length path) between the aligned endpoints, and scores the
  alignment by the aggregate flow quality (shorter flows score higher,
  echoing Poirot's ancestor-influence intuition).

:class:`FuzzySearcher` (ThreatRaptor-Fuzzy) enumerates *all* acceptable
alignments exhaustively; :class:`PoirotSearcher` (the baseline, see
:mod:`repro.tbql.poirot`) stops at the first acceptable alignment.

Node candidates come from a character-bigram inverted index over the
unique entity names (a lossless prefilter: no similarity above the
threshold is missed), edit distances use a bit-parallel Levenshtein,
each query edge reads its flows from one bounded-hop closure of the
endpoint mapped first (cached by the search's :class:`GraphAligner`), so
a search pays per query node rather than per candidate, and alignment
enumeration is pruned by an admissible branch-and-bound upper bound on
the remaining score.  The seed's brute-force search — a full Levenshtein
DP against every store entity per query node and a fresh bounded BFS per
query edge per partial alignment — lives in ``tests/reference/`` as the
oracle that pins identical alignments and scores.

Only the searching depends on the query: the provenance index and its
name index (built as preprocessing) are memoised per store and store
version and shared read-only, so a search that reuses them reports zero
loading and preprocessing (:attr:`FuzzySearchResult.index_reused`).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..storage.dualstore import DualStore
from .parser import parse_tbql
from .semantics import ResolvedQuery, resolve_query
from .ast import AttributeComparison, BooleanFilter, NegatedFilter, \
    MembershipFilter

#: Minimum node similarity for a candidate alignment.
NODE_SIMILARITY_THRESHOLD = 0.6
#: Minimum overall alignment score for an alignment to be acceptable.
ALIGNMENT_SCORE_THRESHOLD = 0.7
#: Maximum flow length explored between two aligned nodes.
MAX_FLOW_LENGTH = 4

#: Character n-gram size of the candidate prefilter index.
_NGRAM = 2


def levenshtein_distance(left: str, right: str) -> int:
    """Classic dynamic-programming Levenshtein edit distance."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (left_char != right_char)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


def levenshtein_within(left: str, right: str, bound: int) -> Optional[int]:
    """Bit-parallel Levenshtein: the distance if ``<= bound``, else ``None``.

    Myers' bit-vector algorithm (J. ACM 1999) over Python ints: the
    shorter string becomes a character -> bitmask table, and each
    character of the longer one advances a whole DP column in a few
    integer operations.  The scan stops once the bottom cell exceeds the
    bound by more than the characters left to read (each lowers it by
    one at most), which keeps dissimilar strings cheap.
    """
    if bound < 0:
        return None
    if left == right:
        return 0
    if len(left) > len(right):
        left, right = right, left
    short, long_ = len(left), len(right)
    if long_ - short > bound:
        return None
    if bound == 0:
        return None  # left != right, so the distance is at least 1
    if short == 0:
        return long_  # already known to be <= bound
    peq: dict[str, int] = {}
    bit = 1
    for char in left:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    # Vertical deltas of the current column: +1 bits and -1 bits.
    plus, minus = mask, 0
    score = short
    remaining = long_
    for char in right:
        match = peq.get(char, 0)
        vertical = match | minus
        horizontal = (((match & plus) + plus) ^ plus) | match
        horizontal_plus = minus | (~(horizontal | plus) & mask)
        horizontal_minus = plus & horizontal
        if horizontal_plus & last:
            score += 1
        elif horizontal_minus & last:
            score -= 1
        remaining -= 1
        if score - remaining > bound:
            return None
        horizontal_plus = ((horizontal_plus << 1) | 1) & mask
        horizontal_minus = (horizontal_minus << 1) & mask
        plus = horizontal_minus | (~(vertical | horizontal_plus) & mask)
        minus = horizontal_plus & vertical
    return score if score <= bound else None


def string_similarity(left: str, right: str) -> float:
    """Normalized Levenshtein similarity in [0, 1]."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    # Substring containment counts as a strong match (a path suffix or a
    # wildcard-stripped IOC inside a longer path).
    if left and right and (left in right or right in left):
        return max(0.9, 1.0 - levenshtein_distance(left, right) / longest)
    return 1.0 - levenshtein_distance(left, right) / longest


def _similarity_within(needle: str, name: str, threshold: float
                       ) -> Optional[float]:
    """:func:`string_similarity` with an early exit below ``threshold``.

    Returns exactly ``string_similarity(needle, name)`` when that value is
    ``>= threshold`` and ``None`` otherwise, but without running the full
    DP for clearly dissimilar strings.  The Levenshtein bounds carry a ``+1``
    margin so the final acceptance is decided by the same float comparison
    the brute-force path performs.
    """
    if not needle and not name:
        return 1.0 if 1.0 >= threshold else None
    longest = max(len(needle), len(name))
    if needle and name and (needle in name or name in needle):
        # Beyond d > longest/10 the containment floor of 0.9 dominates, so
        # the exact distance is only needed within that bound.
        distance = levenshtein_within(needle, name, int(0.1 * longest) + 1)
        similarity = max(0.9, 1.0 - distance / longest) \
            if distance is not None else 0.9
        return similarity if similarity >= threshold else None
    allowed = int((1.0 - threshold) * longest) + 1
    distance = levenshtein_within(needle, name, allowed)
    if distance is None:
        return None
    similarity = 1.0 - distance / longest
    return similarity if similarity >= threshold else None


def _ngrams(text: str) -> Counter:
    """Bag of character n-grams (size :data:`_NGRAM`) of ``text``."""
    return Counter(text[i:i + _NGRAM]
                   for i in range(len(text) - _NGRAM + 1))


# ---------------------------------------------------------------------------
# query graph and provenance index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryNode:
    """A node of the query graph: one TBQL entity."""

    entity_id: str
    entity_type: str
    search_string: str


@dataclass(frozen=True)
class QueryEdge:
    """A directed edge of the query graph: one TBQL pattern."""

    source: str
    target: str
    operations: Optional[frozenset[str]]


@dataclass
class QueryGraph:
    """The subgraph of system behaviour a TBQL query describes."""

    nodes: list[QueryNode]
    edges: list[QueryEdge]

    @classmethod
    def from_resolved(cls, resolved: ResolvedQuery) -> "QueryGraph":
        nodes: dict[str, QueryNode] = {}
        edges: list[QueryEdge] = []
        for pattern in resolved.patterns:
            for entity in (pattern.subject, pattern.obj):
                if entity.entity_id not in nodes:
                    nodes[entity.entity_id] = QueryNode(
                        entity_id=entity.entity_id,
                        entity_type=entity.entity_type.value,
                        search_string=_search_string(entity.attr_filter))
            edges.append(QueryEdge(source=pattern.subject.entity_id,
                                   target=pattern.obj.entity_id,
                                   operations=pattern.operations))
        return cls(nodes=list(nodes.values()), edges=edges)


def _search_string(attr_filter) -> str:
    """Extract the primary IOC string from an entity's attribute filter."""
    if attr_filter is None:
        return ""
    if isinstance(attr_filter, AttributeComparison):
        if isinstance(attr_filter.value, str):
            return attr_filter.value.strip("%")
        return str(attr_filter.value)
    if isinstance(attr_filter, MembershipFilter):
        return str(attr_filter.values[0]).strip("%") if attr_filter.values \
            else ""
    if isinstance(attr_filter, NegatedFilter):
        return _search_string(attr_filter.operand)
    if isinstance(attr_filter, BooleanFilter):
        for operand in attr_filter.operands:
            found = _search_string(operand)
            if found:
                return found
    return ""


class _NameIndex:
    """Character-bigram inverted index over the unique entity names.

    Provides a *lossless* candidate prefilter for threshold-bounded
    Levenshtein similarity: two strings within edit distance ``d`` share at
    least ``max(|a|, |b|) - n + 1 - n*d`` n-grams, and a containment match
    (the substring boost of :func:`string_similarity`) shares every n-gram
    of the shorter string.  Names whose length makes either lower bound
    non-positive cannot be pruned by gram counting and are kept in
    per-length fallback buckets that are always scanned.
    """

    def __init__(self, node_names: dict[int, str]) -> None:
        self.names: list[str] = []
        self.nodes_by_name: dict[str, list[int]] = {}
        nodes_by_name = self.nodes_by_name
        for node_id, name in node_names.items():
            bucket = nodes_by_name.get(name)
            if bucket is None:
                bucket = nodes_by_name[name] = []
                self.names.append(name)
            bucket.append(node_id)
        # gram -> levels: level k lists the names holding the gram more
        # than k times, so a needle holding it c times shares
        # min(c, occurrences) of it with each name of levels[:c].
        self.postings: dict[str, list[list[int]]] = {}
        self.names_by_length: dict[int, list[int]] = {}
        for name_index, name in enumerate(self.names):
            self.names_by_length.setdefault(len(name), []).append(name_index)
            for gram, count in _ngrams(name).items():
                levels = self.postings.get(gram)
                if levels is None:
                    levels = self.postings[gram] = [[]]
                if count == 1:  # most grams: skip the slice
                    levels[0].append(name_index)
                    continue
                while len(levels) < count:
                    levels.append([])
                for level in levels[:count]:
                    level.append(name_index)

    @staticmethod
    def _required_shared(needle_len: int, name_len: int,
                         threshold: float) -> int:
        """Minimum shared bigrams an admissible name must have.

        Admissible means either normalized distance above the threshold
        (``d <= (1 - threshold) * L`` with the same ``+1`` float margin the
        bounded distance uses) or substring containment (which shares all
        ``min_len - n + 1`` grams of the shorter string) — the two ways
        :func:`string_similarity` can reach the threshold.
        """
        longest = max(needle_len, name_len)
        allowed = int((1.0 - threshold) * longest) + 1
        by_distance = longest - _NGRAM + 1 - _NGRAM * allowed
        if threshold <= 0.9:
            by_containment = min(needle_len, name_len) - _NGRAM + 1
            return min(by_distance, by_containment)
        return by_distance

    def candidate_names(self, needle: str, threshold: float) -> list[int]:
        """Return indexes of names the prefilter cannot rule out."""
        needle_len = len(needle)
        shared: Counter = Counter()
        for gram, count in _ngrams(needle).items():
            # Counter.update counts a list in C.
            for level in self.postings.get(gram, ())[:count]:
                shared.update(level)
        required_by_length = {
            length: self._required_shared(needle_len, length, threshold)
            for length in self.names_by_length}
        candidates: list[int] = []
        for length, indexes in self.names_by_length.items():
            if required_by_length[length] <= 0:
                # Too short to be prunable by gram counts: always checked.
                candidates.extend(indexes)
        names = self.names
        for name_index, count in shared.items():
            required = required_by_length[len(names[name_index])]
            if required > 0 and count >= required:
                candidates.append(name_index)
        return candidates


@dataclass
class ProvenanceIndex:
    """In-memory provenance graph built from the stored events."""

    node_names: dict[int, str] = field(default_factory=dict)
    node_types: dict[int, str] = field(default_factory=dict)
    out_edges: dict[int, list[tuple[int, str, float]]] = field(
        default_factory=dict)
    #: target -> the source of each edge into it (operations: out_edges).
    in_edges: dict[int, list[int]] = field(default_factory=dict)
    num_edges: int = 0
    # The name index (dropped on mutation; excluded from equality so two
    # value-identical indexes still compare equal).  A search builds it
    # before its first lookup, so a memoised index is only ever read.
    _name_index: Optional[_NameIndex] = field(default=None, repr=False,
                                              compare=False)

    def add_event(self, row: dict) -> None:
        subject_id = row["subject_id"]
        object_id = row["object_id"]
        self.node_names.setdefault(
            subject_id, row.get("subject_exename") or
            row.get("subject_name") or "")
        self.node_types.setdefault(subject_id, row.get("subject_type", ""))
        object_name = (row.get("object_dstip") or row.get("object_path") or
                       row.get("object_exename") or
                       row.get("object_name") or "")
        self.node_names.setdefault(object_id, object_name)
        self.node_types.setdefault(object_id, row.get("object_type", ""))
        self.out_edges.setdefault(subject_id, []).append(
            (object_id, row.get("operation", ""), row.get("start_time", 0.0)))
        self.in_edges.setdefault(object_id, []).append(subject_id)
        self.num_edges += 1
        self._name_index = None

    def build_name_index(self) -> "ProvenanceIndex":
        """Build the bigram name index now instead of on first lookup."""
        self._name_index = _NameIndex(self.node_names)
        return self

    @classmethod
    def from_graph(cls, graph) -> "ProvenanceIndex":
        """Build the index straight from the property graph.

        Skips the relational round trip (the joined ``all_events()`` query
        plus one dictionary per row) the row-based construction pays; the
        resulting index is identical — node names follow the same
        ``dstip -> path -> exename -> name`` attribute precedence.
        """
        index = cls()
        node_names = index.node_names
        node_types = index.node_types
        for node in graph.nodes():
            properties = node.properties
            node_names[node.node_id] = (
                properties.get("dstip") or properties.get("path") or
                properties.get("exename") or properties.get("name") or "")
            node_types[node.node_id] = properties.get("type", "")
        out_edges = index.out_edges
        in_edges = index.in_edges
        count = 0
        for edge in graph.edges():
            properties = edge.properties
            source, target = edge.source, edge.target
            bucket = out_edges.get(source)
            if bucket is None:
                bucket = out_edges[source] = []
            bucket.append((target, properties.get("operation", ""),
                           properties.get("start_time", 0.0)))
            in_edges.setdefault(target, []).append(source)
            count += 1
        index.num_edges = count
        return index

    # ------------------------------------------------------------------
    # node candidates
    # ------------------------------------------------------------------
    def candidates_for(self, query_node: QueryNode,
                       threshold: Optional[float] = None
                       ) -> list[tuple[int, float]]:
        """Return (node id, similarity) candidates above the threshold.

        Unique names are prefiltered through the bigram inverted index,
        then scored with the bounded Levenshtein; the result set (ids and
        similarity values) is identical to a full DP against every node.
        """
        if threshold is None:
            threshold = NODE_SIMILARITY_THRESHOLD
        needle = query_node.search_string
        query_type = query_node.entity_type
        node_types = self.node_types
        results: list[tuple[int, float]] = []
        if not needle:
            if 0.5 >= threshold:
                for node_id in self.node_names:
                    if query_type and node_types.get(node_id) != query_type:
                        continue
                    results.append((node_id, 0.5))
            results.sort(key=lambda item: (-item[1], item[0]))
            return results
        index = self._name_index or self.build_name_index()._name_index
        names = index.names
        nodes_by_name = index.nodes_by_name
        for name_index in index.candidate_names(needle, threshold):
            name = names[name_index]
            similarity = _similarity_within(needle, name, threshold)
            if similarity is None:
                continue
            for node_id in nodes_by_name[name]:
                if query_type and node_types.get(node_id) != query_type:
                    continue
                results.append((node_id, similarity))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    # ------------------------------------------------------------------
    # information flows
    # ------------------------------------------------------------------
    def flows_from(self, source: int) -> dict[int, dict[str, int]]:
        """Bounded-hop flow closure from ``source``.

        Maps each node reachable within :data:`MAX_FLOW_LENGTH` hops to
        ``{final-hop operation: minimum hop count}`` — everything
        :meth:`flow_score` needs for *any* target and operation filter, so
        one BFS per source node replaces one BFS per query edge per partial
        alignment.  Not cached here: the :class:`GraphAligner` keeps the
        closures of one search, so a shared index holds no per-query state.
        """
        flows: dict[int, dict[str, int]] = {}
        out_edges = self.out_edges
        seen = {source}
        frontier = [source]
        depth = 0
        while frontier and depth < MAX_FLOW_LENGTH:
            hop = depth + 1
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor, operation, _ in out_edges.get(node, ()):
                    operations = flows.get(neighbor)
                    if operations is None:
                        flows[neighbor] = {operation: hop}
                    elif operation not in operations:
                        operations[operation] = hop
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
            depth = hop
        return flows

    def flows_to(self, target: int) -> dict[int, dict[str, int]]:
        """The flow closure into ``target``, keyed by source:
        ``flows_to(t).get(s) == flows_from(s).get(t)``.

        One multi-source BFS up the in-edges per final-hop operation,
        from the sources of ``target``'s edges with that operation, serves
        every candidate of a query edge's source at once.
        """
        in_edges = self.in_edges
        last_hops: dict[str, set[int]] = {}
        for source in set(in_edges.get(target, ())):
            for neighbor, operation, _ in self.out_edges[source]:
                if neighbor == target:
                    last_hops.setdefault(operation, set()).add(source)
        flows: dict[int, dict[str, int]] = {}
        for operation, seen in last_hops.items():
            frontier = seen
            for hop in range(1, MAX_FLOW_LENGTH + 1):
                for node in frontier:
                    flows.setdefault(node, {})[operation] = hop
                if hop < MAX_FLOW_LENGTH:
                    frontier = {predecessor for node in frontier
                                for predecessor in in_edges.get(node, ())
                                } - seen
                    seen |= frontier
        return flows

    def flow_score(self, source: int, target: int,
                   operations: Optional[frozenset[str]]) -> float:
        """Score the best information flow from ``source`` to ``target``.

        The score is ``1 / length`` of the shortest path whose final hop
        matches the requested operations, or 0 when no such flow exists
        within :data:`MAX_FLOW_LENGTH` hops.  Shorter flows mean fewer
        intermediate (potentially compromised) processes, mirroring Poirot's
        ancestor-influence score.
        """
        return _score_flows(self.flows_from(source).get(target), operations)


def _score_flows(flows: Optional[dict[str, int]],
                 operations: Optional[frozenset[str]]) -> float:
    """:meth:`ProvenanceIndex.flow_score` from one closure entry."""
    if not flows:
        return 0.0
    if operations:
        hops = min((hop for operation, hop in flows.items()
                    if operation in operations), default=0)
    else:
        hops = min(flows.values())
    return 1.0 / hops if hops else 0.0


# ---------------------------------------------------------------------------
# alignment search
# ---------------------------------------------------------------------------


@dataclass
class Alignment:
    """A mapping from query nodes to provenance nodes plus its score."""

    mapping: dict[str, int]
    score: float
    node_names: dict[str, str] = field(default_factory=dict)


@dataclass
class FuzzySearchResult:
    """Result of a fuzzy (or Poirot) search with its timing breakdown."""

    alignments: list[Alignment]
    loading_seconds: float
    preprocessing_seconds: float
    searching_seconds: float
    candidate_counts: dict[str, int] = field(default_factory=dict)
    #: True when the search reused the store's memoised index (loading
    #: and preprocessing are then zero).
    index_reused: bool = False
    #: True when the aligner stopped at ``max_expansions``: incomplete.
    truncated: bool = False

    @property
    def total_seconds(self) -> float:
        return (self.loading_seconds + self.preprocessing_seconds +
                self.searching_seconds)

    @property
    def best(self) -> Optional[Alignment]:
        if not self.alignments:
            return None
        return max(self.alignments, key=lambda alignment: alignment.score)


class GraphAligner:
    """Backtracking aligner shared by the fuzzy mode and the Poirot baseline.

    The aligner checks each query edge exactly once (when its second
    endpoint is mapped), from the flow closure of the endpoint mapped
    first (``flows_from`` its source or ``flows_to`` its target), cached
    for this search only (the index may be shared by concurrent
    searches), and prunes subtrees whose admissible score upper bound —
    current flow total plus 1.0 for every unscored edge — cannot reach
    the acceptance threshold.  The seed's unbounded search yields the
    same acceptable alignments in the same order.
    """

    def __init__(self, query_graph: QueryGraph, index: ProvenanceIndex,
                 score_threshold: float = ALIGNMENT_SCORE_THRESHOLD,
                 max_expansions: int = 200_000) -> None:
        self.query_graph = query_graph
        self.index = index
        self.score_threshold = score_threshold
        self.max_expansions = max_expansions
        self._expansions = 0
        self.truncated = False
        self._last_candidates: Optional[dict[str, list]] = None
        self._flow_closure: dict[int, dict[int, dict[str, int]]] = {}
        self._flow_closure_to: dict[int, dict[int, dict[str, int]]] = {}
        # Edges scored from their target's closure (mapped first).
        self._reversed: set[QueryEdge] = set()

    def alignments(self, stop_after_first: bool = False
                   ) -> Iterator[Alignment]:
        """Yield acceptable alignments (all of them, or just the first)."""
        candidates = {node.entity_id: self.index.candidates_for(node)
                      for node in self.query_graph.nodes}
        self._last_candidates = candidates
        # Align the most selective query node first.
        order = sorted(self.query_graph.nodes,
                       key=lambda node: len(candidates[node.entity_id]))
        position_of = {node.entity_id: position
                       for position, node in enumerate(order)}
        # Edges become scorable at the position where their second endpoint
        # is assigned; each edge is checked exactly once per partial branch.
        ready_edges: list[list[QueryEdge]] = [[] for _ in order]
        for edge in self.query_graph.edges:
            position = max(position_of[edge.source],
                           position_of[edge.target])
            ready_edges[position].append(edge)
        self._reversed = {edge for edge in self.query_graph.edges
                          if position_of[edge.target] <
                          position_of[edge.source]}
        self._expansions = 0
        self.truncated = False
        yield from self._extend(order, 0, {}, candidates, ready_edges,
                                0.0, 0, stop_after_first)

    def candidate_counts(self) -> dict[str, int]:
        if self._last_candidates is not None:
            return {entity_id: len(found)
                    for entity_id, found in self._last_candidates.items()}
        return {node.entity_id: len(self.index.candidates_for(node))
                for node in self.query_graph.nodes}

    def _flow_score(self, source: int, target: int,
                    operations: Optional[frozenset[str]]) -> float:
        """:meth:`ProvenanceIndex.flow_score` over this search's closures."""
        flows = self._flow_closure.get(source)
        if flows is None:
            flows = self._flow_closure[source] = self.index.flows_from(source)
        return _score_flows(flows.get(target), operations)

    def _flow_score_to(self, source: int, target: int,
                       operations: Optional[frozenset[str]]) -> float:
        """:meth:`_flow_score` from ``target``'s closure; the same value."""
        flows = self._flow_closure_to.get(target)
        if flows is None:
            flows = self._flow_closure_to[target] = \
                self.index.flows_to(target)
        return _score_flows(flows.get(source), operations)

    def _edge_scorer(self, edge: QueryEdge):
        return self._flow_score_to if edge in self._reversed \
            else self._flow_score

    def _extend(self, order: list[QueryNode], position: int,
                mapping: dict[str, int],
                candidates: dict[str, list[tuple[int, float]]],
                ready_edges: list[list[QueryEdge]],
                flow_total: float, scored_edges: int,
                stop_after_first: bool) -> Iterator[Alignment]:
        if self._expansions > self.max_expansions:
            self.truncated = True
            return
        if position == len(order):
            alignment = self._score(mapping)
            if alignment is not None:
                yield alignment
            return
        node = order[position]
        used = set(mapping.values())
        num_edges = len(self.query_graph.edges)
        newly_ready = ready_edges[position]
        scored = scored_edges + len(newly_ready)
        checks = [(edge.source, edge.target, edge.operations,
                   self._edge_scorer(edge)) for edge in newly_ready]
        for candidate_id, _similarity in candidates[node.entity_id]:
            if candidate_id in used:
                continue
            self._expansions += 1
            mapping[node.entity_id] = candidate_id
            consistent = True
            added = 0.0
            for source, target, operations, flow_score in checks:
                score = flow_score(mapping[source], mapping[target],
                                   operations)
                if score == 0.0:
                    consistent = False
                    break
                added += score
            # Admissible upper bound: every still-unscored edge can
            # contribute at most a direct flow (1.0).  Subtrees that cannot
            # reach the acceptance threshold are cut; the small epsilon
            # keeps borderline float sums on the safe side.
            if consistent and flow_total + added + (num_edges - scored) >= \
                    self.score_threshold * num_edges - 1e-9:
                for alignment in self._extend(
                        order, position + 1, mapping, candidates,
                        ready_edges, flow_total + added, scored,
                        stop_after_first):
                    yield alignment
                    if stop_after_first:
                        del mapping[node.entity_id]
                        return
            del mapping[node.entity_id]

    def _score(self, mapping: dict[str, int]) -> Optional[Alignment]:
        if not self.query_graph.edges:
            return None
        total = 0.0
        for edge in self.query_graph.edges:
            total += self._edge_scorer(edge)(
                mapping[edge.source], mapping[edge.target], edge.operations)
        score = total / len(self.query_graph.edges)
        if score < self.score_threshold:
            return None
        names = {entity_id: self.index.node_names.get(node_id, "")
                 for entity_id, node_id in mapping.items()}
        return Alignment(mapping=dict(mapping), score=score,
                         node_names=names)


#: ``store -> (data_version, index)``; weak, so it never keeps a dropped
#: store alive.  Indexes are read-only.
_INDEX_MEMO: "weakref.WeakKeyDictionary[DualStore, tuple]" = \
    weakref.WeakKeyDictionary()
_INDEX_MEMO_LOCK = threading.Lock()


def _memoised_index(store: DualStore, graph, version: int
                    ) -> tuple[ProvenanceIndex, bool]:
    """``(index, reused)`` for ``version``; a miss builds under the lock,
    so concurrent cold searches on one store build once."""
    with _INDEX_MEMO_LOCK:
        memo = _INDEX_MEMO.get(store)
        if memo is not None and memo[0] == version:
            return memo[1], True
        index = ProvenanceIndex.from_graph(graph).build_name_index()
        _INDEX_MEMO[store] = (version, index)
        return index, False


def _forget_index(store: DualStore) -> None:
    """Drop ``store``'s memoised index, so its next search builds cold."""
    with _INDEX_MEMO_LOCK:
        _INDEX_MEMO.pop(store, None)


class FuzzySearcher:
    """ThreatRaptor's fuzzy search mode: exhaustive alignment search."""

    stop_after_first = False

    def __init__(self, store: DualStore,
                 score_threshold: float = ALIGNMENT_SCORE_THRESHOLD) -> None:
        self.store = store
        self.score_threshold = score_threshold

    def search(self, query: str | ResolvedQuery) -> FuzzySearchResult:
        """Run the fuzzy search for a TBQL query."""
        resolved = query if isinstance(query, ResolvedQuery) else \
            resolve_query(parse_tbql(query))
        # The provenance index builds straight from the property graph
        # (derived from the relational store on first read), once per
        # store version.
        store = self.store
        load_start = time.perf_counter()
        version = store.data_version
        graph = store.graph.graph
        loading = time.perf_counter() - load_start
        prep_start = time.perf_counter()
        index, reused = _memoised_index(store, graph, version)
        preprocessing = time.perf_counter() - prep_start

        search_start = time.perf_counter()
        if reused:
            # Nothing was loaded or built: the lookup counts as searching.
            loading = preprocessing = 0.0
            search_start = load_start
        query_graph = QueryGraph.from_resolved(resolved)
        aligner = GraphAligner(query_graph, index,
                               score_threshold=self.score_threshold)
        alignments = list(aligner.alignments(
            stop_after_first=self.stop_after_first))
        searching = time.perf_counter() - search_start
        return FuzzySearchResult(alignments=alignments,
                                 loading_seconds=loading,
                                 preprocessing_seconds=preprocessing,
                                 searching_seconds=searching,
                                 candidate_counts=aligner.candidate_counts(),
                                 index_reused=reused,
                                 truncated=aligner.truncated)


__all__ = [
    "levenshtein_distance",
    "levenshtein_within",
    "string_similarity",
    "QueryNode",
    "QueryEdge",
    "QueryGraph",
    "ProvenanceIndex",
    "Alignment",
    "FuzzySearchResult",
    "GraphAligner",
    "FuzzySearcher",
    "NODE_SIMILARITY_THRESHOLD",
    "ALIGNMENT_SCORE_THRESHOLD",
    "MAX_FLOW_LENGTH",
]
