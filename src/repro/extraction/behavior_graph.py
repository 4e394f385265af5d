"""Threat behavior graph construction (Algorithm 1, Step 10).

Nodes are (merged) IOCs and edges are extracted IOC relations.  Every edge is
assigned a sequence number — its rank when the relation triplets are sorted by
the occurrence offset of the relation verb in the OSCTI text — so the graph
captures the order of the threat steps, which query synthesis later turns into
``with ... before ...`` temporal constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ioc import IOCType
from .merge import MergedIOC
from .relations import IOCRelation


@dataclass(frozen=True)
class BehaviorNode:
    """An IOC node of the threat behavior graph."""

    ioc: str
    ioc_type: IOCType | None


@dataclass(frozen=True)
class BehaviorEdge:
    """A relation edge of the threat behavior graph."""

    source: str
    target: str
    relation: str
    sequence: int


@dataclass
class ThreatBehaviorGraph:
    """Structured representation of the threat behaviors in an OSCTI report."""

    nodes: list[BehaviorNode] = field(default_factory=list)
    edges: list[BehaviorEdge] = field(default_factory=list)

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------
    def node_for(self, ioc: str) -> BehaviorNode | None:
        for node in self.nodes:
            if node.ioc == ioc:
                return node
        return None

    def node_type(self, ioc: str) -> IOCType | None:
        node = self.node_for(ioc)
        return node.ioc_type if node else None

    def ordered_edges(self) -> list[BehaviorEdge]:
        """Edges sorted by sequence number (the threat step order)."""
        return sorted(self.edges, key=lambda edge: edge.sequence)

    def successors(self, ioc: str) -> list[BehaviorEdge]:
        return [edge for edge in self.edges if edge.source == ioc]

    def predecessors(self, ioc: str) -> list[BehaviorEdge]:
        return [edge for edge in self.edges if edge.target == ioc]

    def __len__(self) -> int:
        return len(self.nodes)

    def summary(self) -> str:
        """Human-readable multi-line description of the graph."""
        lines = [f"Threat behavior graph: {len(self.nodes)} IOCs, "
                 f"{len(self.edges)} relations"]
        for edge in self.ordered_edges():
            lines.append(f"  [{edge.sequence}] {edge.source} "
                         f"--{edge.relation}--> {edge.target}")
        return "\n".join(lines)


def build_behavior_graph(iocs: list[MergedIOC],
                         relations: list[IOCRelation]
                         ) -> ThreatBehaviorGraph:
    """Construct the threat behavior graph from merged IOCs and relations.

    Relations are processed in ascending order of the relation verb's
    occurrence offset; the position in that order becomes the edge's sequence
    number.  Relations whose endpoints were not recognized as IOCs are
    skipped (they cannot become graph nodes).
    """
    graph = ThreatBehaviorGraph()
    canonical: dict[str, MergedIOC] = {}
    for merged in iocs:
        canonical[merged.canonical] = merged
        for mention in merged.mentions:
            canonical.setdefault(mention, merged)

    def _node_value(value: str) -> tuple[str, IOCType | None] | None:
        merged = canonical.get(value)
        if merged is None:
            return None
        return merged.canonical, merged.ioc_type

    added_nodes: set[str] = set()
    sequence = 1
    seen_edges: set[tuple[str, str, str]] = set()
    for relation in sorted(relations, key=lambda rel: rel.verb_offset):
        source = _node_value(relation.subject)
        target = _node_value(relation.obj)
        if source is None or target is None:
            continue
        source_value, source_type = source
        target_value, target_type = target
        if source_value == target_value and relation.verb not in (
                "execute", "run", "start"):
            # Self-loops only make sense for execution-style relations
            # (a file running itself, cf. tc_trace_1 in the paper).
            continue
        key = (source_value, relation.verb, target_value)
        if key in seen_edges:
            continue
        seen_edges.add(key)
        for value, ioc_type in ((source_value, source_type),
                                (target_value, target_type)):
            if value not in added_nodes:
                graph.nodes.append(BehaviorNode(ioc=value,
                                                ioc_type=ioc_type))
                added_nodes.add(value)
        graph.edges.append(BehaviorEdge(source=source_value,
                                        target=target_value,
                                        relation=relation.verb,
                                        sequence=sequence))
        sequence += 1
    return graph


__all__ = ["BehaviorNode", "BehaviorEdge", "ThreatBehaviorGraph",
           "build_behavior_graph"]
