"""Storage substrate: relational (SQL) and graph (Cypher) backends."""

from .dualstore import DualStore, IngestStats
from .graph import GraphStore, PropertyGraph, graph_from_events, parse_cypher
from .relational import RelationalStore
from .segments import SegmentInfo, SegmentView

__all__ = [
    "DualStore",
    "IngestStats",
    "GraphStore",
    "PropertyGraph",
    "graph_from_events",
    "parse_cypher",
    "RelationalStore",
    "SegmentInfo",
    "SegmentView",
]
