"""Storage substrate: one relational store plus sealed columnar segments."""

from .dualstore import DualStore, IngestStats
from .relational import RelationalStore
from .segments import SegmentInfo, SegmentView

__all__ = [
    "DualStore",
    "IngestStats",
    "RelationalStore",
    "SegmentInfo",
    "SegmentView",
]
