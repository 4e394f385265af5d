"""Poirot baseline (Milajerdi et al., CCS 2019) for the RQ4 fuzzy comparison.

Poirot aligns an analyst-provided query graph against the kernel-audit
provenance graph with inexact graph pattern matching, but — unlike
ThreatRaptor's fuzzy mode — it stops its searching iteration as soon as the
first acceptable alignment (score above the threshold) is found, instead of
searching exhaustively for all aligned subgraphs.
"""

from __future__ import annotations

from .fuzzy import FuzzySearcher


class PoirotSearcher(FuzzySearcher):
    """Poirot-style alignment search: stop at the first acceptable one."""

    stop_after_first = True


__all__ = ["PoirotSearcher"]
