"""PAMA core: the paper's primary contribution."""

from repro.core.adaptive import AdaptivePamaPolicy
from repro.core.bloom_tracker import BloomSegmentTracker
from repro.core.config import (DEFAULT_PENALTY, DEFAULT_PENALTY_EDGES,
                               PENALTY_CAP, PamaConfig)
from repro.core.ghost import GhostEntry, GhostList
from repro.core.pama import PamaPolicy, PamaQueueState
from repro.core.prepama import PrePamaPolicy
from repro.core.segments import SegmentedLRU
from repro.core.value import ValueAccumulator

__all__ = [
    "PamaConfig",
    "PamaPolicy",
    "PrePamaPolicy",
    "AdaptivePamaPolicy",
    "PamaQueueState",
    "SegmentedLRU",
    "BloomSegmentTracker",
    "GhostList",
    "GhostEntry",
    "ValueAccumulator",
    "DEFAULT_PENALTY",
    "DEFAULT_PENALTY_EDGES",
    "PENALTY_CAP",
]
