"""Exact O(1) tracking of the bottom LRU-stack segments.

PAMA divides the bottom of each subclass's LRU stack into segments of
one slab's worth of items: S0 (the candidate slab, at the very bottom)
up to Sm (§III, Fig 2).  On every access PAMA must know which segment —
if any — the touched item sits in, to credit that segment's value.

The paper answers the membership question with Bloom filters
(:mod:`repro.core.bloom_tracker`).  This module provides the *exact*
alternative the simulator defaults to: one boundary pointer per segment
edge, shifted O(1) per list operation, so every item always carries its
current segment index in ``item.seg`` (-1 = above all tracked segments).

Distance convention: the LRU tail has bottom-distance 0; segment k
covers distances [k*seg_len, (k+1)*seg_len).  ``bounds[k]`` points at
the item with distance exactly ``k*seg_len`` (the lowest item of
segment k), or None when the stack is too short to reach it.
``bounds[num_segments]`` is a *virtual* boundary at the upper edge of
the tracked region: the first untracked item, which enters segment
``num_segments - 1`` whenever a removal happens beneath it.
"""

from __future__ import annotations

from repro.cache.item import Item
from repro.cache.lru import LRUList


class SegmentTracker:
    """LRU observer maintaining exact per-item segment indices."""

    __slots__ = ("lru", "seg_len", "num_segments", "limit", "bounds", "n")

    def __init__(self, lru: LRUList, seg_len: int, num_segments: int) -> None:
        if seg_len <= 0:
            raise ValueError(f"seg_len must be positive, got {seg_len}")
        if num_segments <= 0:
            raise ValueError(f"num_segments must be positive, got {num_segments}")
        if lru.observer is not None:
            raise ValueError("LRU list already has an observer")
        if len(lru) != 0:
            raise ValueError("SegmentTracker must attach to an empty list")
        self.lru = lru
        self.seg_len = seg_len
        self.num_segments = num_segments
        #: bottom-distance of the first item above the tracked region.
        self.limit = num_segments * seg_len
        # bounds[k] for k < num_segments: lowest item of segment k;
        # bounds[num_segments]: first item above the tracked region.
        self.bounds: list[Item | None] = [None] * (num_segments + 1)
        self.n = 0
        lru.observer = self

    # -- queries ---------------------------------------------------------
    def segment_on_access(self, item: Item, h1: int = 0, h2: int = 0) -> int:
        """Segment the item occupies right now (-1 if above the region).

        Must be called *before* the LRU promotion that the access causes.
        The optional hash pair mirrors the Bloom tracker's interface and
        is ignored — exact tracking reads the index off the item, and so
        does ``PamaPolicy.on_hit``, without calling this.
        """
        return item.seg

    def rollover(self) -> None:
        """Window-boundary hook; the exact tracker has nothing to refresh."""

    # -- LRU observer ------------------------------------------------------
    def on_push_front(self, item: Item) -> None:
        d = self.n  # the new front item has the largest bottom-distance
        self.n = d + 1
        limit = self.limit
        if d > limit:  # a stack past its tracked bottom: the usual case
            item.seg = -1
        elif d < limit:
            seg_len = self.seg_len
            item.seg = seg = d // seg_len
            if d % seg_len == 0:
                self.bounds[seg] = item
        else:
            item.seg = -1
            self.bounds[self.num_segments] = item

    def on_remove(self, item: Item) -> None:
        # Called with links intact (before the unlink).
        s = item.seg
        self.n -= 1
        bounds = self.bounds
        if s < 0:
            # Above the tracked region; only the virtual boundary can be
            # affected (when the removed item is exactly the first
            # untracked one).
            if bounds[self.num_segments] is item:
                bounds[self.num_segments] = item.prev
            return
        # Every boundary strictly above the removed item shifts one step
        # toward the front: its old node drops into the segment below.
        # The virtual boundary's node re-enters the tracked region.
        for k in range(s + 1, self.num_segments + 1):
            node = bounds[k]
            if node is None:
                break
            node.seg = k - 1
            bounds[k] = node.prev
        if bounds[s] is item:
            bounds[s] = item.prev
        item.seg = -1

    def on_promote(self, item: Item) -> None:
        # The boundary walk of on_remove and the placement of
        # on_push_front in one body; links intact, ``n`` is unchanged.
        s = item.seg
        bounds = self.bounds
        m = self.num_segments
        if s < 0:
            # Above the tracked region and not the head, so the stack
            # still reaches past the region once the item is on top:
            # it stays untracked.
            if bounds[m] is item:
                bounds[m] = item.prev
            return
        for k in range(s + 1, m + 1):
            node = bounds[k]
            if node is None:
                break
            node.seg = k - 1
            bounds[k] = node.prev
        if bounds[s] is item:
            bounds[s] = item.prev
        d = self.n - 1  # the bottom-distance of the front
        limit = self.limit
        if d > limit:
            item.seg = -1
        elif d < limit:
            seg_len = self.seg_len
            item.seg = seg = d // seg_len
            if d % seg_len == 0:
                bounds[seg] = item
        else:
            item.seg = -1
            bounds[m] = item

    # -- verification -------------------------------------------------------
    def check_invariants(self) -> None:
        """Compare against a brute-force recomputation (tests only)."""
        assert self.n == len(self.lru), f"tracker n={self.n} vs lru={len(self.lru)}"
        expected_bounds: list[Item | None] = [None] * (self.num_segments + 1)
        d = 0
        node = self.lru.back
        limit = self.limit
        while node is not None:
            want = d // self.seg_len if d < limit else -1
            assert node.seg == want, (
                f"item at distance {d}: seg={node.seg}, expected {want}")
            if d <= limit and d % self.seg_len == 0:
                expected_bounds[d // self.seg_len] = node
            node = node.prev
            d += 1
        assert self.bounds == expected_bounds, "boundary pointers drifted"
