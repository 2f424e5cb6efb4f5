"""Exact O(1) tracking of the bottom LRU-stack segments.

PAMA divides the bottom of each subclass's LRU stack into segments of
one slab's worth of items: S0 (the candidate slab, at the very bottom)
up to Sm (§III, Fig 2).  On every access PAMA must know which segment —
if any — the touched item sits in, to credit that segment's value.

The paper answers the membership question with Bloom filters
(:mod:`repro.core.bloom_tracker`).  This module provides the *exact*
alternative the simulator defaults to: an LRU list that keeps one
boundary pointer per segment edge and shifts them in the same frame as
each of its mutations, so every item always carries its current segment
index in ``item.seg`` (-1 = above all tracked segments, and on an item
no list holds).

Distance convention: the LRU tail has bottom-distance 0; segment k
covers distances [k*seg_len, (k+1)*seg_len).  ``bounds[k]`` points at
the item with distance exactly ``k*seg_len`` (the lowest item of
segment k), or None when the stack is too short to reach it.
``bounds[num_segments]`` (``bounds[-1]``) is a *virtual* boundary at
the upper edge of the tracked region: the first untracked item, which
enters segment ``num_segments - 1`` whenever a removal happens beneath
it.
"""

from __future__ import annotations

from repro.cache.item import Item
from repro.cache.lru import LRUList


class SegmentedLRU(LRUList):
    """An LRU list that keeps every item's bottom segment in ``item.seg``.

    PAMA installs one as each new queue's list; it is also the
    subclass's tracker (``segment_on_access`` / ``rollover``, the Bloom
    tracker's interface).
    """

    __slots__ = ("seg_len", "num_segments", "limit", "bounds")

    def __init__(self, seg_len: int, num_segments: int) -> None:
        if seg_len <= 0:
            raise ValueError(f"seg_len must be positive, got {seg_len}")
        if num_segments <= 0:
            raise ValueError(f"num_segments must be positive, got {num_segments}")
        super().__init__()
        self.seg_len = seg_len
        self.num_segments = num_segments
        #: bottom-distance of the first item above the tracked region.
        self.limit = num_segments * seg_len
        # bounds[k] for k < num_segments: lowest item of segment k;
        # bounds[num_segments]: first item above the tracked region.
        self.bounds: list[Item | None] = [None] * (num_segments + 1)

    # -- tracker interface -----------------------------------------------
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

    # -- mutators ------------------------------------------------------------
    def push_front(self, item: Item) -> None:
        d = self.size  # the new front item has the largest bottom-distance
        head = self.head
        item.prev = None
        item.next = head
        if head is not None:
            head.prev = item
        else:
            self.tail = item
        self.head = item
        self.size = d + 1
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
            self.bounds[-1] = item

    def remove(self, item: Item) -> None:
        s = item.seg
        bounds = self.bounds
        prev, nxt = item.prev, item.next
        if s < 0:
            # Above the tracked region; only the virtual boundary can be
            # affected (when the removed item is exactly the first
            # untracked one).
            if bounds[-1] is item:
                bounds[-1] = prev
        else:
            # Every boundary strictly above the removed item shifts one
            # step toward the front: its old node drops into the segment
            # below.  The virtual boundary's node re-enters the region.
            for k in range(s + 1, self.num_segments + 1):
                node = bounds[k]
                if node is None:
                    break
                node.seg = k - 1
                bounds[k] = node.prev
            if bounds[s] is item:
                bounds[s] = prev
            item.seg = -1
        if prev is not None:
            prev.next = nxt
        else:
            self.head = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        item.prev = item.next = None
        self.size -= 1

    def move_to_front(self, item: Item) -> None:
        # The boundary walk of remove() and the placement of
        # push_front() in one body; ``size`` is unchanged.
        head = self.head
        if head is item:
            return
        # Not the head, so there is a predecessor.
        prev, nxt = item.prev, item.next
        if item.seg < 0:
            # Above the tracked region and not the head, so the stack
            # still reaches past the region once the item is on top:
            # it stays untracked.
            bounds = self.bounds
            if bounds[-1] is item:
                bounds[-1] = prev
        else:
            s = item.seg
            bounds = self.bounds
            m = self.num_segments
            for k in range(s + 1, m + 1):
                node = bounds[k]
                if node is None:
                    break
                node.seg = k - 1
                bounds[k] = node.prev
            if bounds[s] is item:
                bounds[s] = prev
            d = self.size - 1  # the bottom-distance of the front
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
        prev.next = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        item.prev = None
        item.next = head
        head.prev = item
        self.head = item

    def pop_back_run(self, count: int) -> list[Item]:
        size = self.size
        if count > size:
            count = size
        bounds = self.bounds
        seg_len = self.seg_len
        # Every item left drops ``count`` in bottom-distance, so boundary
        # k moves ``count`` items toward the front (or off it), handing
        # each item it passes to segment k - 1.  Highest boundary first:
        # where a run is longer than a segment the walks overlap, and the
        # lowest boundary that passes an item labels it last, with its
        # new segment.  Boundary 0's walk is the run itself.
        for k in range(self.num_segments, 0, -1):
            node = bounds[k]
            if node is not None:
                seg = k - 1
                steps = size - k * seg_len  # items from the boundary up
                for _ in range(count if count < steps else steps):
                    node.seg = seg
                    node = node.prev
                bounds[k] = node
        run: list[Item] = []
        item = self.tail
        for _ in range(count):
            prev = item.prev
            item.prev = item.next = None
            item.seg = -1
            run.append(item)
            item = prev
        bounds[0] = self.tail = item
        if item is None:
            self.head = None
        else:
            item.next = None
        self.size = size - len(run)
        return run

    # -- verification -------------------------------------------------------
    def check_invariants(self) -> None:
        """The list's links, then every segment and boundary against a
        brute-force recomputation (tests only)."""
        super().check_invariants()
        expected_bounds: list[Item | None] = [None] * (self.num_segments + 1)
        d = 0
        node = self.tail
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
