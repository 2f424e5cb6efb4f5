"""Ghost list: PAMA's extension of the LRU stack below its bottom.

Paper §III (second challenge): "we extend the LRU stack beyond its
current bottom to remember recently replaced items.  ...  this extended
section only records keys and miss penalties of KV items, rather than
the items' value components."

The ghost is divided into segments of ``seg_len`` entries measured from
the ghost *top* (= the position right beneath the live stack bottom):
segment G0 is the **receiving segment** — the items a newly granted slab
would cache — and G1..Gm are the reference segments for Eq. 2's weighted
incoming value.

Entries are ordered by eviction recency: the most recently evicted item
sits at the ghost top.  Capacity is ``num_segments * seg_len``; pushing
past it drops the oldest (bottom) entry.

Segment tracking mirrors :class:`~repro.core.segments.SegmentedLRU`
with the direction flipped (distances measured from the top, so a push
shifts *every* boundary instead of none).

Key lookup goes through a *directory*, ``key -> GhostEntry``.  A list
built alone owns one; the lists of one policy share the policy's, so a
miss finds its entry — and through ``entry.ghost`` the list, through
``list.owner`` the subclass — with one probe, and there is no second
key set to keep in step.
"""

from __future__ import annotations

from typing import Iterator, Sequence


class GhostEntry:
    """A remembered eviction: key + penalty only (no value payload)."""

    __slots__ = ("key", "penalty", "ghost", "prev", "next", "seg")

    def __init__(self, key: object, penalty: float,
                 ghost: GhostList) -> None:
        self.key = key
        self.penalty = penalty
        #: the list this entry is linked in.
        self.ghost = ghost
        self.prev: GhostEntry | None = None  # toward ghost top
        self.next: GhostEntry | None = None  # toward ghost bottom
        self.seg = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GhostEntry({self.key!r}, penalty={self.penalty:.4f}, seg={self.seg})"


class GhostList:
    """Bounded, segment-tracked list of recently evicted keys."""

    __slots__ = ("seg_len", "num_segments", "capacity", "head", "tail",
                 "index", "bounds", "n", "owner")

    def __init__(self, seg_len: int, num_segments: int,
                 directory: dict[object, GhostEntry] | None = None) -> None:
        if seg_len <= 0:
            raise ValueError(f"seg_len must be positive, got {seg_len}")
        if num_segments <= 0:
            raise ValueError(f"num_segments must be positive, got {num_segments}")
        self.seg_len = seg_len
        self.num_segments = num_segments
        self.capacity = seg_len * num_segments
        self.head: GhostEntry | None = None  # top (most recent eviction)
        self.tail: GhostEntry | None = None  # bottom (oldest)
        #: key -> entry; shared with sibling lists when ``directory`` is
        #: given, in which case it also holds their keys.
        self.index: dict[object, GhostEntry] = (
            {} if directory is None else directory)
        #: for whoever built the list to point back at itself (PAMA: the
        #: subclass state, reached from a directory hit).
        self.owner: object = None
        # bounds[k]: entry at top-distance exactly k*seg_len (the topmost
        # entry of segment k), or None when the ghost is shorter.
        self.bounds: list[GhostEntry | None] = [None] * num_segments
        self.n = 0

    # -- queries ---------------------------------------------------------
    def __contains__(self, key: object) -> bool:
        return self.lookup(key) is not None

    def __len__(self) -> int:
        return self.n

    def lookup(self, key: object) -> GhostEntry | None:
        entry = self.index.get(key)
        return entry if entry is not None and entry.ghost is self else None

    def segment_of(self, key: object) -> int:
        """Ghost segment of ``key`` (-1 if absent)."""
        entry = self.lookup(key)
        return entry.seg if entry is not None else -1

    def __iter__(self) -> Iterator[GhostEntry]:
        """Iterate top → bottom."""
        node = self.head
        while node is not None:
            nxt = node.next
            yield node
            node = nxt

    # -- mutations ----------------------------------------------------------
    def push_run(self, items: Sequence) -> None:
        """Record a run of evictions at the ghost top, LRU first.

        ``items`` carry ``key`` and ``penalty`` (evicted
        :class:`~repro.cache.item.Item` objects) and their keys are
        distinct.  The list, its bounds, every entry's ``seg`` and the
        directory end as one push per item would leave them: a key
        already in the directory is refreshed (it leaves the list that
        held it and enters this one at the top), and what falls past
        the capacity drops off the ghost bottom.
        """
        seg_len = self.seg_len
        r = len(items)
        if r > seg_len:
            # Segment-long pieces, so each boundary below moves at most
            # one segment.
            for start in range(0, r, seg_len):
                self.push_run(items[start:start + seg_len])
            return
        index = self.index
        index_get = index.get
        # The run's entries, chained top (the last item) to bottom; a
        # refreshed key leaves its old list first, as a push does.
        top = bottom = None
        for item in items:
            key = item.key
            old = index_get(key)
            if old is not None:
                old.ghost.remove_entry(old)
            entry = index[key] = GhostEntry(key, item.penalty, self)
            if top is None:
                bottom = entry
            else:
                entry.next = top
                top.prev = entry
            top = entry
        if top is None:
            return
        # Every entry already here moves r further from the top: the
        # boundary of segment k >= 1 moves r entries toward the top (to
        # top-distance k*seg_len - r >= 0), handing each entry it passes
        # to segment k.  A list that does not reach a boundary yet
        # starts that walk at its tail.
        n = self.n
        bounds = self.bounds
        for k in range(1, self.num_segments):
            node = bounds[k]
            if node is None:
                steps = n - k * seg_len + r  # entries that join segment k
                if steps <= 0:
                    break
                node = self.tail
                node.seg = k
                steps -= 1
            else:
                steps = r
            for _ in range(steps):
                node = node.prev
                node.seg = k
            bounds[k] = node
        head = self.head
        bottom.next = head
        if head is not None:
            head.prev = bottom
        else:
            self.tail = bottom
        self.head = bounds[0] = top
        n += r
        # Full: the bottom entries fall off.  They sit past the last
        # segment, beneath every boundary, so no pointer moves.
        capacity = self.capacity
        if n > capacity:
            node = self.tail
            for _ in range(n - capacity):
                del index[node.key]
                last = node.prev
                node.prev = None
                node = last
            node.next = None
            self.tail = node
            n = capacity
        self.n = n

    def remove(self, key: object) -> bool:
        """Forget ``key`` (it re-entered the cache). True if present."""
        entry = self.lookup(key)
        if entry is None:
            return False
        self.remove_entry(entry)
        return True

    def remove_entry(self, entry: GhostEntry) -> None:
        """Unlink ``entry`` (one of this list's) and drop its key."""
        s = entry.seg
        bounds = self.bounds
        # Entries beneath the removed one move up: boundaries strictly
        # below shift one step toward the bottom.
        for k in range(s + 1, self.num_segments):
            node = bounds[k]
            if node is None:
                break
            node.seg = k - 1
            bounds[k] = node.next
        if bounds[s] is entry:
            bounds[s] = entry.next
            # entry.next (old distance p_s+1) now has distance p_s; its
            # segment is unchanged unless seg_len == 1, which the loop
            # above already fixed.

        prev, nxt = entry.prev, entry.next
        if prev is not None:
            prev.next = nxt
        else:
            self.head = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        entry.prev = entry.next = None
        self.n -= 1
        del self.index[entry.key]

    def clear(self) -> None:
        """Forget every entry of this list (a shared directory keeps
        its other lists' keys).  The entries are unlinked, so each is
        freed by reference counting."""
        index = self.index
        for entry in self:
            del index[entry.key]
            entry.prev = entry.next = entry.ghost = None
        self.head = self.tail = None
        self.bounds = [None] * self.num_segments
        self.n = 0

    # -- verification -------------------------------------------------------
    def check_invariants(self) -> None:
        assert self.n <= self.capacity
        expected_bounds: list[GhostEntry | None] = [None] * self.num_segments
        d = 0
        node = self.head
        prev = None
        while node is not None:
            assert node.prev is prev
            want = d // self.seg_len
            assert want < self.num_segments, "entry beyond ghost capacity"
            assert node.seg == want, (
                f"ghost entry at distance {d}: seg={node.seg}, expected {want}")
            if d % self.seg_len == 0:
                expected_bounds[want] = node
            assert node.ghost is self, f"entry {node.key!r} names another list"
            assert self.index.get(node.key) is node, (
                f"linked entry {node.key!r} is not the directory's")
            prev = node
            node = node.next
            d += 1
        assert d == self.n, f"walked {d} entries, n={self.n}"
        assert self.tail is prev
        assert self.bounds == expected_bounds, "ghost boundary pointers drifted"
        filed = sum(1 for e in self.index.values() if e.ghost is self)
        assert filed == d, (
            f"directory files {filed} entries under this list, {d} are linked")
