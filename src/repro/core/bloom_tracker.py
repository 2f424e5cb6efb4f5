"""Bloom-filter based segment membership — the paper's §III mechanism.

"We propose to use Bloom filters to complete the testing in O(1) time
with small space overhead.  We use one Bloom filter for each reference
segment. ... we set up a Bloom filter, called a removal filter, to
track the items that have been recently removed out of the segments."

Filters are rebuilt from the live stack bottom once per rebuild
interval; between rebuilds, accesses are answered from the filters with
the removal filter masking items that were promoted out.  This is an
approximation (items drifting *into* segments between rebuilds are
invisible until the next rebuild), which is exactly the trade-off the
paper accepts; the exact tracker exists to quantify it (ablation bench).

Hot-path contract: every filter of a tracker probes with the *same*
request-level base pair ``(h1, h2)`` (see
:func:`~repro.bloom.hashing.hash_pair` with seed 0), computed once per
request by :class:`~repro.cache.cache.SlabCache` and threaded through
``PamaPolicy.on_hit`` → :meth:`segment_on_access`.  Sharing one pair
across filters is sound — each filter owns a separate bit array, so
per-filter hash independence buys nothing — and it is what lets a
request hash its key exactly once no matter how many segments exist.
"""

from __future__ import annotations

from repro.bloom import BloomFilter, RemovalFilter
from repro.bloom.hashing import PAIR_SEED_DELTA, hash_key
from repro.cache.item import Item
from repro.cache.lru import LRUList


class BloomSegmentTracker:
    """Drop-in alternative to :class:`~repro.core.segments.SegmentedLRU`'s
    tracking: it reads a plain list, which it walks only to rebuild, and
    leaves ``item.seg`` alone."""

    __slots__ = ("lru", "seg_len", "num_segments", "filters", "removal",
                 "rebuilds", "queries", "false_region_hits")

    def __init__(self, lru: LRUList, seg_len: int, num_segments: int,
                 fp_rate: float = 0.01) -> None:
        if seg_len <= 0 or num_segments <= 0:
            raise ValueError("seg_len and num_segments must be positive")
        self.lru = lru
        self.seg_len = seg_len
        self.num_segments = num_segments
        # All filters hash with seed 0: probes use the request-level
        # hash pair the cache computes once, and the key-based filter
        # API must agree with it bit-for-bit.
        self.filters = [BloomFilter(max(seg_len, 8), fp_rate, seed=0)
                        for _ in range(num_segments)]
        self.removal = RemovalFilter(max(seg_len * num_segments, 8),
                                     fp_rate, seed=0)
        self.rebuilds = 0
        self.queries = 0
        self.false_region_hits = 0

    # -- queries ---------------------------------------------------------
    def segment_on_access(self, item: Item, h1: int = 0, h2: int = 0) -> int:
        """Segment attributed to this access, or -1.

        Tests the per-segment filters bottom-up; a positive counts only
        if the removal filter does not mask it.  A matching item is then
        marked removed (its promotion pulls it out of the segment).

        ``(h1, h2)`` is the request's base hash pair; a real ``h2`` is
        always odd, so ``h2 == 0`` means "not supplied" and the pair is
        derived from ``item.key`` here (the slow, standalone path).
        """
        self.queries += 1
        if h2 == 0:
            key = item.key
            h1 = hash_key(key, 0)
            h2 = hash_key(key, PAIR_SEED_DELTA) | 1
        removal = self.removal
        if removal.masks_hashes(h1, h2):
            return -1
        k = 0
        for filt in self.filters:
            if filt.contains_hashes(h1, h2):
                removal.mark_removed_hashes(h1, h2)
                return k
            k += 1
        return -1

    def rollover(self) -> None:
        """Window boundary: rebuild the segment filters from the stack."""
        self.rebuild()

    # -- maintenance ----------------------------------------------------------
    def rebuild(self) -> None:
        """Repopulate the per-segment filters by walking the stack bottom.

        Adding a key that collides with the removal filter clears the
        removal filter, per the paper: otherwise the fresh member would
        be wrongly masked.  Each key is hashed once; the same pair feeds
        the removal filter and the segment filter.
        """
        for filt in self.filters:
            filt.clear()
        node = self.lru.back
        seg_len = self.seg_len
        removal_add = self.removal.on_segment_add_hashes
        delta = PAIR_SEED_DELTA
        for filt in self.filters:
            if node is None:
                break
            filt_add = filt.add_hashes
            remaining = seg_len
            while remaining and node is not None:
                key = node.key
                h1 = hash_key(key, 0)
                h2 = hash_key(key, delta) | 1
                removal_add(h1, h2)
                filt_add(h1, h2)
                node = node.prev
                remaining -= 1
        self.rebuilds += 1
