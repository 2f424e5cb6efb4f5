"""Cache item: an intrusive doubly-linked LRU node carrying KV metadata."""

from __future__ import annotations


class Item:
    """A cached key-value item.

    The item doubles as its own LRU-list node (``prev``/``next``), the
    standard intrusive-list trick that makes hit handling allocation-free
    on the hot path.  It carries what its readers use and nothing the
    replay would have to write per operation: a policy that needs ages
    or versions of its items keeps them itself.

    Attributes:
        key: the cache key (int in simulations, str/bytes in the server).
        key_size / value_size: logical sizes in bytes; the slab slot the
            item occupies is derived from their sum plus the per-item
            overhead configured in :class:`~repro.cache.sizeclasses.SizeClassConfig`.
        penalty: the miss penalty of this key in seconds — the time the
            backend needs to recompute the value.  PAMA bins on this.
        queue: the :class:`~repro.cache.queue.Queue` the item lives in,
            stamped by ``SlabCache.set`` (None on an item no cache
            stored), so a hit or an unlink reads it instead of probing
            ``cache.queues``; ``class_idx`` / ``bin_idx`` read its qid.
        last_access: an access tick for a policy that ages items (the
            Facebook rebalancer stamps it); the cache never writes it.
        cas: the memcached ``gets``/``cas`` unique, 0 until a ``gets``
            issues one (``SlabCache.cas_unique``); every store resets it.
        value: optional payload (only the real server stores one; the
            simulator leaves it ``None`` to keep memory flat).
    """

    __slots__ = ("key", "key_size", "value_size", "penalty", "last_access",
                 "value", "prev", "next", "seg", "expires_at", "cas", "queue")

    def __init__(self, key: object, key_size: int, value_size: int,
                 penalty: float, value: object = None,
                 expires_at: float = 0.0, queue=None) -> None:
        self.key = key
        self.key_size = key_size
        self.value_size = value_size
        self.penalty = penalty
        self.queue = queue
        self.last_access = 0
        self.value = value
        #: absolute expiry time in seconds (0.0 = never expires).
        self.expires_at = expires_at
        self.cas = 0
        self.prev: Item | None = None
        self.next: Item | None = None
        # Bottom segment, kept by the SegmentedLRU holding the item (-1 =
        # above all tracked bottom segments, or no such list).
        self.seg = -1

    @property
    def class_idx(self) -> int:
        """Size class of the item's queue (-1 when no cache stored it)."""
        queue = self.queue
        return -1 if queue is None else queue.class_idx

    @property
    def bin_idx(self) -> int:
        """Penalty bin of the item's queue (0 when no cache stored it)."""
        queue = self.queue
        return 0 if queue is None else queue.bin_idx

    @property
    def total_size(self) -> int:
        """Logical item footprint excluding allocator overhead."""
        return self.key_size + self.value_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Item(key={self.key!r}, size={self.total_size}, "
                f"penalty={self.penalty:.4f}, q=({self.class_idx},{self.bin_idx}))")
