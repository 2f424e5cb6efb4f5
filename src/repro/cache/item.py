"""Cache items: an intrusive doubly-linked LRU node carrying KV metadata,
and the subclass a store that carries a payload or an expiry builds."""

from __future__ import annotations


class Item:
    """A cached key-value item.

    The item doubles as its own LRU-list node (``prev``/``next``), the
    standard intrusive-list trick that makes hit handling allocation-free
    on the hot path.  It carries what every cache reads and nothing the
    replay would have to write per operation: a policy that needs ages
    or versions of its items keeps them itself (the Facebook rebalancer
    keeps a tick per key).  Eight slots: 96 B on CPython 3.11.

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
        value / expires_at / cas: read-only class defaults (``None``,
            ``0.0`` = never expires, ``0`` = no CAS unique issued), so a
            reader needs no branch; a :class:`StoredItem` holds its own.
        last_access: read-only 0: the cache stamps no access tick.
    """

    __slots__ = ("key", "key_size", "value_size", "penalty",
                 "prev", "next", "seg", "queue")

    value = None
    expires_at = 0.0
    cas = 0
    last_access = 0

    def __init__(self, key: object, key_size: int, value_size: int,
                 penalty: float, queue=None) -> None:
        self.key = key
        self.key_size = key_size
        self.value_size = value_size
        self.penalty = penalty
        self.queue = queue
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
        return (f"{type(self).__name__}(key={self.key!r}, "
                f"size={self.total_size}, penalty={self.penalty:.4f}, "
                f"q=({self.class_idx},{self.bin_idx}))")


class StoredItem(Item):
    """An item that holds a payload, an expiry or a CAS unique.

    ``SlabCache.set`` builds one only for a store that carries a value
    or an expiry (every server store; a snapshot restore with an
    expiry), and ``touch`` / ``cas_unique`` replace a plain
    :class:`Item` by one before they write.  Eleven slots: 120 B, which
    the allocator rounds to the 128 B a served item took before.

    Attributes:
        value: the payload (the server stores ``(flags, data)``), or None.
        expires_at: absolute expiry time in seconds (0.0 = never).
        cas: the memcached ``gets``/``cas`` unique, 0 until a ``gets``
            issues one (``SlabCache.cas_unique``); every store resets it.
    """

    __slots__ = ("value", "expires_at", "cas")

    def __init__(self, key: object, key_size: int, value_size: int,
                 penalty: float, value: object = None,
                 expires_at: float = 0.0, queue=None) -> None:
        # Item.__init__'s stores, inline: a server store builds one
        # frame, not two
        self.key = key
        self.key_size = key_size
        self.value_size = value_size
        self.penalty = penalty
        self.queue = queue
        self.prev = None
        self.next = None
        self.seg = -1
        self.value = value
        self.expires_at = expires_at
        self.cas = 0
