"""A queue: the (size-class, penalty-bin) unit that owns slabs.

Non-penalty-aware policies use one bin per class, so their queues are
exactly Memcached's classes.  PAMA uses five penalty bins per class —
the paper's *subclasses*.  Unifying both under one Queue type lets all
policies share the cache substrate and the eviction machinery.
"""

from __future__ import annotations

from repro.cache.item import Item
from repro.cache.lru import LRUList
from repro.cache.stats import QueueStats


class Queue:
    """Slab-owning LRU queue of equally-sized slots."""

    __slots__ = ("class_idx", "bin_idx", "qid", "slot_size", "slots_per_slab",
                 "slabs", "lru", "stats", "policy_data")

    def __init__(self, class_idx: int, bin_idx: int, slot_size: int,
                 slots_per_slab: int) -> None:
        self.class_idx = class_idx
        self.bin_idx = bin_idx
        #: the key of this queue in ``SlabCache.queues`` and the pool.
        self.qid = (class_idx, bin_idx)
        self.slot_size = slot_size
        self.slots_per_slab = slots_per_slab
        self.slabs = 0
        self.lru = LRUList()
        self.stats = QueueStats()
        #: opaque slot for the active policy (e.g. PAMA's ghost list and
        #: values live here; its exact tracker replaces ``lru``).
        self.policy_data: object = None

    @property
    def capacity_slots(self) -> int:
        return self.slabs * self.slots_per_slab

    @property
    def used_slots(self) -> int:
        return len(self.lru)

    @property
    def free_slots(self) -> int:
        return self.slabs * self.slots_per_slab - self.lru.size

    @property
    def used_bytes(self) -> int:
        """Actual item bytes (not slot bytes) held by the queue."""
        return sum(i.total_size for i in self.lru)

    def can_donate(self) -> bool:
        """A queue can donate iff it owns at least one slab."""
        return self.slabs >= 1

    def occupancy(self) -> float:
        """Used-slot fraction; 0.0 for a slabless queue."""
        cap = self.capacity_slots
        return len(self.lru) / cap if cap else 0.0

    def check_invariants(self) -> None:
        assert self.slabs >= 0
        assert len(self.lru) <= self.capacity_slots, (
            f"queue {self.qid} holds {len(self.lru)} items in "
            f"{self.capacity_slots} slots")
        self.lru.check_invariants()
        for item in self.lru:
            assert isinstance(item, Item)
            assert item.queue is self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Queue(q={self.qid}, slabs={self.slabs}, "
                f"used={self.used_slots}/{self.capacity_slots})")
