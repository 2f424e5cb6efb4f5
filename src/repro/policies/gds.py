"""GreedyDual-Size: classic cost-aware *item-level* replacement.

Extension baseline (Cao & Irani, USENIX Symposium on Internet
Technologies 1997).  The cost-aware caching literature the paper builds
on answers penalty variance at the *item* level: every item carries a
priority ``H = L + penalty / size`` (L is the inflation value, raised to
the evicted item's H on each eviction) and the lowest-H item goes first.

Placing GDS next to PAMA isolates the paper's actual contribution: is
*slab-level* penalty-aware allocation needed, or would cost-aware
eviction inside classes suffice?  GDS here keeps Memcached's slab
structure (one queue per class) but replaces in-class LRU eviction with
GDS order, and resolves slab pressure by taking from the queue holding
the globally cheapest item.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from repro.cache.item import Item
from repro.cache.queue import Queue
from repro.policies.base import AllocationPolicy


class _GdsQueueState:
    """Lazy-deletion priority heap + inflation value for one queue."""

    __slots__ = ("heap", "inflation", "current")

    def __init__(self) -> None:
        # heap of (H, tiebreak, the item's store version, item); stale
        # entries skipped lazily
        self.heap: list[tuple[float, int, int, Item]] = []
        self.inflation = 0.0
        # item -> its last pushed heap entry (shared, not a copy); an
        # entry is current iff its H and store version match that one's,
        # so one pushed before a re-store of the item is stale
        self.current: dict[int, tuple[float, int, int, Item]] = {}


class GreedyDualSizePolicy(AllocationPolicy):
    """GDS eviction inside Memcached-style classes.

    ``reallocate=False`` (default, the literature's GDS) keeps
    Memcached's frozen slab allocation and only changes the in-class
    eviction order.  ``reallocate=True`` additionally resolves slab
    pressure by taking from the queue holding the globally cheapest
    item — a cost-aware *allocation* hybrid that turns out to be a much
    stronger baseline (see the oracle ablation bench).
    """

    name = "gds"

    def __init__(self, reallocate: bool = False) -> None:
        super().__init__()
        self.reallocate = reallocate
        if reallocate:
            self.name = "gds-alloc"
        self._tiebreak = itertools.count()
        self._stores = itertools.count(1)

    # -- state ------------------------------------------------------------
    def on_queue_created(self, queue: Queue) -> None:
        queue.policy_data = _GdsQueueState()

    def _priority(self, state: _GdsQueueState, item: Item) -> float:
        # one item per slot: the slot is the space cost, so penalty per
        # slot byte is the natural H increment
        return state.inflation + item.penalty / max(item.total_size, 1)

    def _push(self, queue: Queue, item: Item, version: int) -> None:
        state: _GdsQueueState = queue.policy_data
        h = self._priority(state, item)
        entry = (h, next(self._tiebreak), version, item)
        state.current[id(item)] = entry
        heapq.heappush(state.heap, entry)

    # -- events ---------------------------------------------------------
    def on_insert(self, queue: Queue, item: Item) -> None:
        self._push(queue, item, next(self._stores))

    def on_hit(self, queue: Queue, item: Item,
               h1: int = 0, h2: int = 0) -> None:
        # a hit refreshes H with the current inflation value
        self._push(queue, item, queue.policy_data.current[id(item)][2])

    def on_evict(self, queue: Queue, items: Sequence[Item]) -> None:
        current = queue.policy_data.current
        for item in items:
            current.pop(id(item), None)

    def on_remove(self, queue: Queue, item: Item) -> None:
        queue.policy_data.current.pop(id(item), None)

    # -- decisions --------------------------------------------------------
    def _peek(self, queue: Queue) -> tuple[float, Item] | None:
        """Lowest live (H, item) of a queue, discarding stale entries."""
        state: _GdsQueueState = queue.policy_data
        heap = state.heap
        while heap:
            h, _tb, version, item = heap[0]
            last = state.current.get(id(item))
            if last is not None and last[0] == h and last[2] == version:
                return h, item
            heapq.heappop(heap)
        return None

    def choose_victim(self, queue: Queue) -> Item | None:
        top = self._peek(queue)
        if top is None:
            return None  # fall back to LRU (shouldn't happen)
        h, item = top
        state: _GdsQueueState = queue.policy_data
        heapq.heappop(state.heap)
        state.current.pop(id(item), None)
        # GreedyDual aging: future insertions start at the evicted H
        state.inflation = h
        return item

    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        if not self.reallocate and not must_migrate:
            return None  # classic GDS: replace within the class
        # hybrid: take space from the queue holding the cheapest item
        donor: Queue | None = None
        lowest = float("inf")
        for q in self.cache.iter_queues():
            if not q.can_donate():
                continue
            top = self._peek(q)
            if top is not None and top[0] < lowest:
                donor, lowest = q, top[0]
        return donor
