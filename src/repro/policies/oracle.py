"""Clairvoyant (Belady) replacement: the offline upper bound.

Extension baseline.  Given the full trace up front, Belady's MIN evicts
the item whose next use lies farthest in the future — the optimal
policy for miss *count*.  The ``cost_aware`` variant divides the reuse
distance by the item's penalty, approximating the offline optimum for
miss *penalty* (exact cost-aware MIN is NP-hard; this is the standard
greedy surrogate).

Time advances one tick per GET the cache serves, matched against the
trace's GET sequence, so the simulator's fill-on-miss SETs do not skew
the schedule.  The oracle therefore requires that the cache serves
exactly the trace's GETs in order — which is what the simulator does.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING

from repro.cache.item import Item
from repro.cache.queue import Queue
from repro.policies.base import AllocationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.record import Trace

#: next-use value for keys never requested again.
NEVER = float("inf")


class _OracleQueueState:
    """Max-heap of eviction priorities with lazy invalidation.

    Entries are ``(-priority, tiebreak, version, item,
    next_use_snapshot)``; an entry is live iff the item is still cached
    in this queue, has not been re-stored (its key's store version is
    the one it was pushed with) and its next-use tick has not changed
    since the entry was pushed.
    """

    __slots__ = ("heap",)

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, int, Item, float]] = []


class OraclePolicy(AllocationPolicy):
    """Belady's MIN (``cost_aware=False``) or its penalty-weighted greedy
    variant (``cost_aware=True``), given the trace ahead of time."""

    name = "oracle"

    def __init__(self, trace: Trace, cost_aware: bool = False) -> None:
        import numpy as np

        from repro.traces.record import Op

        super().__init__()
        self.cost_aware = cost_aware
        if cost_aware:
            self.name = "oracle-cost"
        self._tiebreak = itertools.count()
        # GET schedule: for each key, the queue of its GET tick numbers
        self._schedule: dict[int, deque[int]] = {}
        gets = trace.keys[np.asarray(trace.ops) == Op.GET]
        for tick, key in enumerate(gets.tolist()):
            self._schedule.setdefault(key, deque()).append(tick)
        self._tick = 0
        #: key -> current next-use tick (NEVER when exhausted)
        self._next_use: dict[object, float] = {}
        #: key -> the version its last store drew from ``_stores``
        self._stored: dict[object, int] = {}
        self._stores = itertools.count(1)

    # -- schedule bookkeeping ---------------------------------------------
    def _advance(self, key: object) -> None:
        """Consume the current GET of ``key`` and look up its next one."""
        sched = self._schedule.get(key)
        if sched:
            # drop every scheduled position at or before the current tick
            # (robust to the same key appearing in SET rows too)
            while sched and sched[0] <= self._tick:
                sched.popleft()
        self._next_use[key] = sched[0] if sched else NEVER
        self._tick += 1

    def _priority(self, item: Item, nxt: float) -> float:
        """Higher = better eviction victim (computed at push time).

        Belady orders by absolute next-use tick, which is invariant as
        time passes.  The cost-aware variant divides the reuse gap by
        the penalty; that ordering can drift as the clock advances, but
        entries refresh on every touch, which keeps the greedy surrogate
        close (documented approximation).
        """
        if nxt == NEVER:
            return NEVER
        if self.cost_aware:
            return max(nxt - self._tick, 1.0) / max(item.penalty, 1e-6)
        return nxt

    def _lookup_next(self, key: object) -> float:
        """Next GET tick of ``key`` (consults the schedule for keys that
        were SET before their first GET)."""
        nxt = self._next_use.get(key)
        if nxt is not None:
            return nxt
        sched = self._schedule.get(key)
        while sched and sched[0] < self._tick:
            sched.popleft()
        nxt = float(sched[0]) if sched else NEVER
        self._next_use[key] = nxt
        return nxt

    def _push(self, queue: Queue, item: Item) -> None:
        state: _OracleQueueState = queue.policy_data
        nxt = self._lookup_next(item.key)
        heapq.heappush(state.heap, (-self._priority(item, nxt),
                                    next(self._tiebreak),
                                    self._stored[item.key], item, nxt))

    # -- events ---------------------------------------------------------
    def on_queue_created(self, queue: Queue) -> None:
        queue.policy_data = _OracleQueueState()

    def on_hit(self, queue: Queue, item: Item,
               h1: int = 0, h2: int = 0) -> None:
        self._advance(item.key)
        self._push(queue, item)

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        self._advance(key)

    def on_insert(self, queue: Queue, item: Item) -> None:
        self._stored[item.key] = next(self._stores)
        self._push(queue, item)

    # -- decisions --------------------------------------------------------
    def _peek(self, queue: Queue) -> tuple[float, Item] | None:
        """Best victim (priority, item), skipping stale heap entries."""
        state: _OracleQueueState = queue.policy_data
        heap = state.heap
        index = self.cache.index
        while heap:
            neg_priority, _tb, version, item, nxt = heap[0]
            key = item.key
            live = (index.get(key) is item and self._stored[key] == version
                    and item.queue is queue
                    and self._next_use.get(key, NEVER) == nxt)
            if live:
                return -neg_priority, item
            heapq.heappop(heap)
        return None

    def choose_victim(self, queue: Queue) -> Item | None:
        top = self._peek(queue)
        if top is None:
            return None
        _score, item = top
        heapq.heappop(queue.policy_data.heap)
        return item

    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        """Evict in place: this oracle optimises *replacement*, not
        allocation.

        A slab migration always evicts a whole slab's worth of the
        donor's items for one requester slot, and "which queue can best
        afford that" is exactly the allocation problem the paper's
        policies compete on — an eviction oracle has no sound greedy
        answer to it (ETC's one-timers put a dead item in nearly every
        queue, which makes any dead-item heuristic thrash).  So the
        clairvoyant baselines run Belady / cost-Belady *within*
        Memcached's grab-free-slabs-then-freeze allocation, bounding
        what better replacement alone could achieve.  When forced (the
        requesting queue owns nothing), the donor with the least
        regrettable victim is chosen.
        """
        if not must_migrate:
            return None
        donor: Queue | None = None
        best = -1.0
        for q in self.cache.iter_queues():
            if q is queue or not q.can_donate():
                continue
            top = self._peek(q)
            score = top[0] if top is not None else NEVER
            if score > best:
                donor, best = q, score
        return donor
