"""Facebook's slab rebalancer (Nishtala et al., NSDI 2013).

Paper §II: the scheme "attempts to balance the age of LRU items in
different classes to approximate a single global LRU": if a class's LRU
item is 20% *younger* than the average of the other classes' LRU-item
ages, one slab moves from the class with the oldest LRU item to the
class with the youngest.

Age here is measured in cache accesses since the item's last access,
the trace-driven analogue of wall-clock age.  Neither the cache nor its
items keep such a tick: this policy keeps its own stamp per key, the
cache's ``accesses`` at the key's last hit or store, and drops it when
the item is evicted or removed.
"""

from __future__ import annotations

from repro.policies.base import AllocationPolicy
from repro.cache.queue import Queue


class FacebookPolicy(AllocationPolicy):
    """Age-of-LRU-item balancer, evaluated every ``check_interval`` accesses."""

    name = "facebook"

    def __init__(self, check_interval: int = 10_000,
                 youth_threshold: float = 0.8) -> None:
        super().__init__()
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if not 0.0 < youth_threshold < 1.0:
            raise ValueError("youth_threshold must be in (0, 1)")
        self.check_interval = check_interval
        self.youth_threshold = youth_threshold
        self._last_check = 0
        #: key -> ``cache.accesses`` at its item's last hit or store
        self._stamps: dict[object, int] = {}

    def _maybe_rebalance(self) -> None:
        cache = self.cache
        if cache.accesses - self._last_check < self.check_interval:
            return
        self._last_check = cache.accesses

        ages: list[tuple[Queue, float]] = []
        for q in cache.iter_queues():
            tail = q.lru.back
            if tail is not None:
                ages.append((q, float(cache.accesses
                                      - self._stamps[tail.key])))
        if len(ages) < 2:
            return
        total = sum(a for _, a in ages)
        youngest, youngest_age = min(ages, key=lambda qa: qa[1])
        oldest, oldest_age = max(ages, key=lambda qa: qa[1])
        others_avg = (total - youngest_age) / (len(ages) - 1)
        if (youngest_age < self.youth_threshold * others_avg
                and oldest is not youngest and oldest.can_donate()):
            cache.migrate(oldest, youngest)

    def on_hit(self, queue: Queue, item,
               h1: int = 0, h2: int = 0) -> None:
        # stamped after the balance, which reads the item's old age
        # when it is its queue's tail
        self._maybe_rebalance()
        self._stamps[item.key] = self.cache.accesses

    def on_insert(self, queue: Queue, item) -> None:
        self._stamps[item.key] = self.cache.accesses

    def on_evict(self, queue: Queue, items) -> None:
        stamps = self._stamps
        for item in items:
            del stamps[item.key]

    def on_remove(self, queue: Queue, item) -> None:
        del self._stamps[item.key]

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        self._maybe_rebalance()

    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        return None
