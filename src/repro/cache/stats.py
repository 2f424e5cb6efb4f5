"""Operation counters for the cache and its queues."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueueStats:
    """Per-queue (class, penalty-bin) counters.

    Every GET accounted to the queue bumps exactly one of ``hits`` and
    ``misses``; ``gets`` is their sum.
    """

    hits: int = 0
    misses: int = 0
    sets: int = 0
    evictions: int = 0
    slabs_received: int = 0
    slabs_donated: int = 0

    @property
    def gets(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0


@dataclass
class CacheStats:
    """Global cache counters plus service-time accumulation.

    Every GET bumps exactly one of ``hits`` and ``misses``; ``gets`` is
    their sum.
    """

    hits: int = 0
    misses: int = 0
    sets: int = 0
    set_failures: int = 0
    deletes: int = 0
    evictions: int = 0
    migrations: int = 0
    rejected_too_large: int = 0
    expired: int = 0
    flushes: int = 0
    #: sum of miss penalties over all GET misses with known penalty (s).
    total_miss_penalty: float = 0.0

    @property
    def gets(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.gets if self.gets else 0.0

    def avg_service_time(self, hit_time: float) -> float:
        """Mean GET service time given a fixed per-hit cost (paper's metric)."""
        if not self.gets:
            return 0.0
        return (self.hits * hit_time + self.total_miss_penalty) / self.gets

    def snapshot(self) -> dict[str, float]:
        return {
            "gets": self.gets, "hits": self.hits, "misses": self.misses,
            "sets": self.sets, "deletes": self.deletes,
            "evictions": self.evictions, "migrations": self.migrations,
            "expired": self.expired, "hit_ratio": self.hit_ratio,
            "total_miss_penalty": self.total_miss_penalty,
        }
