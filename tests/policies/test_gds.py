"""Tests for the GreedyDual-Size extension policy."""

import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import GreedyDualSizePolicy


def gds_cache(slabs=4):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, GreedyDualSizePolicy(), classes)


class TestGdsEviction:
    def test_evicts_cheapest_item_not_lru(self):
        cache = gds_cache(slabs=1)
        per_slab = 4096 // 64
        # the oldest item is expensive; the rest are cheap
        cache.set("dear", 8, 50, 5.0)
        for i in range(per_slab - 1):
            cache.set(i, 8, 50, 0.001)
        cache.set("overflow", 8, 50, 0.001)  # forces one eviction
        # strict LRU would kill "dear"; GDS keeps it and drops a cheap one
        assert "dear" in cache
        assert cache.stats.evictions == 1

    def test_hit_refreshes_priority(self):
        cache = gds_cache(slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab):
            cache.set(i, 8, 50, 0.01)
        # raise the inflation by churning evictions
        for i in range(100, 100 + per_slab):
            cache.set(i, 8, 50, 0.01)
        # key 105 was just inserted at high inflation; keys with old low
        # H fall first even if recently touched less
        assert 105 in cache

    def test_inflation_is_monotone(self):
        cache = gds_cache(slabs=1)
        policy = cache.policy
        per_slab = 4096 // 64
        inflations = []
        for i in range(3 * per_slab):
            cache.set(i, 8, 50, 0.01)
            state = next(iter(cache.iter_queues())).policy_data
            inflations.append(state.inflation)
        assert inflations == sorted(inflations)
        assert inflations[-1] > 0

    def test_a_re_stored_items_older_entry_is_stale_at_an_equal_priority(self):
        cache = gds_cache(slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab):       # one H for all: pushed in key order
            cache.set(i, 8, 50, 0.01)
        first = cache.index[0]
        cache.set(0, 8, 50, 0.01)       # re-stored in place: same item, same H
        assert cache.index[0] is first
        cache.set("overflow", 8, 50, 0.01)
        # key 0's first entry still heads the heap at that H, but it
        # predates the re-store: the victim is key 1
        assert 0 in cache and 1 not in cache
        assert cache.stats.evictions == 1
        cache.check_invariants()

    def test_pressure_takes_from_cheapest_queue(self):
        cache = gds_cache(slabs=2)
        per_slab = 4096 // 64
        # class 0 holds both slabs: one full of cheap, accessed items
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.0001)
        # a large expensive item arrives; the cheap class donates
        assert cache.set("big", 8, 3000, 4.0)
        assert cache.stats.migrations == 1
        cache.check_invariants()

    def test_invariants_under_churn(self):
        import random
        rng = random.Random(3)
        cache = gds_cache(slabs=8)
        for i in range(6000):
            key = rng.randrange(500)
            size = rng.choice([40, 200, 900, 3000])
            pen = rng.choice([0.0005, 0.05, 2.0])
            if cache.lookup(key, 8, size, pen) is None:
                cache.set(key, 8, size, pen)
        cache.check_invariants()
        assert cache.stats.hits > 0

    def test_cost_awareness_beats_lru_on_skewed_penalties(self):
        """Same trace, items with equal popularity but wildly different
        penalties: GDS must end with lower total miss penalty than LRU."""
        import random
        from repro.policies import StaticMemcachedPolicy

        def run(policy):
            classes = SizeClassConfig(slab_size=4096, base_size=64)
            cache = SlabCache(2 * 4096, policy, classes)
            rng = random.Random(11)
            for _ in range(20_000):
                key = rng.randrange(300)
                pen = 2.0 if key % 2 else 0.001
                if cache.lookup(key, 8, 50, pen) is None:
                    cache.set(key, 8, 50, pen)
            return cache.stats.total_miss_penalty

        assert run(GreedyDualSizePolicy()) < run(StaticMemcachedPolicy())
