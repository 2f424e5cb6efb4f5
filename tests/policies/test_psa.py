"""Tests for the PSA baseline."""

import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import PSAPolicy


def psa_cache(slabs=8, m_misses=10):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, PSAPolicy(m_misses=m_misses), classes)


class TestPSA:
    def test_invalid_m(self):
        with pytest.raises(ValueError):
            PSAPolicy(m_misses=0)

    def test_moves_slab_to_missing_class(self):
        cache = psa_cache(slabs=2, m_misses=10)
        per_slab = 4096 // 64
        # class 0 takes both slabs and then sits idle (density 0)
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.1)
        assert cache.class_slab_distribution() == {0: 2}
        # misses hammer the large class; after M misses PSA relocates
        big_class = cache.size_classes.class_for_size(3008)
        for i in range(12):
            cache.lookup(("big", i), 8, 3000, 0.1)
        assert cache.stats.migrations >= 1
        assert cache.class_slab_distribution().get(big_class, 0) >= 1

    def test_donor_is_lowest_density(self):
        cache = psa_cache(slabs=3, m_misses=20)
        per_slab_small = 4096 // 64
        # two small classes: class 0 active, class 1 idle
        for i in range(per_slab_small):
            cache.set(("a", i), 8, 50, 0.1)
        for i in range(4096 // 128):
            cache.set(("b", i), 8, 100, 0.1)
        # keep class 0 hot so its density is high
        for r in range(3):
            for i in range(per_slab_small):
                cache.get(("a", i))
        # drive misses on the big class to trigger relocation
        for i in range(25):
            cache.lookup(("big", i), 8, 3000, 0.1)
        dist = cache.class_slab_distribution()
        assert dist.get(0, 0) == 1          # hot class kept its slab
        assert dist.get(1, 0) == 0          # idle class donated
        cache.check_invariants()

    def test_window_resets_after_rebalance(self):
        policy = PSAPolicy(m_misses=5)
        classes = SizeClassConfig(slab_size=4096, base_size=64)
        cache = SlabCache(2 * 4096, policy, classes)
        cache.set(0, 8, 50, 0.1)
        for i in range(5):
            cache.lookup(("x", i), 8, 50, 0.1)
        assert policy._window == {}  # cleared by the rebalance

    def test_pressure_evicts_within_class(self):
        cache = psa_cache(slabs=1, m_misses=1000)
        per_slab = 4096 // 64
        for i in range(per_slab + 3):
            cache.set(i, 8, 50, 0.1)
        assert cache.stats.evictions == 3
        assert cache.stats.migrations == 0
