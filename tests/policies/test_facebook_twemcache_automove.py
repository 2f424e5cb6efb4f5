"""Tests for the Facebook age balancer, Twemcache, and the automover."""

import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import AutoMovePolicy, FacebookPolicy, TwemcachePolicy


def build(policy, slabs=8):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, policy, classes)


class TestFacebookPolicy:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FacebookPolicy(check_interval=0)
        with pytest.raises(ValueError):
            FacebookPolicy(youth_threshold=1.5)

    def test_balances_lru_ages(self):
        cache = build(FacebookPolicy(check_interval=50), slabs=2)
        per_slab = 4096 // 64
        # class 0 takes both slabs; its items then age (no accesses)
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.1)
        # class 5 stays young: constant churn on one key
        cache.set("young", 8, 2000, 0.1)
        for i in range(300):
            cache.get("young")
            cache.set("young", 8, 2000, 0.1)
        # the young class's LRU item is far younger than the old class's
        assert cache.stats.migrations >= 1
        young_class = cache.size_classes.class_for_size(2008)
        assert cache.class_slab_distribution().get(young_class, 0) >= 1

    def test_a_hit_is_aged_before_the_policy_stamps_it(self):
        # the balance a hit runs reads the hit item's age from before
        # the hit: a stale tail served at a check is still the oldest
        cache = build(FacebookPolicy(check_interval=10), slabs=4)
        cache.set("old", 8, 50, 0.1)           # tick 1
        cache.set("new", 8, 2000, 0.1)         # tick 2, another class
        for _ in range(7):
            cache.get("new")                   # ticks 3-9
        old_q, new_q = cache.index["old"].queue, cache.index["new"].queue
        assert cache.get("old") is not None    # tick 10: the check
        assert cache.stats.migrations == 1
        assert (old_q.slabs, new_q.slabs) == (0, 2)
        assert "old" not in cache and cache.policy._stamps == {"new": 9}

    def test_no_move_with_single_queue(self):
        cache = build(FacebookPolicy(check_interval=10), slabs=2)
        for i in range(500):
            cache.set(i % 40, 8, 50, 0.1)
            cache.get(i % 40)
        assert cache.stats.migrations == 0


class TestTwemcachePolicy:
    def test_steals_random_slab_under_pressure(self):
        cache = build(TwemcachePolicy(seed=7), slabs=2)
        per_slab = 4096 // 64
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.1)
        assert cache.set("big", 8, 3000, 0.1)
        assert cache.stats.migrations == 1

    def test_deterministic_with_seed(self):
        def run(seed):
            cache = build(TwemcachePolicy(seed=seed), slabs=4)
            for i in range(800):
                cache.set(i % 150, 8, (i % 3 + 1) * 500, 0.1)
            return cache.class_slab_distribution()

        assert run(3) == run(3)

    def test_handles_empty_donor_set(self):
        # one queue holding every slab can still resolve pressure on itself
        cache = build(TwemcachePolicy(seed=0), slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab + 5):
            cache.set(i, 8, 50, 0.1)
        cache.check_invariants()


class TestAutoMovePolicy:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AutoMovePolicy(window_accesses=0)
        with pytest.raises(ValueError):
            AutoMovePolicy(required_streak=0)

    def test_moves_after_persistent_misses(self):
        cache = build(AutoMovePolicy(window_accesses=100, required_streak=3),
                      slabs=2)
        per_slab = 4096 // 64
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.1)
        # class 0 then never misses; the big class misses for 3+ windows
        for i in range(400):
            cache.lookup(("big", i), 8, 3000, 0.1)
        assert cache.stats.migrations >= 1
        big_class = cache.size_classes.class_for_size(3008)
        assert cache.class_slab_distribution().get(big_class, 0) >= 1

    def test_no_move_without_zero_miss_donor(self):
        cache = build(AutoMovePolicy(window_accesses=50, required_streak=2),
                      slabs=2)
        per_slab = 4096 // 64
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.1)
        # both classes miss every window: no eligible donor
        for i in range(300):
            cache.lookup(("small-miss", i), 8, 50, 0.1)
            cache.lookup(("big-miss", i), 8, 3000, 0.1)
        assert cache.stats.migrations == 0
