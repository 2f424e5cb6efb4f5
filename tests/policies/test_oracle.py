"""Tests for the clairvoyant (Belady) oracle policy."""

import numpy as np
import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import OraclePolicy, StaticMemcachedPolicy, make_policy
from repro.sim import simulate
from repro.traces import ETC, Op, Trace, generate


def manual_trace(keys, penalties=None):
    """All-GET trace over int keys, size 50, optional per-row penalties."""
    n = len(keys)
    pens = np.asarray(penalties if penalties is not None else [0.1] * n)
    return Trace(np.full(n, Op.GET, np.uint8),
                 np.asarray(keys, np.int64),
                 np.full(n, 8, np.int32), np.full(n, 50, np.int32), pens)


def oracle_cache(trace, slabs=1, cost_aware=False):
    classes = SizeClassConfig(slab_size=128, base_size=64)  # 2 slots/slab
    policy = OraclePolicy(trace, cost_aware=cost_aware)
    return SlabCache(slabs * 128, policy, classes)


class TestBeladyChoice:
    def test_evicts_farthest_next_use(self):
        # 2-slot cache; classic MIN example
        keys = [1, 2, 3, 1, 2, 3]
        trace = manual_trace(keys)
        cache = oracle_cache(trace)
        result = simulate(trace, cache, window_gets=100)
        # MIN on 1,2,3,1,2,3 with 2 slots: misses 1,2,3 then
        # at 3's fill it evicts whichever of {1,2} is used later... with
        # MIN the achievable hits here are 2 (hits on 1 and 2 OR 2 and 3)
        assert result.cache_stats["hits"] >= 2

    def test_never_used_again_is_first_victim(self):
        keys = [1, 2, 3, 1, 1, 1]  # 2 and 3 never recur
        trace = manual_trace(keys)
        cache = oracle_cache(trace)
        simulate(trace, cache, window_gets=100)
        assert 1 in cache  # the recurring key survived throughout

    def test_beats_lru_on_adversarial_loop(self):
        # cyclic scan of 3 keys through a 2-slot cache: LRU gets 0 hits,
        # MIN hits every other access asymptotically
        keys = [1, 2, 3] * 30
        trace = manual_trace(keys)

        def run(policy_factory):
            classes = SizeClassConfig(slab_size=128, base_size=64)
            cache = SlabCache(128, policy_factory(), classes)
            return simulate(trace, cache, window_gets=1000).hit_ratio

        lru = run(StaticMemcachedPolicy)
        belady = run(lambda: OraclePolicy(trace))
        assert lru == 0.0
        assert belady > 0.3

    def test_oracle_upper_bounds_online_policies_on_etc(self):
        trace = generate(ETC.scaled(0.02), 30_000, seed=13)
        classes = SizeClassConfig(slab_size=64 << 10, base_size=64)

        def run(policy):
            cache = SlabCache(2 << 20, policy, classes)
            return simulate(trace, cache, window_gets=10_000).hit_ratio

        belady = run(OraclePolicy(trace))
        lru = run(StaticMemcachedPolicy())
        assert belady >= lru - 0.005


    def test_a_re_stored_items_older_entry_is_stale_at_an_equal_priority(self):
        cache = oracle_cache(manual_trace([9]))   # 1 and 2 are never read
        cache.set(1, 8, 50, 0.1)
        cache.set(2, 8, 50, 0.1)
        first = cache.index[1]
        cache.set(1, 8, 50, 0.1)    # re-stored in place: same item, same
        assert cache.index[1] is first          # next use (never)
        cache.set(3, 8, 50, 0.1)
        # key 1's first entry still heads the heap at that priority, but
        # it predates the re-store: the victim is key 2
        assert 1 in cache and 2 not in cache
        cache.check_invariants()


class TestCostAwareOracle:
    def test_prefers_keeping_expensive_items(self):
        # keys 1 (cheap) and 2 (dear) recur equally; 1-slot pressure
        keys = [1, 2, 3, 1, 2, 1, 2]
        pens = [0.001 if k == 1 else 2.0 for k in keys]
        trace = manual_trace(keys, pens)
        cache = oracle_cache(trace, cost_aware=True)
        result = simulate(trace, cache, window_gets=100)
        # expensive key 2's misses should be minimised
        assert result.cache_stats["total_miss_penalty"] < sum(
            p for k, p in zip(keys, pens) if k == 2)

    def test_cost_oracle_lowers_penalty_vs_plain_oracle(self):
        import random
        rng = random.Random(7)
        keys, pens = [], []
        for _ in range(8_000):
            k = rng.randrange(200)
            keys.append(k)
            pens.append(3.0 if k % 4 == 0 else 0.001)
        trace = manual_trace(keys, pens)

        def run(cost_aware):
            classes = SizeClassConfig(slab_size=4096, base_size=64)
            cache = SlabCache(2 * 4096, OraclePolicy(trace, cost_aware),
                              classes)
            simulate(trace, cache, window_gets=10_000)
            return cache.stats.total_miss_penalty

        assert run(True) <= run(False) * 1.02


class TestRegistry:
    def test_make_policy_requires_trace(self):
        with pytest.raises(ValueError):
            make_policy("oracle")
        trace = manual_trace([1, 2, 3])
        policy = make_policy("oracle-cost", trace=trace)
        assert policy.name == "oracle-cost"
        assert policy.cost_aware
