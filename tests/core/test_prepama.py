"""Tests for pre-PAMA (the penalty-blind ablation)."""

from repro.cache import SlabCache, SizeClassConfig
from repro.core import PamaConfig, PrePamaPolicy


def prepama_cache(slabs=8):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    policy = PrePamaPolicy(PamaConfig(value_window=1_000_000))
    return SlabCache(slabs * 4096, policy, classes), policy


class TestPrePama:
    def test_single_bin_per_class(self):
        cache, policy = prepama_cache()
        cache.set("cheap", 8, 50, 0.0005)
        cache.set("dear", 8, 50, 2.0)
        assert policy.bin_for(0.0005) == 0
        assert policy.bin_for(2.0) == 0
        assert len(cache.queues) == 1  # same class, same (only) bin

    def test_values_count_requests_not_penalties(self):
        cache, policy = prepama_cache()
        for i in range(5):
            cache.set(i, 8, 50, 2.0)  # expensive items
        queue = next(iter(cache.iter_queues()))
        cache.get(0)  # bottom segment hit
        # value contribution is 1 (a count), not the 2.0s penalty
        assert queue.policy_data.values.out == [0.5 * 0 + 1.0, 0.0, 0.0]

    def test_name(self):
        assert PrePamaPolicy().name == "pre-pama"

    def test_runs_mixed_workload(self):
        import random
        rng = random.Random(2)
        cache, policy = prepama_cache(slabs=8)
        for i in range(4000):
            key = rng.randrange(300)
            size = rng.choice([40, 200, 900, 3000])
            pen = rng.choice([0.0005, 0.05, 2.0])
            if cache.lookup(key, 8, size, pen) is None:
                cache.set(key, 8, size, pen)
        cache.check_invariants()
        assert cache.stats.hits > 0
