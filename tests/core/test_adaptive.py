"""Tests for adaptive penalty binning."""

import random

import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.core import AdaptivePamaPolicy, PamaConfig
from repro.core.pama import PamaPolicy
from repro.policies import make_policy


def adaptive_cache(slabs=8, **kwargs):
    kwargs.setdefault("warmup_samples", 200)
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    policy = AdaptivePamaPolicy(PamaConfig(value_window=100_000), **kwargs)
    return SlabCache(slabs * 4096, policy, classes), policy


class TestLearning:
    def test_uses_fixed_edges_before_warmup(self):
        _cache, policy = adaptive_cache()
        assert policy.learned_edges is None
        assert policy.bin_for(0.05) == PamaConfig().bin_for(0.05)

    def test_learns_quantile_edges(self):
        cache, policy = adaptive_cache(warmup_samples=300)
        rng = random.Random(0)
        for i in range(400):
            cache.set(i, 8, 50, rng.uniform(0.01, 0.02))
        assert policy.learned_edges is not None
        # all mass in (10ms, 20ms): learned edges must live there too
        assert all(0.01 <= e <= 0.02 for e in policy.learned_edges)

    def test_balanced_bins_on_clustered_penalties(self):
        """Penalties clustered in one *fixed* bin spread over all
        learned bins — the failure mode this extension removes."""
        cache, policy = adaptive_cache(warmup_samples=300)
        rng = random.Random(1)
        pens = [rng.uniform(0.011, 0.099) for _ in range(2000)]  # one fixed bin
        fixed = PamaConfig()
        assert len({fixed.bin_for(p) for p in pens}) == 1
        for i, p in enumerate(pens):
            cache.set(i % 500, 8, 50, p)
        learned_bins = {policy.bin_for(p) for p in pens}
        assert len(learned_bins) >= 4

    def test_degenerate_distribution_collapses_edges(self):
        cache, policy = adaptive_cache(warmup_samples=100)
        for i in range(200):
            cache.set(i, 8, 50, 0.1)  # a single repeated penalty
        assert policy.learned_edges == (0.1,)
        assert policy.bin_for(0.0001) == 0
        assert policy.bin_for(4.0) == 0

    def test_refresh_relearns(self):
        cache, policy = adaptive_cache(warmup_samples=100,
                                       refresh_interval=200)
        rng = random.Random(2)
        for i in range(1000):
            cache.set(i % 300, 8, 50, rng.uniform(0.001, 1.0))
        assert policy.relearn_count >= 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdaptivePamaPolicy(warmup_samples=0)
        with pytest.raises(ValueError):
            AdaptivePamaPolicy(refresh_interval=-1)

    def test_nan_penalty_observation_ignored(self):
        _cache, policy = adaptive_cache()
        policy.observe_penalty(float("nan"))
        assert policy._observed == 0


class TestBehaviour:
    def test_invariants_and_routing_under_churn(self):
        cache, policy = adaptive_cache(slabs=8, warmup_samples=500)
        rng = random.Random(3)
        for i in range(6000):
            key = rng.randrange(400)
            size = rng.choice([40, 200, 900])
            pen = rng.lognormvariate(-3.0, 1.0)
            if cache.lookup(key, 8, size, min(pen, 5.0)) is None:
                cache.set(key, 8, size, min(pen, 5.0))
        cache.check_invariants()
        assert policy.learned_edges is not None
        # multiple learned subclasses actually hold items
        bins = {q.bin_idx for q in cache.iter_queues() if len(q.lru)}
        assert len(bins) >= 2

    def test_beats_fixed_bins_on_clustered_penalties(self):
        """When every penalty lands in one fixed bin, fixed-bin PAMA
        loses its subclassing; adaptive PAMA must match or beat its
        service time."""
        def run(policy):
            classes = SizeClassConfig(slab_size=4096, base_size=64)
            cache = SlabCache(6 * 4096, policy, classes)
            rng = random.Random(4)
            for _ in range(25_000):
                key = rng.randrange(600)
                # all penalties inside the fixed (10ms,100ms] bin, but
                # spanning a decade — room for penalty-aware decisions
                pen = 0.011 * (9.0 ** rng.random())
                if cache.lookup(key, 8, 50 if key % 2 else 800, pen) is None:
                    cache.set(key, 8, 50 if key % 2 else 800, pen)
            return cache.stats.total_miss_penalty

        fixed = run(PamaPolicy(PamaConfig(value_window=10_000)))
        adaptive = run(AdaptivePamaPolicy(PamaConfig(value_window=10_000),
                                          warmup_samples=2_000))
        assert adaptive <= fixed * 1.05

    def test_registry(self):
        policy = make_policy("pama-adaptive", warmup_samples=123,
                             value_window=777)
        assert isinstance(policy, AdaptivePamaPolicy)
        assert policy.warmup_samples == 123
        assert policy.config.value_window == 777
