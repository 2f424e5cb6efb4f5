"""Tests for the LAMA-lite MRC+DP policy."""

import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import LamaPolicy


def lama_cache(slabs=16, **kwargs):
    kwargs.setdefault("epoch_accesses", 500)
    kwargs.setdefault("sample_shift", 0)  # profile every key in tests
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, LamaPolicy(**kwargs), classes)


class TestLama:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LamaPolicy(objective="magic")
        with pytest.raises(ValueError):
            LamaPolicy(epoch_accesses=0)

    def test_reallocates_toward_hot_class(self):
        cache = lama_cache(slabs=4)
        policy = cache.policy
        per_slab = 4096 // 64
        # warm-up: both classes exist; the large class hoards slabs
        for i in range(6):
            cache.set(("big", i), 8, 3000, 0.1)
        for i in range(per_slab):
            cache.set(("small", i), 8, 50, 0.1)
        # then only the small class is ever accessed, with reuse
        # distances that want more than its one slab
        import random
        rng = random.Random(0)
        for _ in range(4000):
            i = rng.randrange(2 * per_slab)
            if cache.lookup(("small", i), 8, 50, 0.1) is None:
                cache.set(("small", i), 8, 50, 0.1)
        assert policy.reallocations >= 1
        dist = cache.class_slab_distribution()
        assert dist.get(0, 0) >= 2  # small class gained slabs
        cache.check_invariants()

    def test_service_objective_weighs_penalties(self):
        # same miss pressure on two classes, very different penalties:
        # the service objective should favour the expensive class
        cache = lama_cache(slabs=6, objective="service")
        import random
        rng = random.Random(1)
        for step in range(6000):
            i = rng.randrange(200)
            if rng.random() < 0.5:
                key, size, pen = ("cheap", i), 50, 0.001
            else:
                key, size, pen = ("dear", i), 100, 2.0
            if cache.lookup(key, 8, size, pen) is None:
                cache.set(key, 8, size, pen)
        dist = cache.class_slab_distribution()
        cheap_class = cache.size_classes.class_for_size(58)
        dear_class = cache.size_classes.class_for_size(108)
        assert dist.get(dear_class, 0) >= dist.get(cheap_class, 0)
        cache.check_invariants()

    def test_runs_clean_on_mixed_workload(self):
        import random
        rng = random.Random(5)
        cache = lama_cache(slabs=8, sample_shift=2)
        for i in range(5000):
            key = rng.randrange(400)
            size = rng.choice([40, 200, 900, 3000])
            if cache.lookup(key, 8, size, 0.1) is None:
                cache.set(key, 8, size, 0.1)
        cache.check_invariants()
