"""The ``cache_*_total`` counters are ``CacheStats``, read on demand.

``SlabCache`` no longer bumps a ``Counter`` per operation: a registry
brings the eight counters up to date from ``cache.stats`` whenever it
is read (``get``, ``collect`` and everything built on them), as the
delta since its last read.  Pinned here: the counters equal the stats
fields (``cache_expired_total`` used to miss expiries through
``touch``), caches sharing a registry add up, a cache counts from its
attach, and re-attaching moves the feed.
"""

import gc
import weakref

from repro.cache import SizeClassConfig, SlabCache
from repro.obs import Registry, flat_items
from repro.policies import make_policy

FIELDS = ("gets", "hits", "misses", "sets", "set_failures", "evictions",
          "migrations", "expired")


class Clock:
    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now


def small_cache(clock=None) -> SlabCache:
    return SlabCache(256 << 10, make_policy("pama", value_window=500),
                     SizeClassConfig(slab_size=64 << 10), clock=clock)


def churn(cache: SlabCache, start: int = 0, n: int = 1_500) -> None:
    """Cache-aside GETs over more keys than fit, two item sizes, four
    penalties: hits, misses, evictions and migrations."""
    for i in range(start, start + n):
        key = (i * 7_919) % 600
        sizes = (3, 9_000 if key % 3 == 0 else 1_000, 0.1 * (1 + key % 4))
        if cache.lookup(key, *sizes) is None:
            cache.set(key, *sizes)


def counted(registry: Registry) -> dict[str, float]:
    return {field: registry.get(f"cache_{field}_total").value
            for field in FIELDS}


def stats_of(*caches: SlabCache) -> dict[str, int]:
    return {field: sum(getattr(c.stats, field) for c in caches)
            for field in FIELDS}


def test_expiry_through_get_and_through_touch_both_count():
    clock = Clock()
    cache = small_cache(clock)
    cache.attach_obs(Registry())
    cache.set("a", 1, 100, 0.1, expires_at=clock.now + 10)
    cache.set("b", 1, 100, 0.1, expires_at=clock.now + 10)
    clock.now += 60
    assert cache.get("a") is None
    assert cache.touch("b", clock.now + 10) is False
    assert cache.stats.expired == 2
    assert cache.obs.get("cache_expired_total").value == cache.stats.expired


def test_every_counter_is_its_stats_field():
    cache = small_cache()
    cache.attach_obs(Registry())
    churn(cache)
    assert cache.stats.evictions and cache.stats.migrations
    assert counted(cache.obs) == stats_of(cache)
    # a second read adds nothing; more work adds its delta
    assert counted(cache.obs) == stats_of(cache)
    churn(cache, start=1_500, n=200)
    assert dict(flat_items(cache.obs))["cache_sets_total"] == cache.stats.sets
    assert counted(cache.obs) == stats_of(cache)


def test_caches_sharing_a_registry_add_up():
    registry = Registry()
    first, second = small_cache(), small_cache()
    first.attach_obs(registry)
    second.attach_obs(registry)
    churn(first)
    churn(second, n=400)
    assert counted(registry) == stats_of(first, second)


def test_a_cache_attached_late_counts_from_its_attach():
    cache = small_cache()
    churn(cache)
    before = stats_of(cache)
    cache.attach_obs(Registry())
    assert set(counted(cache.obs).values()) == {0}
    churn(cache, start=1_500, n=300)
    after = stats_of(cache)
    assert counted(cache.obs) == {f: after[f] - before[f] for f in FIELDS}


def test_reattaching_stops_feeding_the_first_registry():
    old, new = Registry(), Registry()
    cache = small_cache()
    cache.attach_obs(old)
    churn(cache, n=400)
    at_switch = stats_of(cache)
    cache.attach_obs(new)  # the old registry is not read before the switch
    churn(cache, start=400, n=400)
    assert counted(old) == at_switch
    now = stats_of(cache)
    assert counted(new) == {f: now[f] - at_switch[f] for f in FIELDS}


def test_a_registry_does_not_keep_its_caches_alive():
    registry = Registry()
    cache = small_cache()
    cache.attach_obs(registry)
    churn(cache, n=300)
    sets = cache.stats.sets
    gone = weakref.ref(cache)
    del cache
    gc.collect()
    assert gone() is None
    assert registry.get("cache_sets_total").value == sets
