"""Tests for the SlabCache substrate (with the static policy)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import SlabCache, SizeClassConfig
from repro.cache.errors import InvalidItemError
from repro.cache.item import Item, StoredItem
from repro.core.pama import PamaPolicy
from repro.policies.facebook import FacebookPolicy
from repro.policies.memcached import StaticMemcachedPolicy
from repro.policies.twemcache import TwemcachePolicy


def small_cache(slabs=16, policy=None):
    cfg = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, policy or StaticMemcachedPolicy(), cfg)


class TestBasicOps:
    def test_set_get_roundtrip(self):
        cache = small_cache()
        assert cache.set("k", 4, 100, 0.05, value=b"payload")
        item = cache.get("k")
        assert item is not None
        assert item.value == b"payload"
        assert item.penalty == 0.05
        assert cache.stats.hits == 1

    def test_miss_returns_none(self):
        cache = small_cache()
        assert cache.get("absent") is None
        assert cache.stats.misses == 1

    def test_delete(self):
        cache = small_cache()
        cache.set("k", 4, 100, 0.05)
        assert cache.delete("k")
        assert not cache.delete("k")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_contains_and_len(self):
        cache = small_cache()
        cache.set(1, 8, 50, 0.1)
        cache.set(2, 8, 50, 0.1)
        assert 1 in cache and 2 in cache and 3 not in cache
        assert len(cache) == 2

    def test_replacement_same_key_updates_value(self):
        cache = small_cache()
        cache.set("k", 4, 100, 0.05, value="v1")
        cache.set("k", 4, 100, 0.05, value="v2")
        assert len(cache) == 1
        assert cache.get("k").value == "v2"
        assert cache.stats.evictions == 0

    def test_replacement_can_change_class(self):
        cache = small_cache()
        cache.set("k", 4, 50, 0.05)
        first = cache.index["k"].class_idx
        cache.set("k", 4, 3000, 0.05)
        second = cache.index["k"].class_idx
        assert second > first
        assert len(cache) == 1
        cache.check_invariants()

    def test_a_re_store_into_the_same_queue_keeps_the_item(self):
        cache = small_cache(policy=PamaPolicy())
        cache.set("k", 4, 100, 0.05, value="v1")
        cache.set("other", 4, 100, 0.05)
        item = cache.index["k"]
        cas = cache.cas_unique(item)              # what a gets issues
        assert cache.set("k", 4, 90, 0.06, value="v2", expires_at=5.0)
        assert cache.index["k"] is item           # same object, same slot
        assert item.cas == 0                      # the old unique is void
        assert cache.cas_unique(item) == cache.cas_tick > cas
        assert (item.value_size, item.penalty, item.value,
                item.expires_at) == (90, 0.06, "v2", 5.0)
        assert item.last_access == 0              # the cache stamps no tick
        assert item.queue.lru.front is item       # promoted
        assert cache.stats.sets == 3 and len(cache) == 2
        cache.set("k", 4, 3000, 0.06)             # another class: a new item
        assert cache.index["k"] is not item
        cache.check_invariants()
        cache.policy.check_ghost_sync()

    def test_item_too_large_rejected_not_fatal(self):
        cache = small_cache()
        assert not cache.set("big", 10, 10_000, 0.1)  # > 4096 slab
        assert cache.stats.rejected_too_large == 1

    def test_invalid_sizes_raise(self):
        cache = small_cache()
        with pytest.raises(InvalidItemError):
            cache.set("k", -1, 10, 0.1)
        with pytest.raises(InvalidItemError):
            cache.set("k", 0, 0, 0.1)
        with pytest.raises(InvalidItemError):
            cache.set("k", 4, 10, float("nan"))
        with pytest.raises(InvalidItemError):
            cache.set("k", 4, 10, -0.5)


class TestAllocationMechanics:
    def test_free_slabs_granted_on_demand(self):
        cache = small_cache(slabs=4)
        cache.set(1, 8, 50, 0.1)
        assert cache.pool.free == 3
        assert cache.class_slab_distribution() == {0: 1}

    def test_eviction_within_class_when_full(self):
        cache = small_cache(slabs=2)
        cfg = cache.size_classes
        per_slab = cfg.slots_per_slab(cfg.class_for_size(58))
        capacity = 2 * per_slab
        for i in range(capacity + 10):
            cache.set(i, 8, 50, 0.1)
        assert len(cache) == capacity
        assert cache.stats.evictions == 10
        # strictly LRU: the first 10 inserted keys are gone
        assert all(i not in cache for i in range(10))
        assert all(i in cache for i in range(10, capacity + 10))
        cache.check_invariants()

    def test_static_policy_set_fails_when_no_slab_for_new_class(self):
        cache = small_cache(slabs=1)
        cache.set(1, 8, 50, 0.1)           # class 0 takes the only slab
        ok = cache.set(2, 8, 3000, 0.1)    # a large class gets nothing
        assert not ok
        assert cache.stats.set_failures == 1
        assert 1 in cache

    def test_migration_frees_slab_worth_of_items(self):
        cache = small_cache(slabs=1, policy=TwemcachePolicy(seed=3))
        per_slab = cache.size_classes.slots_per_slab(0)
        for i in range(per_slab):
            cache.set(i, 8, 50, 0.1)
        assert cache.pool.free == 0
        # new class must steal the single slab from class 0
        assert cache.set("large", 8, 3000, 0.1)
        assert cache.stats.migrations == 1
        assert cache.class_slab_distribution() == {
            cache.size_classes.class_for_size(3008): 1}
        assert len(cache) == 1  # all class-0 items evicted
        cache.check_invariants()

    def test_miss_info_accumulates_penalty(self):
        cache = small_cache()
        cache.lookup("a", 8, 100, 0.25)
        cache.lookup("b", 8, 100, 0.5)
        assert math.isclose(cache.stats.total_miss_penalty, 0.75)
        assert math.isclose(cache.stats.avg_service_time(hit_time=0.0), 0.375)

    def test_miss_info_counts_class_stats(self):
        cache = small_cache()
        cache.lookup("a", 8, 100, 0.25)
        cls = cache.size_classes.class_for_size(108)
        q = cache.queues[(cls, 0)]
        assert q.stats.misses == 1

    def test_access_tick_monotone(self):
        cache = small_cache()
        cache.set(1, 8, 50, 0.1)
        t1 = cache.accesses
        cache.get(1)
        assert cache.accesses == t1 + 1
        # the item's age is a policy's to keep: the cache never stamps it
        assert cache.index[1].last_access == 0
        aged = small_cache(policy=FacebookPolicy())
        aged.set(1, 8, 50, 0.1)
        assert aged.policy._stamps[1] == aged.accesses == 1
        aged.set(2, 8, 50, 0.1)
        aged.get(1)
        assert aged.policy._stamps[1] == aged.accesses == 3
        aged.delete(2)
        assert list(aged.policy._stamps) == [1]


class TestDeferredMigrations:
    """``cache.migrate`` from inside a policy callback waits for the
    operation to finish, then runs in request order."""

    class Mover(StaticMemcachedPolicy):
        def __init__(self):
            super().__init__()
            self.requests = []

        def on_hit(self, queue, item, h1=0, h2=0):
            for donor, receiver in self.requests:
                self.cache.migrate(donor, receiver)
            self.requests = []

    def test_applied_in_order_and_a_drained_donor_is_skipped(self):
        policy = self.Mover()
        cache = small_cache(slabs=4, policy=policy)
        per_slab = 4096 // 64
        for i in range(2 * per_slab):
            cache.set(i, 8, 50, 0.1)       # class 0 owns two slabs
        cache.set("mid", 8, 900, 0.1)
        cache.set("big", 8, 3000, 0.1)
        small = cache.index[0]
        a = cache.queues[(small.class_idx, 0)]
        b = cache.queues[(cache.index["mid"].class_idx, 0)]
        c = cache.queues[(cache.index["big"].class_idx, 0)]
        assert (a.slabs, b.slabs, c.slabs) == (2, 1, 1)

        policy.requests = [(a, b), (a, c), (a, b)]
        # the GET is served although its queue is then emptied: the
        # first two requests ran after it, the third found no slab left
        assert cache.get(2 * per_slab - 1) is not None
        assert (a.slabs, b.slabs, c.slabs) == (0, 2, 2)
        assert cache.stats.migrations == 2
        assert len(a.lru) == 0 and a.free_slots == 0
        assert b.free_slots == 2 * b.slots_per_slab - 1
        cache.check_invariants()


class TestStatsAndIntrospection:
    def test_hit_ratio(self):
        cache = small_cache()
        cache.set(1, 8, 50, 0.1)
        cache.get(1)
        cache.get(2)
        assert cache.stats.hit_ratio == 0.5

    def test_describe_mentions_policy(self):
        cache = small_cache()
        assert "memcached" in cache.describe()

    def test_slab_distribution_by_queue(self):
        cache = small_cache()
        cache.set(1, 8, 50, 0.1)
        cache.set(2, 8, 3000, 0.1)
        dist = cache.slab_distribution()
        assert len(dist) == 2
        assert all(n == 1 for n in dist.values())

    def test_used_bytes(self):
        cache = small_cache()
        cache.set(1, 8, 50, 0.1)
        cache.set(2, 8, 100, 0.1)
        assert cache.used_bytes == 58 + 108


class TestPropertyBasedWorkload:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["get", "set", "del"]),
                              st.integers(0, 40),
                              st.sampled_from([30, 100, 500, 2000])),
                    max_size=300))
    def test_invariants_under_random_ops(self, ops):
        cache = small_cache(slabs=8, policy=TwemcachePolicy(seed=1))
        for op, key, size in ops:
            if op == "get":
                cache.lookup(key, 8, size, 0.1)
            elif op == "set":
                cache.set(key, 8, size, 0.1)
            else:
                cache.delete(key)
        cache.check_invariants()
        assert cache.stats.gets == sum(1 for o in ops if o[0] == "get")


class TestWhatAHitReads:
    def test_gets_is_hits_plus_misses_and_cannot_be_assigned(self):
        cache = small_cache()
        cache.set("k", 4, 100, 0.05)
        cache.get("k")
        cache.lookup("absent", 4, 100, 0.05)
        queue = cache.index["k"].queue
        assert (cache.stats.hits, cache.stats.misses, cache.stats.gets) == (1, 1, 2)
        assert (queue.stats.hits, queue.stats.misses, queue.stats.gets) == (1, 1, 2)
        assert cache.stats.snapshot()["gets"] == 2
        with pytest.raises(AttributeError):
            cache.stats.gets = 5
        with pytest.raises(AttributeError):
            queue.stats.gets = 5

    def test_an_item_carries_its_queue(self):
        cache = small_cache()
        cache.set("k", 4, 100, 0.05)
        item = cache.index["k"]
        assert item.queue is cache.queues[(item.class_idx, item.bin_idx)]
        cache.set("k", 4, 1000, 0.05)   # replaced into another class
        moved = cache.index["k"]
        assert moved.queue is not item.queue
        assert moved.queue is cache.queues[(moved.class_idx, moved.bin_idx)]
        cache.check_invariants()

    def test_hooks_are_bound_at_attach_and_none_when_inherited(self):
        static = small_cache()
        assert (static._on_hit, static._on_miss, static._on_insert) \
            == (None, None, None)
        policy = PamaPolicy()
        pama = small_cache(policy=policy)
        assert pama._on_hit == policy.on_hit
        assert pama._on_miss == policy.on_miss
        assert pama._on_insert == policy.on_insert

        class CountsHits(StaticMemcachedPolicy):
            hits = 0

            def on_hit(self, queue, item, h1=0, h2=0):
                self.hits += 1

        counting = small_cache(policy=CountsHits())
        counting.set("k", 4, 100, 0.05)
        counting.get("k")
        counting.apply_rows(iter([(0, "k", 4, 100, 0.05)]), True,
                            [].append)
        assert counting.policy.hits == 2 and counting._on_miss is None


class Heard(StaticMemcachedPolicy):
    """Records the store hooks: (hook, key, class of the item)."""

    def __init__(self):
        super().__init__()
        self.heard = []

    def on_insert(self, queue, item):
        self.heard.append(("insert", item.key, type(item)))

    def on_remove(self, queue, item):
        self.heard.append(("remove", item.key, type(item)))


def replayed(keys, clock=1000.0):
    """A cache whose ``keys`` a replay stored, oldest first."""
    cache = small_cache(policy=Heard())
    cache.clock = lambda: clock
    cache.apply_rows([(1, key, 4, 100, 0.05) for key in keys], False,
                     [].append)
    cache.policy.heard.clear()
    return cache


def lru_keys(cache, key):
    return [item.key for item in cache.index[key].queue.lru]


class TestStoredItems:
    """A store carrying a value or an expiry builds a StoredItem; one
    whose live item is a plain Item replaces it, with the hooks, LRU
    position and stats of the re-store in place it replaces."""

    def test_a_replayed_key_re_stored_with_a_value_and_an_expiry(self):
        cache = replayed(["a", "k", "b"])
        old = cache.index["k"]
        assert type(old) is Item
        assert cache.set("k", 4, 90, 0.06, value=(0, b"v"),
                         expires_at=2000.0)
        new = cache.index["k"]
        assert type(new) is StoredItem and new is not old
        assert cache.policy.heard == [("remove", "k", Item),
                                      ("insert", "k", StoredItem)]
        assert lru_keys(cache, "k") == ["k", "b", "a"]
        assert (new.key_size, new.value_size, new.penalty, new.value,
                new.expires_at, new.cas) == (4, 90, 0.06, (0, b"v"),
                                             2000.0, 0)
        assert old.prev is old.next is None
        assert (cache.stats.sets, cache.stats.evictions, len(cache)) \
            == (4, 0, 3)
        assert new.queue.stats.sets == 4
        cache.check_invariants()
        # a plain re-store of it keeps the StoredItem and resets it
        cache.apply_rows([(1, "k", 4, 100, 0.05), (0, "k", 4, 100, 0.05)],
                         False, [].append)
        assert cache.index["k"] is new and cache.stats.hits == 1
        assert (new.value, new.expires_at, new.cas) == (None, 0.0, 0)

    def test_a_served_item_re_stored_by_a_replay_row(self):
        cache = replayed([])
        cache.set("k", 4, 100, 0.05, value=(0, b"v"), expires_at=2000.0)
        cache.apply_rows([(1, "a", 4, 100, 0.05)], False, [].append)
        item = cache.index["k"]
        assert cache.cas_unique(item) == 1
        cache.policy.heard.clear()
        cache.apply_rows([(1, "k", 4, 90, 0.06)], False, [].append)
        assert cache.index["k"] is item           # same object, same slot
        assert cache.policy.heard == [("remove", "k", StoredItem),
                                      ("insert", "k", StoredItem)]
        assert lru_keys(cache, "k") == ["k", "a"]
        assert (item.value_size, item.penalty, item.value, item.expires_at,
                item.cas) == (90, 0.06, None, 0.0, 0)
        assert (cache.stats.sets, len(cache)) == (3, 2)
        cache.check_invariants()

    def test_a_plain_item_stays_plain(self):
        cache = replayed(["k"])
        item = cache.index["k"]
        assert cache.set("k", 4, 90, 0.06)
        assert cache.index["k"] is item and type(item) is Item
        # its value, expiry and unique are read-only class defaults
        assert (item.value, item.expires_at, item.cas) == (None, 0.0, 0)
        with pytest.raises(AttributeError):
            item.cas = 1
        assert cache.touch("k", 0.0) and cache.index["k"] is item

    def test_touch_and_cas_unique_replace_a_plain_item(self):
        cache = replayed(["k", "a"])
        assert cache.touch("k", 2000.0)
        touched = cache.index["k"]
        assert type(touched) is StoredItem and touched.expires_at == 2000.0
        assert lru_keys(cache, "k") == ["k", "a"]
        cache.lookup("a", 4, 100, 0.05)           # a in front again
        first = cache.cas_unique(cache.index["a"])
        assert type(cache.index["a"]) is StoredItem
        assert cache.index["a"].cas == first == cache.cas_tick == 1
        assert cache.policy.heard == [("remove", "k", Item),
                                      ("insert", "k", StoredItem),
                                      ("remove", "a", Item),
                                      ("insert", "a", StoredItem)]
        assert lru_keys(cache, "a") == ["a", "k"]
        assert cache.stats.sets == 2                # neither is a store
        cache.check_invariants()


class TestRejectedStore:
    def test_a_set_no_class_holds_drops_the_value_it_replaced(self):
        cache = small_cache(policy=Heard())
        assert cache.set("k", 1, 100, 0.05, value=(0, b"old"))
        cache.policy.heard.clear()
        assert not cache.set("k", 1, 1 << 20, 0.05, value=(0, b"new"))
        assert cache.get("k") is None and "k" not in cache
        assert cache.policy.heard == [("remove", "k", StoredItem)]
        assert (cache.stats.rejected_too_large, cache.stats.sets) == (1, 1)
        cache.check_invariants()

    def test_a_replay_row_no_class_holds_drops_the_key(self):
        cache = replayed(["k"])
        notes = []
        cache.apply_rows([(1, "k", 4, 1 << 20, 0.05), (0, "k", 4, 100, 0.05)],
                         False, notes.append)
        assert notes == [-1] and "k" not in cache
        assert cache.stats.rejected_too_large == 1
        cache.check_invariants()
