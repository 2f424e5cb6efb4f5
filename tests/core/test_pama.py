"""Behavioural tests for the PAMA policy on a real cache."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SlabCache, SizeClassConfig
from repro.core import PamaConfig, PamaPolicy
from repro.core.pama import PamaQueueState


def pama_cache(slabs=16, **cfg_kwargs):
    cfg_kwargs.setdefault("value_window", 1_000_000)  # no rollover noise
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    policy = PamaPolicy(PamaConfig(**cfg_kwargs))
    return SlabCache(slabs * 4096, policy, classes), policy


class TestSubclassRouting:
    def test_items_bin_by_penalty(self):
        cache, policy = pama_cache()
        cache.set("cheap", 8, 50, 0.0005)
        cache.set("mid", 8, 50, 0.05)
        cache.set("dear", 8, 50, 2.0)
        bins = {cache.index[k].bin_idx for k in ("cheap", "mid", "dear")}
        assert bins == {0, 2, 4}
        # three separate subclass queues in the same size class
        assert len(cache.queues) == 3
        assert len({q.class_idx for q in cache.iter_queues()}) == 1

    def test_queue_state_installed(self):
        cache, policy = pama_cache()
        cache.set("k", 8, 50, 0.05)
        queue = next(iter(cache.iter_queues()))
        assert isinstance(queue.policy_data, PamaQueueState)
        assert queue.lru is queue.policy_data.tracker  # a SegmentedLRU


def _around(edges):
    """Every edge, its two neighbouring floats, and values past the cap."""
    points = [0.0, -0.0, math.inf, 2 * edges[-1], 1e300]
    for e in edges:
        points += [e, math.nextafter(e, math.inf), math.nextafter(e, 0.0)]
    return points


class TestBinning:
    EDGE_SETS = [PamaConfig().penalty_edges, (0.5,), (1e-6, 3.0),
                 (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)]

    @pytest.mark.parametrize("edges", EDGE_SETS)
    def test_edges_and_their_neighbours(self, edges):
        config = PamaConfig(penalty_edges=edges)
        policy = PamaPolicy(config)
        for penalty in _around(edges):
            assert policy.bin_for(penalty) == config.bin_for(penalty), penalty
        assert policy.bin_for(math.inf) == len(edges) - 1

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EDGE_SETS),
           st.floats(min_value=0.0, allow_nan=False))
    def test_equals_config_bin_for(self, edges, penalty):
        config = PamaConfig(penalty_edges=edges)
        assert PamaPolicy(config).bin_for(penalty) == config.bin_for(penalty)

    @pytest.mark.parametrize("penalty", [math.nan, -1.0, -math.inf, -5e-324])
    def test_invalid_penalties_raise(self, penalty):
        policy = PamaPolicy()
        for _ in range(2):  # and keep raising: nothing remembers them
            with pytest.raises(ValueError):
                policy.bin_for(penalty)

    def test_no_state_per_distinct_penalty(self):
        # The penalty -> bin memo this replaces grew by one entry per
        # distinct penalty: 250k entries per million rows of a trace
        # with measured penalties.
        cache, policy = pama_cache(slabs=16)
        keys = range(8)  # all fit: no eviction, so no ghosts either

        def sized_state():
            return {name: len(value) for name, value in vars(policy).items()
                    if hasattr(value, "__len__")}

        for key in keys:
            cache.set(key, 8, 50, 0.05)
        for penalty in (0.0005, 0.005, 0.05, 0.5, 2.0):  # every queue
            cache.lookup("absent", 8, 50, penalty)
        before = sized_state()
        for i in range(100_000):
            penalty = 1e-4 + i * 5e-6  # 100k distinct, bins 0 to 3
            cache.lookup(("absent", i % 8), 8, 50, penalty)
            cache.set(i % 8, 8, 50, penalty)
        assert sized_state() == before
        assert {cache.index[key].bin_idx for key in keys} == {3}


class TestValueTracking:
    def test_hits_near_bottom_accrue_outgoing_value(self):
        cache, policy = pama_cache()
        for i in range(5):
            cache.set(i, 8, 50, 0.05)
        queue = next(iter(cache.iter_queues()))
        state: PamaQueueState = queue.policy_data
        assert state.values.outgoing_value() == 0.0
        cache.get(0)  # bottom item: segment 0
        assert state.values.outgoing_value() == pytest.approx(0.05 * 0.5)

    def test_misses_on_ghosts_accrue_incoming_value(self):
        cache, policy = pama_cache(slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab + 3):  # 3 evictions into the ghost
            cache.set(i, 8, 50, 0.0005)
        queue = next(iter(cache.iter_queues()))
        state: PamaQueueState = queue.policy_data
        assert len(state.ghost) == 3
        cache.lookup(0, 8, 50, 0.0005)  # ghost hit
        assert state.values.incoming_value() > 0.0

    def test_ghost_entry_removed_on_reinsert(self):
        cache, policy = pama_cache(slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab + 1):
            cache.set(i, 8, 50, 0.0005)
        assert 0 in policy.ghost_owner
        cache.set(0, 8, 50, 0.0005)  # key 0 returns
        assert 0 not in policy.ghost_owner
        queue = next(iter(cache.iter_queues()))
        assert 0 not in queue.policy_data.ghost

    def test_delete_does_not_create_ghost(self):
        cache, policy = pama_cache()
        cache.set("k", 8, 50, 0.05)
        cache.delete("k")
        assert "k" not in policy.ghost_owner

    def test_miss_without_ghost_is_silent(self):
        cache, policy = pama_cache()
        cache.lookup("never-seen", 8, 50, 0.05)  # no crash


class TestMigrationDecision:
    def test_migrates_from_low_value_subclass(self):
        cache, policy = pama_cache(slabs=2)
        per_slab = 4096 // 64
        # fill the cache with cheap items, never accessed (low value)
        for i in range(2 * per_slab):
            cache.set(("cheap", i), 8, 50, 0.0005)
        # build incoming value for the expensive subclass: evict around
        # via misses... instead drive sets of expensive items: the queue
        # has no slab -> forced migration from the cheap queue
        assert cache.set(("dear", 0), 8, 50, 2.0)
        assert cache.stats.migrations == 1
        dear_queue = cache.queues[(0, policy.bin_for(2.0))]
        assert dear_queue.slabs == 1

    def test_declines_migration_when_incoming_low(self):
        cache, policy = pama_cache(slabs=2)
        per_slab = 4096 // 64
        for i in range(per_slab):
            cache.set(("cheap", i), 8, 50, 0.0005)
            cache.get(("cheap", i))  # give the cheap queue outgoing value
        for i in range(per_slab):
            cache.set(("dear", i), 8, 50, 2.0)
        migrations_before = cache.stats.migrations
        # dear queue full, zero incoming value, cheap has outgoing value:
        # overflow should evict within the dear queue, not migrate
        cache.set(("dear", per_slab), 8, 50, 2.0)
        assert cache.stats.migrations == migrations_before
        assert policy.migrations_declined >= 1

    def test_same_queue_candidate_evicts_in_place(self):
        cache, policy = pama_cache(slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab + 5):
            cache.set(i, 8, 50, 0.0005)
        # single queue: pressure resolves within it, never via pool
        assert cache.stats.migrations == 0
        assert cache.stats.evictions == 5


class TestWindowRollover:
    def test_values_decay_at_window(self):
        cache, policy = pama_cache(slabs=4, value_window=10, decay=0.5)
        for i in range(5):
            cache.set(i, 8, 50, 0.05)
        cache.get(0)
        queue = next(iter(cache.iter_queues()))
        v0 = queue.policy_data.values.outgoing_value()
        assert v0 > 0
        for _ in range(25):  # push past several windows
            cache.get("nothing")
        v1 = queue.policy_data.values.outgoing_value()
        assert v1 < v0

    def test_reset_mode_zeroes(self):
        cache, policy = pama_cache(slabs=4, value_window=10,
                                   window_mode="reset")
        for i in range(5):
            cache.set(i, 8, 50, 0.05)
        cache.get(0)
        queue = next(iter(cache.iter_queues()))
        for _ in range(25):
            cache.get("nothing")
        assert queue.policy_data.values.outgoing_value() == 0.0


class TestIntegrity:
    def test_invariants_under_mixed_workload(self):
        import random
        rng = random.Random(0)
        cache, policy = pama_cache(slabs=8, value_window=500)
        for i in range(5000):
            key = rng.randrange(400)
            size = rng.choice([40, 200, 900, 3000])
            pen = rng.choice([0.0005, 0.005, 0.05, 0.5, 2.0])
            r = rng.random()
            if r < 0.7:
                if cache.lookup(key, 8, size, pen) is None:
                    cache.set(key, 8, size, pen)
            elif r < 0.95:
                cache.set(key, 8, size, pen)
            else:
                cache.delete(key)
        cache.check_invariants()
        for q in cache.iter_queues():
            state = q.policy_data
            state.ghost.check_invariants()
            if hasattr(state.tracker, "check_invariants"):
                state.tracker.check_invariants()
        # every filed entry is in the list it names
        for key, entry in policy.ghost_owner.items():
            assert key in entry.ghost
        policy.check_ghost_sync()


class TestGhostOwnerSync:
    """The ghost directory holds exactly what the ghost lists link.

    ``ghost_owner`` is the one key index of every subclass's ghost
    list, so it cannot name a list that does not hold the key; what the
    op space still has to maintain — and these property tests drive —
    is that every linked entry is filed and nothing else is.
    """

    OPS = ["get", "set", "delete"]
    # two penalty levels → two bins; tiny keyspace → constant churn
    PENALTIES = [0.0005, 2.0]

    @staticmethod
    def _apply(cache, op, key, penalty):
        if op == "get":
            cache.lookup(key, 8, 50, penalty)
        elif op == "set":
            cache.set(key, 8, 50, penalty)
        else:
            cache.delete(key)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OPS),
                              st.integers(min_value=0, max_value=30),
                              st.sampled_from(PENALTIES)),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=4))
    def test_random_ops_preserve_sync(self, ops, slabs):
        cache, policy = pama_cache(slabs=slabs)
        for op, key, penalty in ops:
            self._apply(cache, op, key, penalty)
        policy.check_ghost_sync()
        cache.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(OPS),
                              st.integers(min_value=0, max_value=10),
                              st.sampled_from(PENALTIES)),
                    min_size=20, max_size=60))
    def test_sync_holds_at_every_step_with_rollover(self, ops):
        # value_window=16 interleaves rollovers with the op stream
        cache, policy = pama_cache(slabs=1, value_window=16)
        for op, key, penalty in ops:
            self._apply(cache, op, key, penalty)
            policy.check_ghost_sync()

    @staticmethod
    def _ghosted():
        cache, policy = pama_cache(slabs=1)
        per_slab = 4096 // 64
        for i in range(per_slab + 2):
            cache.set(i, 8, 50, 0.0005)
        policy.check_ghost_sync()  # healthy
        return policy

    # The directory and the lists cannot disagree about *which* list
    # holds a key any more — the entry itself says — but an entry can
    # still be in one and not the other.
    def test_check_ghost_sync_detects_linked_but_unfiled(self):
        policy = self._ghosted()
        key = next(iter(policy.ghost_owner))
        del policy.ghost_owner[key]  # still linked in its list
        with pytest.raises(AssertionError, match="not the directory's"):
            policy.check_ghost_sync()

    def test_check_ghost_sync_detects_filed_but_unlinked(self):
        policy = self._ghosted()
        key, entry = next(iter(policy.ghost_owner.items()))
        ghost = entry.ghost
        ghost.remove_entry(entry)
        policy.ghost_owner[key] = entry  # filed, linked nowhere
        with pytest.raises(AssertionError, match="directory files"):
            policy.check_ghost_sync()
