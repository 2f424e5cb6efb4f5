"""Differential pin: the one-pass pressure path vs the per-item one.

``SlabCache._migrate_slab`` evicts the donor's surplus as one run,
``GhostList`` drops its tail in place and files entries in the policy's
one directory, ``resolve_pressure`` scans a flat list.  The reference
(``tests/reference_pressure``) does each the earlier way: an
``_evict_one`` per victim, a ghost list with a key index of its own
pushed through the generic removal, ``ghost_owner`` kept in step by
hand, a scan over ``iter_queues()`` that recomputes Eq. 2.

Both are driven by the same GET/SET/DELETE/replace sequence on caches of
a few small slabs and compared after **every** operation: LRU order and
``item.seg`` per queue, tracker bounds, ghost order / ``seg`` / penalty
and ghost bounds, the directory, ``values.out`` / ``inc``, ``CacheStats``,
every ``QueueStats``, the event stream and the open timeline window.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PamaConfig
from repro.obs import EventTrace, TimelineRecorder
from tests.reference_pressure import (POLICY_PAIRS, cache_pair,
                                      ghost_directory)

SLAB = 1024                       # classes of 64 .. 1024 B: 16 .. 1 per slab
SIZES = [40, 100, 200, 400, 1000]  # the last fills a slab: seg_len == 1
PENALTIES = [0.0005, 0.05, 2.0]
OPS = st.tuples(st.sampled_from(["get", "set", "set", "delete"]),
                st.integers(min_value=0, max_value=40),
                st.sampled_from(SIZES), st.sampled_from(PENALTIES))


def keys(nodes):
    return [None if node is None else node.key for node in nodes]


def observe(cache, timeline, events):
    """Everything the pressure path writes, as plain comparable data."""
    queues = {}
    for qid, q in cache.queues.items():
        state = q.policy_data
        values = state.values
        queues[qid] = {
            "slabs": q.slabs,
            "lru": [(item.key, item.seg) for item in q.lru],
            "bounds": keys(state.tracker.bounds),
            "ghost": [(e.key, e.seg, e.penalty) for e in state.ghost],
            "ghost_bounds": keys(state.ghost.bounds),
            "values": (values.out, values.inc, values.out_hits,
                       values.inc_hits, values.outgoing_value(),
                       values.incoming_value()),
            "stats": dataclasses.astuple(q.stats),
        }
    return {
        "queues": queues,
        "directory": ghost_directory(cache.policy),
        "index": sorted(cache.index),
        "stats": dataclasses.astuple(cache.stats),
        "pool": (cache.pool.free, cache.pool.ownership()),
        "events": [(e.kind, e.tick, e.data) for e in events],
        "timeline": timeline._build_row(),
    }


class Pair:
    """The cache under test and its reference, instrumented alike."""

    def __init__(self, name, slabs, m=2, value_window=40):
        config = PamaConfig(m=m, value_window=value_window)
        self.sides = []
        for cache in cache_pair(name, config, slabs * SLAB, SLAB):
            events = cache.events = EventTrace(capacity=1 << 16)
            timeline = TimelineRecorder(stride=1 << 30)
            cache.attach_timeline(timeline)
            self.sides.append((cache, timeline, events))
        self.cache = self.sides[0][0]

    def apply(self, op, key, size=40, penalty=0.05):
        results = []
        for cache, _timeline, _events in self.sides:
            if op == "get":
                hit = cache.lookup(key, 8, size - 8, penalty)
                results.append(hit is not None)
            elif op == "set":
                results.append(cache.set(key, 8, size - 8, penalty))
            else:
                results.append(cache.delete(key))
        assert results[0] == results[1]
        self.compare()

    def compare(self):
        (cache, *obs), (reference, *ref_obs) = self.sides
        assert observe(cache, *obs) == observe(reference, *ref_obs)
        for side, _timeline, _events in self.sides:
            side.check_invariants()
            policy = side.policy
            check = getattr(policy, "check_ghost_sync", None)
            (check or policy.check_invariants)()


@pytest.mark.parametrize("name", sorted(POLICY_PAIRS))
class TestEveryOperation:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(OPS, min_size=1, max_size=150),
           st.integers(min_value=2, max_value=6),
           st.sampled_from([0, 2]))
    def test_random_sequences(self, name, ops, slabs, m):
        pair = Pair(name, slabs, m=m)
        for op, key, size, penalty in ops:
            pair.apply(op, key, size, penalty)

    def test_seg_len_one(self, name):
        # Slab-sized items: one slot per slab, so every ghost and tracker
        # boundary is an entry of its own and a full ghost's tail *is*
        # its last boundary.  A second class takes slabs away and gives
        # them back, so runs of one leave through the migration too.
        pair = Pair(name, slabs=4)
        for key in range(10):
            pair.apply("set", key, 1000, PENALTIES[key % 3])
            pair.apply("get", (key * 7) % 10, 1000, PENALTIES[(key * 7) % 3])
        big = next(iter(pair.cache.iter_queues()))
        ghost = big.policy_data.ghost
        assert big.slots_per_slab == 1 and len(ghost) == ghost.capacity == 3
        for key in range(100, 112):
            pair.apply("set", key, 400, PENALTIES[key % 3])
            pair.apply("get", key - 1, 400, PENALTIES[(key - 1) % 3])
            pair.apply("set", key - 95, 1000, PENALTIES[key % 3])
        assert pair.cache.stats.evictions > 12
        assert pair.cache.stats.migrations > 1

    def test_ghost_exactly_at_capacity(self, name):
        # One subclass with one slab of 16 slots and a ghost of 48: the
        # 48th eviction fills the ghost to the brim, the 49th is the
        # first to drop its tail, and a ghosted key coming back makes
        # room again.
        pair = Pair(name, slabs=1, value_window=1 << 20)
        for key in range(16 + 47):
            pair.apply("set", key, 40)
        ghost = next(iter(pair.cache.iter_queues())).policy_data.ghost
        assert len(ghost) == ghost.capacity - 1
        pair.apply("set", 1000, 40)
        assert len(ghost) == ghost.capacity and 0 in ghost
        pair.apply("set", 1001, 40)
        assert len(ghost) == ghost.capacity and 0 not in ghost
        pair.apply("get", 2, 40)      # a ghost hit in the last segment
        pair.apply("set", 2, 40)      # one more drops off, then 2 leaves
        assert len(ghost) == ghost.capacity - 1 and 2 not in ghost
        pair.apply("set", 1002, 40)   # to the brim again, nothing dropped
        assert len(ghost) == ghost.capacity and 3 in ghost
        pair.apply("delete", 1002)
        pair.apply("set", 1003, 40)   # into the free slot: nothing evicted
        assert len(ghost) == ghost.capacity and 3 in ghost
