"""Differential pin: ``SlabCache.apply_rows`` vs the per-request loop.

``apply_rows`` handles a GET hit, a GET miss, its fill and a SET in its
own frame — a re-store of a live key into its own queue keeps the item,
and a policy that hashes keys is handed each key's pair from the
caller's mapping — and sends the rest (an item that can expire, an
unseen size, an invalid row, dynamic binning, DELETE) through
``lookup`` / ``set`` / ``delete``; ``apply_rows_per_request`` is the loop
it replaced, one ``lookup`` / ``set`` / ``delete`` per request, whose
``lookup`` hashes each key itself.  Two
caches of equal geometry and policy are driven by the same
rows, cut into the same runs, and compared after **every** run:
everything either side holds, as plain data — the noted outcomes,
``accesses``, ``cas_tick``, the index order, per queue the LRU order
with each item's ``seg`` / ``last_access`` / ``cas`` / expiry, its
``QueueStats``, slab count and the whole of its ``policy_data``
(tracker bounds and filters, ghosts, value accumulators, GDS and
oracle heaps with the store version each entry was pushed with), the
policy object itself (PSA's windows, LAMA's profiles, learned edges,
decision counters), ``CacheStats``, slab ownership and the
``EventTrace`` stream — and ``check_invariants`` runs on both.

Between runs a step may store an item that expires under the injected
clock, or advance that clock; a row may raise (``InvalidItemError``)
in the middle of its run, which must leave both sides in the same state
with ``_in_operation`` clear.
"""

import dataclasses
import itertools
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.hashing import hash_pair
from repro.cache import SizeClassConfig, SlabCache
from repro.cache.cache import apply_rows_per_request
from repro.cache.errors import InvalidItemError
from repro.cache.item import Item
from repro.cache.queue import Queue
from repro.core.ghost import GhostEntry
from repro.obs import EventTrace
from repro.policies import POLICY_NAMES, make_policy
from repro.policies.base import AllocationPolicy
from repro.policies.gds import _GdsQueueState
from repro.tenancy import TenantArbiter

SLAB = 1024                        # classes of 64 .. 1024 B: 16 .. 1 per slab
SIZES = [40, 100, 200, 400, 1000]  # the last fills a slab: seg_len == 1
PENALTIES = [0.0005, 0.05, 2.0]

PAMA = {"m": 2, "value_window": 40}
#: every name in ``make_policy``'s registry, set up so that whatever it
#: does on a timer (windows, epochs, checks, learned edges) happens
#: within a few dozen rows
POLICIES = {
    "memcached": lambda: make_policy("memcached"),
    "twemcache": lambda: make_policy("twemcache", seed=3),
    "psa": lambda: make_policy("psa", m_misses=5),
    "automove": lambda: make_policy("automove", window_accesses=10,
                                    required_streak=2),
    "facebook": lambda: make_policy("facebook", check_interval=7),
    "lama": lambda: make_policy("lama", epoch_accesses=25, sample_shift=0),
    "gds": lambda: make_policy("gds"),
    "gds-alloc": lambda: make_policy("gds-alloc"),
    "pama": lambda: make_policy("pama", **PAMA),
    "pama-bloom": lambda: make_policy("pama", tracker="bloom", **PAMA),
    "pre-pama": lambda: make_policy("pre-pama", **PAMA),
    "pama-adaptive": lambda: make_policy("pama-adaptive", warmup_samples=12,
                                         refresh_interval=9, **PAMA),
    "tenant-arbiter": lambda: TenantArbiter(
        1, config=make_policy("pama", **PAMA).config),
}


#: policies that move no slab on a timer: what a short sequence leaves
#: in the cache can be written down
TIMERLESS = ("memcached", "gds", "pama", "pre-pama", "tenant-arbiter")


def test_every_registered_policy_is_covered():
    assert set(POLICY_NAMES) <= set(POLICIES)


# -- state as plain data ------------------------------------------------------

def _gds_live(state, h, version, item):
    """Whether a GDS heap entry is one ``_peek`` would take as live."""
    last = state.current.get(id(item))
    return last is not None and (last[0], last[2]) == (h, version)


def plain(obj, seen):
    """``obj`` as data that compares with ``==`` across two caches:
    items, queues and ghost entries by what they are called, containers
    in their own order, any other object by type and attributes (each
    object once: what refers back to it says so)."""
    if isinstance(obj, float):
        return obj if obj == obj else "nan"
    if obj is None or isinstance(obj, (int, str, bytes)):
        return obj
    if isinstance(obj, Item):
        return ("item", obj.key)
    if isinstance(obj, Queue):
        return ("queue", obj.qid)
    if isinstance(obj, GhostEntry):
        return ("ghost", obj.key, obj.penalty, obj.seg)
    if isinstance(obj, SlabCache):
        return "cache"
    if isinstance(obj, _GdsQueueState):
        # ``current`` is keyed by id(item): compare it through the heap
        return ("gds", obj.inflation,
                [(h, tiebreak, version, item.key,
                  _gds_live(obj, h, version, item))
                 for h, tiebreak, version, item in obj.heap],
                len(obj.current))
    if isinstance(obj, (list, tuple, deque)):
        return [plain(x, seen) for x in obj]
    if isinstance(obj, dict):
        return [(plain(k, seen), plain(v, seen)) for k, v in obj.items()]
    if isinstance(obj, (set, frozenset)):
        return sorted(plain(x, seen) for x in obj)
    if isinstance(obj, (bytearray, memoryview)):
        return bytes(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, random.Random):
        return obj.getstate()
    if isinstance(obj, itertools.count):
        return repr(obj)
    if callable(obj):
        return getattr(obj, "__qualname__", type(obj).__name__)
    if id(obj) in seen:
        return ("again", type(obj).__name__)
    seen.add(id(obj))
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names.extend(getattr(klass, "__slots__", ()))
    return (type(obj).__name__,
            [(name, plain(getattr(obj, name), seen)) for name in names
             if hasattr(obj, name)])


def observe(cache, events):
    seen = set()
    queues = []
    for qid, q in cache.queues.items():
        queues.append({
            "qid": qid, "slabs": q.slabs,
            "stats": (dataclasses.astuple(q.stats), q.stats.gets),
            "lru": [(i.key, i.seg, i.last_access, i.cas, i.expires_at,
                     i.key_size, i.value_size, i.penalty, i.queue.qid)
                    for i in q.lru],
            "policy_data": plain(q.policy_data, seen),
        })
    return {
        "accesses": cache.accesses, "cas_tick": cache.cas_tick,
        "in_operation": cache._in_operation,
        "pending": len(cache._pending_migrations),
        "index": list(cache.index),
        "stats": (dataclasses.astuple(cache.stats), cache.stats.gets),
        "pool": (cache.pool.free, cache.pool.ownership()),
        "queues": queues,
        "policy": plain(cache.policy, seen),
        "events": [(e.kind, e.tick, e.data) for e in events],
    }


class Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class Side:
    def __init__(self, make, slabs, run):
        self.clock = Clock()
        self.cache = SlabCache(slabs * SLAB, make(),
                               SizeClassConfig(slab_size=SLAB),
                               clock=self.clock)
        self.events = self.cache.events = EventTrace(capacity=1 << 16)
        self.got = []
        self.run = run

    def step(self, step, fill, sized):
        kind = step[0]
        if kind == "advance":
            self.clock.now += step[1]
            return None
        if kind == "expiring":
            _kind, key, size, penalty, ttl = step
            return self.cache.set(key, 8, size - 8, penalty,
                                  expires_at=self.clock.now + ttl)
        try:
            self.run(self.cache, iter(step[1]), fill, self.got.append, sized)
        except (InvalidItemError, ValueError) as exc:
            return type(exc), str(exc)
        return None


class KeyHashes(dict):
    """Every key's base hash pair, as the replay hands ``apply_rows``
    a window's (which policies that hash no key never read)."""

    def __missing__(self, key):
        return hash_pair(key)


class Pair:
    """The cache under test and one driven request by request."""

    def __init__(self, make, slabs, fill=True, sized=True):
        self.fast = Side(make, slabs, lambda cache, *run: cache.apply_rows(
            *run, KeyHashes()))
        self.slow = Side(make, slabs, apply_rows_per_request)
        self.fill, self.sized = fill, sized

    def step(self, step):
        assert (self.fast.step(step, self.fill, self.sized)
                == self.slow.step(step, self.fill, self.sized))
        self.compare()

    def rows(self, *rows):
        self.step(("rows", list(rows)))

    def compare(self):
        assert self.fast.got == self.slow.got
        assert (observe(self.fast.cache, self.fast.events)
                == observe(self.slow.cache, self.slow.events))
        for side in (self.fast, self.slow):
            side.cache.check_invariants()
            assert not side.cache._in_operation
            policy = side.cache.policy
            check = getattr(policy, "check_ghost_sync", None)
            if check is not None:
                check()


def get(key, size=40, penalty=0.05):
    return (0, key, 8, size - 8, penalty)


def put(key, size=40, penalty=0.05):
    return (1, key, 8, size - 8, penalty)


KEYS = st.integers(min_value=0, max_value=40)
#: keys stored again while they are live ...
FEW = st.integers(min_value=0, max_value=5)
#: ... with sizes in pairs that share a class (and a class apart), and
#: penalties in pairs that share a PAMA bin (and a bin apart)
RESTORE_SIZES = [40, 36, 100, 90, 120]
RESTORE_PENALTIES = [0.05, 0.08, 2.0, 3.0]
RESTORE = st.tuples(st.sampled_from([0, 1, 1]), FEW, st.just(8),
                    st.sampled_from(RESTORE_SIZES).map(lambda size: size - 8),
                    st.sampled_from(RESTORE_PENALTIES))
ROW = st.one_of(
    st.tuples(st.sampled_from([0, 0, 0, 1, 1, 2]), KEYS, st.just(8),
              st.sampled_from(SIZES).map(lambda size: size - 8),
              st.sampled_from(PENALTIES)),
    RESTORE,
    # rows that go through lookup / set whole: a size not classed yet,
    # one too large for any class, a penalty with no bin
    st.tuples(st.sampled_from([0, 1]), FEW, st.just(8),
              st.sampled_from([17, 333, 2000]),
              st.sampled_from(PENALTIES)),
    st.tuples(st.sampled_from([0, 1]), FEW, st.just(8), st.just(32),
              st.just(math.nan)),
    # rows that raise where the cache validates them: a SET always, a
    # GET when it misses (sizes), or when its penalty has no bin
    st.tuples(st.sampled_from([0, 1]), KEYS, st.just(8), st.just(-8),
              st.sampled_from(PENALTIES)),
    st.tuples(st.sampled_from([0, 1]), KEYS, st.just(8), st.just(32),
              st.just(-1.0)),
)
STEP = st.one_of(
    st.tuples(st.just("rows"), st.lists(ROW, max_size=40)),
    st.tuples(st.just("rows"), st.lists(ROW, max_size=40)),
    st.tuples(st.just("rows"), st.lists(RESTORE, min_size=1, max_size=40)),
    st.tuples(st.just("expiring"), KEYS, st.sampled_from(SIZES),
              st.sampled_from(PENALTIES), st.sampled_from([0.5, 2.0, 50.0])),
    st.tuples(st.just("advance"), st.sampled_from([0.25, 1.0, 3.0])),
)


@pytest.mark.parametrize("name", sorted(POLICIES))
class TestEveryRun:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(STEP, min_size=1, max_size=12),
           st.integers(min_value=2, max_value=6), st.booleans(),
           st.booleans())
    def test_random_runs(self, name, steps, slabs, fill, sized):
        pair = Pair(POLICIES[name], slabs, fill, sized)
        for step in steps:
            pair.step(step)

    def test_one_long_run_equals_its_rows_one_by_one(self, name):
        rng = random.Random(11)
        keys = [int(rng.paretovariate(0.6)) % 70 for _ in range(1500)]
        rows = [(rng.choice([0, 0, 0, 0, 1, 2]), key, 8, SIZES[key % 5] - 8,
                 PENALTIES[key % 3]) for key in keys]
        whole = Pair(POLICIES[name], slabs=5)
        whole.rows(*rows)
        single = Pair(POLICIES[name], slabs=5)
        for row in rows:
            single.fast.step(("rows", [row]), True, True)
        assert (observe(whole.fast.cache, whole.fast.events)
                == observe(single.fast.cache, single.fast.events))
        assert whole.fast.got == single.fast.got
        stats = whole.fast.cache.stats
        assert stats.hits > 300 and stats.misses > 100
        assert stats.evictions > 50

    def test_items_that_expire(self, name):
        pair = Pair(POLICIES[name], slabs=4)
        pair.rows(put(1), put(2), put(3))
        pair.step(("expiring", 2, 40, 0.05, 2.0))   # replaces 2
        pair.step(("expiring", 7, 100, 2.0, 50.0))
        pair.rows(get(2), get(1), get(7))           # live: hits via lookup
        pair.step(("advance", 3.0))
        pair.rows(get(1), get(2), get(2), get(7))   # 2 is gone, then refilled
        if name in TIMERLESS:
            assert pair.fast.got == [40, 40, 100, 40, -1, 40, 100]
            assert pair.fast.cache.stats.expired == 1

    def test_a_row_that_raises_mid_run(self, name):
        pair = Pair(POLICIES[name], slabs=4)
        pair.rows(put(1), put(2))
        bad = (1, 3, 8, -8, 0.05)
        pair.rows(get(1), get(2), bad, get(1), put(9))
        # the rows before it are applied, the rows after it are not
        cache = pair.fast.cache
        assert 9 not in cache and 3 not in cache
        pair.rows(get(1), (0, 50, 8, -8, 0.05), get(2))  # a miss that raises
        pair.rows(get(2), put(9), get(9))
        if name in TIMERLESS:
            assert pair.fast.got == [40, 40, 40, 40, 40]
            assert cache.stats.hits == 5 and cache.stats.misses == 1


class MigratesOnHit(AllocationPolicy):
    """Asks, from inside ``on_hit``, for the hit item's own slab to go
    to the other queue — which evicts the item being served."""

    name = "migrates-on-hit"

    def on_hit(self, queue, item, h1=0, h2=0):
        others = [q for q in self.cache.iter_queues() if q is not queue]
        if others and queue.slabs == 1:
            self.cache.migrate(queue, others[0])

    def resolve_pressure(self, queue, must_migrate):
        return None


class RaisesOnHit(MigratesOnHit):
    def on_hit(self, queue, item, h1=0, h2=0):
        super().on_hit(queue, item, h1, h2)
        if item.key == "boom":
            raise RuntimeError("boom")


class TestMigrationsRequestedFromOnHit:
    def test_the_hit_item_is_promoted_noted_then_evicted(self):
        pair = Pair(MigratesOnHit, slabs=3)
        pair.rows(put("a"), put("b"), put("big", 400))
        for side in (pair.fast, pair.slow):
            item = side.cache.index["a"]
            side.run(side.cache, iter([get("a"), get("b")]), True,
                     side.got.append, True)
            # served as a hit and promoted before the migration that
            # on_hit asked for took its queue's only slab away; the
            # cache stamps no access tick or CAS unique on it
            assert side.got == [40, -1]
            assert side.cache.accesses == 6 and item.prev is None
            assert item.last_access == 0 and item.cas == 0
            assert side.cache.stats.migrations == 1
            assert side.cache.stats.evictions == 2
            assert "a" not in side.cache and "b" in side.cache  # refilled
        pair.compare()

    def test_a_hook_that_raises_leaves_the_cache_as_lookup_would(self):
        pair = Pair(RaisesOnHit, slabs=3)
        pair.rows(put("a"), put("boom"), put("big", 400))
        for side in (pair.fast, pair.slow):
            with pytest.raises(RuntimeError):
                side.run(side.cache, iter([get("new"), get("boom"), get("a")]),
                         True, side.got.append, True)
            # the migration it had asked for is not left pending
            assert side.cache.stats.migrations == 1
            assert "boom" not in side.cache and side.got == [-1]
        pair.compare()


def test_a_policy_that_hashes_keys_needs_the_pairs():
    cache = SlabCache(4 * SLAB, POLICIES["pama-bloom"](),
                      SizeClassConfig(slab_size=SLAB))
    with pytest.raises(TypeError, match="hash pairs"):
        cache.apply_rows(iter([put(1), get(1)]), True, [].append, False)
    assert cache.accesses == 0 and len(cache) == 0
