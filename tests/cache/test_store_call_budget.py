"""A SET row inside ``apply_rows`` stays inside its budget of Python frames.

The store path is where PAMA's mechanism runs: every SET lands in a
(size class × penalty bin) subclass.  The per-request loop entered
``set`` and the policy's ``bin_for`` per SET, and per GET miss
``lookup``, ``bin_for`` and the fill's ``set`` and ``bin_for``; a re-store
of a live key added ``_unlink``, ``LRUList.remove``, the tracker's
``on_remove`` and the policy's, and then built a new ``Item`` pushed to
the front.  The run loop handles these rows in its own frame, bins by
the policy's static edges without a call, and a key re-stored into the
queue it lives in keeps its ``Item``: one ``move_to_front``, and nothing
at all when the item is the head.  Under PAMA the queue's list is the
segment tracker, so a push or a promotion enters no tracker callback.  Counts
are frames entered per row, the run loop's own frame left out (see
``test_hit_call_budget.py``).
"""

import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy
from repro.policies import make_policy
from tests.cache.test_pressure_call_budget import calls_during

#: frames per row: a new key into a free slot, a re-store of a key that
#: is not its queue's head, the same at the head, and a GET miss
#: followed by its fill into a free slot
FRAMES = {
    # new: Item(), push_front; restore: move_to_front; head: none;
    # miss_fill: the new key's two
    "memcached": {"new": 2, "restore": 1, "head": 0, "miss_fill": 2},
    # new: Item(), push_front, on_insert; restore: on_remove,
    # move_to_front, on_insert; head: on_remove, on_insert; miss_fill:
    # on_miss and the new key's three (the tracker's on_push_front and
    # on_promote were one frame more each)
    "pama": {"new": 3, "restore": 3, "head": 2, "miss_fill": 4},
}

PER_SLAB = 16


def make_cache(name: str) -> SlabCache:
    policy = (PamaPolicy(PamaConfig(m=1)) if name == "pama"
              else make_policy(name))
    return SlabCache(8 * 1024, policy, SizeClassConfig(slab_size=1024))


def frames_per_row(cache, rows) -> float:
    got = []
    sets, misses = cache.stats.sets, cache.stats.misses
    calls = calls_during(
        lambda: cache.apply_rows(iter(rows), True, got.append))
    assert cache.stats.sets - sets == len(rows)
    assert len(got) == cache.stats.misses - misses
    cache.check_invariants()
    check = getattr(cache.policy, "check_ghost_sync", None)
    if check is not None:
        check()
    return (calls - 1) / len(rows)


@pytest.mark.parametrize("name", sorted(FRAMES))
class TestFramesPerStore:
    def test_a_new_key_into_a_free_slot(self, name):
        cache = make_cache(name)
        cache.set("warm", 8, 32, 0.05)       # the queue, a slab, the size
        rows = [(1, key, 8, 32, 0.05) for key in range(PER_SLAB - 1)]
        assert frames_per_row(cache, rows) == FRAMES[name]["new"]

    def test_a_re_store_into_the_same_queue(self, name):
        cache = make_cache(name)
        cache.set("sized", 8, 30, 0.06)      # a size the SETs below reuse
        for key in range(2 * PER_SLAB):
            cache.set(key, 8, 32, 0.05)
        items = {key: cache.index[key] for key in range(PER_SLAB)}
        # a new value size and penalty, in the same class and bin
        rows = [(1, key, 8, 30, 0.06) for key in range(PER_SLAB)]
        assert frames_per_row(cache, rows) == FRAMES[name]["restore"]
        for key, item in items.items():
            assert cache.index[key] is item
            assert (item.value_size, item.penalty) == (30, 0.06)
        head = cache.index[PER_SLAB - 1]
        assert head.queue.lru.front is head
        assert frames_per_row(cache, [(1, head.key, 8, 32, 0.05)] * 3) \
            == FRAMES[name]["head"]

    def test_a_miss_and_its_fill(self, name):
        cache = make_cache(name)
        cache.set("warm", 8, 32, 0.05)
        rows = [(0, key, 8, 32, 0.05) for key in range(PER_SLAB - 1)]
        assert frames_per_row(cache, rows) == FRAMES[name]["miss_fill"]
        assert cache.stats.misses == PER_SLAB - 1
