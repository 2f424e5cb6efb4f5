"""A GET hit inside ``apply_rows`` stays inside its budget of Python frames.

Like the pressure path (``test_pressure_call_budget.py``), the hit path's
cost in CPython is dispatch.  Per hit the per-request loop entered
``lookup``, the policy's ``on_hit`` — a no-op under ``memcached`` — and
``move_to_front``, and under PAMA the tracker's ``on_remove`` and
``on_push_front``: 3 frames and 5.  The run loop handles the hit in its
own frame, calls only the hooks the policy's class overrides, and
promotes only an item that is not already the head; under PAMA the
promotion is the segmented list's own ``move_to_front`` (no tracker
callback) and ``on_hit`` credits a tracked segment in its own frame.
``sys.setprofile`` counts frames entered, which repeats
exactly (``benchmarks/count_work.py`` is the same count over a benchmark
input, with bytecodes).
"""

from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy
from repro.policies import make_policy
from tests.cache.test_pressure_call_budget import calls_during

#: frames per hit of an item that is not its queue's head ...
MEMCACHED_HIT = 1          # move_to_front
PAMA_HIT = 2               # on_hit, move_to_front
#: ... and what a hit in a tracked bottom segment adds (it was 1, a call
#: to add_outgoing)
PAMA_TRACKED = 0

PER_SLAB = 16


def filled(policy, items: int) -> SlabCache:
    cache = SlabCache(8 * 1024, policy, SizeClassConfig(slab_size=1024))
    for key in range(items):
        cache.set(key, 8, 32, 0.05)
    return cache


def frames_per_hit(cache, keys) -> float:
    """Frames entered per row by one run of GET hits on ``keys``, the run
    loop's own frame left out."""
    rows = [(0, key, 8, 32, 0.05) for key in keys]
    got = []
    hits = cache.stats.hits
    calls = calls_during(
        lambda: cache.apply_rows(iter(rows), True, got.append))
    assert cache.stats.hits - hits == len(rows) == len(got)
    cache.check_invariants()
    return (calls - 1) / len(rows)


def test_a_memcached_hit_enters_one_frame_and_none_at_the_head():
    cache = filled(make_policy("memcached"), 3 * PER_SLAB)
    assert frames_per_hit(cache, [5, 6, 7, 8]) == MEMCACHED_HIT
    assert frames_per_hit(cache, [8, 8, 8]) == 0


def test_a_pama_hit_enters_two_frames_and_two_in_a_tracked_segment():
    policy = PamaPolicy(PamaConfig(m=1))  # the exact tracker
    cache = filled(policy, 4 * PER_SLAB)  # two tracked segments, two above
    queue = next(iter(cache.iter_queues()))
    top = [item.key for item in queue.lru][1:PER_SLAB]
    assert all(cache.index[key].seg < 0 for key in top)
    assert frames_per_hit(cache, top) == PAMA_HIT
    bottom = [item.key for item in queue.lru.iter_from_back()][:4]
    assert all(cache.index[key].seg == 0 for key in bottom)
    assert frames_per_hit(cache, bottom) == PAMA_HIT + PAMA_TRACKED
    head = queue.lru.front.key
    assert frames_per_hit(cache, [head, head]) == 1   # on_hit alone
    policy.check_ghost_sync()
