"""A pressured SET stays inside its budget of Python-level calls.

The pressure path's cost in CPython is dispatch: what a migration does
per evicted item is a few pointer moves and dict operations, and each
function they are spread over costs more than they do.  The per-item
chain was ``_evict_one`` -> ``pop_back`` -> ``remove`` -> ``on_remove``
-> ``on_evict`` -> ``push`` -> ``GhostEntry()`` -> ``_remove_entry``;
it is now the ghost entry's constructor alone: the segmented list pops
the run, the policy hears one ``on_evict`` and the ghost takes one
``push_run``, each once per migration.  ``sys.setprofile`` counts
frames entered, which repeats exactly — no clock, no tolerance
(``benchmarks/count_work.py`` is the same count over a benchmark input,
with bytecodes).  Garbage
collection is off while a count runs: a collection can start on any
allocation and runs whatever ``gc.callbacks`` holds (Hypothesis installs
one), which would count frames that are not the cache's.
"""

import gc
import sys

import pytest

from repro._util import collector_paused
from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy

#: frames a pressured SET enters besides its victims': ``set``, the size
#: class of a size not seen before (``classify``), ``Item()``,
#: ``_ensure_slot``, ``resolve_pressure``, the receiver's Eq. 2 sum
#: (never taken before: ``incoming_value`` and four generator frames;
#: the donor's is read in place), ``_record_decision``, ``_migrate_slab``,
#: ``pop_back_run``, ``on_evict``, ``push_run``, ``pool.transfer``,
#: ``push_front`` and ``on_insert``.  It was 27, then 19 while ``set``
#: asked the policy's ``bin_for`` for the bin.
CALLS_PER_SET = 18
#: ... and per evicted item: GhostEntry().  It was 8, then 4 (the
#: tracker's on_remove, on_evict and the ghost's push per item).
CALLS_PER_VICTIM = 1

PER_SLAB = 16


def calls_during(fn) -> int:
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        if event == "call":
            entered += 1

    gc.collect()
    with collector_paused():
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
    return entered - 1  # fn's own frame


def pressured_set(victims: int) -> int:
    """Calls made by one SET whose migration evicts ``victims`` items
    into a ghost that is already full."""
    cache = SlabCache(4 * 1024, PamaPolicy(PamaConfig(m=2)),
                      SizeClassConfig(slab_size=1024))
    small = 4 * PER_SLAB
    for key in range(small):              # every slab to one subclass
        cache.set(key, 8, 32, 0.05)
    for key in range(small, 2 * small):   # 64 in-place evictions: ghost full
        cache.set(key, 8, 32, 0.05)
    donor = next(iter(cache.iter_queues()))
    ghost = donor.policy_data.ghost
    assert len(ghost) == ghost.capacity
    for key in range(2 * small - (PER_SLAB - victims), 2 * small):
        cache.delete(key)                 # free all but `victims` of a slab
    receiver = cache.queue_for(3, donor.bin_idx)   # exists, owns nothing
    evicted = cache.stats.evictions

    calls = calls_during(lambda: cache.set("big", 8, 400, 0.05))

    assert cache.stats.migrations == 1 and receiver.slabs == 1
    assert cache.stats.evictions - evicted == victims
    assert len(ghost) == ghost.capacity
    cache.check_invariants()
    cache.policy.check_ghost_sync()
    return calls


@pytest.mark.parametrize("victims", [1, 5, PER_SLAB])
def test_migration_calls_are_bounded_per_set_and_per_victim(victims):
    calls = pressured_set(victims)
    assert calls <= CALLS_PER_SET + CALLS_PER_VICTIM * victims, (
        f"a SET that migrated a slab and evicted {victims} items entered "
        f"{calls} Python frames: something on the pressure path is a call "
        f"chain per item again")


def test_each_further_victim_costs_exactly_its_one_call():
    assert pressured_set(PER_SLAB) - pressured_set(1) \
        == CALLS_PER_VICTIM * (PER_SLAB - 1)
