"""What one cached item costs in memory.

The replay's cost on a cache that fits its working set is the objects
each hit touches, so an item carries only what its readers use: no
per-operation access tick or CAS unique (each an int object of its own
that a hit or store would replace), no copy of its queue's qid.

The reading is tracemalloc's: every byte allocated while 50,000 items
are stored and then hit once each through ``apply_rows`` — the item,
its index entry, the LRU and whatever a policy keeps per item.  The
rows are built before tracing starts, so keys and row tuples are not
counted.  Under ``memcached`` and ``pama`` it reads ≈ 180.5 B per item
on CPython 3.11, 3.12 and 3.13.  ``gds`` keeps a heap entry per push
and its last one per item (≈ 556.6 B): it versions its entries itself,
so it too is held to its reading.  An int object stamped on every item
would add 32 B and fail either budget.
"""

import gc
import tracemalloc

import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.policies import make_policy

ITEMS = 50_000
#: bytes per item, by policy; the readings are ≈ 180.5 / 180.5 / 556.6
BUDGET = {"memcached": 192, "pama": 192, "gds": 576}


def bytes_per_item(policy: str) -> float:
    stores = [(1, key, 8, 40, 0.01) for key in range(ITEMS)]
    hits = [(0, key, 8, 40, 0.01) for key in range(ITEMS)]
    cache = SlabCache(64 << 20, make_policy(policy),
                      SizeClassConfig(slab_size=1 << 20))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache.apply_rows(stores, False, lambda outcome: None)
        cache.apply_rows(hits, False, lambda outcome: None)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == cache.stats.hits == ITEMS
    return used / ITEMS


@pytest.mark.parametrize("policy", sorted(BUDGET))
def test_bytes_per_item_within_budget(policy):
    assert bytes_per_item(policy) < BUDGET[policy]
