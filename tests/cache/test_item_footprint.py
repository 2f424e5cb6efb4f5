"""What one cached item costs in memory.

The replay's cost on a cache that fits its working set is the objects
each hit touches, so an item carries only what its readers use: no
per-operation access tick or CAS unique (each an int object of its own
that a hit or store would replace), no copy of its queue's qid, and no
value, expiry or unique slots on an item no store gave one — those live
on :class:`~repro.cache.item.StoredItem`, which only a store carrying a
value or an expiry builds.

The reading is tracemalloc's: every byte allocated while 50,000 items
are stored and then hit once each through ``apply_rows`` — the item,
its index entry, the LRU and whatever a policy keeps per item.  The
rows are built before tracing starts, so keys and row tuples are not
counted.  Under ``memcached`` and ``pama`` it reads ≈ 148.5 B per item
on CPython 3.11 (a 96 B :class:`~repro.cache.item.Item`).  ``gds``
keeps a heap entry per push and its last one per item (≈ 524.6 B): it
versions its entries itself, so it too is held to its reading.  The
served cell stores ``(flags, bytes)`` values through ``set(...,
value=...)`` and hits them through ``get``, as the server does, under
``pama`` (the server's default); its values are built before tracing,
so it reads the 120 B ``StoredItem`` and the rest (≈ 172.5 B).  An int
object stamped on every item would add 32 B and fail every budget.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.cache.item import Item, StoredItem
from repro.policies import make_policy

ITEMS = 50_000
#: bytes per item, by cell; the readings are ≈ 148.5 / 148.5 / 524.6
#: and ≈ 172.5 served, whose margin is under one slot (8 B): the twelve
#: slots every item had before read ≈ 180.5 there
BUDGET = {"memcached": 158, "pama": 158, "gds": 543, "pama-served": 178}


def bytes_per_item(policy: str, served: bool = False) -> float:
    stores = [(1, key, 8, 40, 0.01) for key in range(ITEMS)]
    hits = [(0, key, 8, 40, 0.01) for key in range(ITEMS)]
    keys = list(range(ITEMS))
    values = [(0, b"%040d" % key) for key in keys]
    cache = SlabCache(64 << 20, make_policy(policy),
                      SizeClassConfig(slab_size=1 << 20))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if served:
            for key, value in zip(keys, values):
                cache.set(key, 8, 40, 0.01, value=value)
            for key in keys:
                cache.get(key)
        else:
            cache.apply_rows(stores, False, lambda outcome: None)
            cache.apply_rows(hits, False, lambda outcome: None)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cache) == cache.stats.hits == ITEMS
    kind = StoredItem if served else Item
    assert all(type(item) is kind for item in cache.index.values())
    return used / ITEMS


@pytest.mark.parametrize("cell", sorted(BUDGET))
def test_bytes_per_item_within_budget(cell):
    policy, _, served = cell.partition("-")
    assert bytes_per_item(policy, served=bool(served)) < BUDGET[cell]


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="object sizes are CPython's")
def test_object_sizes():
    # eight slots; a served item's three more still take the 128 B
    # block the twelve-slot item took
    assert sys.getsizeof(Item(1, 8, 40, 0.01)) == 96
    assert sys.getsizeof(StoredItem(1, 8, 40, 0.01, (0, b"v"), 5.0)) == 120
