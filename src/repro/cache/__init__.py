"""Memcached-like slab-allocated key-value cache substrate."""

from repro.cache.cache import SlabCache
from repro.cache.errors import (CacheError, InvalidItemError,
                                ItemTooLargeError, OutOfMemoryError,
                                PolicyError)
from repro.cache.item import Item, StoredItem
from repro.cache.lru import LRUList
from repro.cache.queue import Queue
from repro.cache.sizeclasses import SizeClassConfig
from repro.cache.slab import SlabPool
from repro.cache.snapshot import load_snapshot, save_snapshot
from repro.cache.stats import CacheStats, QueueStats

__all__ = [
    "SlabCache",
    "SizeClassConfig",
    "SlabPool",
    "Queue",
    "Item",
    "StoredItem",
    "LRUList",
    "CacheStats",
    "QueueStats",
    "save_snapshot",
    "load_snapshot",
    "CacheError",
    "InvalidItemError",
    "ItemTooLargeError",
    "OutOfMemoryError",
    "PolicyError",
]
