"""Cache snapshot / restore: warm-start support for experiments.

A large-cache experiment spends much of its runtime warming up.
``save_snapshot`` captures the cache's logical contents (items in LRU
order with their attributes; not payload bytes), and ``load_snapshot``
replays them into a fresh cache so repeated experiments can start from
the same warm state.  Restoring re-runs the normal SET path, so any
policy's internal structures are rebuilt consistently — a snapshot
taken under one policy can warm a cache managed by another.
"""

from __future__ import annotations

import os
from itertools import zip_longest

from repro.cache.cache import SlabCache

_FORMAT_VERSION = 1


def save_snapshot(cache: SlabCache, path: str | os.PathLike) -> int:
    """Write the cache's items to ``path`` (.npz); returns item count.

    Items are recorded LRU-first so a restore replays them oldest-first
    and reproduces the recency order: each queue's exactly, and across
    queues approximately — the cache keeps no global access tick, so the
    queues are interleaved by depth from their LRU ends (every queue's
    tail, then every queue's next-to-tail, ...).  Only int keys are
    supported (the simulator's key space); payload values are not
    persisted.
    """
    import numpy as np

    keys: list[int] = []
    key_sizes: list[int] = []
    value_sizes: list[int] = []
    penalties: list[float] = []
    expiries: list[float] = []
    runs = [q.lru.iter_from_back() for q in cache.iter_queues()]
    items = [item for depth in zip_longest(*runs) for item in depth
             if item is not None]
    for item in items:
        if not isinstance(item.key, int):
            raise TypeError(
                f"snapshot supports int keys only, got {type(item.key)!r}")
        keys.append(item.key)
        key_sizes.append(item.key_size)
        value_sizes.append(item.value_size)
        penalties.append(item.penalty)
        expiries.append(item.expires_at)
    np.savez_compressed(
        path, version=np.int64(_FORMAT_VERSION),
        keys=np.asarray(keys, dtype=np.int64),
        key_sizes=np.asarray(key_sizes, dtype=np.int32),
        value_sizes=np.asarray(value_sizes, dtype=np.int32),
        penalties=np.asarray(penalties, dtype=np.float64),
        expiries=np.asarray(expiries, dtype=np.float64))
    return len(keys)


def load_snapshot(cache: SlabCache, path: str | os.PathLike) -> int:
    """Replay a snapshot into ``cache`` via its SET path.

    Returns the number of items actually stored (the target cache may
    be smaller than the snapshotted one, in which case the replay's own
    evictions keep the most recently used tail — the right warm state).
    """
    import numpy as np

    with np.load(path) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        stored = 0
        for key, ksz, vsz, pen, exp in zip(
                data["keys"].tolist(), data["key_sizes"].tolist(),
                data["value_sizes"].tolist(), data["penalties"].tolist(),
                data["expiries"].tolist()):
            if cache.set(key, ksz, vsz, pen, expires_at=exp):
                stored += 1
    return stored
