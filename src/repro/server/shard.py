"""Hash-partitioned cache shards and shared command semantics.

Two things live here:

* :func:`shard_of` / :class:`ShardSet` — the partitioning layer of the
  server: N independent :class:`~repro.cache.cache.SlabCache`
  instances, keys routed by splitmix64.  Each shard is only ever touched
  from one event loop, so the hot path needs no locks; a shard is also
  exactly the unit you would pin to a process in a multi-core
  deployment.

* :func:`apply_storage` / :func:`apply_incr_decr` — the storage-verb
  and incr/decr semantics the server applies to a shard (the
  differential suite holds its reply bytes to committed transcripts).
"""

from __future__ import annotations

from functools import lru_cache, partial

from repro.bloom.hashing import SHARD_SEED, key_shard
from repro.cache.cache import SlabCache
from repro.cache.sizeclasses import SizeClassConfig
from repro.cache.stats import CacheStats
from repro.server import protocol as p

__all__ = ["SHARD_SEED", "shard_of", "ShardSet", "StoreFailed",
           "STORE_FAILED", "INCR_STORE_FAILED_MSG", "apply_storage",
           "apply_incr_decr"]

#: keys whose shard a :class:`ShardSet` remembers: routing a text key
#: is a per-byte loop in Python (docs/performance.md, "Serving path")
ROUTE_MEMO = 8192


def shard_of(key: object, nshards: int) -> int:
    """Deterministic shard index for ``key`` (splitmix64 over the key).

    Key-type-agnostic: text keys hash via FNV-1a folded through
    splitmix64, int keys (the simulator's interned ids) take the
    splitmix64 fast path directly — no ``str()`` round-trip.  This is
    :func:`repro.bloom.hashing.key_shard`; assignments for ``str`` keys
    are unchanged (pinned by the back-compat tests).
    """
    return key_shard(key, nshards)


class ShardSet:
    """N hash-partitioned SlabCaches behind one routing function.

    Capacity is split evenly; every shard gets its own policy instance
    (one policy per cache is a SlabCache invariant) and all shards share
    one metrics registry, so counters aggregate naturally while gauges
    are refreshed as cross-shard totals by :meth:`update_obs_gauges`.
    """

    def __init__(self, capacity_bytes: int, policy_factory,
                 size_classes: SizeClassConfig | None = None,
                 nshards: int = 1, clock=None) -> None:
        if nshards < 1:
            raise ValueError(f"nshards must be >= 1, got {nshards}")
        classes = size_classes or SizeClassConfig()
        per_shard = capacity_bytes // nshards
        if per_shard < classes.slab_size:
            raise ValueError(
                f"{capacity_bytes} bytes over {nshards} shards leaves "
                f"{per_shard} per shard — below one "
                f"{classes.slab_size}-byte slab")
        self.nshards = nshards
        self.max_item_size = classes.max_item_size  # of every shard
        self.shards: list[SlabCache] = [
            SlabCache(per_shard, policy_factory(), classes, clock=clock)
            for _ in range(nshards)]
        #: ``shard_index(key)`` is ``shard_of(key, nshards)``, memoized
        self.shard_index = (
            lru_cache(ROUTE_MEMO)(partial(key_shard, nshards=nshards))
            if nshards > 1 else lambda key: 0)

    def shard_for(self, key: object) -> SlabCache:
        return self.shards[self.shard_index(key)]

    def attach_obs(self, registry, events=None) -> None:
        for cache in self.shards:
            if cache.obs is None:
                cache.attach_obs(registry, events)

    # -- aggregation ---------------------------------------------------
    def stats_snapshot(self) -> dict[str, float]:
        """Cross-shard :class:`CacheStats` totals (ratios recomputed)."""
        total = CacheStats()
        for cache in self.shards:
            s = cache.stats
            total.hits += s.hits
            total.misses += s.misses
            total.sets += s.sets
            total.deletes += s.deletes
            total.evictions += s.evictions
            total.migrations += s.migrations
            total.expired += s.expired
            total.total_miss_penalty += s.total_miss_penalty
        return total.snapshot()

    @property
    def items(self) -> int:
        return sum(len(cache) for cache in self.shards)

    @property
    def slabs_total(self) -> int:
        return sum(cache.pool.total for cache in self.shards)

    @property
    def slabs_free(self) -> int:
        return sum(cache.pool.free for cache in self.shards)

    @property
    def policy_name(self) -> str:
        return self.shards[0].policy.name

    def update_obs_gauges(self) -> None:
        """Refresh point-in-time gauges as cross-shard totals.

        The per-shard ``SlabCache.update_obs_gauges`` would have each
        shard overwrite the shared gauges with its own numbers; this
        sets the totals instead.
        """
        registry = self.shards[0].obs
        if registry is None:
            return
        gauge = registry.gauge
        gauge("cache_items", "live items").set(self.items)
        gauge("cache_used_bytes", "logical item bytes").set(
            sum(cache.used_bytes for cache in self.shards))
        gauge("cache_slabs_total", "slabs in the pool").set(self.slabs_total)
        gauge("cache_slabs_free", "unowned slabs").set(self.slabs_free)

    def flush_all(self) -> int:
        return sum(cache.flush_all() for cache in self.shards)

    def check_invariants(self) -> None:
        for cache in self.shards:
            cache.check_invariants()


# -- shared command semantics ------------------------------------------------

class StoreFailed:
    """Sentinel: an incr/decr computed its number but the resized
    payload could not be stored — the client must hear SERVER_ERROR,
    not the number (the cache no longer holds it)."""

    __slots__ = ()


STORE_FAILED = StoreFailed()

#: the SERVER_ERROR message for a value no slab can hold (a storage
#: block over the item size, a failed incr/decr store).
INCR_STORE_FAILED_MSG = "object too large for cache"


def apply_storage(cache: SlabCache, cmd: p.SetCommand,
                  data: bytes | None) -> bytes:
    """Apply a storage verb against ``cache``; returns the reply line.
    ``data`` is ``None`` when the front end discarded a block larger
    than any slab instead of reading it."""
    if data is None:
        return p.format_server_error(INCR_STORE_FAILED_MSG)
    # The async server's ``_Connection._serve_plain`` repeats the plain
    # ``set`` below (expiry, this probe, store): change the two together.
    expires = p.resolve_exptime(cmd.exptime, cache.clock())
    existing = cache.get(cmd.key)  # honours expiry
    if cmd.verb == "add" and existing is not None:
        return p.format_not_stored()
    if cmd.verb == "replace" and existing is None:
        return p.format_not_stored()
    if cmd.verb == "cas":
        if existing is None:
            return p.format_not_found()
        # 0 is no unique: the item was stored again since any ``gets``
        if not existing.cas or existing.cas != cmd.cas_unique:
            return p.format_exists()
    if cmd.verb in ("append", "prepend"):
        if existing is None or existing.value is None:
            return p.format_not_stored()
        old_flags, old_data = existing.value
        data = (old_data + data if cmd.verb == "append"
                else data + old_data)
        # concatenation keeps the original flags/penalty/expiry
        ok = cache.set(cmd.key, len(cmd.key), len(data),
                       existing.penalty, value=(old_flags, data),
                       expires_at=existing.expires_at)
        return p.format_stored() if ok else p.format_not_stored()
    ok = cache.set(cmd.key, len(cmd.key), cmd.nbytes, cmd.penalty,
                   value=(cmd.flags, data), expires_at=expires)
    return p.format_stored() if ok else p.format_not_stored()


def apply_incr_decr(cache: SlabCache, cmd: p.IncrDecrCommand):
    """Apply incr/decr; returns the new value, ``None`` if the key is
    absent, ``bytes`` for a CLIENT_ERROR message, or :data:`STORE_FAILED`
    when the updated payload could not be stored."""
    item = cache.get(cmd.key)
    if item is None or item.value is None:
        return None
    flags, data = item.value
    # memcached treats values as unsigned ASCII decimals: "+10",
    # " 10 " and "1_0" all pass int() but are not valid numbers.
    if not data.isdigit():
        return b"cannot increment or decrement non-numeric value"
    current = int(data)
    if cmd.decrement:
        new = max(0, current - cmd.delta)  # memcached clamps at 0
    else:
        new = (current + cmd.delta) % (1 << 64)  # 64-bit wraparound
    payload = str(new).encode()
    ok = cache.set(cmd.key, len(cmd.key), len(payload), item.penalty,
                   value=(flags, payload), expires_at=item.expires_at)
    if not ok:
        # The old value was unlinked when the replacement was attempted;
        # answering the new number would claim a store that failed.
        return STORE_FAILED
    return new
