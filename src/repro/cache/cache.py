"""SlabCache: the Memcached-like key-value cache substrate.

Provides GET/SET/DELETE over slab-allocated size classes, with all slab
(re)allocation decisions delegated to a pluggable
:class:`~repro.policies.base.AllocationPolicy`.  This is the common
engine under the original-Memcached, PSA, pre-PAMA and PAMA schemes the
paper evaluates.

Memory model: capacity is split into fixed-size slabs; a queue
(size-class × penalty-bin) owns whole slabs and stores one item per
slot.  A migration logically evicts the donor's LRU items until one
slab's worth of slots is free, then moves the slab — byte-identical in
observable behaviour to the paper's "discard bottom items and compact".
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator

from repro import obs as _obs
from repro._util import fmt_bytes
from repro.bloom.hashing import PAIR_SEED_DELTA, hash_key
from repro.cache.errors import (InvalidItemError, OutOfMemoryError,
                                PolicyError)
from repro.cache.item import Item
from repro.cache.queue import Queue
from repro.cache.sizeclasses import SizeClassConfig
from repro.cache.slab import SlabPool
from repro.cache.stats import CacheStats
from repro.policies.base import AllocationPolicy, default_donor


#: :class:`CacheStats` fields a registry exposes as ``cache_<field>_total``.
_COUNTED = (("gets", "GET lookups"), ("hits", "GET hits"),
            ("misses", "GET misses"), ("sets", "successful SETs"),
            ("set_failures", "SETs that could not be stored"),
            ("evictions", "items evicted for space"),
            ("migrations", "slab migrations between queues"),
            ("expired", "items dropped at expiry"))


def apply_rows_per_request(cache, rows, fill: bool, note) -> None:
    """A run of trace rows, one ``lookup``/``set``/``delete`` per request.

    What ``apply_rows`` means, for any cache with the per-request API
    (:class:`~repro.cluster.cluster.CacheCluster` runs exactly this over
    its routed operations), and the oracle :meth:`SlabCache.apply_rows`
    — which does a hit, a miss, its fill and a SET in its own frame — is
    held equal to.  ``rows`` yields ``(op, key, key_size, value_size,
    penalty)``; every GET hands ``note`` its outcome — 0 for a hit, -1
    for a miss, which is followed by the fill SET when ``fill``.
    """
    lookup, cache_set, cache_delete = cache.lookup, cache.set, cache.delete
    for op, key, key_size, value_size, penalty in rows:
        if op == 0:  # GET
            item = lookup(key, key_size, value_size, penalty)
            if item is not None:
                note(0)
            else:
                note(-1)
                if fill:
                    cache_set(key, key_size, value_size, penalty)
        elif op == 1:  # SET
            cache_set(key, key_size, value_size, penalty)
        else:  # DELETE
            cache_delete(key)


def _overridden(policy: AllocationPolicy, hook: str):
    """``policy``'s bound ``hook``, or None when its class kept the
    base class's no-op."""
    if getattr(type(policy), hook) is getattr(AllocationPolicy, hook):
        return None
    return getattr(policy, hook)


class SlabCache:
    """A slab-allocated, policy-driven KV cache.

    Args:
        capacity_bytes: total cache memory (split into slabs).
        policy: the allocation policy instance (attached on construction;
            one policy instance per cache).
        size_classes: class geometry; defaults to Memcached-style 1 MiB
            slabs with doubling classes from 64 B.
    """

    def __init__(self, capacity_bytes: int, policy: AllocationPolicy,
                 size_classes: SizeClassConfig | None = None,
                 clock=None) -> None:
        import time as _time
        self.size_classes = size_classes or SizeClassConfig()
        #: wall-clock source for item expiry (injectable for tests).
        self.clock = clock or _time.time
        self.pool = SlabPool(capacity_bytes, self.size_classes.slab_size)
        self.policy = policy
        self.index: dict[object, Item] = {}
        self.queues: dict[tuple[int, int], Queue] = {}
        # The size classes' item_size -> class memo (-1: no class holds
        # the size), probed in place by lookup / set / apply_rows;
        # classify() fills it and answers what it lacks.
        self._class_memo = self.size_classes._class_cache
        self.stats = CacheStats()
        #: monotonically increasing access tick (GETs + SETs + DELETEs);
        #: the paper's notion of time for windows and item ages.
        self.accesses = 0
        #: the last CAS unique issued (memcached's ``cas unique``): a
        #: ``gets`` hands the next one to an item a store has reset to 0
        #: (:meth:`cas_unique`), so a store itself stamps nothing.
        self.cas_tick = 0
        # Migrations requested by a policy callback *during* an operation
        # are deferred until the operation completes: applying them
        # immediately could evict the very item being served.
        self._pending_migrations: list[tuple[Queue, Queue]] = []
        self._in_operation = False
        #: optional observability attachments (see repro.obs); None means
        #: every instrumentation point is a single attribute check.
        self.obs = None
        self.events = None
        #: optional TimelineRecorder; eviction/migration notes go to it.
        self.timeline = None
        if _obs.is_enabled():
            self.attach_obs(_obs.get_registry(), _obs.get_event_trace())
        policy.attach(self)
        #: hash-once: when the policy probes Bloom filters on the access
        #: path, a GET hands its callbacks the key's base hash pair —
        #: ``lookup`` hashes the key, ``apply_rows`` is handed the pairs.
        self._wants_hashes = bool(getattr(policy, "wants_key_hashes", False))
        #: whether the policy overrides ``choose_victim``; every scheme
        #: the paper evaluates keeps strict LRU and is never asked.
        self._policy_picks_victims = (
            type(policy).choose_victim is not AllocationPolicy.choose_victim)
        #: the per-request hooks, bound once: None when the policy's
        #: class inherits the no-op (memcached, twemcache), so a GET or
        #: a SET there calls nothing.  A hook is overridden on the
        #: class; one patched onto an attached instance is not seen.
        self._on_hit = _overridden(policy, "on_hit")
        self._on_miss = _overridden(policy, "on_miss")
        self._on_insert = _overridden(policy, "on_insert")
        self._on_remove = _overridden(policy, "on_remove")
        #: the policy's static bin edges, which ``set`` and ``apply_rows``
        #: bin by (``bin_for`` is "bisect_left, clamped to the last
        #: bin"), or None when binning is dynamic and ``bin_for`` is asked.
        self._bin_edges = policy.bin_edges()
        self._last_bin = max(len(self._bin_edges or ()) - 1, 0)

    def attach_obs(self, registry, events=None) -> None:
        """Attach a metrics registry (and optional event trace).

        No operation touches the ``cache_*_total`` counters: the
        registry asks for them when it is read and gets what
        :attr:`stats` gained since its last read, so caches sharing a
        registry add up and a cache counts from its attach.
        """
        if self.obs is not None:  # the old registry keeps what it saw
            self._obs_feed()
            self.obs.feeds.remove(self._obs_feed)
        self.obs = registry
        self.events = events
        stats = self.stats  # the feed must not keep the cache alive
        counters = [(registry.counter(f"cache_{field}_total", text), field)
                    for field, text in _COUNTED]
        seen = {field: getattr(stats, field) for field, _ in _COUNTED}

        def feed() -> None:
            for counter, field in counters:
                now = getattr(stats, field)
                counter.value += now - seen[field]
                seen[field] = now

        self._obs_feed = feed
        registry.feeds.append(feed)

    def attach_timeline(self, timeline) -> None:
        """Attach a :class:`repro.obs.timeline.TimelineRecorder`.

        The cache only pushes cold-path notes (evictions, migrations);
        per-request window accounting stays with the replay loop that
        owns the global tick.

        Always re-points ``snapshot_fn`` at *this* cache: a recorder
        reused across caches must not keep snapshotting the first one
        it met (that stale hook silently froze Fig 3/4 series when a
        TimelineRecorder outlived a simulator).
        """
        self.timeline = timeline
        timeline.snapshot_fn = lambda: (self.class_slab_distribution(),
                                        self.slab_distribution())

    def update_obs_gauges(self) -> None:
        """Refresh point-in-time gauges (called on stats/export, not in
        hot paths)."""
        if self.obs is None:
            return
        gauge = self.obs.gauge
        gauge("cache_items", "live items").set(len(self.index))
        gauge("cache_used_bytes", "logical item bytes").set(self.used_bytes)
        gauge("cache_slabs_total", "slabs in the pool").set(self.pool.total)
        gauge("cache_slabs_free", "unowned slabs").set(self.pool.free)

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def queue_for(self, class_idx: int, bin_idx: int) -> Queue:
        """Get or lazily create the queue for (class, bin)."""
        qid = (class_idx, bin_idx)
        queue = self.queues.get(qid)
        if queue is None:
            queue = Queue(class_idx, bin_idx,
                          self.size_classes.slot_size(class_idx),
                          self.size_classes.slots_per_slab(class_idx))
            self.queues[qid] = queue
            self.policy.on_queue_created(queue)
        return queue

    def iter_queues(self) -> Iterator[Queue]:
        return iter(self.queues.values())

    def slab_distribution(self) -> dict[tuple[int, int], int]:
        """Slab count per queue — the series Figs 3 and 4 plot."""
        return {q.qid: q.slabs for q in self.queues.values() if q.slabs}

    def class_slab_distribution(self) -> dict[int, int]:
        """Slab count per size class (bins folded together)."""
        dist: dict[int, int] = {}
        for q in self.queues.values():
            if q.slabs:
                dist[q.class_idx] = dist.get(q.class_idx, 0) + q.slabs
        return dist

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def get(self, key: object) -> Item | None:
        """A server's GET: the Item on a hit, None on a miss.  Sizes and
        penalty are unknown here, so a miss is accounted on the fill SET
        that follows; a caller that knows them calls :meth:`lookup`."""
        return self.lookup(key, -1, 0, math.nan)

    def lookup(self, key: object, key_size: int, value_size: int,
               penalty: float) -> Item | None:
        """GET with scalar miss accounting — the per-request entry point.

        ``key_size < 0`` means "miss details unknown" (the plain
        ``get(key)`` server path): the miss is counted but no per-queue
        miss accounting happens.  Behaviour is identical to
        :meth:`get`; only the calling convention differs.
        """
        self.accesses += 1
        stats = self.stats
        h1 = h2 = 0
        if self._wants_hashes:
            # Hash-once: every Bloom probe downstream reuses this pair.
            h1 = hash_key(key, 0)
            h2 = hash_key(key, PAIR_SEED_DELTA) | 1
        self._in_operation = True
        try:
            item = self.index.get(key)
            if item is not None and item.expires_at \
                    and self.clock() >= item.expires_at:
                self._unlink(item)
                stats.expired += 1
                item = None
            if item is not None:
                queue = item.queue
                queue.stats.hits += 1
                stats.hits += 1
                if self._on_hit is not None:
                    self._on_hit(queue, item, h1, h2)
                queue.lru.move_to_front(item)
                return item
            # miss
            stats.misses += 1
            class_idx = -1
            if key_size >= 0:
                class_idx = self._class_memo.get(key_size + value_size)
                if class_idx is None:
                    class_idx = self.size_classes.classify(
                        key_size + value_size)
                bin_idx = 0
                if penalty == penalty:  # not NaN
                    stats.total_miss_penalty += penalty
                    bin_idx = self.policy.bin_for(penalty)
                if class_idx >= 0:
                    q = self.queues.get((class_idx, bin_idx))
                    if q is None:
                        q = self.queue_for(class_idx, bin_idx)
                    q.stats.misses += 1
            if self._on_miss is not None:
                self._on_miss(key, class_idx, penalty, h1, h2)
            return None
        finally:
            self._in_operation = False
            if self._pending_migrations:
                self._flush_migrations()

    def apply_rows(self, rows, fill: bool, note, hashes=None) -> None:
        """Apply a run of trace rows — the loop the replay kernel runs.

        :func:`apply_rows_per_request` with a GET hit, a GET miss, its
        fill and a SET handled in this frame, from locals: what
        :meth:`lookup` and :meth:`set` do for them, in their order, once
        per row — the fill reusing the miss's size class, and its bin
        and queue unless the policy bins by ``bin_for`` (no static
        edges), which the fill asks again after the miss's ``on_miss``.
        What goes through :meth:`lookup` / :meth:`set` whole is a GET of
        an item that can expire, a row whose size no SET has classed
        yet or no class holds (memoized as -1, so it raises nothing),
        and an invalid row (a negative size, a NaN or negative
        penalty); DELETE goes through :meth:`delete`.  ``accesses`` is
        stored before any hook runs; a migration requested from inside
        a hook waits until the operation is done, as it does in
        :meth:`lookup` and :meth:`set`; an exception leaves the rows
        before it applied and ``_in_operation`` clear.

        ``hashes`` maps each key of the rows to its base hash pair
        ``(h1, h2)`` (:func:`~repro.bloom.hashing.hash_pair_arrays` of a
        trace window's keys), which a GET here hands the policy.  It is
        required when the policy hashes keys (``_wants_hashes``) and
        unused otherwise.
        """
        wants_hashes = self._wants_hashes
        if wants_hashes and hashes is None:
            raise TypeError(
                f"policy {self.policy.name!r} hashes keys: apply_rows needs "
                f"the rows' hash pairs (hashes=)")
        index = self.index
        index_get = index.get
        queues_get = self.queues.get
        memo_get = self._class_memo.get
        stats = self.stats
        on_hit, on_miss = self._on_hit, self._on_miss
        on_insert, on_remove = self._on_insert, self._on_remove
        # None: a miss, its fill and a SET each ask bin_for
        edges = self._bin_edges
        last_bin = self._last_bin
        bin_for = self.policy.bin_for
        lookup, cache_set, cache_delete = self.lookup, self.set, self.delete
        h1 = h2 = 0
        try:
            for op, key, key_size, value_size, penalty in rows:
                if op > 1:  # DELETE
                    cache_delete(key)
                    continue
                item = index_get(key)
                if op == 0 and item is not None and not item.expires_at:
                    # GET hit
                    self.accesses += 1
                    if wants_hashes:
                        h1, h2 = hashes[key]
                    queue = item.queue
                    queue.stats.hits += 1
                    stats.hits += 1
                    if on_hit is not None:
                        self._in_operation = True
                        on_hit(queue, item, h1, h2)
                        self._in_operation = False
                    lru = queue.lru
                    if lru.head is not item:
                        lru.move_to_front(item)
                    if self._pending_migrations:
                        self._flush_migrations()
                    note(0)
                    continue
                # -1: a size no SET has classed yet or no class holds,
                # or an invalid row
                class_idx = (memo_get(key_size + value_size, -1)
                             if key_size >= 0 and value_size >= 0
                             and penalty >= 0 else -1)
                if class_idx < 0 or op == 0 and item is not None:
                    if op == 1:  # SET
                        cache_set(key, key_size, value_size, penalty)
                        continue
                    item = lookup(key, key_size, value_size, penalty)
                    if item is not None:
                        note(0)
                        continue
                    note(-1)
                    if fill:
                        cache_set(key, key_size, value_size, penalty)
                    continue
                if edges is None:
                    bin_idx = bin_for(penalty)
                else:
                    bin_idx = bisect_left(edges, penalty)
                    if bin_idx > last_bin:
                        bin_idx = last_bin
                queue = queues_get((class_idx, bin_idx))
                if op == 0:  # GET miss
                    self.accesses += 1
                    stats.misses += 1
                    stats.total_miss_penalty += penalty
                    self._in_operation = True
                    if queue is None:
                        queue = self.queue_for(class_idx, bin_idx)
                    queue.stats.misses += 1
                    if on_miss is not None:
                        if wants_hashes:
                            h1, h2 = hashes[key]
                        on_miss(key, class_idx, penalty, h1, h2)
                    self._in_operation = False
                    if self._pending_migrations:
                        self._flush_migrations()
                    note(-1)
                    if not fill:
                        continue
                    if edges is None:  # on_miss may have moved the edges
                        bin_idx = bin_for(penalty)
                        queue = queues_get((class_idx, bin_idx))
                # a SET, or the miss's fill: what set() does
                self.accesses += 1
                self._in_operation = True
                if item is not None:
                    if item.queue is queue:
                        if on_remove is not None:
                            on_remove(queue, item)
                        lru = queue.lru
                        if lru.head is not item:
                            lru.move_to_front(item)
                        item.key_size = key_size
                        item.value_size = value_size
                        item.penalty = penalty
                        item.value = None
                        item.expires_at = 0.0
                        item.cas = 0
                    else:
                        self._unlink(item)
                        item = None
                if item is None:
                    if queue is None:
                        queue = self.queue_for(class_idx, bin_idx)
                    lru = queue.lru
                    if queue.slabs * queue.slots_per_slab - lru.size < 1:
                        try:
                            self._ensure_slot(queue)
                        except OutOfMemoryError:
                            stats.set_failures += 1
                            self._in_operation = False
                            if self._pending_migrations:
                                self._flush_migrations()
                            continue
                    item = Item(key, key_size, value_size, penalty, None,
                                0.0, queue)
                    lru.push_front(item)
                    index[key] = item
                queue.stats.sets += 1
                stats.sets += 1
                if on_insert is not None:
                    on_insert(queue, item)
                self._in_operation = False
                if self._pending_migrations:
                    self._flush_migrations()
        finally:
            self._in_operation = False
            if self._pending_migrations:
                self._flush_migrations()

    def set(self, key: object, key_size: int, value_size: int,
            penalty: float, value: object = None,
            expires_at: float = 0.0) -> bool:
        """Store an item; returns False if it cannot be stored.

        A key that is live in the queue the item maps to is re-stored in
        place: the policy hears ``on_remove`` for it, the item keeps its
        slot and its object and is promoted (one ``move_to_front``),
        takes the new sizes, penalty, value and expiry,
        its CAS unique is reset to 0, and the policy hears ``on_insert``.  A
        live key that maps to another queue is unlinked first, so it
        frees its old slot before the new queue is asked for one.
        ``expires_at`` is an absolute clock time (0.0 = never).
        """
        item_size = key_size + value_size
        if key_size < 0 or value_size < 0 or item_size <= 0:
            raise InvalidItemError(
                f"invalid sizes key={key_size} value={value_size}")
        if not (penalty >= 0):  # catches NaN and negatives
            raise InvalidItemError(f"penalty must be >= 0, got {penalty}")
        self.accesses += 1
        class_idx = self._class_memo.get(item_size)
        if class_idx is None:
            class_idx = self.size_classes.classify(item_size)
        if class_idx < 0:
            self.stats.rejected_too_large += 1
            return False
        edges = self._bin_edges
        if edges is None:
            bin_idx = self.policy.bin_for(penalty)
        else:
            bin_idx = bisect_left(edges, penalty)
            if bin_idx > self._last_bin:
                bin_idx = self._last_bin

        self._in_operation = True
        try:
            queue = self.queues.get((class_idx, bin_idx))
            item = self.index.get(key)
            if item is not None:
                if item.queue is queue:
                    if self._on_remove is not None:
                        self._on_remove(queue, item)
                    lru = queue.lru
                    if lru.head is not item:
                        lru.move_to_front(item)
                    item.key_size = key_size
                    item.value_size = value_size
                    item.penalty = penalty
                    item.value = value
                    item.expires_at = expires_at
                    item.cas = 0
                else:
                    self._unlink(item)
                    item = None
            if item is None:
                if queue is None:
                    queue = self.queue_for(class_idx, bin_idx)
                lru = queue.lru
                if queue.slabs * queue.slots_per_slab - lru.size < 1:
                    try:
                        self._ensure_slot(queue)
                    except OutOfMemoryError:
                        self.stats.set_failures += 1
                        return False
                item = Item(key, key_size, value_size, penalty, value,
                            expires_at, queue)
                lru.push_front(item)
                self.index[key] = item
            queue.stats.sets += 1
            self.stats.sets += 1
            if self._on_insert is not None:
                self._on_insert(queue, item)
            return True
        finally:
            self._in_operation = False
            if self._pending_migrations:
                self._flush_migrations()

    def cas_unique(self, item: Item) -> int:
        """The CAS unique a ``gets`` reports for ``item``.

        Issued on the first ask after each store, which reset it to 0:
        the next :attr:`cas_tick`.  A unique is never 0, so a ``cas``
        carrying one never matches an item stored since its ``gets``.
        """
        cas = item.cas
        if not cas:
            self.cas_tick = item.cas = cas = self.cas_tick + 1
        return cas

    def delete(self, key: object) -> bool:
        """Remove ``key``; returns True if it was present."""
        self.accesses += 1
        item = self.index.get(key)
        if item is None:
            return False
        self._unlink(item)
        self.stats.deletes += 1
        return True

    def touch(self, key: object, expires_at: float) -> bool:
        """Update a live item's expiry; returns False if absent/expired."""
        item = self.index.get(key)
        if item is None:
            return False
        if item.expires_at and self.clock() >= item.expires_at:
            self._unlink(item)
            self.stats.expired += 1
            return False
        item.expires_at = expires_at
        return True

    def flush_all(self) -> int:
        """Drop every item (memcached ``flush_all``); slabs keep their
        class assignments, exactly like memcached's lazy invalidation.
        Returns the number of items dropped."""
        keys = list(self.index)
        for key in keys:
            self._unlink(self.index[key])
        self.stats.flushes += 1
        return len(keys)

    def close(self) -> None:
        """Tear the cache down for good, so reference counting frees it.

        LRU neighbours, an item and its queue, the cache and its policy
        all point at one another, so a dropped cache would otherwise
        wait for CPython's cyclic collector.  This unlinks every item,
        empties every queue and has the policy drop its state
        (``policy.detach()``), and it lets go of its timeline, whose
        ``snapshot_fn`` may point back at the cache.  The slab counts
        and stats stay readable; nothing else works after.
        """
        self.policy.detach()
        self.timeline = None
        for queue in self.queues.values():
            lru = queue.lru
            for item in lru:
                item.prev = item.next = item.queue = None
            lru.head = lru.tail = None
            lru.size = 0
            queue.policy_data = None
        self.index.clear()

    def __contains__(self, key: object) -> bool:
        return key in self.index

    def __len__(self) -> int:
        return len(self.index)

    @property
    def used_bytes(self) -> int:
        """Item bytes currently stored (ignoring slot rounding)."""
        return sum(i.total_size for i in self.index.values())

    # ------------------------------------------------------------------
    # space mechanics
    # ------------------------------------------------------------------
    def _ensure_slot(self, queue: Queue) -> None:
        """Make sure ``queue`` has at least one free slot."""
        guard = 0
        lru = queue.lru
        while queue.slabs * queue.slots_per_slab - lru.size < 1:
            guard += 1
            if guard > self.pool.total + 4:
                raise PolicyError(
                    f"pressure resolution for {queue.qid} did not converge")
            if self.pool.free > 0 and self.policy.wants_free_slab(queue):
                self.pool.acquire(queue.qid)
                queue.slabs += 1
                queue.stats.slabs_received += 1
                continue
            must_migrate = queue.slabs == 0
            donor = self.policy.resolve_pressure(queue, must_migrate)
            if donor is None and must_migrate:
                if self.policy.allow_fallback_donor:
                    donor = default_donor(self, queue)
                if donor is None:
                    raise OutOfMemoryError(
                        f"no donor for empty queue {queue.qid}")
            if donor is None or donor is queue:
                self._evict_one(queue)
            else:
                self._migrate_slab(donor, queue)

    def _evict_one(self, queue: Queue) -> None:
        """Evict one item from ``queue`` (policy-chosen, default LRU).

        The in-place replacement of a pressured SET, and every eviction
        of a policy that picks its own victims; a migration's LRU run
        goes through :meth:`_migrate_slab` instead.
        """
        victim = (self.policy.choose_victim(queue)
                  if self._policy_picks_victims else None)
        if victim is not None:
            if victim.queue is not queue:
                raise PolicyError(
                    f"policy chose victim {victim.key!r} from queue "
                    f"{(victim.class_idx, victim.bin_idx)}, not {queue.qid}")
            queue.lru.remove(victim)
        else:
            victim = queue.lru.pop_back()
        if victim is None:
            raise OutOfMemoryError(f"queue {queue.qid} has nothing to evict")
        del self.index[victim.key]
        queue.stats.evictions += 1
        self.stats.evictions += 1
        if self.timeline is not None:
            self.timeline.note_eviction()
        if self.events is not None:
            self.events.record("eviction", self.accesses, queue=queue.qid,
                               key=victim.key, penalty=victim.penalty,
                               size=victim.total_size)
        self.policy.on_evict(queue, (victim,))

    def _migrate_slab(self, donor: Queue, receiver: Queue) -> None:
        """Move one slab from ``donor`` to ``receiver``.

        Evicts the donor's LRU items until one slab's worth of slots is
        free (the paper's discard-and-compact), then transfers ownership.
        Under strict LRU the surplus leaves as one run off the stack
        bottom: unlinked, dropped from the index and counted together,
        then handed to the policy in one ``on_evict``, LRU first — what
        :meth:`_evict_one` per item does, in the order it does it per
        kind of step.
        """
        if donor.slabs < 1:
            raise PolicyError(
                f"policy {self.policy.name!r} chose slabless donor {donor.qid}")
        lru = donor.lru
        evicted = max(0, lru.size - (donor.slabs - 1) * donor.slots_per_slab)
        if self._policy_picks_victims:
            for _ in range(evicted):
                self._evict_one(donor)
        elif evicted:
            victims = lru.pop_back_run(evicted)
            index = self.index
            for victim in victims:
                del index[victim.key]
            donor.stats.evictions += evicted
            self.stats.evictions += evicted
            if self.timeline is not None:
                self.timeline.note_eviction(evicted)
            events = self.events
            if events is not None:
                for victim in victims:
                    events.record("eviction", self.accesses, queue=donor.qid,
                                  key=victim.key, penalty=victim.penalty,
                                  size=victim.total_size)
            self.policy.on_evict(donor, victims)
        self.pool.transfer(donor.qid, receiver.qid)
        donor.slabs -= 1
        receiver.slabs += 1
        donor.stats.slabs_donated += 1
        receiver.stats.slabs_received += 1
        self.stats.migrations += 1
        if self.timeline is not None:
            self.timeline.note_migration()
        if self.events is not None:
            self.events.record("slab_migration", self.accesses,
                               donor=donor.qid, receiver=receiver.qid,
                               evicted=evicted)

    def migrate(self, donor: Queue, receiver: Queue) -> None:
        """Proactively move one slab from ``donor`` to ``receiver``.

        Public entry point for policies that rebalance on a timer (PSA,
        Facebook's age balancer, the 1.4.11 automover, LAMA) rather than
        only under SET pressure.  A request made from inside a policy
        callback is deferred until the triggering cache operation
        completes (the migration's evictions must not race the item
        being served).
        """
        if donor is receiver:
            raise PolicyError("donor and receiver are the same queue")
        if self._in_operation:
            self._pending_migrations.append((donor, receiver))
        else:
            self._migrate_slab(donor, receiver)

    def _flush_migrations(self) -> None:
        # Requests are queued only inside an operation and this runs
        # after one, so the list is complete when it is taken.
        pending, self._pending_migrations = self._pending_migrations, []
        for donor, receiver in pending:
            # Re-validate: the pressure path may have drained the donor
            # between the request and now.
            if donor.slabs >= 1 and donor is not receiver:
                self._migrate_slab(donor, receiver)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Full structural audit (tests + property checks)."""
        self.pool.check_invariants()
        total_items = 0
        for q in self.queues.values():
            q.check_invariants()
            assert q.slabs == self.pool.owned_by(q.qid), (
                f"queue {q.qid} slab count disagrees with pool")
            total_items += len(q.lru)
            for item in q.lru:
                assert self.index.get(item.key) is item, (
                    f"queue item {item.key!r} not in index")
        assert total_items == len(self.index), (
            f"{total_items} queued items vs {len(self.index)} indexed")

    def _unlink(self, item: Item) -> None:
        """Remove an item from its queue and the index (not an eviction)."""
        queue = item.queue
        queue.lru.remove(item)
        del self.index[item.key]
        if self._on_remove is not None:
            self._on_remove(queue, item)

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (f"SlabCache[{self.policy.name}] "
                f"{fmt_bytes(self.pool.total * self.pool.slab_size)} "
                f"({self.pool.total} slabs x "
                f"{fmt_bytes(self.pool.slab_size)}), "
                f"{len(self.index)} items, hit_ratio={self.stats.hit_ratio:.3f}")
