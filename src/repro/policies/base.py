"""Allocation-policy interface.

A policy decides two things the substrate cannot:

1. **Binning** — which penalty bin (subclass) an item belongs to.
   Non-penalty-aware policies use a single bin, making queues identical
   to Memcached classes; PAMA returns one of its five penalty ranges.
2. **Pressure resolution** — when a queue needs a slot, the free pool is
   empty, and the paper's question arises: *where should a unit of
   memory come from?*  The policy names a donor queue (slab migration)
   or declines (evict within the requesting queue).

Policies observe every hit / miss / insert / evict so they can maintain
whatever bookkeeping their decision needs (PSA's densities, Facebook's
LRU ages, PAMA's segment values).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.cache import SlabCache
    from repro.cache.item import Item
    from repro.cache.queue import Queue


class AllocationPolicy(ABC):
    """Base class for slab (re)allocation policies."""

    #: short name used in reports and CLI (override in subclasses).
    name = "base"

    #: when a slabless queue needs space and the policy declines to name
    #: a donor, the cache normally picks one via :func:`default_donor`.
    #: Policies that model Memcached's "SERVER_ERROR out of memory"
    #: semantics set this to False and the SET fails instead.
    allow_fallback_donor = True

    #: True when the policy's bookkeeping probes Bloom filters on the
    #: access path (PAMA with the Bloom tracker).  The cache then
    #: computes the request key's base hash pair *once* per operation
    #: (:func:`~repro.bloom.hashing.hash_pair` with seed 0) and passes
    #: it to ``on_hit``/``on_miss``; policies that don't probe filters
    #: skip the hashing entirely.
    wants_key_hashes = False

    def __init__(self) -> None:
        self.cache: SlabCache | None = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, cache: SlabCache) -> None:
        """Bind the policy to a cache. Called once by SlabCache.__init__."""
        if self.cache is not None:
            # imported here: importing repro.cache imports this module
            from repro.cache.errors import PolicyError

            raise PolicyError(f"policy {self.name!r} is already attached")
        self.cache = cache

    def detach(self) -> None:
        """Unbind the policy from its cache for good (run by
        :meth:`SlabCache.close`).  A policy whose own state links
        objects in reference cycles unlinks them here."""
        self.cache = None

    def on_queue_created(self, queue: Queue) -> None:
        """A queue was lazily created; install per-queue state if needed."""

    # -- binning -------------------------------------------------------
    def bin_for(self, penalty: float) -> int:
        """Penalty bin for an item; default policies are penalty-blind."""
        return 0

    def bin_edges(self) -> tuple[float, ...] | None:
        """Static penalty-bin edges, or ``None`` when binning is dynamic.

        ``SlabCache.set`` and ``apply_rows`` bin a miss or a SET by
        these edges (``bin_for`` must equal "bisect_left over the edges,
        clamped to the last bin"; an empty tuple means a single bin 0).
        Policies whose binning depends on mutable state — learned edges,
        the current tenant — must return ``None``: the cache then asks
        ``bin_for`` per miss, fill and SET, the fill after the miss's
        ``on_miss`` has run.  The base implementation
        answers for any subclass that kept the penalty-blind default and
        refuses (``None``) for any that overrode ``bin_for`` without
        also overriding this hook.
        """
        if type(self).bin_for is AllocationPolicy.bin_for:
            return ()
        return None

    # -- event observation ----------------------------------------------
    def on_hit(self, queue: Queue, item: Item,
               h1: int = 0, h2: int = 0) -> None:
        """A GET hit ``item``; fired *before* the LRU promotion.

        ``(h1, h2)`` is the request key's base hash pair, supplied only
        when :attr:`wants_key_hashes` is set (0, 0 otherwise — a real
        ``h2`` is always odd, so ``h2 == 0`` is an unambiguous "absent").
        """

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        """A GET missed. ``class_idx``/``penalty`` are -1/nan when unknown.

        ``(h1, h2)`` follows the same contract as :meth:`on_hit`.
        """

    def on_insert(self, queue: Queue, item: Item) -> None:
        """``item`` was stored (fired after it joined the queue MRU)."""

    def on_evict(self, queue: Queue, items: Sequence[Item]) -> None:
        """A run of ``queue``'s items was evicted under space pressure.

        ``items`` is the whole run, LRU first, already unlinked and out
        of the index: a migration's surplus in one call, or the one item
        of an in-place eviction (a 1-tuple).
        """

    def on_remove(self, queue: Queue, item: Item) -> None:
        """``item`` left ``queue`` for a non-pressure reason (DELETE, or a
        SET storing the key again).  A SET into the queue the item lives
        in re-stores it in place: ``on_insert`` follows for the same
        object, whose CAS unique the store reset to 0 (the next ``gets``
        issues one, ``SlabCache.cas_unique``) — unless it is a plain
        ``Item`` and the store carries a value or an expiry, which
        replaces it: ``on_insert`` then hears the new ``StoredItem``,
        as after ``touch`` or ``cas_unique`` of a plain ``Item``."""

    # -- eviction decisions -----------------------------------------------
    def choose_victim(self, queue: Queue) -> Item | None:
        """Pick the item to evict from ``queue`` under pressure.

        Default None = strict LRU (the queue's stack bottom), which is
        what Memcached and every scheme in the paper use.  Item-level
        policies (GreedyDual-Size, the Belady oracle) override this.
        The returned item must currently live in ``queue``.
        """
        return None

    # -- allocation decisions --------------------------------------------
    def wants_free_slab(self, queue: Queue) -> bool:
        """May ``queue`` take a slab from the free pool?  Default: yes.

        All evaluated schemes grant free slabs on demand during warm-up;
        the hook exists so capped/partitioned policies can be expressed.
        """
        return True

    @abstractmethod
    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        """Decide where ``queue``'s needed slot comes from.

        Returns a donor queue (slab migration donor → requester), the
        requesting queue itself, or None — the latter two both mean
        "evict one item inside the requesting queue".

        ``must_migrate`` is True when the requesting queue holds no slab
        (nothing to evict locally), in which case returning None makes
        the cache fall back to :func:`default_donor`.
        """


def default_donor(cache: SlabCache, requester: Queue) -> Queue | None:
    """Fallback donor: the queue with the most free slots, then most slabs.

    Used when a queue with zero slabs needs space but the policy did not
    name a donor.  Returns None only if no other queue owns a slab (the
    cache then raises OutOfMemoryError and the SET fails).
    """
    best: Queue | None = None
    best_key = (-1, -1)
    for q in cache.queues.values():
        if q is requester or not q.can_donate():
            continue
        key = (q.free_slots, q.slabs)
        if key > best_key:
            best, best_key = q, key
    return best
