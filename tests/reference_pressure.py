"""The pressure path as earlier commits had it — the ``==`` oracles.

Nothing here is a test; the differential suites import it.

* :class:`RecomputingScan` / :class:`RecomputingArbiter` — the donor
  scan before Eq. 2 values were kept between mutations (PR 13): it
  walks ``cache.iter_queues()``, asks ``can_donate()``, finds the state
  in ``_states[q.qid]`` and evaluates every sum afresh.
* :class:`PerItemEvictionCache` — ``SlabCache`` whose migration evicts
  the donor's surplus one ``_evict_one`` at a time: unlink, index
  delete, counters, timeline note, event and policy hand-over per item.
* :class:`TwoIndexGhostList` and :class:`TwoIndexGhosts` — a ghost list
  with a key index of its own, pushed through the generic removal when
  full, under a policy whose ``ghost_owner`` maps key -> queue state and
  is kept in step with those indexes by hand; its lists take an
  eviction run one ``push`` per item, where ``GhostList.push_run``
  takes it whole.

``cache_pair`` puts the first three together per policy name.
"""

from __future__ import annotations

from repro.cache import SizeClassConfig, SlabCache
from repro.cache.errors import OutOfMemoryError, PolicyError
from repro.core.pama import PamaPolicy, PamaQueueState
from repro.core.prepama import PrePamaPolicy
from repro.tenancy import TenantArbiter


def eq2(weights, masses):
    return sum(w * v for w, v in zip(weights, masses))


class RecomputingScan:
    """``PamaPolicy.resolve_pressure`` before PR 13."""

    def resolve_pressure(self, queue, must_migrate):
        self._maybe_rollover()
        values = queue.policy_data.values
        incoming = eq2(values.weights, values.inc)

        donor = None
        min_out = float("inf")
        for q in self.cache.iter_queues():
            if not q.can_donate():
                continue
            values = self._states[q.qid].values
            out = eq2(values.weights, values.out)
            if out < min_out:
                donor, min_out = q, out
        if donor is None:
            return None

        if donor is queue:
            self.migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "self")
            return queue
        if incoming <= min_out and not must_migrate:
            self.migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "declined")
            return None
        if incoming <= min_out:
            self.migrations_forced += 1
            self._record_decision(queue, donor, incoming, min_out, "forced")
        else:
            self.migrations_approved += 1
            self._record_decision(queue, donor, incoming, min_out, "approved")
        return donor


class RecomputingArbiter(TenantArbiter):
    """``TenantArbiter.resolve_pressure`` before PR 13."""

    def resolve_pressure(self, queue, must_migrate):
        for inner in self._inners:
            inner._maybe_rollover()
        tenant = queue.bin_idx // self._nbins
        cfg = self.tenants[tenant]
        values = queue.policy_data.values
        incoming = eq2(values.weights, values.inc)
        owned = self.tenant_slabs()
        nbins = self._nbins
        allow_cross = (self.allow_steal
                       and (cfg.cap_slabs is None
                            or owned[tenant] < cfg.cap_slabs))
        sla_r = cfg.sla_weight

        donor = None
        donor_tenant = tenant
        min_out = float("inf")
        for q in self.cache.iter_queues():
            if not q.can_donate():
                continue
            d = q.bin_idx // nbins
            values = q.policy_data.values
            out = eq2(values.weights, values.out)
            if d != tenant:
                if not allow_cross:
                    continue
                if owned[d] - 1 < self.tenants[d].reserve_slabs:
                    continue
                out *= (self.tenants[d].sla_weight / sla_r) \
                    * self.steal_margin
            if out < min_out:
                donor, donor_tenant, min_out = q, d, out
        if donor is None:
            return None

        cross = donor_tenant != tenant
        if donor is queue:
            self._inners[tenant].migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "self")
            return queue
        if incoming <= min_out and not must_migrate:
            self._inners[tenant].migrations_declined += 1
            if cross:
                self.steals_declined += 1
            self._record_decision(queue, donor, incoming, min_out,
                                  "steal-declined" if cross else "declined")
            return None
        if incoming <= min_out:
            self._inners[tenant].migrations_forced += 1
            if cross:
                self.steals_forced += 1
            self._record_decision(queue, donor, incoming, min_out,
                                  "steal-forced" if cross else "forced")
        else:
            self._inners[tenant].migrations_approved += 1
            if cross:
                self.steals_approved += 1
            self._record_decision(queue, donor, incoming, min_out,
                                  "steal-approved" if cross else "approved")
        return donor


class PerItemEvictionCache(SlabCache):
    """``_evict_one`` / ``_migrate_slab`` as of PR 18."""

    def _evict_one(self, queue):
        victim = (self.policy.choose_victim(queue)
                  if self._policy_picks_victims else None)
        if victim is not None:
            if (victim.class_idx, victim.bin_idx) != queue.qid:
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

    def _migrate_slab(self, donor, receiver):
        if donor.slabs < 1:
            raise PolicyError(
                f"policy {self.policy.name!r} chose slabless donor {donor.qid}")
        target_used = (donor.slabs - 1) * donor.slots_per_slab
        lru = donor.lru
        evicted = 0
        while lru.size > target_used:
            self._evict_one(donor)
            evicted += 1
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


class TwoIndexGhostEntry:
    __slots__ = ("key", "penalty", "prev", "next", "seg")

    def __init__(self, key, penalty):
        self.key = key
        self.penalty = penalty
        self.prev = None  # toward ghost top
        self.next = None  # toward ghost bottom
        self.seg = 0


class TwoIndexGhostList:
    """``GhostList`` as of PR 18."""

    def __init__(self, seg_len, num_segments):
        self.seg_len = seg_len
        self.num_segments = num_segments
        self.capacity = seg_len * num_segments
        self.head = None
        self.tail = None
        self.index = {}
        self.bounds = [None] * num_segments
        self.n = 0

    def __contains__(self, key):
        return key in self.index

    def __len__(self):
        return self.n

    def lookup(self, key):
        return self.index.get(key)

    def __iter__(self):
        node = self.head
        while node is not None:
            nxt = node.next
            yield node
            node = nxt

    def push(self, key, penalty):
        old = self.index.get(key)
        if old is not None:
            self._remove_entry(old)

        entry = TwoIndexGhostEntry(key, penalty)
        old_len = self.n
        bounds = self.bounds
        for k in range(self.num_segments - 1, 0, -1):
            p_k = k * self.seg_len
            node = bounds[k]
            if node is not None:
                newly = node.prev
            elif old_len == p_k:
                newly = self.tail
            else:
                newly = None
            if newly is not None:
                newly.seg = k
            bounds[k] = newly

        entry.next = self.head
        entry.prev = None
        if self.head is not None:
            self.head.prev = entry
        self.head = entry
        if self.tail is None:
            self.tail = entry
        entry.seg = 0
        bounds[0] = entry
        self.n += 1
        self.index[key] = entry

        if self.n > self.capacity:
            dropped = self.tail
            assert dropped is not None
            self._remove_entry(dropped)
            return dropped.key
        return None

    def remove(self, key):
        entry = self.index.get(key)
        if entry is None:
            return False
        self._remove_entry(entry)
        return True

    def _remove_entry(self, entry):
        s = entry.seg
        bounds = self.bounds
        for k in range(s + 1, self.num_segments):
            node = bounds[k]
            if node is None:
                break
            node.seg = k - 1
            bounds[k] = node.next
        if bounds[s] is entry:
            bounds[s] = entry.next if entry.next is not None else None

        prev, nxt = entry.prev, entry.next
        if prev is not None:
            prev.next = nxt
        else:
            self.head = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        entry.prev = entry.next = None
        self.n -= 1
        del self.index[entry.key]

    def check_invariants(self):
        assert self.n == len(self.index) <= self.capacity
        expected_bounds = [None] * self.num_segments
        d = 0
        node = self.head
        prev = None
        while node is not None:
            assert node.prev is prev
            want = d // self.seg_len
            assert want < self.num_segments
            assert node.seg == want
            if d % self.seg_len == 0:
                expected_bounds[want] = node
            assert self.index.get(node.key) is node
            prev = node
            node = node.next
            d += 1
        assert d == self.n
        assert self.tail is prev
        assert self.bounds == expected_bounds


class TwoIndexGhosts:
    """``PamaPolicy``'s ghost bookkeeping as of PR 18, as a mixin."""

    def on_queue_created(self, queue):
        super().on_queue_created(queue)
        state = queue.policy_data
        state.ghost = TwoIndexGhostList(state.ghost.seg_len,
                                        state.ghost.num_segments)

    def _contribution(self, penalty):
        return penalty if self.penalty_aware else 1.0

    def on_miss(self, key, class_idx, penalty, h1=0, h2=0):
        self._maybe_rollover()
        state = self.ghost_owner.get(key)
        if state is None:
            return
        entry = state.ghost.lookup(key)
        assert entry is not None, \
            f"ghost_owner has {key!r} but its ghost list does not"
        state.values.add_incoming(entry.seg, self._contribution(entry.penalty))
        timeline = self.cache.timeline
        if timeline is not None:
            timeline.note_ghost_hit()
        events = self.cache.events
        if events is not None:
            events.record("ghost_hit", self.cache.accesses, key=key,
                          queue=state.qid, seg=entry.seg,
                          penalty=entry.penalty)

    def on_insert(self, queue, item):
        state = self.ghost_owner.pop(item.key, None)
        if state is not None:
            state.ghost.remove(item.key)

    def on_evict(self, queue, items):
        state = queue.policy_data
        for item in items:
            dropped = state.ghost.push(item.key, item.penalty)
            self.ghost_owner[item.key] = state
            if dropped is not None:
                self.ghost_owner.pop(dropped, None)

    def on_remove(self, queue, item):
        state = self.ghost_owner.pop(item.key, None)
        if state is not None:
            state.ghost.remove(item.key)

    def check_ghost_sync(self):
        ghosted = {}
        for state in self._states.values():
            state.ghost.check_invariants()
            for entry in state.ghost:
                assert entry.key not in ghosted, (
                    f"key {entry.key!r} in two ghosts")
                ghosted[entry.key] = state
        assert ghosted.keys() == self.ghost_owner.keys()
        for key, state in self.ghost_owner.items():
            assert ghosted[key] is state


class ReferencePama(TwoIndexGhosts, RecomputingScan, PamaPolicy):
    pass


class ReferencePrePama(TwoIndexGhosts, RecomputingScan, PrePamaPolicy):
    pass


class ReferenceArbiter(RecomputingArbiter):
    def __init__(self, tenants, config=None, **kwargs):
        super().__init__(tenants, config=config, **kwargs)
        self._inners = [ReferencePama(self.config) for _ in self.tenants]


#: policy name -> (the policy under test, its reference), each a factory
#: taking a ``PamaConfig``.
POLICY_PAIRS = {
    "pama": (PamaPolicy, ReferencePama),
    "pre-pama": (PrePamaPolicy, ReferencePrePama),
    "tenant-arbiter": (lambda cfg: TenantArbiter(1, config=cfg),
                       lambda cfg: ReferenceArbiter(1, config=cfg)),
}


def cache_pair(name, config, capacity_bytes, slab_size):
    """``(cache under test, reference cache)`` of equal geometry."""
    make, make_reference = POLICY_PAIRS[name]
    return (SlabCache(capacity_bytes, make(config),
                      SizeClassConfig(slab_size=slab_size)),
            PerItemEvictionCache(capacity_bytes, make_reference(config),
                                 SizeClassConfig(slab_size=slab_size)))


def ghost_directory(policy) -> dict:
    """key -> qid of the subclass whose ghost holds it, from either
    shape of ``ghost_owner`` (and across an arbiter's tenants)."""
    out = {}
    for inner in getattr(policy, "_inners", [policy]):
        for key, filed in inner.ghost_owner.items():
            assert key not in out
            state = (filed if isinstance(filed, PamaQueueState)
                     else filed.ghost.owner)
            out[key] = state.qid
    return out
