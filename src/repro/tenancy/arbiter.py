"""TenantArbiter: penalty-aware memory arbitration between tenants.

Production caches serve many applications from one memory pool.  The
arbiter layers Memshare-style tenancy (per-tenant guaranteed slab
reserves plus one elastic pool) on top of PAMA: each tenant runs its
own :class:`~repro.core.pama.PamaPolicy` over a private strip of
penalty bins, and cross-tenant slab *stealing* is decided exactly the
way PAMA decides intra-workload migration — by comparing the
requester's Eq.1 incoming value (ghost-hit mass the extra slab would
capture) against the donor slab's Eq.2 outgoing value (penalty mass
the candidate slab still serves).

Queue encoding: the substrate keys queues by ``(class_idx, bin_idx)``;
the arbiter widens the bin axis to ``tenant * num_bins + inner_bin``,
so every SlabCache mechanism (slab ownership, migration, LRU, stats)
works unchanged and a cross-tenant steal is just a slab migration
between queues whose ``bin_idx // num_bins`` differ.

Reserve semantics (Memshare, arXiv 1610.08129):

* a tenant may always grow while below its ``reserve_slabs``;
* free-pool grabs beyond the reserve must leave enough free slabs to
  cover every *other* tenant's still-unfilled reserve;
* a steal may only take from a donor tenant that stays at or above its
  reserve afterwards — so once a reserve is filled it never dips.

With a single tenant and no reserve the arbiter reduces to plain PAMA
decision-for-decision (the differential tests pin this ``==``-exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy
from repro.policies.base import AllocationPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.cache import SlabCache
    from repro.cache.item import Item
    from repro.cache.queue import Queue
    from repro.core.value import ValueAccumulator


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant arbitration contract.

    Attributes:
        name: label used in reports and scenario output.
        reserve_slabs: slabs guaranteed to this tenant; below it the
            tenant grows freely and no steal may push it back under.
        cap_slabs: hard ceiling on owned slabs (None = elastic).  Equal
            reserves == caps turns the arbiter into static partitioning
            (the baseline the scenarios compare against).
        sla_weight: weight of this tenant's service time in the total
            weighted service-time objective.
    """

    name: str
    reserve_slabs: int = 0
    cap_slabs: int | None = None
    sla_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.reserve_slabs < 0:
            raise ValueError("reserve_slabs must be >= 0")
        if self.cap_slabs is not None and self.cap_slabs < self.reserve_slabs:
            raise ValueError("cap_slabs must be >= reserve_slabs")
        if self.sla_weight <= 0:
            raise ValueError("sla_weight must be positive")


class _TenantView:
    """What a per-tenant inner PamaPolicy sees as "its cache".

    Forwards the attributes the policy's bookkeeping reads (the global
    access tick, events, timeline).  The inner never makes allocation
    decisions (the arbiter replicates that logic with cross-tenant
    eligibility) and only ever sees the queues created for it, so
    diagnostics like ``candidate_values`` stay tenant-scoped.
    """

    __slots__ = ("_cache",)

    def __init__(self, cache: SlabCache) -> None:
        self._cache = cache

    @property
    def accesses(self) -> int:
        return self._cache.accesses

    @property
    def events(self):
        return self._cache.events

    @property
    def timeline(self):
        return self._cache.timeline


class TenantArbiter(AllocationPolicy):
    """Per-tenant PAMA with reserves, an elastic pool, and stealing.

    Args:
        tenants: tenant contracts (or an int for that many default
            contracts named ``t0..tN-1``).
        config: shared :class:`PamaConfig` for every inner policy.
        allow_steal: False freezes cross-tenant movement entirely —
            combined with reserves == caps this is the static-partition
            baseline.
        steal_margin: multiplier (> 0) on the donor's outgoing value
            that a cross-tenant steal must beat; > 1 demands a larger
            penalty-mass advantage before taking another tenant's slab
            (intra-tenant migration always compares at margin 1, which
            keeps the single-tenant case exactly PAMA).
    """

    name = "tenant-arbiter"

    #: duck-typed marker the simulator checks (no sim -> tenancy import):
    #: its replay then tags every row with the row's tenant and keeps
    #: per-tenant totals.
    wants_tenants = True

    #: the fallback donor ignores reserves; an empty queue with no
    #: eligible donor must fail the SET instead of silently stealing.
    allow_fallback_donor = False

    def __init__(self, tenants: int | Sequence[TenantConfig],
                 config: PamaConfig | None = None,
                 allow_steal: bool = True,
                 steal_margin: float = 1.0) -> None:
        super().__init__()
        if isinstance(tenants, int):
            if tenants < 1:
                raise ValueError("need at least one tenant")
            tenants = [TenantConfig(name=f"t{i}") for i in range(tenants)]
        self.tenants: tuple[TenantConfig, ...] = tuple(tenants)
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if steal_margin <= 0:
            raise ValueError("steal_margin must be positive")
        self.config = config or PamaConfig()
        self.allow_steal = allow_steal
        self.steal_margin = steal_margin
        self._nbins = self.config.num_bins
        self._inners: list[PamaPolicy] = [PamaPolicy(self.config)
                                          for _ in self.tenants]
        #: every tenant's (queue, its values) in ``cache.queues`` order:
        #: ``PamaPolicy._scan`` across the inners.
        self._scan: list[tuple[Queue, ValueAccumulator]] = []
        self.wants_key_hashes = self.config.tracker == "bloom"
        #: tenant id of the request being served; the simulator sets it
        #: as the cache pulls each row, before the row's operation.
        self.current_tenant = 0
        # steal accounting (cross-tenant decisions only; intra-tenant
        # migrations count on the usual cache.stats.migrations).
        self.steals_approved = 0
        self.steals_declined = 0
        self.steals_forced = 0
        # cached per-tenant slab ownership; recomputed when the pool's
        # (free, migrations) token moves — the only ways ownership can
        # change are a free-pool acquire or a slab transfer.
        self._owned: list[int] = [0] * len(self.tenants)
        self._slabs_token: tuple[int, int] | None = None
        #: latches True per tenant once its reserve is first filled;
        #: from then on the eligibility filter keeps it filled (the
        #: property tests assert this invariant).
        self._reserve_met = [cfg.reserve_slabs == 0 for cfg in self.tenants]

    # -- lifecycle -----------------------------------------------------
    @property
    def num_tenants(self) -> int:
        return len(self.tenants)

    def attach(self, cache: SlabCache) -> None:
        super().attach(cache)
        for inner in self._inners:
            inner.attach(_TenantView(cache))

    def detach(self) -> None:
        for inner in self._inners:
            inner.detach()
        super().detach()

    def inner_policy(self, tenant: int) -> PamaPolicy:
        """The per-tenant PAMA instance (diagnostics and tests)."""
        return self._inners[tenant]

    def tenant_of(self, queue: Queue) -> int:
        return queue.bin_idx // self._nbins

    # -- slab ownership ------------------------------------------------
    def tenant_slabs(self) -> list[int]:
        """Slabs owned per tenant (cached; recomputed on pool change)."""
        cache = self.cache
        token = (cache.pool.free, cache.stats.migrations)
        if token != self._slabs_token:
            owned = [0] * len(self.tenants)
            nbins = self._nbins
            for q in cache.queues.values():
                if q.slabs:
                    owned[q.bin_idx // nbins] += q.slabs
            self._owned = owned
            self._slabs_token = token
            met = self._reserve_met
            for t, cfg in enumerate(self.tenants):
                if not met[t] and owned[t] >= cfg.reserve_slabs:
                    met[t] = True
        return self._owned

    def _unfilled_reserve_elsewhere(self, tenant: int,
                                    owned: list[int]) -> int:
        return sum(max(0, cfg.reserve_slabs - owned[t])
                   for t, cfg in enumerate(self.tenants) if t != tenant)

    # -- binning -------------------------------------------------------
    def bin_for(self, penalty: float) -> int:
        t = self.current_tenant
        return t * self._nbins + self._inners[t].bin_for(penalty)

    def bin_edges(self) -> tuple[float, ...] | None:
        # The bin depends on ``current_tenant``, re-pointed before every
        # request — there is no static edge table to precompute from.
        return None

    # -- event dispatch ------------------------------------------------
    def on_queue_created(self, queue: Queue) -> None:
        self._inners[queue.bin_idx // self._nbins].on_queue_created(queue)
        self._scan.append((queue, queue.policy_data.values))

    def on_hit(self, queue: Queue, item: Item,
               h1: int = 0, h2: int = 0) -> None:
        self._inners[queue.bin_idx // self._nbins].on_hit(queue, item, h1, h2)

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        # Keys are namespaced per tenant (mix_tenants strides them), so
        # only the requesting tenant's ghosts can know this key.
        self._inners[self.current_tenant].on_miss(key, class_idx, penalty,
                                                  h1, h2)

    def on_insert(self, queue: Queue, item: Item) -> None:
        self._inners[queue.bin_idx // self._nbins].on_insert(queue, item)

    def on_evict(self, queue: Queue, items: Sequence[Item]) -> None:
        # A run comes from one queue, so from one tenant.
        self._inners[queue.bin_idx // self._nbins].on_evict(queue, items)

    def on_remove(self, queue: Queue, item: Item) -> None:
        self._inners[queue.bin_idx // self._nbins].on_remove(queue, item)

    # -- allocation decisions -------------------------------------------
    def wants_free_slab(self, queue: Queue) -> bool:
        tenant = queue.bin_idx // self._nbins
        cfg = self.tenants[tenant]
        owned = self.tenant_slabs()
        if cfg.cap_slabs is not None and owned[tenant] >= cfg.cap_slabs:
            return False
        if owned[tenant] < cfg.reserve_slabs:
            return True  # claiming its own guarantee
        # Elastic growth must leave the free pool able to cover every
        # other tenant's still-unfilled reserve.
        spare = self.cache.pool.free - 1
        return spare >= self._unfilled_reserve_elsewhere(tenant, owned)

    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        for inner in self._inners:
            inner._maybe_rollover()
        tenant = queue.bin_idx // self._nbins
        cfg = self.tenants[tenant]
        state = queue.policy_data
        incoming = state.values.incoming_value()
        owned = self.tenant_slabs()
        nbins = self._nbins
        allow_cross = (self.allow_steal
                       and (cfg.cap_slabs is None
                            or owned[tenant] < cfg.cap_slabs))
        # Cross-tenant values compare in *objective* units: a slab's
        # marginal contribution to total weighted service time is
        # sla_weight x penalty mass, so a donor's outgoing value scales
        # by its SLA weight relative to the requester's (and by the
        # steal margin).  Intra-tenant comparisons stay raw — with one
        # tenant every scale factor is exactly 1.0 and the decision
        # sequence is bit-identical to plain PamaPolicy.
        sla_r = cfg.sla_weight

        donor: Queue | None = None
        donor_tenant = tenant
        min_out = float("inf")
        for q, values in self._scan:
            if q.slabs < 1:  # cannot donate
                continue
            d = q.bin_idx // nbins
            out = values._out_value
            if out is None:
                out = values.outgoing_value()
            if d != tenant:
                # A steal must not break the donor tenant's guarantee.
                if not allow_cross:
                    continue
                if owned[d] - 1 < self.tenants[d].reserve_slabs:
                    continue
                out *= (self.tenants[d].sla_weight / sla_r) \
                    * self.steal_margin
            if out < min_out:
                donor, donor_tenant, min_out = q, d, out
        if donor is None:
            return None  # nothing eligible; the SET fails if slabless

        # From here the decision sequence mirrors PamaPolicy exactly
        # (Scenario 2 / Scenario 1 / migrate); the steal margin and SLA
        # scaling are already folded into min_out for cross moves.
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

    def _record_decision(self, queue: Queue, donor: Queue, incoming: float,
                         min_out: float, outcome: str) -> None:
        timeline = self.cache.timeline
        if timeline is not None:
            timeline.note_decision(incoming, min_out, outcome)
        events = self.cache.events
        if events is not None:
            events.record("pama_decision", self.cache.accesses,
                          requester=queue.qid, donor=donor.qid,
                          incoming=incoming, outgoing=min_out,
                          outcome=outcome)

    # -- aggregate counters ---------------------------------------------
    @property
    def migrations_approved(self) -> int:
        return sum(p.migrations_approved for p in self._inners)

    @property
    def migrations_declined(self) -> int:
        return sum(p.migrations_declined for p in self._inners)

    @property
    def migrations_forced(self) -> int:
        return sum(p.migrations_forced for p in self._inners)

    def steal_counts(self) -> dict[str, int]:
        return {"approved": self.steals_approved,
                "declined": self.steals_declined,
                "forced": self.steals_forced}

    # -- integrity -----------------------------------------------------
    def check_invariants(self) -> None:
        """Audit tenancy invariants (driven by the property tests).

        * slab conservation: per-tenant ownership sums to the pool's
          allocated slab count;
        * reserve floor: once a tenant's reserve has been filled, its
          ownership never dips below the guarantee again;
        * caps: no tenant exceeds its ``cap_slabs``.
        """
        cache = self.cache
        owned = [0] * len(self.tenants)
        nbins = self._nbins
        for q in cache.queues.values():
            owned[q.bin_idx // nbins] += q.slabs
        assert sum(owned) + cache.pool.free == cache.pool.total, (
            f"slabs not conserved: {owned} owned + {cache.pool.free} free "
            f"!= {cache.pool.total} total")
        for t, cfg in enumerate(self.tenants):
            if self._reserve_met[t]:
                assert owned[t] >= cfg.reserve_slabs, (
                    f"tenant {cfg.name} dipped below its reserve: "
                    f"{owned[t]} < {cfg.reserve_slabs}")
            if cfg.cap_slabs is not None:
                assert owned[t] <= cfg.cap_slabs, (
                    f"tenant {cfg.name} exceeds its cap: "
                    f"{owned[t]} > {cfg.cap_slabs}")
        for inner in self._inners:
            inner.check_ghost_sync()


def static_partition(tenants: Sequence[TenantConfig], total_slabs: int,
                     config: PamaConfig | None = None) -> TenantArbiter:
    """The static-partition baseline: equal hard shares, no stealing.

    Splits ``total_slabs`` equally (the classic one-memcached-box-per
    -app deployment Memshare improves on), makes each share both the
    reserve and the cap, and disables stealing — every tenant runs PAMA
    inside a fixed memory box.
    """
    tenants = list(tenants)
    if not tenants:
        raise ValueError("need at least one tenant")
    share, rem = divmod(total_slabs, len(tenants))
    shares = [share + (1 if i < rem else 0) for i in range(len(tenants))]
    boxed = [TenantConfig(name=cfg.name, reserve_slabs=s,
                          cap_slabs=s, sla_weight=cfg.sla_weight)
             for cfg, s in zip(tenants, shares)]
    return TenantArbiter(boxed, config=config, allow_steal=False)
