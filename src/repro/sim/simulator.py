"""Trace-driven simulation: replay a trace against a policy-driven cache.

The replay follows the paper's methodology: GETs probe the cache; a
miss costs the item's penalty and is immediately followed by a SET
re-installing the item (fill-on-miss); SET/DELETE trace records are
applied directly.  Hit ratio and average service time are collected per
window of GETs, with per-class and per-queue slab snapshots at each
window close (the Figs 3/4 series).

Replay sources: an in-memory :class:`~repro.traces.record.Trace`, a
:class:`~repro.traces.compile.CompiledTrace` or an iterable of bounded
:class:`Trace` windows.  All of them replay window by window
(:func:`~repro.traces.record.iter_windows`), so a 100M-op compiled
trace replays with resident memory bounded by the window, and results
do not depend on where the windows fall.

Every replay — with or without telemetry, tenants or injected faults —
runs in one kernel, :meth:`Simulator._replay`, which hands runs of rows
to ``cache.apply_rows`` and reduces their GETs' costs per run, so
telemetry is not on the per-request path.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro import obs as _obs
from repro._util import collector_paused
from repro.bloom.hashing import hash_pair_arrays
from repro.cache.cache import SlabCache
from repro.obs.timeline import tally_tenants
from repro.sim.metrics import MetricsCollector, WindowStats
from repro.sim.service import ServiceTimeModel
from repro.traces.record import iter_windows


def _slab_snapshot(cache):
    """The per-window slab snapshot of ``cache``, as a closure over the
    cache alone: the simulator holds the collector and the timeline that
    keep it, so a bound method would make a cycle (repro.sim.metrics)."""
    def snapshot():
        return cache.class_slab_distribution(), cache.slab_distribution()
    return snapshot


def _tagged(rows, tenants, policy):
    """``rows``, with ``policy.current_tenant`` set to each row's tenant
    as the row is pulled: everything the cache does for the row runs
    under its tenant."""
    for row, policy.current_tenant in zip(rows, tenants):
        yield row


class _TenantTotals:
    """Per-tenant GET totals of a tenant-tagged replay, and one
    service-time histogram per tenant when a registry is active."""

    def __init__(self, policy, registry) -> None:
        self.policy = policy
        self.registry = registry
        #: tenant -> [gets, hits, service_sum, penalty_sum]
        self.cells: dict[int, list] = {}
        self.hists: dict[int, object] = {}

    def check(self, tenants) -> None:
        """``ValueError`` if ``tenants`` names one with no contract."""
        top = int(tenants.max(initial=0))
        if top >= len(self.policy.tenants):
            raise ValueError(
                f"the trace names tenant {top}, but policy "
                f"{self.policy.name!r} has {len(self.policy.tenants)} "
                f"tenant contracts")

    def add(self, tenants, hits, costs, penalties) -> None:
        """A run of GET outcomes, as :func:`tally_tenants` takes them."""
        for tenant, mine in tally_tenants(self.cells, tenants, hits, costs,
                                          penalties):
            if self.registry is not None:
                hist = self.hists.get(tenant)
                if hist is None:
                    hist = self.hists[tenant] = self.registry.histogram(
                        "sim_tenant_service_time_seconds",
                        "per-request GET service time by tenant",
                        lo=1e-6, growth=1.25, policy=self.policy.name,
                        tenant=str(tenant))
                hist.record_many(costs[mine])

    def summary(self) -> dict[int, dict]:
        """``SimulationResult.tenant_metrics``."""
        configs = self.policy.tenants
        slabs = self.policy.tenant_slabs()
        out: dict[int, dict] = {}
        for tenant in sorted(self.cells):
            gets, hits, service_sum, penalty_sum = self.cells[tenant]
            hist = self.hists.get(tenant)
            out[tenant] = {
                "name": configs[tenant].name,
                "gets": gets,
                "hits": hits,
                "hit_ratio": hits / gets,
                "service_sum": service_sum,
                "avg_service_time": service_sum / gets,
                "penalty_sum": penalty_sum,
                "sla_weight": configs[tenant].sla_weight,
                "slabs": slabs[tenant],
                "quantiles": hist.quantiles() if hist is not None else {},
            }
        return out


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    policy: str
    windows: list[WindowStats]
    hit_ratio: float
    avg_service_time: float
    total_gets: int
    cache_stats: dict[str, float]
    elapsed_seconds: float
    #: final slab allocation per size class
    final_class_slabs: dict[int, int] = field(default_factory=dict)
    #: final slab allocation per queue (class, bin)
    final_queue_slabs: dict[tuple[int, int], int] = field(default_factory=dict)
    #: service-time tail estimates ("p50"/"p90"/"p99"/"p999", seconds),
    #: populated only when an obs registry was active for the run.
    service_quantiles: dict[str, float] = field(default_factory=dict)
    #: same split by outcome (hit service times / miss penalties).
    hit_quantiles: dict[str, float] = field(default_factory=dict)
    miss_quantiles: dict[str, float] = field(default_factory=dict)
    #: per-tenant outcome summaries, populated only when the policy
    #: arbitrates between tenants (``wants_tenants``): tenant id ->
    #: {name, gets, hits, hit_ratio, service_sum, avg_service_time,
    #:  penalty_sum, sla_weight, slabs, quantiles}.
    tenant_metrics: dict[int, dict] = field(default_factory=dict)

    def total_weighted_service_time(self) -> float:
        """Sum over tenants of ``sla_weight * service_sum`` (the
        multi-tenant objective the scenarios compare on)."""
        return sum(m["sla_weight"] * m["service_sum"]
                   for m in self.tenant_metrics.values())

    def hit_ratio_series(self) -> list[float]:
        return [w.hit_ratio for w in self.windows]

    def service_time_series(self) -> list[float]:
        return [w.avg_service_time for w in self.windows]

    def class_slab_series(self, class_idx: int) -> list[int]:
        """Per-window slab count of one size class (a Fig 3 line)."""
        return [w.class_slabs.get(class_idx, 0) for w in self.windows]

    def queue_slab_series(self, class_idx: int, bin_idx: int) -> list[int]:
        """Per-window slab count of one subclass (a Fig 4 line)."""
        return [w.queue_slabs.get((class_idx, bin_idx), 0)
                for w in self.windows]


class Simulator:
    """Replays traces against a :class:`SlabCache` or a
    :class:`~repro.cluster.cluster.CacheCluster`, in one kernel.

    Args:
        cache: the cache under test (policy already attached).
        service_model: hit/miss cost model.
        window_gets: GETs per metrics window (paper: 1M; scale down with
            the trace).
        fill_on_miss: re-install missed items via SET, per the paper's
            "a GET request miss immediately follows ... a SET request".
    """

    def __init__(self, cache: SlabCache,
                 service_model: ServiceTimeModel | None = None,
                 window_gets: int = 100_000, fill_on_miss: bool = True,
                 obs=None, faults=None, timeline=None) -> None:
        self.cache = cache
        self.service_model = service_model or ServiceTimeModel()
        self.fill_on_miss = fill_on_miss
        self.window_gets = window_gets
        #: optional obs registry for service-time histograms; falls back
        #: to the module-level registry when observability is enabled.
        self.obs = obs
        #: optional :class:`~repro.faults.injector.FaultInjector`, whose
        #: clock, backend faults and routed latency the kernel replays.
        #: Share it with the cache when that is a fault-aware cluster,
        #: whose ``tracer`` then opens each request's root span.
        self.faults = faults
        #: optional :class:`~repro.obs.timeline.TimelineRecorder`; the
        #: replay loop is the same with or without one.
        self.timeline = timeline
        # Rebuilt at the top of every run(); kept as an attribute so a
        # run's collector stays inspectable after it returns.
        self.metrics = MetricsCollector(window_gets, _slab_snapshot(cache))

    def run(self, trace) -> SimulationResult:
        """Replay a trace source to completion and return the result.

        ``trace`` is a :class:`Trace`, a
        :class:`~repro.traces.compile.CompiledTrace`, or an iterable of
        bounded :class:`Trace` windows; streaming sources replay with
        memory bounded by the window and results identical to the
        whole-trace replay.

        Each run gets a fresh :class:`MetricsCollector`: reusing the
        one from a previous run would carry its windows and totals into
        the new result and skew repeat-pass experiments (Fig 7 style).

        The replay runs with CPython's cyclic collector paused
        (:func:`repro._util.collector_paused`) and restores its
        previous state when it returns or raises.  The pause is
        process-wide: other threads see it too.
        """
        cache = self.cache
        snapshot = _slab_snapshot(cache)
        metrics = self.metrics = MetricsCollector(self.window_gets, snapshot)
        service = self.service_model
        timeline = self.timeline
        if timeline is not None:
            attach = getattr(cache, "attach_timeline", None)
            if attach is not None:
                attach(timeline)
            else:
                # Re-bind unconditionally: a recorder reused across
                # simulators must snapshot *this* run's cache, not the
                # first cache it ever met.
                timeline.snapshot_fn = snapshot
        # Service-time histograms only when observability is on.
        registry = self.obs if self.obs is not None else _obs.get_registry()
        hist = hist_hit = hist_miss = None
        if registry is not None:
            # Labelled by policy so back-to-back runs against one shared
            # registry (e.g. a serial comparison) keep separate tails.
            policy = cache.policy.name
            hist = registry.histogram(
                "sim_service_time_seconds",
                "per-request GET service time", lo=1e-6, growth=1.25,
                policy=policy)
            hist_hit = registry.histogram(
                "sim_hit_time_seconds",
                "per-request service time of GET hits",
                lo=1e-6, growth=1.25, policy=policy)
            hist_miss = registry.histogram(
                "sim_miss_penalty_seconds",
                "per-request penalty of GET misses", lo=1e-6, growth=1.25,
                policy=policy)

        started = time.perf_counter()

        tenants = None
        if getattr(cache.policy, "wants_tenants", False):
            if not isinstance(cache, SlabCache):
                raise ValueError(
                    f"tenant arbitration needs one SlabCache, not a "
                    f"{type(cache).__name__}: rows are tagged on one policy")
            if self.faults is not None:
                raise ValueError(
                    "fault injection and tenant arbitration are not "
                    "combinable yet: no faulted tenant replay is pinned")
            tenants = _TenantTotals(cache.policy, registry)
        # A replay creates no reference cycles (tests/sim/
        # test_collector.py), so the cyclic collector would only re-walk
        # the items and ghost entries the cache holds.
        with collector_paused():
            self._replay(trace, metrics, service, hist, hist_hit,
                         hist_miss, timeline, tenants)
        elapsed = time.perf_counter() - started
        metrics.flush()
        if timeline is not None:
            timeline.finish()

        return SimulationResult(
            policy=cache.policy.name,
            windows=list(metrics.windows),
            hit_ratio=metrics.overall_hit_ratio,
            avg_service_time=metrics.overall_avg_service_time,
            total_gets=metrics.total_gets,
            cache_stats=cache.stats.snapshot(),
            elapsed_seconds=elapsed,
            final_class_slabs=cache.class_slab_distribution(),
            final_queue_slabs=cache.slab_distribution(),
            service_quantiles=hist.quantiles() if hist is not None else {},
            hit_quantiles=(hist_hit.quantiles()
                           if hist_hit is not None else {}),
            miss_quantiles=(hist_miss.quantiles()
                            if hist_miss is not None else {}),
            tenant_metrics=tenants.summary() if tenants is not None else {},
        )

    def _replay(self, source, metrics: MetricsCollector,
                service: ServiceTimeModel, hist, hist_hit, hist_miss,
                timeline, tenants=None) -> None:
        """The replay kernel: ``cache.apply_rows`` runs every row and
        notes one outcome per GET.

        Per trace window, the rows up to the next *closing row* run as
        one call; their GET costs are then one array (the GETs' penalties,
        ``hit_time`` written over the hits) that the collector,
        the histograms and the timeline reduce through ``record_many``.
        A closing row is one on which a metrics window or a timeline row
        closes — the ``gets_to_close``-th GET from here, the row at the
        timeline's ``next_close`` tick — both known before the run
        starts.  It runs alone and without its fill, then
        ``timeline.advance`` and its reduction close what it closes, and
        a missed GET's fill runs last, as a SET row: a close snapshots
        after the row's operation and before its fill.  The next window
        is pulled only when this one is fully reduced.

        ``tenants`` (a :class:`_TenantTotals`, for a policy that
        arbitrates between tenants) tags every row with its tenant as
        the cache pulls it and adds each run's GETs to the per-tenant
        totals and the timeline's tenant cells.  A window that names a
        tenant the policy has no contract for raises ``ValueError``
        before any of its rows runs.

        When the policy hashes keys (a Bloom tracker), each window's
        keys are hashed as one array and the cache is handed the
        key -> ``(h1, h2)`` mapping with every run.  A cluster's nodes
        hash in their own ``lookup``.

        With a fault injector, the rows are its ``requests``, which tick
        its clock as the cache pulls them (the timeline runs on those
        ticks), and ``note`` drains each GET's routed latency.  Its plan's
        ``backend`` is evaluated per window at the GET ticks; a GET whose
        fetch errors runs alone and without its fill, like a closing row,
        and ``charge`` folds it all into each run's costs.
        """
        cache = self.cache
        fill = self.fill_on_miss
        apply_rows = cache.apply_rows
        wants_hashes = getattr(cache, "_wants_hashes", False)
        hashes = None
        hit_time = service.hit_time
        got: list[int] = []  # per GET of a run: 0 hit, -1 miss
        note = got.append
        faults = self.faults
        base = 0  # tick of the window's first row
        if faults is not None:
            extra: list[float] = []  # per GET of a run: routed latency
            drain = faults.consume_latency
            base = faults.tick + 1

            def note(outcome: int) -> None:
                got.append(outcome)
                extra.append(drain())

        def reduce() -> None:
            """Reduce the GETs of window ``w`` noted since the last call."""
            nonlocal gets
            if not got:
                return
            outcome = np.array(got)
            got.clear()
            hits = outcome >= 0
            ran = slice(gets, gets + len(outcome))
            of_gets = get_rows[ran]
            gets += len(outcome)
            costs = penalties[of_gets]
            costs[hits] = hit_time
            if faults is not None:
                costs = faults.charge(costs, hits, extra, mult[ran],
                                      erring[ran], w.keys[of_gets])
                extra.clear()
            metrics.record_many(hits, costs)
            if hist is not None:
                hist.record_many(costs)
                hist_hit.record_many(costs[hits])
                hist_miss.record_many(costs[~hits])
            of_tenants = None
            if tenants is not None:
                of_tenants = w.tenants[of_gets]
                tenants.add(of_tenants, hits, costs, penalties[of_gets])
            if timeline is not None:
                timeline.record_many(hits, costs, penalties[of_gets],
                                     of_tenants)

        for w in iter_windows(source):
            n = len(w)
            penalties = w.penalties
            get_rows = np.flatnonzero(w.ops == 0)
            rows = w.iter_rows()
            if wants_hashes:
                h1, h2 = hash_pair_arrays(w.keys)
                hashes = dict(zip(w.keys.tolist(),
                                  zip(h1.tolist(), h2.tolist())))
            if tenants is not None:
                tenants.check(w.tenants)
                rows = _tagged(rows, w.tenants.tolist(), tenants.policy)
            if faults is not None:
                rows = faults.requests(rows, getattr(cache, "tracer", None))
                mult, erring = faults.backend(base + get_rows)
                # the GETs whose fetch errors, then a sentinel
                alone = np.flatnonzero(erring).tolist() + [len(get_rows)]
            at = gets = 0  # rows and GETs of this window already replayed
            while at < n:
                stop = n
                closing_get = gets + metrics.gets_to_close - 1
                lone = -1  # the next GET to run alone for its backend
                if faults is not None:
                    lone = alone[bisect_left(alone, gets)]
                    closing_get = min(closing_get, lone)
                if closing_get < len(get_rows):
                    stop = int(get_rows[closing_get])
                if timeline is not None:
                    stop = min(stop, max(at, timeline.next_close - base))
                apply_rows(islice(rows, stop - at), fill, note, hashes)
                reduce()
                if stop < n:
                    row = next(rows)
                    apply_rows((row,), False, note, hashes)
                    # a GET that missed, and whose fetch did not error
                    refill = fill and got == [-1] and gets != lone
                    if timeline is not None:
                        timeline.advance(base + stop)
                    reduce()
                    if refill:
                        apply_rows(((1,) + row[1:],), False, note, hashes)
                at = stop + 1
            base += n
            # this window's lists go before the next is pulled
            rows = hashes = None


def simulate(trace, cache: SlabCache, *,
             hit_time: float = 1e-4, window_gets: int = 100_000,
             fill_on_miss: bool = True, obs=None, faults=None,
             timeline=None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    ``trace`` accepts every :meth:`Simulator.run` source, including
    streaming :class:`~repro.traces.compile.CompiledTrace` replays.
    """
    sim = Simulator(cache, ServiceTimeModel(hit_time=hit_time),
                    window_gets=window_gets, fill_on_miss=fill_on_miss,
                    obs=obs, faults=faults, timeline=timeline)
    return sim.run(trace)
