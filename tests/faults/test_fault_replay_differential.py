"""Differential pin: a fault-injected replay vs the per-request fault loop.

A replay with a :class:`~repro.faults.injector.FaultInjector` attached
used to run in its own loop body, ``Simulator._replay_faulty``, fed by
``_trace_rows``: per request it advanced the injector's tick, opened a
sampled root span, ran the op, folded the routed latency and the
backend's spike or error into the GET's cost, and recorded the cost in
the collector, the histograms and the timeline one request at a time.
That loop lives on below as :func:`reference_run`, and ``Simulator.run``
must come out ``==`` to it: every ``SimulationResult`` field, the
cache's stats, the injector's counters and degraded time, the timeline
rows, the registry (histograms, fault counters, the degraded-time
gauge), the event records in order and the span dump — on clusters
under every chaos scenario and on a single cache in a backend brownout.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.cluster import CacheCluster
from repro.faults import FaultInjector, ResilienceConfig
from repro.faults.scenarios import (default_policy_kwargs, make_plan,
                                    scenario_names)
from repro.obs import EventTrace, Registry, SpanTracer, TimelineRecorder
from repro.policies import make_policy
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import SimulationResult, Simulator, _slab_snapshot
from repro.traces import ETC, generate
from repro.traces.record import Trace, iter_windows
from tests.sim.test_kernel_differential import record_get

MIB = 1 << 20
ROWS = 6_000
WINDOW_GETS = 700
STRIDE = 900
HISTOGRAMS = ("sim_service_time_seconds", "sim_hit_time_seconds",
              "sim_miss_penalty_seconds")


# -- the parent's loop, kept as the oracle -----------------------------------

def _trace_rows(source, service):
    """Per-request scalars for the fault-aware loop: ``(op, key,
    key_size, value_size, penalty, miss_cost)``.  One window's columns
    are lists at a time, and ``miss_array`` is element-wise, so neither
    peak memory nor results depend on the length of the trace.
    """
    for w in iter_windows(source):
        yield from zip(w.ops.tolist(), w.keys.tolist(),
                       w.key_sizes.tolist(), w.value_sizes.tolist(),
                       w.penalties.tolist(), service.miss_array(w.penalties))


def _replay_faulty(sim, rows, metrics, service, hist, hist_hit, hist_miss,
                   tracer):
    """The fault-aware replay loop over pre-zipped columnar rows.

    Per request: advance the injector's tick, run the op (a
    fault-aware cluster accumulates routed-op latency on the
    injector), then fold that latency plus any backend fault cost
    into the request's service time.  A GET miss consults the plan's
    backend faults before filling: an error burst either degrades
    gracefully (serve-stale: cheap fallback answer, no fill) or
    charges the error penalty; a latency spike multiplies the miss
    penalty — the condition PAMA's penalty-weighted allocation is
    built for.
    """
    inj = sim.faults
    plan = inj.plan
    cfg = inj.resilience
    cache = sim.cache
    fill = sim.fill_on_miss
    cache_lookup = cache.lookup
    cache_set = cache.set
    record_hit = metrics.record_hit
    record_miss = metrics.record_miss
    timeline = sim.timeline
    for op, key, key_size, value_size, penalty, miss_cost in rows:
        tick = inj.advance()
        root = None
        if tracer is not None and tracer.sampled(tick):
            root = tracer.start_trace(
                tick, ("get", "set", "delete")[op], key=str(key))
        if op == 0:  # GET
            item = cache_lookup(key, key_size, value_size, penalty)
            extra = inj.consume_latency()
            if item is not None:
                cost = service.hit_time + extra
                record_hit(cost)
                if timeline is not None:
                    record_get(timeline, tick, True, cost)
                if hist is not None:
                    hist.record(cost)
                    hist_hit.record(cost)
            else:
                do_fill = fill
                if plan.backend_error(tick):
                    # The backend refused the recompute: degrade.
                    inj.count("backend_error")
                    inj.event("backend_error", key=key)
                    do_fill = False
                    if cfg.serve_stale:
                        cost = extra + cfg.stale_serve_time
                        inj.count("stale_served")
                    else:
                        cost = extra + cfg.error_penalty
                        inj.count("backend_give_up")
                    inj.note_degraded(cost)
                else:
                    mult = plan.backend_multiplier(tick)
                    if mult != 1.0:
                        inj.count("backend_spiked")
                    cost = extra + miss_cost * mult
                record_miss(cost)
                if timeline is not None:
                    record_get(timeline, tick, False, cost, penalty)
                if hist is not None:
                    hist.record(cost)
                    hist_miss.record(cost)
                if do_fill:
                    cache_set(key, key_size, value_size, penalty)
                    inj.consume_latency()  # fill is off the GET path
        elif op == 1:  # SET
            cache_set(key, key_size, value_size, penalty)
            inj.consume_latency()
            if timeline is not None:
                timeline.advance(tick)
        else:  # DELETE
            cache.delete(key)
            inj.consume_latency()
            if timeline is not None:
                timeline.advance(tick)
        if root is not None:
            tracer.end(root, tick)


def reference_run(sim: Simulator, trace) -> SimulationResult:
    """The parent's ``Simulator.run`` for a fault-injected replay; the
    root spans come from the tracer the cluster holds, which is the
    one the parent's callers also passed the simulator."""
    cache = sim.cache
    snapshot = _slab_snapshot(cache)
    metrics = sim.metrics = MetricsCollector(sim.window_gets, snapshot)
    service = sim.service_model
    timeline = sim.timeline
    if timeline is not None:
        attach = getattr(cache, "attach_timeline", None)
        if attach is not None:
            attach(timeline)
        else:
            timeline.snapshot_fn = snapshot
    registry = sim.obs
    hist = hist_hit = hist_miss = None
    if registry is not None:
        policy = cache.policy.name
        hist, hist_hit, hist_miss = (
            registry.histogram(name, lo=1e-6, growth=1.25, policy=policy)
            for name in HISTOGRAMS)
    started = time.perf_counter()
    _replay_faulty(sim, _trace_rows(trace, service), metrics, service, hist,
                   hist_hit, hist_miss, getattr(cache, "tracer", None))
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
        hit_quantiles=hist_hit.quantiles() if hist_hit is not None else {},
        miss_quantiles=(hist_miss.quantiles()
                        if hist_miss is not None else {}))


# -- inputs ------------------------------------------------------------------

def _trace() -> Trace:
    """ETC rows with every 37th turned into a DELETE, so the three ops
    all meet the faults."""
    t = generate(ETC.scaled(0.05), ROWS, seed=7)
    ops = t.ops.copy()
    ops[::37] = 2
    return Trace(ops, t.keys, t.key_sizes, t.value_sizes, t.penalties)


TRACE = _trace()


def _windows():
    """TRACE as uneven source windows, one of them empty."""
    cuts = (0, 1_111, 1_111, 2_900, 4_321, ROWS)
    return iter([TRACE.slice(a, b) for a, b in zip(cuts, cuts[1:])])


def _sides(build, plan, source=lambda: TRACE, instrumented=True,
           resilience=None, window_gets=WINDOW_GETS, stride=STRIDE):
    """(reference, kernel): each side's observable state after one
    replay of ``source()`` on the cache ``build(injector, tracer)``
    makes."""
    sides = []
    for runner in (reference_run, Simulator.run):
        registry = events = timeline = tracer = None
        if instrumented:
            registry, events = Registry(), EventTrace(capacity=100_000)
            timeline = TimelineRecorder(stride=stride)
            tracer = SpanTracer(sample=0.3, seed=11, capacity=100_000)
        inj = FaultInjector(plan, resilience=resilience, obs=registry,
                            events=events)
        cache = build(inj, tracer)
        sim = Simulator(cache, window_gets=window_gets,
                        obs=registry, faults=inj, timeline=timeline)
        result = runner(sim, source())
        sides.append({
            "result": dataclasses.replace(result, elapsed_seconds=0.0),
            "cache_stats": cache.stats.snapshot(),
            "counters": dict(inj.counters),
            "degraded_time": inj.degraded_time,
            "tick": inj.tick,
            "rows": timeline.rows if timeline else None,
            "events": ([e.as_dict() for e in events]
                       if events is not None else None),
            "registry": (registry.to_json(events=events)
                         if registry is not None else None),
            "spans": (tracer.trace_dicts() if tracer is not None else None),
            "traces": ((tracer.started_traces, tracer.finished_traces)
                       if tracer is not None else None),
        })
    return sides


def assert_same(sides) -> None:
    reference, kernel = sides
    for field in reference:
        assert kernel[field] == reference[field], field


def _cluster(policy: str, nodes: int):
    names = [f"node{i}" for i in range(nodes)]
    kwargs = default_policy_kwargs(WINDOW_GETS * 4, nodes).get(policy, {})

    def build(inj, tracer):
        return CacheCluster(names, (3 * MIB) // nodes,
                            lambda: make_policy(policy, **kwargs),
                            size_classes=SizeClassConfig(slab_size=64 << 10),
                            faults=inj, tracing=tracer)

    return names, build


def _single(policy: str, **kwargs):
    def build(inj, tracer):
        return SlabCache(2 * MIB, make_policy(policy, **kwargs),
                         SizeClassConfig(slab_size=64 << 10))
    return build


# -- the pins ----------------------------------------------------------------

class TestFaultedReplayEqualsTheFaultLoop:
    @pytest.mark.parametrize("nodes", (2, 3))
    @pytest.mark.parametrize("policy", ("memcached", "pre-pama", "pama"))
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_every_scenario_on_a_cluster(self, scenario, policy, nodes):
        names, build = _cluster(policy, nodes)
        sides = _sides(build, make_plan(scenario, ROWS, names, seed=7))
        assert_same(sides)
        assert sides[1]["tick"] == ROWS - 1
        assert sides[1]["spans"] and sides[1]["rows"]

    @pytest.mark.parametrize("scenario", ("backend-brownout", "node-flap"))
    def test_bare_cluster_over_uneven_windows(self, scenario):
        names, build = _cluster("pama", 2)
        assert_same(_sides(build, make_plan(scenario, ROWS, names, seed=3),
                           source=_windows, instrumented=False))

    @pytest.mark.parametrize("tracker", ("exact", "bloom"))
    def test_brownout_on_a_single_cache(self, tracker):
        plan = make_plan("backend-brownout", ROWS, ["n0"], seed=7)
        sides = _sides(_single("pama", value_window=1_500, tracker=tracker),
                       plan, source=_windows)
        assert_same(sides)
        counters = sides[1]["counters"]
        assert counters["backend_error"] > 0
        assert counters["backend_spiked"] > 0

    @pytest.mark.parametrize("nth", (0, 3, 7))
    def test_windows_close_on_an_erroring_get(self, nth):
        """A metrics window and a timeline row both close on the
        ``nth`` GET whose backend errors."""
        plan = make_plan("backend-brownout", ROWS, ["n0"], seed=7)
        erring = [tick for tick in np.flatnonzero(TRACE.ops == 0).tolist()
                  if plan.backend_error(tick)]
        tick = erring[nth]
        gets = int(np.count_nonzero(TRACE.ops[:tick + 1] == 0))
        assert_same(_sides(_single("pama", value_window=1_500), plan,
                           source=_windows, window_gets=gets, stride=tick))

    def test_error_penalty_without_serve_stale(self):
        plan = make_plan("backend-brownout", ROWS, ["n0"], seed=5)
        sides = _sides(_single("pre-pama", value_window=1_500), plan,
                       resilience=ResilienceConfig(serve_stale=False))
        assert_same(sides)
        assert sides[1]["counters"]["backend_give_up"] > 0

    def test_injector_reused_for_a_second_run(self):
        """The second run's ticks continue the injector's clock: its
        backend faults, timeline rows and events are at those ticks."""
        plan = make_plan("backend-brownout", 2 * ROWS, ["n0"], seed=7)
        sides = []
        for runner in (reference_run, Simulator.run):
            events = EventTrace(capacity=100_000)
            inj = FaultInjector(plan, obs=Registry(), events=events)
            cache = _single("pama", value_window=1_500)(inj, None)
            for _ in range(2):
                timeline = TimelineRecorder(stride=STRIDE)
                result = runner(Simulator(cache, window_gets=WINDOW_GETS,
                                          faults=inj, timeline=timeline),
                                _windows())
            sides.append((dataclasses.replace(result, elapsed_seconds=0.0),
                          inj.snapshot(), timeline.rows,
                          [e.as_dict() for e in events]))
        assert sides[1] == sides[0]
        assert max(e["tick"] for e in sides[1][3]) >= ROWS

    def test_no_fill_on_miss(self):
        plan = make_plan("backend-brownout", ROWS, ["n0"], seed=7)
        sides = []
        for runner in (reference_run, Simulator.run):
            inj = FaultInjector(plan)
            sim = Simulator(_single("pama")(inj, None), window_gets=500,
                            fill_on_miss=False, faults=inj)
            result = runner(sim, TRACE)
            sides.append((dataclasses.replace(result, elapsed_seconds=0.0),
                          inj.snapshot()))
        assert sides[1] == sides[0]
        assert np.isfinite(sides[1][0].avg_service_time)
