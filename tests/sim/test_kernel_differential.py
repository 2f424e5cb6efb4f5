"""Differential pin: the outcome-column kernel vs the per-request loops.

``Simulator.run`` used to choose among four fault-free bodies (constant
hit cost, bandwidth hit cost, registry histograms, ``_replay_timeline``)
that called ``record_hit`` / ``record_miss`` / ``Histogram.record`` /
``record_get`` / ``advance`` per request.  The kernel that replaced them
notes one outcome per GET and reduces per run of rows.  Those bodies
live on below as :func:`reference_run`, and the kernel must come out
``==`` to them: every ``SimulationResult`` field including every window
snapshot, every registry histogram's ``(count, sum, min, max, counts)``
and every timeline row — whatever the source's windows look like and
wherever a metrics window or a timeline row happens to close.

A policy that arbitrates between tenants had a fifth body,
``_replay_tenants``, which set ``policy.current_tenant`` per request
and kept per-tenant totals.  The kernel now tags each row as the cache
pulls it, and :func:`_reference_tenants` is that loop kept as the
oracle for ``tenant_metrics``, the per-tenant histograms and the
timeline's tenant cells.
"""

import dataclasses
import functools
import random
import time

import numpy as np
import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.obs import Registry, TimelineRecorder
from repro.policies import make_policy
from repro.sim.metrics import MetricsCollector
from repro.sim.service import ServiceTimeModel
from repro.sim.simulator import SimulationResult, Simulator, _slab_snapshot
from repro.tenancy import TenantArbiter
from repro.tenancy.mix import mix_tenants, tenant_configs
from repro.tenancy.scenarios import (arrival_departure_specs,
                                     noisy_neighbor_specs)
from repro.traces import compile_trace
from repro.traces import record as trace_record
from repro.traces.compile import CompiledTrace
from repro.traces.record import Trace

ROWS = 4_500
POLICIES = ("memcached", "pre-pama", "pama", "pama-bloom")
KWARGS = {"pama": {"value_window": 1_500},
          "pre-pama": {"value_window": 1_500},
          "pama-bloom": {"value_window": 1_500, "tracker": "bloom"}}
MODES = ("plain", "bandwidth", "registry", "registry+timeline")
SOURCES = ("trace", "compiled-2048", "windows-1", "windows-7",
           "empty-window")
HISTOGRAMS = ("sim_service_time_seconds", "sim_hit_time_seconds",
              "sim_miss_penalty_seconds")


# -- the parent's loops, kept as the oracle ----------------------------------

def _reference_rows(trace, service):
    """The parent's ``_trace_rows`` / ``_windowed_rows``."""
    if isinstance(trace, Trace):
        return zip(trace.ops.tolist(), trace.keys.tolist(),
                   trace.key_sizes.tolist(), trace.value_sizes.tolist(),
                   trace.penalties.tolist(),
                   service.miss_array(trace.penalties))
    windows = (trace.iter_windows() if hasattr(trace, "iter_windows")
               else iter(trace))
    return (row for w in windows
            for row in zip(w.ops.tolist(), w.keys.tolist(),
                           w.key_sizes.tolist(), w.value_sizes.tolist(),
                           w.penalties.tolist(),
                           service.miss_array(w.penalties)))


def _reference_timeline(sim, rows, metrics, service, hist, hist_hit,
                        hist_miss, timeline):
    """The parent's ``Simulator._replay_timeline``."""
    cache = sim.cache
    fill = sim.fill_on_miss
    cache_lookup = cache.lookup
    cache_set = cache.set
    cache_delete = cache.delete
    record_hit = metrics.record_hit
    record_miss = metrics.record_miss
    record_get = timeline.record_get
    advance = timeline.advance
    tick = -1
    for op, key, key_size, value_size, penalty, miss_cost in rows:
        tick += 1
        if op == 0:  # GET
            item = cache_lookup(key, key_size, value_size, penalty)
            if item is not None:
                cost = service.hit(item.total_size)
                record_hit(cost)
                record_get(tick, True, cost)
                if hist is not None:
                    hist.record(cost)
                    hist_hit.record(cost)
            else:
                record_miss(miss_cost)
                record_get(tick, False, miss_cost, penalty)
                if hist is not None:
                    hist.record(miss_cost)
                    hist_miss.record(miss_cost)
                if fill:
                    cache_set(key, key_size, value_size, penalty)
        elif op == 1:  # SET
            cache_set(key, key_size, value_size, penalty)
            advance(tick)
        else:  # DELETE
            cache_delete(key)
            advance(tick)


def _reference_tenant_rows(trace, service):
    """The tenant loop's rows: ``_reference_rows`` plus the tenant id."""
    return (row for w in trace_record.iter_windows(trace)
            for row in zip(w.ops.tolist(), w.keys.tolist(),
                           w.key_sizes.tolist(), w.value_sizes.tolist(),
                           w.penalties.tolist(),
                           service.miss_array(w.penalties),
                           w.tenants.tolist()))


def _reference_tenants(sim, rows, metrics, service, hist, hist_hit,
                       hist_miss, timeline, registry) -> dict[int, dict]:
    """The retired ``Simulator._replay_tenants``, with one edit: a
    missed GET's fill runs after ``record_get``, not before it, so a
    timeline row that closes on that GET does not count the fill's
    evictions, migrations and decisions — the closing-row rule every
    other loop keeps."""
    cache = sim.cache
    policy = cache.policy
    fill = sim.fill_on_miss
    cache_lookup = cache.lookup
    cache_set = cache.set
    cache_delete = cache.delete
    record_hit = metrics.record_hit
    record_miss = metrics.record_miss
    service_hit = service.hit
    record_get = timeline.record_get if timeline is not None else None
    advance = timeline.advance if timeline is not None else None
    cells: dict[int, list] = {}
    tenant_hists: dict[int, object] = {}
    tick = -1
    for op, key, key_size, value_size, penalty, miss_cost, tenant in rows:
        tick += 1
        policy.current_tenant = tenant
        if op == 0:  # GET
            item = cache_lookup(key, key_size, value_size, penalty)
            if item is not None:
                hit = True
                cost = service_hit(item.total_size)
                record_hit(cost)
                if hist is not None:
                    hist.record(cost)
                    hist_hit.record(cost)
            else:
                hit = False
                cost = miss_cost
                record_miss(cost)
                if hist is not None:
                    hist.record(cost)
                    hist_miss.record(cost)
            cell = cells.get(tenant)
            if cell is None:
                cell = cells[tenant] = [0, 0, 0.0, 0.0]
            cell[0] += 1
            cell[1] += hit
            cell[2] += cost
            if not hit and penalty == penalty:
                cell[3] += penalty
            if record_get is not None:
                record_get(tick, hit, cost, 0.0 if hit else penalty, tenant)
            if not hit and fill:
                cache_set(key, key_size, value_size, penalty)
            if registry is not None:
                th = tenant_hists.get(tenant)
                if th is None:
                    th = tenant_hists[tenant] = registry.histogram(
                        "sim_tenant_service_time_seconds",
                        "per-request GET service time by tenant",
                        lo=1e-6, growth=1.25, policy=policy.name,
                        tenant=str(tenant))
                th.record(cost)
        elif op == 1:  # SET
            cache_set(key, key_size, value_size, penalty)
            if advance is not None:
                advance(tick)
        else:  # DELETE
            cache_delete(key)
            if advance is not None:
                advance(tick)

    configs = getattr(policy, "tenants", ())
    slabs = (policy.tenant_slabs()
             if hasattr(policy, "tenant_slabs") else [])
    out: dict[int, dict] = {}
    for tenant in sorted(cells):
        gets, hits, service_sum, penalty_sum = cells[tenant]
        cfg = configs[tenant] if tenant < len(configs) else None
        th = tenant_hists.get(tenant)
        out[tenant] = {
            "name": cfg.name if cfg is not None else f"t{tenant}",
            "gets": gets,
            "hits": hits,
            "hit_ratio": hits / gets if gets else 0.0,
            "service_sum": service_sum,
            "avg_service_time": service_sum / gets if gets else 0.0,
            "penalty_sum": penalty_sum,
            "sla_weight": (cfg.sla_weight if cfg is not None else 1.0),
            "slabs": slabs[tenant] if tenant < len(slabs) else 0,
            "quantiles": th.quantiles() if th is not None else {},
        }
    return out


def reference_run(sim: Simulator, trace) -> SimulationResult:
    """The parent's ``Simulator.run`` for a fault-free, underived
    replay: loop body chosen up front, every side channel fed per
    request."""
    cache = sim.cache
    metrics = sim.metrics = MetricsCollector(sim.window_gets,
                                             _slab_snapshot(cache))
    service = sim.service_model
    timeline = sim.timeline
    if timeline is not None:
        cache.attach_timeline(timeline)
    fill = sim.fill_on_miss
    cache_set = cache.set
    record_hit = metrics.record_hit
    record_miss = metrics.record_miss
    registry = sim.obs
    hist = hist_hit = hist_miss = None
    if registry is not None:
        policy = cache.policy.name
        hist, hist_hit, hist_miss = (
            registry.histogram(name, lo=1e-6, growth=1.25, policy=policy)
            for name in HISTOGRAMS)
    started = time.perf_counter()
    rows = _reference_rows(trace, service)
    cache_lookup = cache.lookup
    cache_delete = cache.delete
    tenant_metrics: dict[int, dict] = {}
    if getattr(cache.policy, "wants_tenants", False):
        tenant_metrics = _reference_tenants(
            sim, _reference_tenant_rows(trace, service), metrics, service,
            hist, hist_hit, hist_miss, timeline, registry)
    elif timeline is not None:
        _reference_timeline(sim, rows, metrics, service, hist, hist_hit,
                            hist_miss, timeline)
    elif hist is None:
        if service.bandwidth is None:
            hit_cost = service.hit_time
            for op, key, key_size, value_size, penalty, miss_cost in rows:
                if op == 0:  # GET
                    if cache_lookup(key, key_size, value_size,
                                    penalty) is not None:
                        record_hit(hit_cost)
                    else:
                        record_miss(miss_cost)
                        if fill:
                            cache_set(key, key_size, value_size, penalty)
                elif op == 1:  # SET
                    cache_set(key, key_size, value_size, penalty)
                else:  # DELETE
                    cache_delete(key)
        else:
            service_hit = service.hit
            for op, key, key_size, value_size, penalty, miss_cost in rows:
                if op == 0:  # GET
                    item = cache_lookup(key, key_size, value_size, penalty)
                    if item is not None:
                        record_hit(service_hit(item.total_size))
                    else:
                        record_miss(miss_cost)
                        if fill:
                            cache_set(key, key_size, value_size, penalty)
                elif op == 1:  # SET
                    cache_set(key, key_size, value_size, penalty)
                else:  # DELETE
                    cache_delete(key)
    else:
        for op, key, key_size, value_size, penalty, miss_cost in rows:
            if op == 0:  # GET
                item = cache_lookup(key, key_size, value_size, penalty)
                if item is not None:
                    cost = service.hit(item.total_size)
                    record_hit(cost)
                    hist.record(cost)
                    hist_hit.record(cost)
                else:
                    record_miss(miss_cost)
                    hist.record(miss_cost)
                    hist_miss.record(miss_cost)
                    if fill:
                        cache_set(key, key_size, value_size, penalty)
            elif op == 1:  # SET
                cache_set(key, key_size, value_size, penalty)
            else:  # DELETE
                cache_delete(key)
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
                        if hist_miss is not None else {}),
        tenant_metrics=tenant_metrics)


# -- inputs ------------------------------------------------------------------

def _trace() -> Trace:
    """60% GET / 33% SET / 7% DELETE over 900 keys: a 1 MiB cache of
    64 KiB slabs overflows, so misses evict and PAMA migrates."""
    rng = random.Random(4242)
    sizes = (48, 150, 700, 2_600, 9_000)
    penalties = (0.0004, 0.004, 0.04, 0.4, 1.6)
    ops, keys, vs, pens = [], [], [], []
    for _ in range(ROWS):
        r = rng.random()
        ops.append(0 if r < 0.60 else (1 if r < 0.93 else 2))
        key = rng.randrange(900)
        keys.append(key)
        vs.append(sizes[key % 5])
        pens.append(penalties[key % 7 % 5] * (1 + key % 3))
    return Trace(np.array(ops, dtype=np.uint8), np.array(keys),
                 np.full(ROWS, 16), np.array(vs), np.array(pens))


TRACE = _trace()


def _cache(policy: str) -> SlabCache:
    return SlabCache(1 << 20, make_policy(policy.removesuffix("-bloom"),
                                          **KWARGS.get(policy, {})),
                     SizeClassConfig(slab_size=64 << 10))


@pytest.fixture(scope="module")
def compiled_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("kernel") / "kernel.ctrc"
    compile_trace(TRACE, path)
    return str(path)


def _source(kind: str, compiled_path: str):
    if kind == "trace":
        return TRACE
    if kind == "compiled-2048":
        return CompiledTrace(compiled_path, window=2_048)
    if kind in ("windows-1", "windows-7"):
        return CompiledTrace(compiled_path, window=int(kind[8:]))
    assert kind == "empty-window"
    cuts = (0, 0, 1_000, 1_000, 2_750, ROWS, ROWS)
    return iter([TRACE.slice(a, b) for a, b in zip(cuts, cuts[1:])])


@functools.lru_cache(maxsize=None)
def scout(policy: str) -> tuple[tuple[int, bool, bool], ...]:
    """Per row of TRACE under ``policy``: (op, hit, a slab migrated)."""
    cache = _cache(policy)
    out = []
    for op, key, key_size, value_size, penalty in TRACE.iter_rows():
        before = cache.stats.migrations
        hit = False
        if op == 0:
            hit = cache.lookup(key, key_size, value_size, penalty) is not None
            if not hit:
                cache.set(key, key_size, value_size, penalty)
        elif op == 1:
            cache.set(key, key_size, value_size, penalty)
        else:
            cache.delete(key)
        out.append((op, hit, cache.stats.migrations > before))
    return tuple(out)


def find_row(policy: str, want, start: int = 700) -> int:
    """The first row at or after ``start`` for which ``want(index, op,
    hit, migrated)`` holds."""
    for index, (op, hit, migrated) in enumerate(scout(policy)):
        if index >= start and want(index, op, hit, migrated):
            return index
    raise AssertionError("the trace has no such row")


def gets_through(policy: str, row: int) -> int:
    """``window_gets`` that closes the first metrics window on ``row``."""
    return sum(1 for op, _, _ in scout(policy)[:row + 1] if op == 0)


def filling_miss(policy: str) -> int:
    """A GET miss whose fill SET migrates a slab (evicts, under the
    policy that never migrates)."""
    moves = policy != "memcached"
    return find_row(policy, lambda i, op, hit, migrated:
                    op == 0 and not hit and migrated == moves)


def run_pair(policy, mode, source_kind, compiled_path, window_gets, stride,
             max_rows=None, passes=1):
    """(reference, kernel) as (result, histogram states, timeline rows);
    ``passes`` > 1 reuses each side's recorder and registry."""
    sides = []
    for runner in (reference_run, Simulator.run):
        registry = Registry() if mode.startswith("registry") else None
        timeline = (TimelineRecorder(stride=stride, max_rows=max_rows)
                    if mode.endswith("timeline") else None)
        service = ServiceTimeModel(
            hit_time=1e-4, bandwidth=3e7 if mode == "bandwidth" else None)
        for _ in range(passes):
            sim = Simulator(_cache(policy), service, window_gets=window_gets,
                            obs=registry, timeline=timeline)
            result = runner(sim, _source(source_kind, compiled_path))
        hists = [] if registry is None else [
            (h.count, h.sum, h.min, h.max, h.counts)
            for h in (registry.get(name, policy=sim.cache.policy.name)
                      for name in HISTOGRAMS)]
        sides.append((dataclasses.replace(result, elapsed_seconds=0.0),
                      hists, timeline.rows if timeline else None))
    return sides


def assert_same(sides) -> None:
    (ref_result, ref_hists, ref_rows), (result, hists, rows) = sides
    assert result == ref_result
    assert hists == ref_hists
    assert rows == ref_rows


# -- the pins ----------------------------------------------------------------

class TestKernelEqualsPerRequestLoops:
    @pytest.mark.parametrize("source_kind", SOURCES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_mode_and_source(self, policy, mode, source_kind,
                                          compiled_path):
        # both a metrics window and a timeline row close on one GET
        # miss whose fill migrates; later closes fall where they fall
        row = filling_miss(policy)
        sides = run_pair(policy, mode, source_kind, compiled_path,
                         window_gets=gets_through(policy, row), stride=row)
        assert_same(sides)
        result = sides[1][0]
        assert len(result.windows) >= 3
        if policy.startswith("pama"):
            assert result.cache_stats["migrations"] > 50

    @pytest.mark.parametrize("source_kind", ("trace", "windows-7"))
    @pytest.mark.parametrize("closes, on", (
        ("metrics", "filling-miss"), ("timeline", "filling-miss"),
        ("metrics+timeline", "hit"), ("timeline", "set"),
        ("timeline", "delete")))
    def test_where_a_window_closes(self, closes, on, source_kind,
                                   compiled_path):
        policy = "pama"
        if on == "filling-miss":
            row = filling_miss(policy)
        else:
            wanted = ("hit", "set", "delete").index(on)
            row = find_row(policy, lambda i, op, hit, migrated:
                           op == wanted and (op != 0 or hit))
        window_gets = (gets_through(policy, row) if "metrics" in closes
                       else 613)
        stride = row if "timeline" in closes else 977
        assert_same(run_pair(policy, "registry+timeline", source_kind,
                             compiled_path, window_gets, stride))

    @pytest.mark.parametrize("edge", (0, 6), ids=("first-row", "last-row"))
    def test_close_on_the_edge_of_a_source_window(self, edge, compiled_path):
        # windows of 7 rows: the closing GET is row 0 (or 6) of its
        # window, and so is the tick that closes the first timeline row
        policy = "pama"
        row = find_row(policy, lambda i, op, hit, migrated:
                       op == 0 and i % 7 == edge)
        assert_same(run_pair(policy, "registry+timeline", "windows-7",
                             compiled_path, gets_through(policy, row),
                             stride=7 * 60 + edge))

    @pytest.mark.parametrize("source_kind", ("trace", "compiled-2048",
                                             "windows-7"))
    def test_stride_doubles_mid_run(self, source_kind, compiled_path):
        sides = run_pair("pama", "registry+timeline", source_kind,
                         compiled_path, window_gets=613, stride=300,
                         max_rows=2)
        assert_same(sides)
        rows = sides[1][2]
        assert len(rows) <= 3 and rows[-1]["tick_end"] >= ROWS

    @pytest.mark.parametrize("source_kind", ("trace", "windows-7"))
    def test_recorder_reused_for_a_second_run(self, source_kind,
                                              compiled_path):
        # the second run starts at tick 0 with ``_window_start`` far
        # ahead: no row closes until the ticks catch up
        sides = run_pair("pama", "registry+timeline", source_kind,
                         compiled_path, window_gets=613, stride=977,
                         passes=2)
        assert_same(sides)
        assert len(sides[1][2]) > ROWS // 977 + 1

    def test_in_memory_window_length_is_invisible(self, monkeypatch):
        whole = run_pair("pama", "registry+timeline", "trace", None,
                         window_gets=613, stride=977)[1]
        monkeypatch.setattr(trace_record, "WINDOW_ROWS", 1_000)
        assert len(list(trace_record.iter_windows(TRACE))) == 5
        assert_same([whole, run_pair("pama", "registry+timeline", "trace",
                                     None, window_gets=613, stride=977)[1]])

    def test_subclassed_hit_is_mapped_in_every_mode(self):
        class Tiered(ServiceTimeModel):
            def hit(self, size=0):
                return self.hit_time * (2.0 if size > 1_000 else 1.0)

        results = []
        for registry in (None, Registry()):
            sim = Simulator(_cache("pama"), Tiered(), window_gets=613,
                            obs=registry)
            results.append(sim.run(TRACE))
        plain, observed = results
        assert plain.avg_service_time == observed.avg_service_time
        assert plain.windows == observed.windows
        constant = Simulator(_cache("pama"), ServiceTimeModel(),
                             window_gets=613).run(TRACE)
        assert plain.hit_ratio == constant.hit_ratio
        assert plain.avg_service_time > constant.avg_service_time


class TestSourceIsPulledLazily:
    def test_next_window_waits_for_this_windows_reductions(self):
        """Window k+1 is asked for only when the collector, the
        histograms and the timeline hold all of window k (the
        benchmark's feeder times the gap between two pulls as one
        batch)."""
        registry = Registry()
        timeline = TimelineRecorder(stride=977)
        sim = Simulator(_cache("pama"), window_gets=613, obs=registry,
                        timeline=timeline)
        pulls = []

        def windows():
            gets_fed = 0
            for start in range(0, ROWS, 700):
                collector = sim.metrics
                hist = registry.get("sim_service_time_seconds",
                                    policy="pama")
                assert collector.total_gets == gets_fed
                assert (hist.count if hist else 0) == gets_fed
                assert (timeline._gets + sum(timeline.series("gets"))
                        == gets_fed)
                window = TRACE.slice(start, start + 700)
                gets_fed += window.num_gets
                pulls.append(start)
                yield window

        result = sim.run(windows())
        assert len(pulls) == 7
        assert result.total_gets == TRACE.num_gets


# -- tenant-tagged replays --------------------------------------------------

TENANT_ROWS = 6_000
TENANT_SOURCES = ("trace", "compiled-2048", "windows-7")
MIXES = ("noisy-neighbor", "arrival-departure", "untagged",
         "noisy-neighbor-bloom")


@functools.lru_cache(maxsize=None)
def _mix(name: str) -> Trace:
    name = name.removesuffix("-bloom")
    if name == "untagged":
        return TRACE
    specs = (noisy_neighbor_specs() if name == "noisy-neighbor"
             else arrival_departure_specs())
    return mix_tenants(specs, TENANT_ROWS, seed=7)


def _arbiter_cache(name: str) -> SlabCache:
    capacity, slab = 1 << 20, 64 << 10
    config = PamaConfig(value_window=1_500,
                        tracker="bloom" if name.endswith("-bloom")
                        else "exact")
    name = name.removesuffix("-bloom")
    if name == "untagged":
        arbiter = TenantArbiter(1, config=config)
    else:
        specs = (noisy_neighbor_specs() if name == "noisy-neighbor"
                 else arrival_departure_specs())
        arbiter = TenantArbiter(tenant_configs(specs, capacity // slab),
                                config=config)
    return SlabCache(capacity, arbiter, SizeClassConfig(slab_size=slab))


@pytest.fixture(scope="module")
def mix_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("tenants")
    paths = {}
    for name in MIXES:
        paths[name] = str(root / f"{name}.ctrc")
        compile_trace(_mix(name), paths[name])
    return paths


def _mix_source(name: str, kind: str, paths):
    if kind == "trace":
        return _mix(name)
    return CompiledTrace(paths[name], window=int(kind.split("-")[-1]))


@functools.lru_cache(maxsize=None)
def tenant_scout(name: str) -> tuple[tuple[int, bool, bool, int], ...]:
    """Per row of the mix under the arbiter: (op, hit, the miss's fill
    migrated a slab, tenant)."""
    cache = _arbiter_cache(name)
    trace = _mix(name)
    out = []
    for (op, key, key_size, value_size, penalty), tenant in zip(
            trace.iter_rows(), trace.tenants.tolist()):
        cache.policy.current_tenant = tenant
        hit = filled = False
        if op == 0:
            hit = cache.lookup(key, key_size, value_size, penalty) is not None
            if not hit:
                before = cache.stats.migrations
                cache.set(key, key_size, value_size, penalty)
                filled = cache.stats.migrations > before
        elif op == 1:
            cache.set(key, key_size, value_size, penalty)
        else:
            cache.delete(key)
        out.append((op, hit, filled, tenant))
    return tuple(out)


def tenant_row(name: str, want, start: int = 1_500) -> int:
    """The first row at or after ``start`` for which ``want(op, hit,
    filled)`` holds and, in a tagged mix, whose tenant is not the
    previous row's."""
    rows = tenant_scout(name)
    for index in range(start, len(rows)):
        op, hit, filled, tenant = rows[index]
        switched = name == "untagged" or tenant != rows[index - 1][3]
        if switched and want(op, hit, filled):
            return index
    raise AssertionError("the mix has no such row")


def tenant_gets_through(name: str, row: int) -> int:
    return sum(1 for op, *_ in tenant_scout(name)[:row + 1] if op == 0)


def run_tenant_pair(name, mode, source_kind, paths, window_gets, stride):
    """(reference, kernel) as (result, every histogram's state,
    timeline rows) of one arbiter replay."""
    sides = []
    for runner in (reference_run, Simulator.run):
        registry = Registry() if mode.startswith("registry") else None
        timeline = (TimelineRecorder(stride=stride)
                    if mode.endswith("timeline") else None)
        service = ServiceTimeModel(
            hit_time=1e-4, bandwidth=3e7 if mode == "bandwidth" else None)
        sim = Simulator(_arbiter_cache(name), service,
                        window_gets=window_gets, obs=registry,
                        timeline=timeline)
        result = runner(sim, _mix_source(name, source_kind, paths))
        hists = [] if registry is None else [
            (h.name, h.labels, h.count, h.sum, h.min, h.max, h.counts)
            for h in registry.collect()]
        sides.append((dataclasses.replace(result, elapsed_seconds=0.0),
                      hists, timeline.rows if timeline else None))
    return sides


class TestTenantReplayEqualsTheTenantLoop:
    @pytest.mark.parametrize("source_kind", TENANT_SOURCES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", MIXES)
    def test_every_mix_mode_and_source(self, name, mode, source_kind,
                                       mix_paths):
        # a metrics window and a timeline row close on one GET miss
        # whose fill migrates and whose tenant is not the last row's
        row = tenant_row(name, lambda op, hit, filled: op == 0 and filled)
        sides = run_tenant_pair(name, mode, source_kind, mix_paths,
                                tenant_gets_through(name, row), stride=row)
        assert_same(sides)
        result, hists, rows = sides[1]
        assert len(result.windows) >= 3
        assert result.cache_stats["migrations"] > 50
        tenants = set(_mix(name).tenants.tolist())
        assert set(result.tenant_metrics) == tenants
        if mode.startswith("registry"):
            assert sum(h[0] == "sim_tenant_service_time_seconds"
                       for h in hists) == len(tenants)
        if rows is not None and name != "untagged":
            assert all(len(r["tenants"]) >= 1 for r in rows)

    @pytest.mark.parametrize("source_kind", ("trace", "windows-7"))
    @pytest.mark.parametrize("closes, on", (
        ("metrics", "hit"), ("timeline", "hit"), ("timeline", "set"),
        ("metrics+timeline", "miss")))
    def test_close_where_the_tenant_changes(self, closes, on, source_kind,
                                            mix_paths):
        name = "noisy-neighbor"
        wanted = {"hit": lambda op, hit, filled: op == 0 and hit,
                  "miss": lambda op, hit, filled: op == 0 and not hit,
                  "set": lambda op, hit, filled: op == 1}[on]
        row = tenant_row(name, wanted, start=2_500)
        window_gets = (tenant_gets_through(name, row)
                       if "metrics" in closes else 613)
        stride = row if "timeline" in closes else 977
        assert_same(run_tenant_pair(name, "registry+timeline", source_kind,
                                    mix_paths, window_gets, stride))

    def test_goes_through_apply_rows(self, monkeypatch):
        pulled = []
        apply_rows = SlabCache.apply_rows

        def counting(cache, *run):
            pulled.append(cache.policy.name)
            return apply_rows(cache, *run)

        monkeypatch.setattr(SlabCache, "apply_rows", counting)
        sim = Simulator(_arbiter_cache("noisy-neighbor"), window_gets=613)
        result = sim.run(_mix("noisy-neighbor"))
        assert result.total_gets == _mix("noisy-neighbor").num_gets
        assert len(pulled) >= len(result.windows)
        assert set(pulled) == {"tenant-arbiter"}
