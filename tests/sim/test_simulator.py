"""Tests for the trace-driven simulator."""

import numpy as np
import pytest

from repro.cache import SlabCache, SizeClassConfig
from repro.policies import StaticMemcachedPolicy
from repro.core import PamaPolicy, PamaConfig
from repro.sim import ServiceTimeModel, Simulator, simulate
from repro.traces import ETC, Op, Trace, generate


def build_cache(slabs=32, policy=None):
    classes = SizeClassConfig(slab_size=4096, base_size=64)
    return SlabCache(slabs * 4096, policy or StaticMemcachedPolicy(), classes)


def manual_trace(rows):
    """rows: (op, key, vsize, penalty)."""
    n = len(rows)
    return Trace(np.array([r[0] for r in rows], np.uint8),
                 np.array([r[1] for r in rows], np.int64),
                 np.full(n, 8, np.int32),
                 np.array([r[2] for r in rows], np.int32),
                 np.array([r[3] for r in rows], np.float64))


class TestServiceTimeModel:
    def test_constant_hit(self):
        m = ServiceTimeModel(hit_time=1e-4)
        assert m.hit_time == 1e-4
        assert m.miss_array(np.array([0.7])) == [0.7]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(hit_time=-1)


class TestSimulator:
    def test_fill_on_miss_turns_repeat_into_hit(self):
        trace = manual_trace([
            (Op.GET, 1, 100, 0.5),
            (Op.GET, 1, 100, 0.5),
        ])
        result = simulate(trace, build_cache(), window_gets=10)
        assert result.total_gets == 2
        assert result.hit_ratio == 0.5
        # first GET cost the penalty, second a hit
        assert result.avg_service_time == pytest.approx((0.5 + 1e-4) / 2)

    def test_no_fill_keeps_missing(self):
        trace = manual_trace([(Op.GET, 1, 100, 0.5)] * 3)
        result = simulate(trace, build_cache(), fill_on_miss=False)
        assert result.hit_ratio == 0.0
        assert result.cache_stats["sets"] == 0

    def test_sets_and_deletes_applied(self):
        trace = manual_trace([
            (Op.SET, 1, 100, 0.2),
            (Op.GET, 1, 100, 0.2),
            (Op.DELETE, 1, 100, 0.2),
            (Op.GET, 1, 100, 0.2),
        ])
        result = simulate(trace, build_cache(), window_gets=10)
        assert result.hit_ratio == 0.5
        assert result.cache_stats["deletes"] == 1

    def test_windows_and_snapshots(self):
        trace = generate(ETC.scaled(0.02), 30_000, seed=1)
        result = simulate(trace, build_cache(slabs=64), window_gets=5_000)
        assert len(result.windows) >= 5
        assert result.windows[0].class_slabs  # snapshot captured
        series = result.class_slab_series(0)
        assert len(series) == len(result.windows)

    def test_queue_slab_series_with_pama(self):
        trace = generate(ETC.scaled(0.02), 30_000, seed=1)
        cache = build_cache(slabs=64,
                            policy=PamaPolicy(PamaConfig(value_window=5_000)))
        result = simulate(trace, cache, window_gets=5_000)
        assert result.policy == "pama"
        # at least one subclass beyond bin 0 exists in the snapshots
        bins = {qid[1] for w in result.windows for qid in w.queue_slabs}
        assert len(bins) > 1

    def test_result_aggregates_match_cache_stats(self):
        trace = generate(ETC.scaled(0.02), 10_000, seed=2)
        cache = build_cache(slabs=64)
        result = simulate(trace, cache, window_gets=2_000)
        assert result.total_gets == cache.stats.gets
        assert result.hit_ratio == pytest.approx(cache.stats.hit_ratio)

    def test_deterministic(self):
        trace = generate(ETC.scaled(0.02), 10_000, seed=3)
        r1 = simulate(trace, build_cache(slabs=32), window_gets=2_000)
        r2 = simulate(trace, build_cache(slabs=32), window_gets=2_000)
        assert r1.hit_ratio == r2.hit_ratio
        assert r1.avg_service_time == pytest.approx(r2.avg_service_time)


class TestSimulatorReuse:
    """Regression: run() must not inherit the previous run's metrics.

    Before the fix, the collector built in __init__ was reused across
    run() calls, so a second run reported the union of both runs'
    windows and totals (skewing repeat-pass experiments like Fig 7).
    """

    def test_second_run_reports_identical_results(self):
        # After run 1, key 1 is resident, so run 2 replays identically
        # (all hits) over the warm cache — identical results, unless
        # stale metrics leak across runs.
        trace = manual_trace([(Op.SET, 1, 100, 0.5)]
                             + [(Op.GET, 1, 100, 0.5)] * 4)
        sim = Simulator(build_cache(), window_gets=2)
        r1 = sim.run(trace)
        r2 = sim.run(trace)
        assert r2.total_gets == trace.num_gets
        assert len(r2.windows) == len(r1.windows)
        assert r2.hit_ratio == r1.hit_ratio
        assert r2.avg_service_time == pytest.approx(r1.avg_service_time)

    def test_totals_are_per_run_not_cumulative(self):
        trace = generate(ETC.scaled(0.02), 10_000, seed=5)
        sim = Simulator(build_cache(slabs=64), window_gets=2_000)
        sim.run(trace)
        r2 = sim.run(trace)
        assert r2.total_gets == trace.num_gets  # pre-fix: 2x
        # windows restart from index 0 each run
        assert [w.index for w in r2.windows] == list(range(len(r2.windows)))

    def test_partial_window_does_not_leak_into_next_run(self):
        # 3 GETs with window_gets=2 leaves a flushed partial window;
        # the next run must start from an empty collector.
        trace = manual_trace([(Op.GET, k, 100, 0.1) for k in range(3)])
        sim = Simulator(build_cache(), window_gets=2)
        sim.run(trace)
        r2 = sim.run(trace)
        assert sum(w.gets for w in r2.windows) == 3
        assert r2.windows[0].gets == 2 and r2.windows[1].gets == 1


class TestTenantArbiterNeedsOneCache:
    """A tenant-tagged replay sets ``current_tenant`` on one policy: a
    cluster has one per node, so it is refused rather than misfiled."""

    @staticmethod
    def _arbiter():
        from repro.tenancy import TenantArbiter
        return TenantArbiter(2)

    def test_a_cluster_of_arbiters_is_refused(self):
        from repro.cluster import CacheCluster
        from repro.tenancy.mix import mix_tenants
        from repro.tenancy.scenarios import noisy_neighbor_specs

        trace = mix_tenants(noisy_neighbor_specs(), 2_000, seed=7)
        cluster = CacheCluster(
            ["a", "b"], 4 << 20, self._arbiter,
            size_classes=SizeClassConfig(slab_size=64 << 10))
        with pytest.raises(ValueError, match="tenant arbitration needs one "
                                             "SlabCache, not a CacheCluster"):
            Simulator(cluster, window_gets=500).run(trace)
        assert len(cluster) == 0

    def test_faults_and_tenants_are_refused(self):
        from repro.faults import FaultInjector
        from repro.tenancy.mix import mix_tenants
        from repro.tenancy.scenarios import noisy_neighbor_specs

        trace = mix_tenants(noisy_neighbor_specs(), 2_000, seed=7)
        cache = SlabCache(4 << 20, self._arbiter(),
                          SizeClassConfig(slab_size=64 << 10))
        with pytest.raises(ValueError, match="fault injection and tenant "
                                             "arbitration"):
            Simulator(cache, window_gets=500, faults=FaultInjector()).run(
                trace)
        assert cache.accesses == 0
