"""Integration tests: obs wired into SlabCache, PamaPolicy, Simulator."""

import pytest

from repro import obs
from repro._util import MIB
from repro.cache import SlabCache, SizeClassConfig
from repro.obs import EventTrace, Registry
from repro.policies import make_policy
from repro.sim.simulator import simulate
from repro.traces import ETC, generate


@pytest.fixture(autouse=True)
def _global_obs_off():
    """Never leak the module-level registry across tests."""
    obs.disable()
    yield
    obs.disable()


def _small_cache(**policy_kwargs) -> SlabCache:
    return SlabCache(256 << 10, make_policy("pama", **policy_kwargs),
                     SizeClassConfig(slab_size=64 << 10))


class TestCacheInstrumentation:
    def test_unattached_cache_has_no_obs(self):
        cache = _small_cache()
        assert cache.obs is None
        assert cache.events is None

    def test_attach_obs_counts_operations(self):
        cache = _small_cache()
        cache.attach_obs(Registry(), EventTrace())
        cache.set("k", 1, 100, 0.1)
        cache.get("k")
        cache.get("missing")
        r = cache.obs
        assert r.get("cache_gets_total").value == 2
        assert r.get("cache_hits_total").value == 1
        assert r.get("cache_misses_total").value == 1
        assert r.get("cache_sets_total").value == 1

    def test_update_obs_gauges(self):
        cache = _small_cache()
        cache.attach_obs(Registry())
        cache.set("k", 1, 100, 0.1)
        cache.update_obs_gauges()
        assert cache.obs.get("cache_items").value == 1
        assert cache.obs.get("cache_slabs_total").value == cache.pool.total

    def test_pressure_records_evictions_and_events(self):
        cache = _small_cache()
        cache.attach_obs(Registry(), EventTrace())
        # Overfill a 256 KiB cache with ~1 KiB values to force evictions.
        for i in range(1500):
            cache.set(f"k{i}", 3, 1000, 0.1)
        assert cache.obs.get("cache_evictions_total").value > 0
        kinds = cache.events.kinds()
        assert "eviction" in kinds
        (ev, *_rest) = cache.events.of_kind("eviction")
        assert {"queue", "key", "penalty", "size"} <= set(ev.data)

    def test_cas_tick_increments_per_issued_unique(self):
        cache = _small_cache()
        cache.set("a", 1, 10, 0.1)
        assert cache.index["a"].cas == cache.cas_tick == 0
        first = cache.cas_unique(cache.index["a"])
        assert cache.cas_unique(cache.index["a"]) == first == cache.cas_tick
        cache.set("a", 1, 10, 0.1)
        cache.set("a", 1, 10, 0.1)
        assert cache.index["a"].cas == 0 and cache.cas_tick == first
        assert cache.cas_unique(cache.index["a"]) == first + 1


class TestGlobalEnable:
    def test_new_cache_auto_attaches(self):
        registry = obs.enable()
        cache = _small_cache()
        assert cache.obs is registry
        assert cache.events is obs.get_event_trace()

    def test_disable_stops_auto_attach(self):
        obs.enable()
        obs.disable()
        assert not obs.is_enabled()
        assert _small_cache().obs is None


class TestSimulatorInstrumentation:
    def test_disabled_run_has_no_quantiles(self):
        trace = generate(ETC.scaled(0.1), 2_000, seed=3)
        result = simulate(trace, _small_cache(value_window=500),
                          window_gets=500)
        assert result.service_quantiles == {}
        assert result.hit_quantiles == {}
        assert result.miss_quantiles == {}

    def test_enabled_run_populates_quantiles_and_events(self):
        registry = obs.enable()
        trace = generate(ETC.scaled(0.1), 4_000, seed=3)
        result = simulate(trace, _small_cache(value_window=500),
                          window_gets=500)
        assert set(result.service_quantiles) == {"p50", "p90", "p99", "p999"}
        assert (result.service_quantiles["p50"]
                <= result.service_quantiles["p999"])
        hist = registry.get("sim_service_time_seconds", policy="pama")
        assert hist is not None
        assert hist.count == result.total_gets
        # the trace is heavy enough to exercise pressure paths
        kinds = set(obs.get_event_trace().kinds())
        assert kinds <= {"eviction", "slab_migration", "ghost_hit",
                         "pama_decision", "window_rollover"}
        assert "window_rollover" in kinds

    def test_explicit_registry_beats_global(self):
        mine = Registry()
        trace = generate(ETC.scaled(0.1), 1_000, seed=5)
        result = simulate(trace, _small_cache(value_window=500),
                          window_gets=500, obs=mine)
        assert mine.get("sim_service_time_seconds", policy="pama") is not None
        assert result.service_quantiles
