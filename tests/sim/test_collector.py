"""A replay creates no reference cycles, and the collector pause of
``Simulator.run`` keeps its contract.

``Simulator.run`` replays with CPython's cyclic collector paused
(:func:`repro._util.collector_paused`).  That is free only while every
object a replay drops is freed by reference counting.  Each cell of the
matrix below collects first, pauses the collector itself (so nothing is
collected behind the test's back), replays, and asserts that a full
collection then finds nothing unreachable.  A new policy proves that it
creates no cycles per request by joining ``POLICIES``.

``numpy.ma`` is imported up front: the first ``np.unique`` of a process
(pama-adaptive's edge learning, inside ``np.quantile``) imports it, and
that import leaves ≈ 300 objects of ``inspect`` / ``ast`` closures in
cycles.  The one-off is NumPy's; :func:`test_adaptive_one_off_does_not_grow`
pins in fresh processes that it does not grow with the trace.
"""

import gc
import os
import subprocess
import sys
import textwrap

import numpy as np
import numpy.ma  # noqa: F401 - see the module docstring
import pytest

import repro
from repro._util import KIB, MIB
from repro.bloom.hashing import hash_pair
from repro.cache import SizeClassConfig, SlabCache
from repro.cache.errors import InvalidItemError
from repro.cluster.cluster import CacheCluster
from repro.core.config import PamaConfig
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import default_policy_kwargs, make_plan
from repro.obs import Registry, TimelineRecorder
from repro.policies import POLICY_NAMES, StaticMemcachedPolicy, make_policy
from repro.sim import (ExperimentSpec, Simulator, run_comparison, simulate,
                       sweep_cache_sizes)
from repro.tenancy import TenantArbiter, mix_tenants, tenant_configs
from repro.tenancy.scenarios import noisy_neighbor_specs
from repro.traces import ETC, Trace, generate

POLICIES = [(name, {}) for name in POLICY_NAMES] + [
    ("pama", {"tracker": "bloom"})]


def _policy_id(case):
    name, kwargs = case
    return "-".join([name, *map(str, kwargs.values())])


@pytest.fixture(scope="module")
def trace():
    return generate(ETC.scaled(0.02), 20_000, seed=3)


@pytest.fixture
def paused():
    """A clean heap and a paused collector for the test's duration."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def small_cache(policy, capacity=1 * MIB):
    return SlabCache(capacity, policy, SizeClassConfig(slab_size=16 * KIB))


def simulator(cache, attached: bool) -> Simulator:
    if not attached:
        return Simulator(cache, window_gets=5_000)
    registry = Registry()
    cache.attach_obs(registry)
    return Simulator(cache, window_gets=5_000, obs=registry,
                     timeline=TimelineRecorder(stride=2_000))


class TestReplayIsCycleFree:
    @pytest.mark.parametrize("attached", [False, True],
                             ids=["bare", "registry+timeline"])
    @pytest.mark.parametrize("case", POLICIES, ids=_policy_id)
    def test_policy(self, paused, trace, case, attached):
        name, kwargs = case
        sim = simulator(small_cache(make_policy(name, **kwargs)), attached)
        sim.run(trace)
        assert sim.cache.stats.evictions > 0   # the pressure path ran
        assert gc.collect() == 0

    def test_tenant_arbiter(self, paused):
        specs = noisy_neighbor_specs()
        cache = small_cache(TenantArbiter(
            tenant_configs(specs, (2 * MIB) // (16 * KIB)),
            config=PamaConfig(value_window=5_000)), capacity=2 * MIB)
        sim = simulator(cache, attached=True)
        result = sim.run(mix_tenants(specs, 20_000, seed=7))
        assert len(result.tenant_metrics) == len(specs)
        assert gc.collect() == 0

    # The CI chaos steps' parameters; node-flap and blackout restart
    # nodes, whose replaced caches SlabCache.close tears down.
    @pytest.mark.parametrize("scenario,nodes", [("backend-brownout", 2),
                                                ("node-flap", 3),
                                                ("blackout", 2)])
    @pytest.mark.parametrize("policy", ["pre-pama", "pama"])
    def test_fault_aware_replay(self, paused, scenario, nodes, policy):
        cluster, inj = chaos_replay(scenario, nodes, policy)
        if scenario != "backend-brownout":
            assert inj.counters["node_rejoin"] > 0
        assert gc.collect() == 0


def chaos_replay(scenario: str, nodes: int, policy: str):
    """``(cluster, injector)`` after a fault-aware replay of 30k ETC
    rows, seed 7, with a registry and a timeline attached."""
    trace = generate(ETC.scaled(0.05), 30_000, seed=7)
    names = [f"node{i}" for i in range(nodes)]
    inj = FaultInjector(make_plan(scenario, len(trace), names, 7),
                        obs=Registry())
    kwargs = default_policy_kwargs(10_000, nodes)[policy]
    cluster = CacheCluster(names, (8 * MIB) // nodes,
                           lambda: make_policy(policy, **kwargs),
                           size_classes=SizeClassConfig(slab_size=64 * KIB),
                           faults=inj)
    Simulator(cluster, window_gets=10_000, faults=inj, obs=inj.obs,
              timeline=TimelineRecorder(stride=10_000)).run(trace)
    return cluster, inj


ADAPTIVE = textwrap.dedent("""
    import gc, sys
    from repro.cache import SizeClassConfig, SlabCache
    from repro.policies import make_policy
    from repro.sim import Simulator
    from repro.traces import ETC, generate

    trace = generate(ETC.scaled(0.02), int(sys.argv[1]), seed=3)
    gc.collect()
    gc.disable()
    policy = make_policy("pama-adaptive", warmup_samples=2_000,
                         refresh_interval=2_000)
    sim = Simulator(SlabCache(1 << 20, policy,
                              SizeClassConfig(slab_size=16 << 10)),
                    window_gets=5_000)
    sim.run(trace)
    print(gc.collect(), policy.relearn_count)
""")


def test_adaptive_one_off_does_not_grow():
    """In a fresh process, pama-adaptive's replay leaves the same
    cyclic garbage (NumPy's ``numpy.ma`` import, if it is lazy) for a
    trace twice as long, with twice as many edge re-learnings."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    readings = []
    for rows in (20_000, 40_000):
        done = subprocess.run([sys.executable, "-c", ADAPTIVE, str(rows)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        readings.append([int(x) for x in done.stdout.split()])
    (garbage, relearned), (garbage2, relearned2) = readings
    assert relearned2 > relearned > 1
    assert garbage2 == garbage


class TestClose:
    @pytest.mark.parametrize("case", POLICIES, ids=_policy_id)
    def test_closed_cache_is_freed_by_reference_counting(self, paused,
                                                         trace, case):
        name, kwargs = case
        cache = small_cache(make_policy(name, **kwargs))
        hashes = {key: hash_pair(key) for key in trace.keys.tolist()}
        cache.apply_rows(trace.iter_rows(), True, lambda outcome: None,
                         hashes)
        slabs = cache.slab_distribution()
        cache.close()
        assert len(cache) == 0
        assert cache.slab_distribution() == slabs
        del cache
        assert gc.collect() == 0

    def test_tenant_arbiter(self, paused):
        specs = noisy_neighbor_specs()
        cache = small_cache(TenantArbiter(tenant_configs(specs, 64)),
                            capacity=1 * MIB)
        trace = mix_tenants(specs, 10_000, seed=7)
        for row, cache.policy.current_tenant in zip(trace.iter_rows(),
                                                    trace.tenants.tolist()):
            cache.apply_rows([row], True, lambda outcome: None)
        cache.close()
        del cache
        assert gc.collect() == 0

    def test_a_closed_cluster_is_freed_by_reference_counting(self, paused):
        # node-flap: the breakers' callbacks, the timeline's snapshot and
        # the nodes' caches all lead back to the cluster
        cluster, inj = chaos_replay("node-flap", 3, "pama")
        assert inj.counters["node_rejoin"] > 0
        cluster.close()
        del cluster, inj
        assert gc.collect() == 0

    def test_an_unclosed_cache_is_left_to_the_collector(self, paused, trace):
        cache = small_cache(make_policy("pama"))
        cache.apply_rows(trace.iter_rows(), True, lambda outcome: None)
        del cache
        assert gc.collect() > 0


def live_caches() -> int:
    return sum(type(o) is SlabCache for o in gc.get_objects())


class TestADroppedReplayFreesItsCache:
    """With the collector paused throughout, a replay whose result is
    dropped leaves no ``SlabCache`` behind: the simulator holds no cycle
    that would keep its cache, and the grid closes each cell's cache."""

    SPEC = ExperimentSpec("drop", 1 * MIB, slab_size=16 * KIB,
                          window_gets=5_000)

    def test_simulate(self, paused, trace):
        before = live_caches()
        cache = small_cache(make_policy("pama"))
        result = simulate(trace, cache, window_gets=5_000)
        assert result.windows[0].class_slabs  # the snapshot ran
        cache.close()
        del cache, result
        assert live_caches() == before
        assert gc.collect() == 0

    def test_simulate_with_a_timeline(self, paused):
        # the recorder's snapshot_fn holds the cache, which held the
        # recorder until close() let go of it
        trace = generate(ETC.scaled(0.02), 20_000, seed=1)
        cache = small_cache(make_policy("pama"), capacity=4 * MIB)
        timeline = TimelineRecorder(stride=2_000)
        simulate(trace, cache, window_gets=5_000, timeline=timeline)
        assert timeline.rows[0]["class_slabs"]  # the snapshot ran
        cache.close()
        del cache, timeline
        assert gc.collect() == 0

    def test_run_comparison(self, paused, trace):
        before = live_caches()
        run_comparison(trace, self.SPEC, ["memcached", "pama"])
        assert live_caches() == before
        assert gc.collect() == 0

    def test_sweep_cache_sizes(self, paused, trace):
        before = live_caches()
        sweep_cache_sizes(trace, self.SPEC, ["memcached", "pama"],
                          [1 * MIB, 2 * MIB])
        assert live_caches() == before
        assert gc.collect() == 0


class _Recording(StaticMemcachedPolicy):
    """Records whether the collector runs, once per GET miss."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: list[bool] = []

    def on_miss(self, key, class_idx, penalty, h1=0, h2=0) -> None:
        self.seen.append(gc.isenabled())


class TestPauseContract:
    @pytest.fixture
    def restore(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_enabled_on_entry_is_enabled_after(self, restore, trace):
        gc.enable()
        Simulator(small_cache(make_policy("pama"))).run(trace)
        assert gc.isenabled()

    def test_disabled_on_entry_stays_disabled(self, restore, trace):
        gc.disable()
        Simulator(small_cache(make_policy("pama"))).run(trace)
        assert not gc.isenabled()

    def test_a_replay_that_raises_restores_the_collector(self, restore):
        bad = Trace(np.array([1], np.uint8), np.array([1], np.int64),
                    np.array([8], np.int32), np.array([-5], np.int32),
                    np.array([0.1]))
        gc.enable()
        with pytest.raises(InvalidItemError):
            Simulator(small_cache(make_policy("pama"))).run(bad)
        assert gc.isenabled()

    def test_policy_hooks_run_with_the_collector_paused(self, restore,
                                                        trace):
        gc.enable()
        policy = _Recording()
        Simulator(small_cache(policy)).run(trace)
        assert policy.seen and not any(policy.seen)
        assert gc.isenabled()
