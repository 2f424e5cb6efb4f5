"""The cluster's resilient routing under injected faults.

The two load-bearing guarantees:

* ``faults=None`` and an *empty* plan produce byte-identical
  simulation results (arming the layer costs nothing but time);
* the whole faulted pipeline is deterministic — same seed, same
  trajectory, same counters.
"""

from collections import Counter

import pytest

from repro.cache import SizeClassConfig
from repro.cluster import CacheCluster
from repro.faults import (FaultInjector, FaultPlan, FlakyConnection,
                          NodeCrash, ResilienceConfig, SlowNode)
from repro.faults.scenarios import default_policy_kwargs, make_plan
from repro.obs import TimelineRecorder
from repro.policies import make_policy
from repro.sim.simulator import simulate
from repro.traces import ETC, generate

MIB = 1 << 20
NODES = ["n0", "n1", "n2"]


def build_cluster(faults=None, policy="memcached", nodes=NODES):
    return CacheCluster(list(nodes), 2 * MIB,
                        lambda: make_policy(policy),
                        size_classes=SizeClassConfig(slab_size=64 << 10),
                        faults=faults)


def small_trace(n=20_000, seed=5):
    return generate(ETC.scaled(0.02), n, seed=seed)


def keys_owned_by(cluster, node, count=5):
    """Key strings whose primary owner is ``node``."""
    out = []
    i = 0
    while len(out) < count:
        key = f"probe-{i}"
        if cluster.ring.node_for(key) == node:
            out.append(key)
        i += 1
    return out


class TestDisabledPathIdentity:
    def test_empty_plan_equals_no_injector(self):
        trace = small_trace()
        plain = simulate(trace, build_cluster(), window_gets=5000)
        inj = FaultInjector(FaultPlan())
        armed = simulate(trace, build_cluster(inj), window_gets=5000,
                         faults=inj)
        assert armed.hit_ratio == plain.hit_ratio
        assert armed.avg_service_time == plain.avg_service_time
        assert armed.total_gets == plain.total_gets
        assert armed.hit_ratio_series() == plain.hit_ratio_series()
        assert armed.service_time_series() == plain.service_time_series()
        assert armed.cache_stats == plain.cache_stats
        # nothing fired
        assert inj.counters == {}
        assert inj.degraded_time == 0.0

    def test_faulted_run_is_deterministic(self):
        trace = small_trace()
        plan_faults = [NodeCrash("n0", 2000, rejoin=6000),
                       FlakyConnection(0, 20_000, 0.02),
                       SlowNode("n1", 8000, 12_000, 0.01)]

        def run():
            inj = FaultInjector(FaultPlan(plan_faults, seed=13))
            result = simulate(trace, build_cluster(inj), window_gets=5000,
                              faults=inj)
            return result, inj.snapshot()

        (r1, c1), (r2, c2) = run(), run()
        assert c1 == c2
        assert r1.hit_ratio == r2.hit_ratio
        assert r1.avg_service_time == r2.avg_service_time
        assert r1.service_time_series() == r2.service_time_series()

    def test_different_seed_different_trajectory(self):
        trace = small_trace()

        def run(seed):
            inj = FaultInjector(
                FaultPlan([FlakyConnection(0, 20_000, 0.05)], seed=seed))
            simulate(trace, build_cluster(inj), window_gets=5000, faults=inj)
            return inj.snapshot()

        assert run(1) != run(2)


class TestFailover:
    def test_down_node_fails_over_to_ring_successor(self):
        inj = FaultInjector(FaultPlan([NodeCrash("n0", 0)]))
        cluster = build_cluster(inj)
        inj.advance()
        key = keys_owned_by(cluster, "n0", 1)[0]
        assert cluster.ring.successors(key)[0] == "n0"
        backup = cluster.ring.successors(key)[1]
        assert cluster.set(key, 16, 100, 0.1)
        assert key in cluster.nodes[backup]
        assert key not in cluster.nodes["n0"]
        assert inj.counters["failovers"] == 1
        assert inj.counters["node_down"] == 1
        # discovering the dead node cost one op timeout
        assert inj.consume_latency() == pytest.approx(
            inj.resilience.op_timeout)

    def test_failover_disabled_degrades_instead(self):
        cfg = ResilienceConfig(failover=False)
        inj = FaultInjector(FaultPlan([NodeCrash("n0", 0)]), resilience=cfg)
        cluster = build_cluster(inj)
        inj.advance()
        key = keys_owned_by(cluster, "n0", 1)[0]
        assert cluster.set(key, 16, 100, 0.1) is False
        assert cluster.get(key) is None
        assert inj.counters["op_failed"] == 2
        assert "failovers" not in inj.counters

    def test_failover_agrees_with_permanent_removal(self):
        inj = FaultInjector(FaultPlan([NodeCrash("n0", 0)]))
        cluster = build_cluster(inj)
        reference = build_cluster()
        reference.remove_node("n0")
        for key in keys_owned_by(cluster, "n0", 10):
            live = [n for n in cluster.ring.successors(key) if n != "n0"]
            assert live[0] == reference.ring.node_for(key)


class TestBreaker:
    def test_persistent_crash_opens_the_breaker(self):
        cfg = ResilienceConfig(breaker_threshold=3, breaker_reset_ticks=50)
        inj = FaultInjector(FaultPlan([NodeCrash("n0", 0)]), resilience=cfg)
        cluster = build_cluster(inj)
        keys = keys_owned_by(cluster, "n0", 10)
        for key in keys:
            inj.advance()
            cluster.get(key)
        assert cluster.breakers["n0"].state == "open"
        assert inj.counters["breaker_open"] == 1
        assert inj.counters["breaker_rejected"] > 0
        # open breaker short-circuits: failures stop accruing node_down
        assert inj.counters["node_down"] == cfg.breaker_threshold

    def test_breaker_recovers_after_rejoin(self):
        cfg = ResilienceConfig(breaker_threshold=2, breaker_reset_ticks=5)
        inj = FaultInjector(FaultPlan([NodeCrash("n0", 0, rejoin=3)]),
                            resilience=cfg)
        cluster = build_cluster(inj)
        keys = keys_owned_by(cluster, "n0", 12)
        for key in keys:
            inj.advance()
            cluster.get(key)
        assert cluster.breakers["n0"].state == "closed"
        assert inj.counters["breaker_closed"] == 1
        assert inj.counters["node_rejoin"] == 1


class TestNodeRejoin:
    def test_rejoin_restarts_cold(self):
        inj = FaultInjector(FaultPlan([NodeCrash("n0", 5, rejoin=10)]))
        cluster = build_cluster(inj)
        key = keys_owned_by(cluster, "n0", 1)[0]
        inj.advance()  # tick 0: healthy
        cluster.set(key, 16, 100, 0.1)
        assert key in cluster.nodes["n0"]
        old_cache = cluster.nodes["n0"]
        while inj.advance() < 5:
            pass
        cluster.get(key)  # tick 5: observed down (restarts are detected
        while inj.advance() < 10:  # on access, like a real client would)
            pass
        cluster.get(key)  # first touch after the rejoin window
        assert cluster.nodes["n0"] is not old_cache
        assert len(cluster.nodes["n0"]) == 0
        assert inj.counters["node_rejoin"] == 1

    def test_timeline_snapshots_every_node_across_a_rejoin(self):
        def summed():
            classes, queues = Counter(), Counter()
            for node in cluster.nodes.values():
                classes.update(node.class_slab_distribution())
                queues.update(node.slab_distribution())
            return dict(classes), dict(queues)

        def fill(keys):
            for key in keys:
                inj.advance()
                cluster.set(key, 16, 300, 0.1)

        inj = FaultInjector(FaultPlan([NodeCrash("n0", 600, rejoin=700)]))
        cluster = build_cluster(inj)
        timeline = TimelineRecorder()
        cluster.attach_timeline(timeline)
        fill(range(600))
        before = timeline.snapshot_fn()
        assert before == summed()
        last = cluster.nodes["n2"]
        assert before[0] != last.class_slab_distribution()

        key = keys_owned_by(cluster, "n0", 1)[0]
        assert inj.advance() == 600
        cluster.get(key)  # observed down
        while inj.advance() < 700:
            pass
        cluster.get(key)  # rejoins with a fresh, empty cache
        assert inj.counters["node_rejoin"] == 1
        fill(keys_owned_by(cluster, "n0", 50))
        after = timeline.snapshot_fn()
        assert after == summed()
        assert after != before  # the rejoined node counts afresh

    def test_a_rejoined_node_still_notes_its_evictions(self):
        # node-flap restarts nodes; every cache a node had, the closed
        # ones included, must have reached the rows
        trace = generate(ETC.scaled(0.05), 30_000, seed=7)
        inj = FaultInjector(make_plan("node-flap", len(trace), NODES, 7))
        kwargs = default_policy_kwargs(10_000, len(NODES))["pama"]
        cluster = CacheCluster(NODES, (8 * MIB) // len(NODES),
                               lambda: make_policy("pama", **kwargs),
                               size_classes=SizeClassConfig(
                                   slab_size=64 << 10),
                               faults=inj)
        caches = list(cluster.nodes.values())
        fresh_cache = cluster._fresh_cache

        def tracked():
            caches.append(fresh_cache())
            return caches[-1]

        cluster._fresh_cache = tracked
        timeline = TimelineRecorder(stride=10_000)
        simulate(trace, cluster, window_gets=10_000, faults=inj,
                 timeline=timeline)
        assert inj.counters["node_rejoin"] > 0
        assert len(caches) == len(NODES) + inj.counters["node_rejoin"]
        evictions = sum(c.stats.evictions for c in caches)
        assert evictions > 0
        assert sum(row["evictions"] for row in timeline.rows) == evictions


class TestTransientFaults:
    def test_conn_drop_is_retried(self):
        # Certain drop on every attempt: retries exhaust, next node wins.
        inj = FaultInjector(
            FaultPlan([FlakyConnection(0, 100, 1.0, node="n0")]))
        cluster = build_cluster(inj)
        inj.advance()
        key = keys_owned_by(cluster, "n0", 1)[0]
        assert cluster.set(key, 16, 100, 0.1)
        assert inj.counters["conn_drop"] == 1 + inj.resilience.max_retries
        assert inj.counters["retries"] == inj.resilience.max_retries
        assert inj.counters["failovers"] == 1
        assert inj.consume_latency() > 0  # backoff delays accrued

    def test_slow_node_below_timeout_adds_latency(self):
        inj = FaultInjector(FaultPlan([SlowNode("n0", 0, 100, 0.01)]))
        cluster = build_cluster(inj)
        inj.advance()
        key = keys_owned_by(cluster, "n0", 1)[0]
        cluster.set(key, 16, 100, 0.1)
        assert inj.counters["slow_op"] == 1
        assert inj.consume_latency() == pytest.approx(0.01)
        assert key in cluster.nodes["n0"]  # served locally, just slowly

    def test_slow_node_at_timeout_is_a_timeout(self):
        cfg = ResilienceConfig(op_timeout=0.05, max_retries=1)
        inj = FaultInjector(FaultPlan([SlowNode("n0", 0, 100, 0.05)]),
                            resilience=cfg)
        cluster = build_cluster(inj)
        inj.advance()
        key = keys_owned_by(cluster, "n0", 1)[0]
        assert cluster.set(key, 16, 100, 0.1)
        assert inj.counters["op_timeout"] == 2  # first try + one retry
        assert inj.counters["failovers"] == 1
        assert key not in cluster.nodes["n0"]


class TestBlackout:
    def test_all_nodes_down_degrades_but_ring_survives(self):
        inj = FaultInjector(FaultPlan([NodeCrash(n, 0) for n in NODES]))
        cluster = build_cluster(inj)
        for i in range(20):
            inj.advance()
            assert cluster.get(f"k{i}") is None
            assert cluster.set(f"k{i}", 16, 100, 0.1) is False
        assert inj.counters["op_failed"] == 40
        assert set(cluster.ring.nodes) == set(NODES)
        cluster.check_invariants()

    def test_remove_node_still_refuses_to_empty_the_ring(self):
        inj = FaultInjector(FaultPlan([NodeCrash("solo", 0)]))
        cluster = build_cluster(inj, nodes=["solo"])
        with pytest.raises(ValueError, match="last node"):
            cluster.remove_node("solo")
        # crashed-but-present is fine; gone would be unroutable
        cluster.check_invariants()


class TestServeStale:
    def trace_with_misses(self):
        return generate(ETC.scaled(0.02), 10_000, seed=9)

    def run(self, serve_stale):
        cfg = ResilienceConfig(serve_stale=serve_stale)
        from repro.faults import BackendErrorBurst
        inj = FaultInjector(FaultPlan([BackendErrorBurst(0, 10_000, 1.0)]),
                            resilience=cfg)
        result = simulate(self.trace_with_misses(), build_cluster(inj),
                          window_gets=2000, faults=inj)
        return result, inj

    def test_stale_serving_beats_error_penalty(self):
        stale, inj_s = self.run(serve_stale=True)
        hard, inj_h = self.run(serve_stale=False)
        assert inj_s.counters["stale_served"] == inj_s.counters[
            "backend_error"]
        assert inj_h.counters["backend_give_up"] == inj_h.counters[
            "backend_error"]
        assert "stale_served" not in inj_h.counters
        assert stale.avg_service_time < hard.avg_service_time
        assert inj_s.degraded_time < inj_h.degraded_time
        assert inj_s.degraded_time > 0
