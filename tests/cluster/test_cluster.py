"""Tests for the cache cluster."""

import pytest

from repro._util import MIB
from repro.cache import SizeClassConfig, SlabCache
from repro.cluster import CacheCluster
from repro.core import PamaPolicy
from repro.policies import StaticMemcachedPolicy
from repro.sim import simulate
from repro.traces import ETC, generate


def small_cluster(nodes=("n1", "n2", "n3"), policy=StaticMemcachedPolicy):
    return CacheCluster(list(nodes), capacity_bytes=MIB,
                        policy_factory=policy,
                        size_classes=SizeClassConfig(slab_size=64 << 10))


class TestClusterBasics:
    def test_roundtrip_routes_consistently(self):
        cluster = small_cluster()
        cluster.set("k", 4, 100, 0.1, value="v")
        assert "k" in cluster
        assert cluster.get("k").value == "v"
        assert cluster.delete("k")
        assert cluster.get("k") is None

    def test_items_spread_over_nodes(self):
        cluster = small_cluster()
        for i in range(900):
            cluster.set(i, 8, 50, 0.1)
        per_node = [len(n) for n in cluster.nodes.values()]
        assert sum(per_node) == 900
        assert all(count > 100 for count in per_node), per_node

    def test_aggregate_stats(self):
        cluster = small_cluster()
        cluster.set(1, 8, 50, 0.1)
        cluster.get(1)
        cluster.lookup(2, 8, 50, 0.5)
        s = cluster.stats
        assert s.gets == 2 and s.hits == 1 and s.misses == 1
        assert s.total_miss_penalty == pytest.approx(0.5)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CacheCluster([], MIB, StaticMemcachedPolicy)
        with pytest.raises(ValueError):
            CacheCluster(["a", "a"], MIB, StaticMemcachedPolicy)

    def test_policies_are_independent_instances(self):
        cluster = small_cluster(policy=PamaPolicy)
        policies = {id(n.policy) for n in cluster.nodes.values()}
        assert len(policies) == 3


class TestTopologyChanges:
    def test_add_node(self):
        cluster = small_cluster()
        for i in range(300):
            cluster.set(i, 8, 50, 0.1)
        cluster.add_node("n4")
        assert len(cluster.nodes) == 4
        # new node starts cold but receives traffic
        for i in range(300):
            cluster.lookup(i, 8, 50, 0.1)
        cluster.check_invariants()

    def test_remove_node_loses_its_items(self):
        cluster = small_cluster()
        for i in range(600):
            cluster.set(i, 8, 50, 0.1)
        victim = cluster.node_names()[0]
        lost = len(cluster.nodes[victim])
        total = len(cluster)
        cluster.remove_node(victim)
        assert len(cluster) == total - lost
        cluster.check_invariants()

    def test_cannot_remove_last_node(self):
        cluster = small_cluster(nodes=("only",))
        with pytest.raises(ValueError):
            cluster.remove_node("only")

    def test_duplicate_node_rejected(self):
        cluster = small_cluster()
        with pytest.raises(ValueError):
            cluster.add_node("n1")

    def test_survivors_keep_their_items(self):
        cluster = small_cluster()
        for i in range(600):
            cluster.set(i, 8, 50, 0.1)
        survivors_items = {
            name: set(node.index) for name, node in cluster.nodes.items()
            if name != "n2"}
        cluster.remove_node("n2")
        for name, keys in survivors_items.items():
            assert set(cluster.nodes[name].index) == keys


class TestClusterSimulation:
    def test_simulator_runs_against_cluster(self):
        trace = generate(ETC.scaled(0.02), 20_000, seed=8)
        cluster = CacheCluster(
            ["a", "b"], capacity_bytes=4 * MIB,
            policy_factory=PamaPolicy,
            size_classes=SizeClassConfig(slab_size=64 << 10))
        result = simulate(trace, cluster, window_gets=5_000)
        assert result.policy == "pama"
        assert result.total_gets == trace.num_gets
        assert 0.0 < result.hit_ratio < 1.0
        assert result.windows[0].class_slabs
        cluster.check_invariants()

    def test_more_nodes_same_total_memory_close_hit_ratio(self):
        trace = generate(ETC.scaled(0.02), 20_000, seed=8)

        def run(names, per_node):
            cluster = CacheCluster(
                list(names), capacity_bytes=per_node,
                policy_factory=PamaPolicy,
                size_classes=SizeClassConfig(slab_size=64 << 10))
            return simulate(trace, cluster, window_gets=5_000).hit_ratio

        one = run(["a"], 8 * MIB)
        four = run(["a", "b", "c", "d"], 2 * MIB)
        # sharding costs a little (per-node fragmentation) but not much
        assert four > one - 0.15

    def test_a_one_node_cluster_replays_like_its_node_alone(self):
        # the kernel hands the cluster runs of rows; it applies them
        # through its routed per-request operations
        trace = generate(ETC.scaled(0.02), 20_000, seed=8)
        classes = SizeClassConfig(slab_size=64 << 10)
        cluster = CacheCluster(["a"], capacity_bytes=4 * MIB,
                               policy_factory=PamaPolicy,
                               size_classes=classes)
        alone = SlabCache(4 * MIB, PamaPolicy(), classes)
        routed = simulate(trace, cluster, window_gets=5_000)
        direct = simulate(trace, alone, window_gets=5_000)
        assert routed.windows == direct.windows
        assert routed.cache_stats == direct.cache_stats
        assert cluster.stats.gets == trace.num_gets

    def test_the_derive_pass_names_the_cluster_as_its_reason(self):
        cluster = small_cluster()
        trace = generate(ETC.scaled(0.02), 2_000, seed=8)
        with pytest.raises(ValueError, match="CacheCluster"):
            simulate(trace, cluster, derive=True)
