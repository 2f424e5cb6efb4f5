"""Span tracing through the faulted cluster path.

The acceptance contract: a fault-injected run must yield at least one
sampled span tree that records both a *retry* (flaky connection ridden
out on the same node) and a *failover hop* (a later-rank node attempt
after the primary failed), and attaching the tracer must not change
simulation results.
"""

from repro.cache import SizeClassConfig
from repro.cluster import CacheCluster
from repro.faults import (FaultInjector, FaultPlan, FlakyConnection,
                          NodeCrash)
from repro.obs import SpanTracer
from repro.policies import make_policy
from repro.sim.simulator import simulate
from repro.traces import ETC, generate

MIB = 1 << 20
NODES = ["n0", "n1", "n2"]


def _run(tracer, n=4_000, seed=5):
    trace = generate(ETC.scaled(0.02), n, seed=seed)
    inj = FaultInjector(FaultPlan(
        [NodeCrash("n0", 500, rejoin=2_500),
         FlakyConnection(0, n, 0.10)], seed=13))
    cluster = CacheCluster(list(NODES), 2 * MIB,
                           lambda: make_policy("memcached"),
                           size_classes=SizeClassConfig(slab_size=64 << 10),
                           faults=inj, tracing=tracer)
    result = simulate(trace, cluster, window_gets=1_000, faults=inj)
    return result, inj


def _attempts(spans):
    return [s for s in spans if s.name == "node_attempt"]


class TestFaultedSpanTrees:
    def test_retry_and_failover_both_captured(self):
        tracer = SpanTracer(sample=1.0, seed=13, capacity=8_192)
        _run(tracer)

        def has_retry(spans):
            return any(e["name"] == "retry" for s in _attempts(spans)
                       for e in s.events)

        def has_failover(spans):
            return any(s.attrs.get("failover") for s in _attempts(spans))

        retried = tracer.find_traces(has_retry)
        failed_over = tracer.find_traces(
            lambda spans: has_failover(spans) and
            any(s.status == "ok" for s in _attempts(spans)))
        assert retried, "no trace recorded a retry event"
        assert failed_over, "no trace recorded a successful failover hop"
        # spans form a proper tree: request root -> cluster op span(s)
        # -> node attempts (a miss nests both the get and the fill set)
        for spans in retried[:5] + failed_over[:5]:
            root = spans[0]
            ids = {s.span_id for s in spans}
            ops = {s.span_id for s in spans
                   if s.parent_id == root.span_id}
            assert root.parent_id is None
            assert root.name in ("get", "set", "delete")
            assert ops, "root has no cluster op spans"
            assert all(s.parent_id in ops for s in _attempts(spans))
            assert ids >= {s.parent_id for s in spans[1:]}
            assert all(s.end_tick >= s.start_tick for s in spans)

    def test_node_down_attempts_marked(self):
        tracer = SpanTracer(sample=1.0, seed=13, capacity=8_192)
        _run(tracer)
        down = tracer.find_traces(
            lambda spans: any(s.status == "node_down"
                              for s in _attempts(spans)))
        assert down, "crash window produced no node_down attempt spans"
        # the downed attempt is rank 0 (primary) during the crash window
        attempt = next(s for s in _attempts(down[0])
                       if s.status == "node_down")
        assert attempt.attrs["node"] == "n0"

    def test_tracing_does_not_perturb_results(self):
        plain, inj_a = _run(None)
        traced, inj_b = _run(SpanTracer(sample=1.0, seed=13,
                                        capacity=8_192))
        assert plain.hit_ratio == traced.hit_ratio
        assert plain.avg_service_time == traced.avg_service_time
        assert plain.cache_stats == traced.cache_stats
        assert inj_a.snapshot() == inj_b.snapshot()

    def test_sampling_thins_traces_deterministically(self):
        a = SpanTracer(sample=0.1, seed=7, capacity=8_192)
        b = SpanTracer(sample=0.1, seed=7, capacity=8_192)
        _run(a)
        _run(b)
        assert 0 < len(a.traces()) < 4_000
        assert ([s.as_dict() for t in a.traces() for s in t]
                == [s.as_dict() for t in b.traces() for s in t])
