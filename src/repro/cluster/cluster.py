"""A client-routed cluster of slab caches.

Mirrors the deployment the paper assumes: each node is an independent
cache with its own allocation policy (no cross-node coordination, like
production Memcached); clients route keys with consistent hashing.

:class:`CacheCluster` exposes the same ``get``/``set``/``delete``/
``stats`` surface as a single :class:`~repro.cache.cache.SlabCache`, so
the trace-driven simulator runs unmodified against a whole cluster —
which is how the cluster examples/benches measure the effect of node
counts and node failures on hit ratio and service time.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.cache import SlabCache, apply_rows_per_request
from repro.cache.item import Item
from repro.cache.sizeclasses import SizeClassConfig
from repro.cache.stats import CacheStats
from repro.bloom.hashing import hash_key
from repro.cluster.hashring import ConsistentHashRing
from repro.faults.breaker import CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.policies.base import AllocationPolicy


class CacheCluster:
    """Consistent-hash routed collection of independent SlabCaches.

    Args:
        node_names: names of the initial nodes.
        capacity_bytes: memory *per node*.
        policy_factory: builds a fresh policy per node (policies hold
            per-cache state and cannot be shared).
        size_classes: shared class geometry (a fresh equivalent config
            is safe to share: it is immutable).
        replicas: virtual nodes per physical node on the ring.
        faults: optional :class:`~repro.faults.injector.FaultInjector`.
            When given, every op routes through the resilient path:
            per-op timeouts, bounded retries with backoff, a per-node
            circuit breaker, and ring-successor failover.  When None
            (the default) ops take the exact pre-fault code path.
        tracing: optional :class:`~repro.obs.spans.SpanTracer`.  Sampled
            ops through the resilient path emit a trace tree: a root
            span per op with a ``node_attempt`` child per candidate
            node, carrying retry/drop/timeout/breaker events — the
            replayable waterfall of where a request went and why.
    """

    def __init__(self, node_names: list[str], capacity_bytes: int,
                 policy_factory: Callable[[], AllocationPolicy],
                 size_classes: SizeClassConfig | None = None,
                 replicas: int = 64,
                 faults: FaultInjector | None = None,
                 tracing=None) -> None:
        if not node_names:
            raise ValueError("cluster needs at least one node")
        if len(set(node_names)) != len(node_names):
            raise ValueError("duplicate node names")
        self.capacity_bytes = capacity_bytes
        self.policy_factory = policy_factory
        self.size_classes = size_classes or SizeClassConfig()
        self.ring = ConsistentHashRing(replicas=replicas)
        self.nodes: dict[str, SlabCache] = {}
        self.faults = faults
        self.tracer = tracing
        self.breakers: dict[str, CircuitBreaker] = {}
        self._down_seen: set[str] = set()
        #: the recorder :meth:`attach_timeline` attached, which a
        #: rejoined node's fresh cache is attached to as well
        self.timeline = None
        for name in node_names:
            self._spawn(name)

    # -- topology ---------------------------------------------------------
    def _fresh_cache(self) -> SlabCache:
        return SlabCache(self.capacity_bytes, self.policy_factory(),
                         self.size_classes)

    def _spawn(self, name: str) -> None:
        self.ring.add_node(name)
        self.nodes[name] = self._fresh_cache()
        if self.faults is not None:
            self.breakers[name] = self._fresh_breaker(name)

    def _fresh_breaker(self, name: str) -> CircuitBreaker:
        cfg = self.faults.resilience
        inj = self.faults

        def on_transition(old: str, new: str, tick: int,
                          _name: str = name) -> None:
            inj.count(f"breaker_{new.replace('-', '_')}")
            inj.event("breaker_transition", node=_name, old=old, new=new)
            if self.tracer is not None:
                self.tracer.event("breaker_transition", tick, node=_name,
                                  old=old, new=new)

        return CircuitBreaker(failure_threshold=cfg.breaker_threshold,
                              reset_ticks=cfg.breaker_reset_ticks,
                              on_transition=on_transition)

    def add_node(self, name: str) -> None:
        """Scale out: new empty node; ~1/n of the key space remaps to it."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        self._spawn(name)

    def remove_node(self, name: str) -> None:
        """Node failure/decommission: its cached items are lost and its
        key range remaps onto the survivors (a cold start for them).

        Removing the last node is refused: it would leave an empty,
        unroutable ring.  Chaos node crashes honour the same invariant
        by never touching the ring — a crashed node stays a member and
        its ops fail over or fail, so the topology always stays
        routable (see docs/resilience.md).
        """
        if name not in self.nodes:
            raise ValueError(f"node {name!r} does not exist")
        if len(self.nodes) == 1:
            raise ValueError(
                "cannot remove the last node: the ring would be empty "
                "and every key unroutable")
        self.ring.remove_node(name)
        self.nodes.pop(name).close()
        self.breakers.pop(name, None)
        self._down_seen.discard(name)

    def close(self) -> None:
        """Tear the cluster down for good, so reference counting frees it.

        Each node's cache, each breaker's ``on_transition`` callback and
        the timeline's ``snapshot_fn`` lead back to the cluster, so a
        dropped cluster would otherwise wait for CPython's cyclic
        collector.  This closes every node's cache
        (:meth:`SlabCache.close`) and lets go of the breakers and the
        timeline.  The aggregate stats stay readable; nothing else
        works after.
        """
        for node in self.nodes.values():
            node.close()
        self.breakers.clear()
        self.timeline = None

    def attach_timeline(self, timeline) -> None:
        """Attach one :class:`~repro.obs.timeline.TimelineRecorder` to
        every node (cluster-wide flux notes, cluster-wide slab
        snapshots).  A node that rejoins after a crash is attached
        again; one spawned later via :meth:`add_node` is *not*, so
        re-call after topology changes.

        The cluster-wide snapshot is set after the nodes, each of which
        points ``snapshot_fn`` at itself; it sums over whichever caches
        are the nodes when a row closes, a rejoined node's fresh one
        included."""
        self.timeline = timeline
        for node in self.nodes.values():
            node.attach_timeline(timeline)
        timeline.snapshot_fn = lambda: (self.class_slab_distribution(),
                                        self.slab_distribution())

    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    def node_for(self, key: object) -> SlabCache:
        return self.nodes[self.ring.node_for(key)]

    # -- cache surface (simulator-compatible) --------------------------------
    def get(self, key: object) -> Item | None:
        if self.faults is None:
            return self.node_for(key).get(key)
        return self._routed(key, lambda node: node.get(key), None, "get")

    def lookup(self, key: object, key_size: int, value_size: int,
               penalty: float) -> Item | None:
        """Scalar GET fast path, mirroring :meth:`SlabCache.lookup`."""
        if self.faults is None:
            return self.node_for(key).lookup(key, key_size, value_size,
                                             penalty)
        return self._routed(
            key, lambda node: node.lookup(key, key_size, value_size, penalty),
            None, "get")

    def apply_rows(self, rows, fill: bool, note, hashes=None) -> None:
        """A run of trace rows (:meth:`SlabCache.apply_rows`), each
        request routed on its own; ``hashes`` is unused, as each node
        hashes a key in its own ``lookup``."""
        apply_rows_per_request(self, rows, fill, note)

    def set(self, key: object, key_size: int, value_size: int,
            penalty: float, value: object = None) -> bool:
        if self.faults is None:
            return self.node_for(key).set(key, key_size, value_size, penalty,
                                          value)
        return self._routed(
            key, lambda node: node.set(key, key_size, value_size, penalty,
                                       value), False, "set")

    def delete(self, key: object) -> bool:
        if self.faults is None:
            return self.node_for(key).delete(key)
        return self._routed(key, lambda node: node.delete(key), False,
                            "delete")

    # -- resilient routing ----------------------------------------------------
    def _sync_restart(self, name: str, tick: int) -> None:
        """Track down→up transitions; a rejoining node restarts cold
        (fresh cache *and* fresh policy, like a process restart); the
        cache it replaces is closed, and the fresh one is attached to
        the cluster's timeline, so its evictions and migrations still
        reach the rows."""
        inj = self.faults
        if inj.plan.node_down(name, tick):
            if name not in self._down_seen:
                self._down_seen.add(name)
                inj.event("node_crash", node=name)
        elif name in self._down_seen:
            self._down_seen.discard(name)
            self.nodes[name].close()
            self.nodes[name] = self._fresh_cache()
            if self.timeline is not None:
                self.attach_timeline(self.timeline)
            inj.count("node_rejoin")
            inj.event("node_rejoin", node=name)

    def _routed(self, key: object, op, default, op_name: str = "op"):
        """One op through the resilient path.

        Walks the ring-successor preference list; per candidate node:
        breaker gate, crash check (costs one ``op_timeout`` to
        discover), then up to ``1 + max_retries`` attempts riding out
        transient faults (dropped connections, slow-node timeouts) with
        exponential backoff and deterministic jitter.  All simulated
        latency lands on the injector's latency channel; when every
        candidate fails the op degrades to ``default`` (a miss / failed
        set) rather than raising.

        When a tracer is attached and samples this tick, the walk is
        recorded as a span tree (root op span, one ``node_attempt``
        child per candidate); a trace already opened by the caller (a
        faulted replay's request root) is nested into instead.
        """
        inj = self.faults
        cfg = inj.resilience
        plan = inj.plan
        tick = max(inj.tick, 0)
        latency = 0.0
        candidates = self.ring.successors(key)
        if not cfg.failover:
            candidates = candidates[:1]
        tracer = self.tracer
        root = None
        if tracer is not None:
            if tracer.active:
                root = tracer.start(op_name, tick, key=str(key))
            elif tracer.sampled(tick):
                root = tracer.start_trace(tick, op_name, key=str(key))
        for rank, name in enumerate(candidates):
            if rank:
                inj.count("failovers")
            node_span = None
            if root is not None:
                node_span = tracer.start("node_attempt", tick, node=name,
                                         rank=rank, failover=bool(rank))
            breaker = self.breakers[name]
            if not breaker.allow(tick):
                inj.count("breaker_rejected")
                if node_span is not None:
                    tracer.end(node_span, tick, status="breaker_rejected")
                continue
            self._sync_restart(name, tick)
            if plan.node_down(name, tick):
                latency += cfg.op_timeout
                inj.count("node_down")
                breaker.record_failure(tick)
                if node_span is not None:
                    tracer.end(node_span, tick, status="node_down")
                continue
            # hash_key, not hash(): str hashing is salted per process
            # and would break cross-run fault determinism.
            name_hash = hash_key(name)
            failed = True
            for attempt in range(1 + cfg.max_retries):
                if attempt:
                    inj.count("retries")
                    latency += cfg.backoff(
                        attempt, plan.jitter(tick, name_hash, attempt))
                    if node_span is not None:
                        node_span.add_event("retry", tick, attempt=attempt)
                if plan.conn_dropped(name, tick, attempt):
                    inj.count("conn_drop")
                    breaker.record_failure(tick)
                    if node_span is not None:
                        node_span.add_event("conn_drop", tick,
                                            attempt=attempt)
                    continue
                extra = plan.slow_extra(name, tick)
                if cfg.op_timeout and extra >= cfg.op_timeout:
                    latency += cfg.op_timeout
                    inj.count("op_timeout")
                    breaker.record_failure(tick)
                    if node_span is not None:
                        node_span.add_event("op_timeout", tick,
                                            attempt=attempt, extra=extra)
                    continue
                if extra:
                    latency += extra
                    inj.count("slow_op")
                    if node_span is not None:
                        node_span.add_event("slow_op", tick, extra=extra)
                result = op(self.nodes[name])
                breaker.record_success(tick)
                inj.add_latency(latency)
                failed = False
                if node_span is not None:
                    tracer.end(node_span, tick, status="ok")
                    tracer.end(root, tick, status="ok", latency=latency)
                return result
            if failed and node_span is not None:
                tracer.end(node_span, tick, status="failed")
        inj.add_latency(latency)
        inj.count("op_failed")
        inj.event("op_failed", key=key)
        if root is not None:
            tracer.end(root, tick, status="failed", latency=latency)
        return default

    @property
    def stats(self) -> CacheStats:
        """Aggregate of all node counters (computed on access).

        A node removed from the cluster takes its history with it, like
        a crashed server would.
        """
        total = CacheStats()
        for node in self.nodes.values():
            s = node.stats
            total.hits += s.hits
            total.misses += s.misses
            total.sets += s.sets
            total.set_failures += s.set_failures
            total.deletes += s.deletes
            total.evictions += s.evictions
            total.migrations += s.migrations
            total.rejected_too_large += s.rejected_too_large
            total.total_miss_penalty += s.total_miss_penalty
        return total

    def __contains__(self, key: object) -> bool:
        return key in self.node_for(key)

    def __len__(self) -> int:
        return sum(len(node) for node in self.nodes.values())

    # -- aggregate introspection (simulator snapshot hooks) -------------------
    def class_slab_distribution(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for node in self.nodes.values():
            for cls, n in node.class_slab_distribution().items():
                out[cls] = out.get(cls, 0) + n
        return out

    def slab_distribution(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for node in self.nodes.values():
            for qid, n in node.slab_distribution().items():
                out[qid] = out.get(qid, 0) + n
        return out

    @property
    def policy(self):
        """Representative policy (all nodes run the same factory)."""
        return next(iter(self.nodes.values())).policy

    def check_invariants(self) -> None:
        assert set(self.ring.nodes) == set(self.nodes)
        assert len(self.nodes) >= 1, "unroutable: empty cluster"
        if self.faults is not None:
            assert set(self.breakers) == set(self.nodes)
        for node in self.nodes.values():
            node.check_invariants()

    def describe(self) -> str:
        total_items = len(self)
        return (f"CacheCluster[{self.policy.name}] {len(self.nodes)} nodes x "
                f"{self.capacity_bytes} B, {total_items} items, "
                f"hit_ratio={self.stats.hit_ratio:.3f}")
