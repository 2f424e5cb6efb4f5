"""Key-sharded single-replay engine: one trace, N parallel shards.

:func:`run_sharded` partitions **one** replay across worker processes
by splitmix64 key shard (:func:`repro.bloom.hashing.key_shard_array`,
the same routing function the async server's :class:`ShardSet` uses):
each worker streams only its shard's rows out of the trace windows into
a private :class:`~repro.cache.cache.SlabCache` holding
``cache_bytes / shards``, and the per-shard metrics merge
deterministically via :meth:`~repro.sim.metrics.MetricsCollector.merge`
(window-aligned, order-independent).

Exactness contract: ``shards=1`` replays in-process through the very
same :class:`~repro.sim.simulator.Simulator` path as
:meth:`Simulator.run` and routes the result through the one-part merge,
so it is ``==``-identical to the unsharded run (the differential tests
pin results, window series, and cache-stat counters).

``shards > 1`` is an *approximation* — the documented one the async
server already makes: hash partitioning replaces one big LRU with N
independent ones, so an item can be evicted from its shard while the
global cache would have kept it, and per-window hit ratios can differ
from the unsharded replay.  What is preserved: every key deterministically
maps to one shard (fixed seed, so fixed-shard-count runs are exactly
reproducible, regardless of worker scheduling), capacity totals match,
and the merged window series sums the same GET outcomes the per-shard
caches produced.  A simulated shard sees exactly the keys the
equivalent server shard would — which is the point: the sharded replay
predicts the sharded server.
"""

from __future__ import annotations

import os
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import replace
from time import perf_counter

from repro.bloom.hashing import key_shard_array
from repro.policies import make_policy
from repro.sim.experiment import ExperimentSpec
from repro.sim.metrics import MetricsCollector, _sum_dicts
from repro.sim.service import ServiceTimeModel
from repro.sim.simulator import SimulationResult, Simulator
from repro.traces.record import SharedTrace, Trace, iter_windows

__all__ = ["run_sharded", "shard_windows"]


def shard_windows(source, shard: int, nshards: int):
    """Yield ``source``'s windows restricted to one key shard.

    Every row — GETs, SETs, DELETEs alike — routes by
    ``key_shard(key, nshards)``, so a shard's sub-trace is exactly the
    request stream the matching server shard would see.  ``nshards <= 1``
    yields the windows unchanged (no masking cost on the exact path).
    """
    for w in iter_windows(source):
        if nshards <= 1:
            yield w
            continue
        mask = key_shard_array(w.keys, nshards) == shard
        yield Trace(w.ops[mask], w.keys[mask], w.key_sizes[mask],
                    w.value_sizes[mask], w.penalties[mask],
                    w.timestamps[mask], None, w.tenants[mask])


def _replay_shard(trace, spec: ExperimentSpec, policy: str, shard: int,
                  nshards: int, derive: bool | None):
    """Replay one shard's rows; return picklable pieces for the merge.

    The per-shard window threshold is ``window_gets / nshards`` so that
    merged window ``i`` covers roughly the same stretch of the request
    stream as the unsharded window ``i`` (each shard drains ~1/N of the
    GETs).
    """
    cache = spec.build_cache(policy)
    window_gets = max(1, spec.window_gets // nshards)
    sim = Simulator(cache, ServiceTimeModel(hit_time=spec.hit_time),
                    window_gets=window_gets,
                    fill_on_miss=spec.fill_on_miss)
    result = sim.run(shard_windows(trace, shard, nshards), derive=derive)
    collector = sim.metrics
    collector.snapshot_fn = None  # the cache-bound closure won't pickle
    return (collector, result.cache_stats, result.final_class_slabs,
            result.final_queue_slabs)


def _worker_replay(spec: ExperimentSpec, policy: str, shard: int,
                   nshards: int, derive: bool | None):
    """Pool task: replay one shard against the worker's attached trace."""
    from repro.sim import parallel

    assert parallel._worker_trace is not None, \
        "worker used before initialization"
    return _replay_shard(parallel._worker_trace, spec, policy, shard,
                         nshards, derive)


def _merge_cache_stats(parts: list[dict]) -> dict[str, float]:
    """Cross-shard :class:`CacheStats` totals, ratios recomputed.

    Mirrors :meth:`repro.server.shard.ShardSet.stats_snapshot`: counters
    add, ``hit_ratio`` is re-derived from the summed counters.  Merging
    a single part is the identity.
    """
    import math

    merged = {key: sum(p[key] for p in parts)
              for key in parts[0] if key not in ("hit_ratio",
                                                 "total_miss_penalty")}
    merged["total_miss_penalty"] = math.fsum(p["total_miss_penalty"]
                                             for p in parts)
    merged["hit_ratio"] = (merged["hits"] / merged["gets"]
                           if merged["gets"] else 0.0)
    return merged


def run_sharded(trace, spec: ExperimentSpec, policy: str, *,
                shards: int = 1, jobs: int | None = None,
                derive: bool | None = None) -> SimulationResult:
    """Replay ``trace`` once, partitioned over ``shards`` key shards.

    Args:
        trace: any :meth:`Simulator.run` source — an in-memory
            :class:`Trace` (shipped to workers once via shared memory)
            or a :class:`~repro.traces.compile.CompiledTrace` (pickled
            by path; every worker streams windows from the same mmap).
        spec: the experiment; ``spec.cache_bytes`` is the *total*
            capacity, split evenly across shards exactly like the async
            server's :class:`~repro.server.shard.ShardSet`.
        policy: policy name, instantiated fresh per shard (one policy
            per cache is a SlabCache invariant).
        shards: key-partition count.  ``1`` (default) is the exact
            in-process replay; ``> 1`` is the documented sharded
            approximation.
        jobs: worker processes; ``None`` sizes to
            ``min(shards, cpu_count)``.  A resolved ``1`` replays the
            shards serially in-process (same results — shard replays
            are independent, so scheduling cannot change them).
        derive: forwarded to :meth:`Simulator.run` per shard (``None``
            auto-selects the vectorized derive pass).

    Returns:
        a merged :class:`SimulationResult`.  Service-time quantiles are
        only populated on the ``shards=1`` path (per-request histograms
        belong to the scalar instrumented loop); ``elapsed_seconds`` is
        the wall clock of the whole sharded run.

    Raises:
        ValueError: for tenant-arbitrated policies with ``shards > 1``
            (the sharded loop does not tag tenants), or when the
            per-shard capacity drops below one slab.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    started = perf_counter()

    if shards == 1:
        cache = spec.build_cache(policy)
        sim = Simulator(cache, ServiceTimeModel(hit_time=spec.hit_time),
                        window_gets=spec.window_gets,
                        fill_on_miss=spec.fill_on_miss)
        result = sim.run(trace, derive=derive)
        merged = MetricsCollector.merge([sim.metrics])
        return replace(
            result,
            windows=merged.windows,
            hit_ratio=merged.overall_hit_ratio,
            avg_service_time=merged.overall_avg_service_time,
            total_gets=merged.total_gets,
            elapsed_seconds=perf_counter() - started)

    probe = make_policy(policy, **spec.policy_kwargs.get(policy, {}))
    if getattr(probe, "wants_tenants", False):
        raise ValueError(
            f"policy {policy!r} arbitrates between tenants; per-tenant "
            "metrics and reserves do not merge across shards — run it "
            "unsharded")
    per_shard = spec.cache_bytes // shards
    if per_shard < spec.slab_size:
        raise ValueError(
            f"{spec.cache_bytes} bytes over {shards} shards leaves "
            f"{per_shard} per shard — below one {spec.slab_size}-byte slab")
    shard_spec = replace(spec, cache_bytes=per_shard)

    jobs = (max(1, min(shards, os.cpu_count() or 1))
            if jobs is None else max(1, int(jobs)))
    if jobs == 1:
        parts = [_replay_shard(trace, shard_spec, policy, shard, shards,
                               derive)
                 for shard in range(shards)]
    else:
        parts = _run_shard_pool(trace, shard_spec, policy, shards,
                                min(jobs, shards), derive)

    collectors = [p[0] for p in parts]
    merged = MetricsCollector.merge(collectors)
    return SimulationResult(
        policy=policy,
        windows=merged.windows,
        hit_ratio=merged.overall_hit_ratio,
        avg_service_time=merged.overall_avg_service_time,
        total_gets=merged.total_gets,
        cache_stats=_merge_cache_stats([p[1] for p in parts]),
        elapsed_seconds=perf_counter() - started,
        final_class_slabs=_sum_dicts(p[2] for p in parts),
        final_queue_slabs=_sum_dicts(p[3] for p in parts),
    )


def _run_shard_pool(trace, shard_spec: ExperimentSpec, policy: str,
                    shards: int, jobs: int, derive: bool | None):
    """Fan the shard replays over a process pool, in shard order.

    Reuses the grid engine's one-attach-per-worker transport
    (:func:`repro.sim.parallel._worker_init`): a CompiledTrace pickles
    by path, an in-memory trace ships once through POSIX shared memory,
    and the plain-pickle fallback covers hosts without ``/dev/shm``.
    """
    from repro.sim.parallel import _worker_init
    from repro.traces.compile import CompiledTrace

    shared = None
    if isinstance(trace, CompiledTrace):
        payload = trace
    else:
        try:
            shared = SharedTrace(trace)
            payload = shared.descriptor
        except Exception:  # pragma: no cover - no /dev/shm etc.
            payload = trace
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_worker_init,
                                 initargs=(payload,)) as pool:
            futures = [pool.submit(_worker_replay, shard_spec, policy,
                                   shard, shards, derive)
                       for shard in range(shards)]
            # Collect in shard order: the merge is order-independent,
            # but deterministic part order keeps failure attribution
            # (which shard raised) stable too.
            return [f.result() for f in futures]
    finally:
        if shared is not None:
            shared.close()
