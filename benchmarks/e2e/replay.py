"""Replay worker: one ``Simulator.run`` over a compiled trace, timed
from outside through the window iterator the benchmark hands it."""

from __future__ import annotations

import time
from itertools import chain

import timebase
from host import peak_rss_mib
from workloads import WINDOW


class Feeder:
    """Hands ``Simulator.run`` its trace windows and times the pulls.

    The simulator pulls the next window when it has consumed the
    previous one, so the time between a ``yield`` and the next pull is
    one batch.  Calibration spins run inside the pull, outside every
    batch: at each round boundary and whenever :data:`timebase.EPOCH_S`
    has passed.  The first ``warm`` windows are warm-up and belong to
    set-up.
    """

    def __init__(self, source, warm: int, measured: int, spans,
                 parent: int = -1, rounds: int = timebase.ROUNDS) -> None:
        self.source = source
        self.warm = warm
        self.boundaries = {start for start, _ in
                           timebase.split_rounds(measured, rounds)}
        self.rounds = rounds
        self.spans = spans
        self.parent = parent
        self.rows: list[int] = []      # per measured batch
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spins: list[tuple[int, float]] = []   # (batch index, ms)
        self.warm_spins: list[float] = []
        self.rows_fed = 0
        self.measure_start = 0.0       # time.monotonic() at first batch

    def windows(self):
        perf, cpu = time.perf_counter, time.process_time
        spans = self.spans
        index = -self.warm             # batch index of the next window
        last_spin = perf()
        t_yield = c_yield = 0.0
        fed = 0
        for window in self.source:
            now, c_now = perf(), cpu()
            if index > 0:
                self.wall.append(now - t_yield)
                self.cpu.append(c_now - c_yield)
                self.rows.append(fed)
                spans.add("sim.window", t_yield, now, self.parent, rows=fed)
            if index in self.boundaries or now - last_spin >= timebase.EPOCH_S:
                ms = timebase.spin()
                spans.add("bench.spin", now, perf(), self.parent)
                if index <= 0:
                    self.warm_spins.append(ms)
                if index >= 0:
                    self.spins.append((index, ms))
                last_spin = perf()
            if index == 0:
                self.measure_start = time.monotonic()
            index += 1
            fed = len(window)
            self.rows_fed += fed
            t_yield, c_yield = perf(), cpu()
            yield window
        now, c_now = perf(), cpu()
        if index > 0:
            self.wall.append(now - t_yield)
            self.cpu.append(c_now - c_yield)
            self.rows.append(fed)
            spans.add("sim.window", t_yield, now, self.parent, rows=fed)
            self.spins.append((index, timebase.spin()))

    def summary(self) -> dict[str, float]:
        return timebase.summarize(
            timebase.rounds_from_batches(self.rows, self.wall, self.cpu,
                                         self.spins, self.rounds),
            calibrate=True)


def build_cache(spec: dict, policy: str | None = None,
                tracker: str | None = None):
    from repro.cache.cache import SlabCache
    from repro.cache.sizeclasses import SizeClassConfig
    from repro.policies import make_policy

    policy = policy or spec["policy"]
    tracker = tracker if tracker is not None else spec["tracker"]
    kwargs = {"tracker": tracker} if policy == "pama" else {}
    return SlabCache(spec["cache_bytes"], make_policy(policy, **kwargs),
                     SizeClassConfig(slab_size=spec["slab_size"]))


def build_simulator(cache, obs: bool):
    from repro.sim.simulator import Simulator

    if not obs:
        return Simulator(cache)
    from repro.obs import Registry, TimelineRecorder

    registry = Registry()
    cache.attach_obs(registry)
    return Simulator(cache, obs=registry,
                     timeline=TimelineRecorder(stride=50_000))


def layer_counters(cache, sim, rows: int, windows: int) -> dict[str, float]:
    """The public counters of one replay: the cache's, the policy's, the
    Bloom trackers' (summed over queues) and whether the derive pass ran."""
    from repro.sim.derive import derive_unsupported_reason

    queries = false_hits = rebuilds = 0
    for queue in cache.iter_queues():
        tracker = getattr(queue.policy_data, "tracker", None)
        if hasattr(tracker, "false_region_hits"):
            queries += tracker.queries
            false_hits += tracker.false_region_hits
            rebuilds += tracker.rebuilds
    reason = derive_unsupported_reason(cache, cache.policy,
                                       timeline=sim.timeline, hist=sim.obs)
    stats = cache.stats
    kops = rows / 1e3
    return {
        "derive.engaged": int(reason is None and cache._wants_hashes),
        "cache.evictions_per_kop": stats.evictions / kops,
        "cache.migrations_per_kop": stats.migrations / kops,
        "cache.rejected_per_kop":
            (stats.rejected_too_large + stats.set_failures) / kops,
        "policy.declined_per_kop":
            getattr(cache.policy, "migrations_declined", 0) / kops,
        "tracker.queries_per_kop": queries / kops,
        "tracker.false_region_ratio":
            false_hits / queries if queries else 0.0,
        "tracker.rebuilds": rebuilds,
        "sim.windows": windows,
    }


def check_replay(ct, passes: int, feeder: Feeder, result, cache) -> list[str]:
    """Output checks that hold for any seed."""
    import numpy as np

    errors = []
    ops = np.asarray(ct.ops)
    get_rows = int(np.count_nonzero(ops == 0)) * passes
    set_rows = int(np.count_nonzero(ops == 1)) * passes
    stats = cache.stats
    if feeder.rows_fed != len(ct) * passes:
        errors.append(f"replayed {feeder.rows_fed} rows, compiled "
                      f"{len(ct)} x {passes} passes")
    if result.total_gets != get_rows or stats.hits + stats.misses != get_rows:
        errors.append(f"hits {stats.hits} + misses {stats.misses} and "
                      f"total_gets {result.total_gets} != {get_rows} GET rows")
    attempts = stats.sets + stats.set_failures + stats.rejected_too_large
    if attempts != set_rows + stats.misses:
        errors.append(f"{attempts} SET attempts != {set_rows} SET rows + "
                      f"{stats.misses} fills")
    try:
        cache.check_invariants()
    except AssertionError as exc:
        errors.append(f"cache.check_invariants: {exc}")
    return errors


def run_replay(cfg: dict, spans) -> dict:
    from repro.traces.compile import CompiledTrace

    spec = cfg["spec"]
    perf = time.perf_counter
    started = perf()
    ct = CompiledTrace(cfg["trace"], window=WINDOW)
    spans.add("traces.open", started, perf(), rows=len(ct))
    started = perf()
    cache = build_cache(spec)
    sim = build_simulator(cache, spec["obs"])
    spans.add("cache.build", started, perf())

    passes = spec["passes"]
    total = -(-len(ct) // WINDOW) * passes
    warm = cfg["warm_rows"] // WINDOW
    root = spans.begin("sim.run", perf())
    feeder = Feeder(chain.from_iterable(ct.iter_windows(WINDOW)
                                        for _ in range(passes)),
                    warm, total - warm, spans, root)
    attempted = len(ct) * passes
    try:
        result = sim.run(feeder.windows())
    except Exception as exc:  # noqa: BLE001 - reported as failed rows
        return {"errors": [f"replay raised {type(exc).__name__}: {exc}"],
                "attempted": attempted,
                "failed": max(1, attempted - feeder.rows_fed)}
    spans.finish(root, perf(), rows=feeder.rows_fed)

    errors = check_replay(ct, passes, feeder, result, cache)
    timing = feeder.summary()
    setup_raw = (feeder.measure_start - cfg["spawn_t"]
                 - sum(feeder.warm_spins) / 1e3)
    stats = cache.stats
    return {
        "errors": errors, "attempted": attempted, "failed": 0,
        "e2e": {
            "setup_s": setup_raw * timebase.calibration_scale(
                feeder.warm_spins),
            "ops_per_s": timing["ops_per_s"],
            "cpu_us_per_op": timing["cpu_us_per_op"],
            "p50_ms": timing["p50_ms"],
            "peak_rss_mb": peak_rss_mib(),
            "hit_ratio": result.hit_ratio,
            "avg_service_ms": result.avg_service_time * 1e3,
        },
        "golden": {
            "hit_ratio": result.hit_ratio,
            "avg_service_ms": result.avg_service_time * 1e3,
            "evictions": stats.evictions, "migrations": stats.migrations,
        },
        "layers": {
            **layer_counters(cache, sim, attempted, len(feeder.rows)),
            "batch.p95_ms": timing["p95_ms"],
            "host.cal_ms": timing["cal_ms"],
            "host.raw_ops_per_s": timing["raw_ops_per_s"],
        },
        "timing": timing,
    }
