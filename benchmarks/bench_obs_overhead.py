"""Microbenchmark — what observability costs the replay, off and on.

Three bounds against an uninstrumented reference — the pre-obs
``Simulator.run`` hot loop, inlined below and driven over the same
trace and an identically configured cache:

* **no registry attached**: within 5% (every instrumentation point in
  the cache reduces to one ``is not None`` check);
* **a ``TimelineRecorder`` attached**: within 5%;
* **``obs.enable()``** (registry histograms + event trace): within 20%.

The last two hold because telemetry is not on the per-request path:
one replay kernel serves every fault-free run, notes one outcome per
GET, and reduces metrics windows, histograms and timeline rows once
per run of rows (docs/performance.md § "Telemetry path").  What is left
of the enabled cost is the event trace's per-eviction and per-migration
records.

Timing discipline: shared machines drift (CPU contention, frequency
scaling), so a single A/B pair proves nothing.  Each variant is run
many times in alternating order and the *minimum* is compared — the
minimum estimates the uncontended cost of each variant, which is the
quantity the bounds are about.
"""

from __future__ import annotations

import time

from repro import obs
from repro._util import MIB
from repro.cache import SlabCache, SizeClassConfig
from repro.policies import make_policy
from repro.sim.metrics import MetricsCollector
from repro.sim.service import ServiceTimeModel
from repro.sim.simulator import Simulator
from repro.traces import ETC, generate

REQUESTS = 80_000
WINDOW = 20_000
ROUNDS = 10
#: variant -> most it may cost over the reference loop
MAX_OVERHEAD = {"disabled": 0.05, "timeline": 0.05, "enabled": 0.20}


def _fresh_cache() -> SlabCache:
    return SlabCache(8 * MIB, make_policy("pama", value_window=WINDOW),
                     SizeClassConfig(slab_size=64 << 10))


def _reference_replay(trace) -> float:
    """The seed (pre-obs) Simulator.run hot loop, timed."""
    cache = _fresh_cache()
    service = ServiceTimeModel()
    metrics = MetricsCollector(WINDOW, lambda: (
        cache.class_slab_distribution(), cache.slab_distribution()))
    cache_get = cache.get
    cache_set = cache.set
    record_hit = metrics.record_hit
    record_miss = metrics.record_miss

    started = time.perf_counter()
    for op, key, key_size, value_size, penalty in trace.iter_rows():
        if op == 0:
            item = cache_get(key, (key_size, value_size, penalty))
            if item is not None:
                record_hit(service.hit(item.total_size))
            else:
                record_miss(service.miss(penalty))
                cache_set(key, key_size, value_size, penalty)
        elif op == 1:
            cache_set(key, key_size, value_size, penalty)
        else:
            cache.delete(key)
    elapsed = time.perf_counter() - started
    metrics.flush()
    return elapsed


def _instrumented_replay(trace, enabled: bool) -> float:
    if enabled:
        obs.enable()
    try:
        sim = Simulator(_fresh_cache(), ServiceTimeModel(),
                        window_gets=WINDOW)
        return sim.run(trace).elapsed_seconds
    finally:
        if enabled:
            obs.disable()


def _timeline_replay(trace) -> float:
    """Replay with a TimelineRecorder attached (obs otherwise off)."""
    sim = Simulator(_fresh_cache(), ServiceTimeModel(), window_gets=WINDOW,
                    timeline=obs.TimelineRecorder(stride=WINDOW))
    return sim.run(trace).elapsed_seconds


def measure(trace, rounds: int = ROUNDS) -> dict[str, float]:
    """Alternating-order best-of-N timings per variant.

    Reversing the execution order every round cancels monotonic drift
    (warmup, throttling) that would otherwise bias one variant.
    """
    best: dict[str, float] = {}
    runners = [("reference", lambda: _reference_replay(trace)),
               ("disabled", lambda: _instrumented_replay(trace, False)),
               ("enabled", lambda: _instrumented_replay(trace, True)),
               ("timeline", lambda: _timeline_replay(trace))]
    for round_idx in range(rounds):
        ordered = runners if round_idx % 2 == 0 else runners[::-1]
        for name, runner in ordered:
            elapsed = runner()
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
    return best


def bench_obs_disabled_overhead():
    trace = generate(ETC.scaled(0.2), REQUESTS, seed=7)
    times = measure(trace)
    overhead = {name: times[name] / times["reference"] - 1.0
                for name in MAX_OVERHEAD}
    print(f"\nreference (uninstrumented): {times['reference'] * 1e3:8.1f} ms")
    for name, label in (("disabled", "obs disabled:"),
                        ("enabled", "obs enabled:"),
                        ("timeline", "timeline attached:")):
        print(f"{label:<27} {times[name] * 1e3:8.1f} ms "
              f"({overhead[name]:+.2%}, bound {MAX_OVERHEAD[name]:.0%})")
    for name, bound in MAX_OVERHEAD.items():
        assert overhead[name] < bound, (
            f"obs {name} overhead {overhead[name]:.2%} exceeds {bound:.0%}")


if __name__ == "__main__":
    bench_obs_disabled_overhead()
