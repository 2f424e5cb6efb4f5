"""Microbenchmark — what telemetry costs the replay when it is on.

Two bounds against ``Simulator(cache).run(trace)`` with nothing attached
(no registry, no event trace, no timeline: every instrumentation point
in the cache is one ``is not None`` check), over the same trace and an
identically configured cache:

* **a ``TimelineRecorder`` attached**: within 5%;
* **``obs.enable()``** (registry histograms + event trace): within 20%.

They hold because telemetry is not on the per-request path: one replay
kernel serves every fault-free run, notes one outcome per GET, and
reduces metrics windows, histograms and timeline rows once per run of
rows (docs/performance.md § "Telemetry path").  What is left of the
enabled cost is the event trace's per-eviction and per-migration
records, and of the timeline's its per-eviction, per-decision and
per-ghost-hit notes.  The reference is the kernel itself because a
slower loop (per-request recording, ``cache.get`` with a tuple) would
let the bounds pass with telemetry several times dearer.

Timing discipline: shared machines drift (CPU contention, frequency
scaling) in phases that last seconds — the same replay reads 220 ms in
one and 270 ms in the next — so neither a single A/B pair nor a minimum
per variant proves anything: the minimum goes to whichever variant met
a fast phase.  Every round runs all variants back to back, in
alternating order, and a variant's overhead is the *median over rounds
of its ratio to that round's reference*.
"""

from __future__ import annotations

from statistics import median

from repro import obs
from repro._util import MIB
from repro.cache import SlabCache, SizeClassConfig
from repro.policies import make_policy
from repro.sim.service import ServiceTimeModel
from repro.sim.simulator import Simulator
from repro.traces import ETC, generate

REQUESTS = 80_000
WINDOW = 20_000
ROUNDS = 20
#: variant -> most it may cost over the replay with nothing attached
MAX_OVERHEAD = {"timeline": 0.05, "enabled": 0.20}


def _fresh_cache() -> SlabCache:
    return SlabCache(8 * MIB, make_policy("pama", value_window=WINDOW),
                     SizeClassConfig(slab_size=64 << 10))


def _replay(trace, enabled: bool) -> float:
    """``Simulator.run`` with nothing attached, or under ``obs.enable()``."""
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


def measure(trace, rounds: int = ROUNDS) -> dict[str, list[float]]:
    """Per variant, its time in every round; rounds alternate the order.

    Reversing the execution order every round cancels what running
    first or last in a round would otherwise give one variant.
    """
    times: dict[str, list[float]] = {}
    runners = [("reference", lambda: _replay(trace, False)),
               ("enabled", lambda: _replay(trace, True)),
               ("timeline", lambda: _timeline_replay(trace))]
    for round_idx in range(rounds):
        ordered = runners if round_idx % 2 == 0 else runners[::-1]
        for name, runner in ordered:
            times.setdefault(name, []).append(runner())
    return times


def bench_obs_overhead():
    trace = generate(ETC.scaled(0.2), REQUESTS, seed=7)
    times = measure(trace)
    overhead = {name: median(t / ref - 1.0 for t, ref in
                             zip(times[name], times["reference"]))
                for name in MAX_OVERHEAD}
    print(f"\nnothing attached:           "
          f"{median(times['reference']) * 1e3:8.1f} ms")
    for name, label in (("enabled", "obs enabled:"),
                        ("timeline", "timeline attached:")):
        print(f"{label:<27} {median(times[name]) * 1e3:8.1f} ms "
              f"({overhead[name]:+.2%}, bound {MAX_OVERHEAD[name]:.0%})")
    for name, bound in MAX_OVERHEAD.items():
        assert overhead[name] < bound, (
            f"obs {name} overhead {overhead[name]:.2%} exceeds {bound:.0%}")


if __name__ == "__main__":
    bench_obs_overhead()
