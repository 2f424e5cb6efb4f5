"""FaultInjector: the runtime state threaded through the stack.

One injector is shared by the cluster (node faults, retries, breakers),
the simulator (backend faults, service-time accounting) and optionally
a :class:`~repro.backend.database.SimulatedBackend`.  It owns

* the **access-tick clock** — it advances as the replay pulls each
  trace request's row (:meth:`requests`); everything else reads it;
* the **latency channel** — the cluster's routed ops accumulate
  simulated seconds (timeouts, backoff, slow nodes) here and the
  replay drains each GET's into its service time (:meth:`charge`);
* **fault/resilience counters** — plain ints, always on, mirrored into
  a :mod:`repro.obs` registry when one is attached (same auto-attach
  convention as :class:`~repro.cache.cache.SlabCache`);
* the **degraded-time gauge** — cumulative seconds served in degraded
  (stale/error) mode.
"""

from __future__ import annotations

import numpy as np

from repro import obs as _obs
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResilienceConfig


class FaultInjector:
    """Shared fault state for one simulation run.

    Args:
        plan: the fault schedule (``FaultPlan()`` injects nothing but
            still exercises the resilient code path).
        resilience: client-side response knobs.
        obs: metrics registry; defaults to the global one when
            observability is enabled (see :func:`repro.obs.enable`).
        events: event trace for fault/breaker events.

    An injector is single-run state (tick clock, counters): build a
    fresh one per simulation, like a cache.
    """

    def __init__(self, plan: FaultPlan | None = None,
                 resilience: ResilienceConfig | None = None,
                 obs=None, events=None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.resilience = resilience or ResilienceConfig()
        self.tick = -1  # first advance() lands on 0
        self.degraded_time = 0.0
        self.counters: dict[str, int] = {}
        self._pending_latency = 0.0
        self.obs = None
        self.events = None
        self._obs_counters: dict[str, object] = {}
        self._g_degraded = None
        if obs is not None or _obs.is_enabled():
            self.attach_obs(obs if obs is not None else _obs.get_registry(),
                            events if events is not None
                            else _obs.get_event_trace())

    # -- observability ----------------------------------------------------
    def attach_obs(self, registry, events=None) -> None:
        """Mirror counters/gauges into ``registry`` (and events into
        ``events``) from now on."""
        self.obs = registry
        self.events = events
        self._obs_counters = {}
        self._g_degraded = registry.gauge(
            "faults_degraded_time_seconds",
            "cumulative service time spent in degraded (stale/error) mode")
        self._g_degraded.set(self.degraded_time)

    # -- clock & latency channel -----------------------------------------
    def advance(self) -> int:
        """Start the next request: bump the tick, clear stale latency."""
        self.tick += 1
        self._pending_latency = 0.0
        return self.tick

    def add_latency(self, seconds: float) -> None:
        self._pending_latency += seconds

    def consume_latency(self) -> float:
        """Drain the latency accumulated since the last call."""
        out, self._pending_latency = self._pending_latency, 0.0
        return out

    # -- a replay's requests ---------------------------------------------
    def requests(self, rows, tracer=None):
        """``rows``, each one request: the clock advances as it is
        pulled, so all the cache does for it (a GET's fill too) runs at
        its tick, under a root span named after the op when ``tracer``
        samples the tick — open until the next row is pulled."""
        for row in rows:
            tick = self.advance()
            root = None
            if tracer is not None and tracer.sampled(tick):
                root = tracer.start_trace(
                    tick, ("get", "set", "delete")[row[0]], key=str(row[1]))
            try:
                yield row
            finally:
                if root is not None:
                    tracer.end(root, tick)

    def backend(self, ticks) -> tuple[np.ndarray, np.ndarray]:
        """The plan's miss-penalty multiplier and fetch error at each
        GET tick of the int array ``ticks``."""
        plan = self.plan
        ticks = ticks.tolist()
        return (np.array([plan.backend_multiplier(t) for t in ticks],
                         dtype=np.float64),
                np.array([plan.backend_error(t) for t in ticks],
                         dtype=bool))

    def charge(self, costs, hits, extra, mult, erring, keys) -> np.ndarray:
        """A run of GETs' fault-free ``costs`` under backend faults:
        plus each one's routed latency ``extra``; a miss times its
        :meth:`backend` multiplier, or, if its fetch errors (the replay
        ran it alone, at its tick), degraded to ``stale_serve_time`` or
        ``error_penalty``, counted, recorded and added to the degraded
        time.  ``mult`` / ``erring`` / ``keys`` are per GET."""
        misses = ~hits
        failed = misses & erring
        costs[misses] *= mult[misses]
        cfg = self.resilience
        costs[failed] = (cfg.stale_serve_time if cfg.serve_stale
                         else cfg.error_penalty)
        costs = np.array(extra) + costs
        spiked = int(np.count_nonzero(misses & ~erring & (mult != 1.0)))
        if spiked:
            self.count("backend_spiked", spiked)
        for key, cost in zip(keys[failed].tolist(), costs[failed].tolist()):
            self.count("backend_error")
            self.event("backend_error", key=key)
            self.count("stale_served" if cfg.serve_stale
                       else "backend_give_up")
            self.note_degraded(cost)
        return costs

    # -- accounting -------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        if self.obs is not None:
            counter = self._obs_counters.get(name)
            if counter is None:
                counter = self.obs.counter(
                    f"faults_{name}_total", f"fault-layer events: {name}")
                self._obs_counters[name] = counter
            counter.inc(amount)

    def note_degraded(self, seconds: float) -> None:
        self.degraded_time += seconds
        if self._g_degraded is not None:
            self._g_degraded.set(self.degraded_time)

    def event(self, kind: str, **data) -> None:
        if self.events is not None:
            self.events.record(kind, max(self.tick, 0), **data)

    def snapshot(self) -> dict:
        """Counters + degraded time, for reports and tests."""
        out = dict(sorted(self.counters.items()))
        out["degraded_time"] = self.degraded_time
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FaultInjector(tick={self.tick}, "
                f"counters={dict(sorted(self.counters.items()))})")
