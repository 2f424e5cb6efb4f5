"""Named chaos scenarios and the harness that runs them.

A scenario is a recipe that scales a :class:`FaultPlan` to a concrete
run (trace length, node names, seed); :func:`run_scenario` then replays
one trace per policy twice — fault-free baseline vs. faulted — on
identically configured clusters and reports hit-ratio / service-time /
p99 deltas plus the injector's fault and resilience counters.  The CLI
(``repro-kv chaos``), the chaos tests and the resilience bench all
drive this one harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import fmt_seconds
from repro.cache.sizeclasses import SizeClassConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import (BackendErrorBurst, BackendSpike, FaultPlan,
                               FlakyConnection, NodeCrash, SlowNode)
from repro.faults.resilience import ResilienceConfig
from repro.obs.registry import Registry
from repro.policies import make_policy
from repro.sim.report import format_table
from repro.sim.simulator import SimulationResult, simulate


def _window(ticks: int, lo: float, hi: float) -> tuple[int, int]:
    """Ticks ``[lo, hi)`` as fractions of the run, at least 1 wide."""
    start = int(ticks * lo)
    return start, max(start + 1, int(ticks * hi))


def _backend_brownout(ticks: int, nodes: list[str], seed: int) -> FaultPlan:
    """Backend penalties triple over the middle of the run, with a 10%
    error rate at the peak — the paper's 'volatile miss penalty' case."""
    s1, e1 = _window(ticks, 0.30, 0.70)
    s2, e2 = _window(ticks, 0.45, 0.55)
    return FaultPlan([BackendSpike(s1, e1, 3.0),
                      BackendErrorBurst(s2, e2, 0.10)], seed=seed)


def _node_flap(ticks: int, nodes: list[str], seed: int) -> FaultPlan:
    """The first node crashes and rejoins twice, with flaky connections
    around each outage (a wobbling deployment)."""
    node = nodes[0]
    c1, r1 = _window(ticks, 0.20, 0.30)
    c2, r2 = _window(ticks, 0.55, 0.65)
    f1s, f1e = _window(ticks, 0.15, 0.35)
    f2s, f2e = _window(ticks, 0.50, 0.70)
    return FaultPlan([NodeCrash(node, c1, r1), NodeCrash(node, c2, r2),
                      FlakyConnection(f1s, f1e, 0.05, node=node),
                      FlakyConnection(f2s, f2e, 0.05, node=node)],
                     seed=seed)


def _slow_node(ticks: int, nodes: list[str], seed: int) -> FaultPlan:
    """One node serves with +20 ms per op over the middle half — below
    the default timeout, so latency degrades without failing over."""
    node = nodes[-1]
    start, end = _window(ticks, 0.25, 0.75)
    return FaultPlan([SlowNode(node, start, end, 0.02)], seed=seed)


def _flaky_network(ticks: int, nodes: list[str], seed: int) -> FaultPlan:
    """2% of every op's connections drop for the whole run — retry and
    backoff territory, breakers should stay closed."""
    return FaultPlan([FlakyConnection(0, max(ticks, 1), 0.02)], seed=seed)


def _blackout(ticks: int, nodes: list[str], seed: int) -> FaultPlan:
    """Every node is down for the same 10% of the run: total outage.
    Ops fail gracefully; the ring stays intact throughout."""
    start, end = _window(ticks, 0.40, 0.50)
    return FaultPlan([NodeCrash(n, start, end) for n in nodes], seed=seed)


SCENARIOS = {
    "backend-brownout": _backend_brownout,
    "node-flap": _node_flap,
    "slow-node": _slow_node,
    "flaky-network": _flaky_network,
    "blackout": _blackout,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def make_plan(name: str, ticks: int, nodes: list[str],
              seed: int = 0) -> FaultPlan:
    """Scale scenario ``name`` to a run of ``ticks`` requests."""
    try:
        build = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {scenario_names()}") from None
    if ticks <= 0:
        raise ValueError("ticks must be positive")
    if not nodes:
        raise ValueError("scenario needs at least one node")
    return build(ticks, list(nodes), seed)


@dataclass
class PolicyOutcome:
    """Baseline vs. faulted run of one policy."""

    policy: str
    baseline: SimulationResult
    faulted: SimulationResult
    counters: dict = field(default_factory=dict)
    degraded_time: float = 0.0

    @property
    def hit_delta(self) -> float:
        return self.faulted.hit_ratio - self.baseline.hit_ratio

    @property
    def service_delta(self) -> float:
        return (self.faulted.avg_service_time
                - self.baseline.avg_service_time)

    @property
    def p99_baseline(self) -> float:
        return self.baseline.service_quantiles.get("p99", 0.0)

    @property
    def p99_faulted(self) -> float:
        return self.faulted.service_quantiles.get("p99", 0.0)


@dataclass
class ChaosReport:
    """Everything one :func:`run_scenario` produced."""

    scenario: str
    seed: int
    nodes: list[str]
    plan: FaultPlan
    outcomes: dict[str, PolicyOutcome]

    def advantage(self, better: str = "pama",
                  worse: str = "pre-pama") -> tuple[float, float]:
        """(baseline, faulted) service-time advantage of ``better`` over
        ``worse`` in seconds; positive means ``better`` is faster."""
        b, w = self.outcomes[better], self.outcomes[worse]
        return (w.baseline.avg_service_time - b.baseline.avg_service_time,
                w.faulted.avg_service_time - b.faulted.avg_service_time)

    def format(self) -> str:
        lines = [f"chaos scenario {self.scenario!r} "
                 f"(seed={self.seed}, nodes={len(self.nodes)})"]
        rows = []
        for name, o in self.outcomes.items():
            rows.append([
                name,
                f"{o.baseline.hit_ratio:.4f}",
                f"{o.faulted.hit_ratio:.4f}",
                fmt_seconds(o.baseline.avg_service_time),
                fmt_seconds(o.faulted.avg_service_time),
                f"{o.service_delta / max(o.baseline.avg_service_time, 1e-12) * 100:+.1f}%",
                fmt_seconds(o.p99_faulted),
            ])
        lines.append(format_table(
            ["policy", "hit(base)", "hit(fault)", "svc(base)", "svc(fault)",
             "svc delta", "p99(fault)"], rows))
        sample = next(iter(self.outcomes.values()))
        counters = {k: v for k, v in sorted(sample.counters.items())}
        lines.append("fault/resilience counters "
                     f"({sample.policy}): " + ", ".join(
                         f"{k}={v}" for k, v in counters.items()))
        lines.append(f"degraded_time({sample.policy}) = "
                     f"{fmt_seconds(sample.degraded_time)}")
        if "pama" in self.outcomes and "pre-pama" in self.outcomes:
            base_adv, fault_adv = self.advantage()
            # "narrowed" would misread a growing negative advantage:
            # once pama trails, say who leads under faults.
            if min(base_adv, fault_adv) >= 0:
                trend = "widened" if fault_adv > base_adv else "narrowed"
            elif fault_adv:
                trend = (f"{'pama' if fault_adv > 0 else 'pre-pama'} "
                         "ahead under faults")
            else:
                trend = "tied under faults"
            lines.append(
                "pama advantage over pre-pama: "
                f"{base_adv * 1e3:+.3f} ms fault-free -> "
                f"{fault_adv * 1e3:+.3f} ms under faults "
                f"({trend})")
        return "\n".join(lines)


def default_policy_kwargs(window_gets: int, node_count: int) -> dict:
    """Scale the adaptive policies to the run, as the figure benches do
    (each node sees ~1/n of the GETs, so per-node windows shrink)."""
    per_node = max(1000, window_gets // max(node_count, 1))
    return {"pama": {"value_window": per_node},
            "pre-pama": {"value_window": per_node},
            "psa": {"m_misses": 500}}


def run_scenario(name: str, trace, *, policies: list[str],
                 node_count: int = 2, capacity_bytes: int,
                 slab_size: int = 64 * 1024, hit_time: float = 1e-4,
                 window_gets: int = 100_000, seed: int = 0,
                 resilience: ResilienceConfig | None = None,
                 policy_kwargs: dict | None = None,
                 obs_registry: Registry | None = None,
                 obs_events=None, timeline=None, tracing=None,
                 instrument: str | None = None) -> ChaosReport:
    """Replay ``trace`` per policy with and without scenario ``name``.

    Both runs use identically configured clusters (``node_count`` nodes
    of ``capacity_bytes`` each); per-run obs registries supply the p99
    estimates.  When ``obs_registry`` is given the *faulted* runs mirror
    their fault counters and events into it (the ``obs dump`` surface).

    ``timeline``/``tracing`` attach a
    :class:`~repro.obs.timeline.TimelineRecorder` and a
    :class:`~repro.obs.spans.SpanTracer` to the *faulted* run of one
    policy — ``instrument`` (default: the first of ``policies``) — so
    the dump a report renders covers a single coherent run.

    Deterministic end to end: same (trace, scenario, seed) → same
    report, run after run.
    """
    # Deferred: repro.cluster imports repro.faults for the breaker.
    from repro.cluster.cluster import CacheCluster

    nodes = [f"node{i}" for i in range(node_count)]
    plan = make_plan(name, len(trace), nodes, seed)
    classes = SizeClassConfig(slab_size=slab_size)
    if policy_kwargs is None:
        policy_kwargs = default_policy_kwargs(window_gets, node_count)
    if instrument is None and policies:
        instrument = policies[0]
    outcomes: dict[str, PolicyOutcome] = {}
    for policy in policies:
        kwargs = dict(policy_kwargs.get(policy, {}))
        instrumented = policy == instrument

        def cluster(faults: FaultInjector | None, policy: str = policy,
                    kwargs: dict = kwargs,
                    tracer=None) -> CacheCluster:
            return CacheCluster(nodes, capacity_bytes,
                                lambda: make_policy(policy, **kwargs),
                                size_classes=classes, faults=faults,
                                tracing=tracer)

        baseline = simulate(trace, cluster(None), hit_time=hit_time,
                            window_gets=window_gets, obs=Registry())
        inj = FaultInjector(plan, resilience=resilience,
                            obs=obs_registry
                            if obs_registry is not None else Registry(),
                            events=obs_events)
        faulted = simulate(
            trace, cluster(inj, tracer=tracing if instrumented else None),
            hit_time=hit_time, window_gets=window_gets, faults=inj,
            obs=inj.obs,
            timeline=timeline if instrumented else None,
            tracing=tracing if instrumented else None)
        outcomes[policy] = PolicyOutcome(
            policy=policy, baseline=baseline, faulted=faulted,
            counters=dict(inj.counters), degraded_time=inj.degraded_time)
    return ChaosReport(scenario=name, seed=seed, nodes=nodes, plan=plan,
                       outcomes=outcomes)
