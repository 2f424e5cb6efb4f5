"""Ablation D — offline bounds and item-level cost-awareness.

Two extension baselines bracket the online policies:

* **oracle** (Belady's MIN within Memcached's allocation) bounds what
  better *replacement* alone could buy on hit ratio;
* **oracle-cost** (penalty-weighted Belady) bounds the service-time
  side;
* **gds** (GreedyDual-Size) answers "would item-level cost-aware
  eviction suffice, without slab-level penalty-aware allocation?" —
  the paper's implicit claim is that it would not.
"""

from dataclasses import replace

from benchmarks.conftest import base_spec, write_csv
from repro._util import MIB
from repro.sim import run_comparison
from repro.sim.report import format_table

CACHE = 16 * MIB
POLICIES = ["memcached", "gds", "gds-alloc", "oracle", "oracle-cost", "pama"]


def bench_ablation_oracle(benchmark, etc_trace, capsys):
    spec = base_spec("oracle", CACHE)
    spec = replace(spec, policy_kwargs={
        **spec.policy_kwargs,
        "oracle": {"trace": etc_trace},
        "oracle-cost": {"trace": etc_trace},
    })

    # jobs=1 on purpose: the oracle policies carry the trace inside
    # policy_kwargs, which a worker pool would re-pickle per task —
    # exactly what shipping the trace by path exists to avoid.
    cmp = benchmark.pedantic(
        lambda: run_comparison(etc_trace, spec, POLICIES, jobs=1),
        rounds=1, iterations=1)

    rows = [[name, r.hit_ratio, r.avg_service_time * 1e3,
             r.cache_stats["total_miss_penalty"]]
            for name, r in cmp.results.items()]
    write_csv("ablation_oracle.csv",
              "policy,hit_ratio,avg_service_ms,total_miss_penalty_s\n"
              + "".join(f"{n},{r.hit_ratio:.6f},"
                        f"{r.avg_service_time*1e3:.4f},"
                        f"{r.cache_stats['total_miss_penalty']:.2f}\n"
                        for n, r in cmp.results.items()))
    with capsys.disabled():
        print("\n[ablation D] offline bounds + GreedyDual-Size (ETC, 16MiB)")
        print(format_table(
            ["policy", "hit_ratio", "avg_service_ms", "miss_penalty_s"],
            rows))

    r = cmp.results
    # Belady with the same allocation dominates LRU on hit ratio
    assert r["oracle"].hit_ratio >= r["memcached"].hit_ratio - 0.005
    # the cost-aware oracle dominates everything on service time
    assert (r["oracle-cost"].avg_service_time
            <= min(x.avg_service_time for x in r.values()) * 1.02)
    # item-level cost-awareness (classic GDS) helps over plain LRU...
    assert (r["gds"].avg_service_time
            <= r["memcached"].avg_service_time * 1.02)
    # ...but cannot reallocate space across classes, so penalty-aware
    # *allocation* (PAMA) beats it — the paper's core claim
    assert r["pama"].avg_service_time < r["gds"].avg_service_time
    # observation worth recording: granting GDS cost-aware allocation
    # too ("gds-alloc") makes it competitive with PAMA — cost-awareness
    # in the allocator is the load-bearing idea, wherever it lives
    assert (r["gds-alloc"].avg_service_time
            <= r["memcached"].avg_service_time)
