"""repro — PAMA: Penalty Aware Memory Allocation for key-value caches.

Reproduction of Ou et al., ICPP 2015.  The package provides:

* :mod:`repro.cache` — a Memcached-like slab-allocated KV cache;
* :mod:`repro.core` — the PAMA policy (and pre-PAMA ablation);
* :mod:`repro.policies` — baseline allocation policies (original
  Memcached, PSA, Facebook rebalancer, Twemcache, 1.4.11 automover,
  LAMA-lite);
* :mod:`repro.traces` — synthetic Facebook-like workloads + trace I/O;
* :mod:`repro.sim` — trace-driven simulation and experiment harness;
* :mod:`repro.server` — a minimal memcached-protocol server/client;
* :mod:`repro.backend` — a simulated back-end store.

Quickstart::

    from repro import SlabCache, SizeClassConfig, PamaPolicy, simulate
    from repro.traces import ETC, generate

    trace = generate(ETC, 200_000, seed=1)
    cache = SlabCache(64 << 20, PamaPolicy(),
                      SizeClassConfig(slab_size=64 << 10))
    result = simulate(trace, cache)
    print(result.hit_ratio, result.avg_service_time)
"""

import importlib

#: the module each re-exported name lives in.  Importing ``repro``
#: loads none of them: a name is imported the first time it is asked
#: for (PEP 562), so a process that uses part of the package — the
#: server needs neither NumPy nor the replay stack — loads only that.
_EXPORTS = {
    "repro.cache": ("SlabCache", "SizeClassConfig"),
    "repro.core": ("PamaPolicy", "PrePamaPolicy", "PamaConfig"),
    "repro.policies": ("AllocationPolicy", "StaticMemcachedPolicy",
                       "PSAPolicy", "FacebookPolicy", "TwemcachePolicy",
                       "AutoMovePolicy", "LamaPolicy", "make_policy",
                       "POLICY_NAMES"),
    "repro.sim": ("Simulator", "SimulationResult", "simulate",
                  "ServiceTimeModel", "ExperimentSpec", "run_comparison",
                  "sweep_cache_sizes"),
    "repro.traces": ("Trace", "Request", "Op", "WorkloadProfile",
                     "generate", "get_profile"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "1.0.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
