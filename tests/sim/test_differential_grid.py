"""Differential test: run_grid(jobs=2) is *exactly* run_grid(jobs=1).

test_parallel.py checks the engine's behaviours piecemeal; this file
pins the whole observable surface of a mixed (successes + failures)
grid — every per-cell metric down to per-window sums, cell ordering,
and the failure records — so any divergence between the serial and
pooled paths fails loudly, field by field.

The pool replays every trace from a compiled trace re-opened by path:
an in-memory trace is compiled to a temporary directory first.  So
``==`` is pinned for the three kinds of input — in memory, in memory
with a tenant column (replayed under the tenant arbiter, which reads
it), and compiled.
"""

import pytest

from repro._util import MIB
from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.sim import ExperimentSpec
from repro.sim.parallel import run_grid, size_specs
from repro.tenancy import TenantArbiter, mix_tenants, tenant_configs
from repro.tenancy.scenarios import noisy_neighbor_specs
from repro.traces import ETC, compile_trace, generate

POLICIES = ["memcached", "pre-pama", "pama"]


@pytest.fixture(scope="module")
def trace():
    return generate(ETC.scaled(0.02), 15_000, seed=47)


@pytest.fixture(scope="module")
def specs():
    base = ExperimentSpec(
        name="diff", cache_bytes=2 * MIB, slab_size=64 * 1024,
        window_gets=5_000,
        policy_kwargs={"pama": {"value_window": 5_000},
                       "pre-pama": {"value_window": 5_000}})
    return size_specs(base, [1 * MIB, 2 * MIB])


def full_state(result):
    """Every deterministic field of a SimulationResult."""
    return {
        "policy": result.policy,
        "hit_ratio": result.hit_ratio,
        "avg_service_time": result.avg_service_time,
        "total_gets": result.total_gets,
        "cache_stats": dict(result.cache_stats),
        "final_class_slabs": dict(result.final_class_slabs),
        "final_queue_slabs": dict(result.final_queue_slabs),
        "windows": [(w.index, w.gets, w.hits, w.penalty_sum, w.service_sum,
                     dict(w.class_slabs)) for w in result.windows],
        "service_quantiles": dict(result.service_quantiles),
        "tenant_metrics": dict(result.tenant_metrics),
    }


class TestJobs2EqualsJobs1:
    def test_per_cell_metrics_identical(self, trace, specs):
        serial = run_grid(trace, specs, POLICIES, jobs=1)
        pooled = run_grid(trace, specs, POLICIES, jobs=2)
        assert serial.ok and pooled.ok
        for key in serial.results:
            assert (full_state(serial.results[key])
                    == full_state(pooled.results[key])), key

    def test_cell_ordering_identical(self, trace, specs):
        serial = run_grid(trace, specs, POLICIES, jobs=1)
        pooled = run_grid(trace, specs, POLICIES, jobs=2)
        assert list(serial.results) == list(pooled.results)
        assert list(serial.results) == [(s.name, p) for s in specs
                                        for p in POLICIES]

    def test_failure_parity(self, trace, specs):
        mixed = POLICIES + ["no-such-policy"]
        serial = run_grid(trace, specs, mixed, jobs=1)
        pooled = run_grid(trace, specs, mixed, jobs=2)
        assert not serial.ok and not pooled.ok
        assert list(serial.failures) == list(pooled.failures)
        for key in serial.failures:
            s, p = serial.failures[key], pooled.failures[key]
            # tracebacks may differ (worker vs caller frames); the
            # identifying triple must not.
            assert (s.spec_name, s.policy, s.error) \
                == (p.spec_name, p.policy, p.error), key
        for key in serial.results:
            assert (full_state(serial.results[key])
                    == full_state(pooled.results[key])), key

    def test_repeated_pooled_runs_identical(self, trace, specs):
        a = run_grid(trace, specs, POLICIES, jobs=2)
        b = run_grid(trace, specs, POLICIES, jobs=2)
        for key in a.results:
            assert full_state(a.results[key]) == full_state(b.results[key])


class _TenantSpec(ExperimentSpec):
    """Builds the tenant arbiter for its ``arbiter`` cells (the policy
    registry has no name for it)."""

    def build_cache(self, policy):
        if policy != "arbiter":
            return super().build_cache(policy)
        tenants = tenant_configs(noisy_neighbor_specs(),
                                 self.cache_bytes // self.slab_size)
        return SlabCache(self.cache_bytes,
                         TenantArbiter(tenants,
                                       config=PamaConfig(value_window=5_000)),
                         SizeClassConfig(slab_size=self.slab_size))


class TestEveryKindOfTrace:
    @staticmethod
    def assert_jobs2_equals_jobs1(trace, specs, policies):
        serial = run_grid(trace, specs, policies, jobs=1)
        pooled = run_grid(trace, specs, policies, jobs=2)
        assert serial.ok and pooled.ok
        assert list(serial.results) == list(pooled.results)
        for key in serial.results:
            assert (full_state(serial.results[key])
                    == full_state(pooled.results[key])), key
        return serial

    def test_tenant_tagged_in_memory_trace(self):
        trace = mix_tenants(noisy_neighbor_specs(), 20_000, seed=7)
        specs = size_specs(_TenantSpec("tenants", 2 * MIB,
                                       slab_size=16 * 1024,
                                       window_gets=5_000),
                           [2 * MIB, 4 * MIB])
        serial = self.assert_jobs2_equals_jobs1(trace, specs,
                                                ["arbiter", "memcached"])
        # The arbiter's cells saw the tenant column.
        for spec in specs:
            assert len(serial.results[(spec.name, "arbiter")]
                       .tenant_metrics) == 2

    def test_compiled_trace(self, trace, specs, tmp_path):
        compiled = compile_trace(trace, tmp_path / "grid.ctrc")
        compiled.window = 4_096  # several windows per cell
        self.assert_jobs2_equals_jobs1(compiled, specs, POLICIES)
