"""Differential pin: the pressure path with kept Eq. 2 values vs the
scan that recomputed them per decision.

``ValueAccumulator`` keeps its outgoing / incoming values between
mutations, and ``PamaPolicy.resolve_pressure`` (with its replica in
``TenantArbiter``) reads ``q.slabs`` and ``q.policy_data.values`` off
the queues.  The ``Recomputing*`` classes (``tests/reference_pressure``)
decide the way those methods did before: ``can_donate()`` per queue,
the state looked up in ``_states[q.qid]``, and every value a fresh
``sum(w * v ...)`` that goes around the accumulator's kept result.  A replay that migrates at least
once per 100 rows must come out ``==``-equal under both — every float
bit for bit, every counter to the unit.
"""

import dataclasses

import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import PamaConfig
from repro.core.pama import PamaPolicy
from repro.core.prepama import PrePamaPolicy
from repro.sim.simulator import simulate
from repro.tenancy import TenantArbiter
from repro.traces import get_profile
from repro.traces.synthetic import SyntheticTraceGenerator
from tests.reference_pressure import RecomputingArbiter, RecomputingScan

ROWS = 40_000
WINDOW = 5_000


class RecomputingPama(RecomputingScan, PamaPolicy):
    pass


class RecomputingPrePama(RecomputingScan, PrePamaPolicy):
    pass


def _config():
    return PamaConfig(value_window=WINDOW)


PAIRS = {
    "pama": (lambda: PamaPolicy(_config()),
             lambda: RecomputingPama(_config())),
    "pre-pama": (lambda: PrePamaPolicy(_config()),
                 lambda: RecomputingPrePama(_config())),
    "tenant-arbiter": (lambda: TenantArbiter(1, config=_config()),
                       lambda: RecomputingArbiter(1, config=_config())),
}


@pytest.fixture(scope="module")
def zoo_trace():
    # rtdata: 58% SET over a drifting hot set with measured penalties,
    # the profile of the benchmark's write-heavy workload
    profile = get_profile("rtdata").scaled(0.05)
    return SyntheticTraceGenerator(profile, seed=3).generate(ROWS)


def _replay(policy, trace):
    cache = SlabCache(2 << 20, policy, SizeClassConfig(slab_size=16 << 10))
    result = simulate(trace, cache, window_gets=WINDOW)
    cache.check_invariants()
    return dataclasses.replace(result, elapsed_seconds=0.0), cache


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_replay_equals_the_recomputing_scan(name, zoo_trace):
    make_current, make_oracle = PAIRS[name]
    result, cache = _replay(make_current(), zoo_trace)
    expected, oracle_cache = _replay(make_oracle(), zoo_trace)

    assert cache.stats.migrations * 100 >= ROWS, \
        "the trace must keep the pressure path busy"
    assert result == expected
    assert cache.stats == oracle_cache.stats
    policy, oracle = cache.policy, oracle_cache.policy
    assert (policy.migrations_approved, policy.migrations_declined,
            policy.migrations_forced) \
        == (oracle.migrations_approved, oracle.migrations_declined,
            oracle.migrations_forced)
    assert policy.migrations_approved + policy.migrations_forced \
        == cache.stats.migrations
