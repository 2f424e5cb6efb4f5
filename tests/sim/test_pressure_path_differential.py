"""Differential pin: the pressure path with kept Eq. 2 values vs the
scan that recomputed them per decision.

``ValueAccumulator`` keeps its outgoing / incoming values between
mutations, and ``PamaPolicy.resolve_pressure`` (with its replica in
``TenantArbiter``) reads ``q.slabs`` and ``q.policy_data.values`` off
the queues.  The subclasses below decide the way those methods did
before: ``can_donate()`` per queue, the state looked up in
``_states[q.qid]``, and every value a fresh ``sum(w * v ...)`` that goes
around the accumulator's kept result.  A replay that migrates at least
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

ROWS = 40_000
WINDOW = 5_000


def eq2(weights, masses):
    return sum(w * v for w, v in zip(weights, masses))


class RecomputingScan:
    """``PamaPolicy.resolve_pressure`` as of the parent commit."""

    def resolve_pressure(self, queue, must_migrate):
        self._maybe_rollover()
        values = queue.policy_data.values
        incoming = eq2(values.weights, values.inc)

        donor = None
        min_out = float("inf")
        for q in self.cache.iter_queues():
            if not q.can_donate():
                continue
            values = self._states[q.qid].values
            out = eq2(values.weights, values.out)
            if out < min_out:
                donor, min_out = q, out
        if donor is None:
            return None

        if donor is queue:
            self.migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "self")
            return queue
        if incoming <= min_out and not must_migrate:
            self.migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "declined")
            return None
        if incoming <= min_out:
            self.migrations_forced += 1
            self._record_decision(queue, donor, incoming, min_out, "forced")
        else:
            self.migrations_approved += 1
            self._record_decision(queue, donor, incoming, min_out, "approved")
        return donor


class RecomputingPama(RecomputingScan, PamaPolicy):
    pass


class RecomputingPrePama(RecomputingScan, PrePamaPolicy):
    pass


class RecomputingArbiter(TenantArbiter):
    """``TenantArbiter.resolve_pressure`` as of the parent commit."""

    def resolve_pressure(self, queue, must_migrate):
        for inner in self._inners:
            inner._maybe_rollover()
        tenant = queue.bin_idx // self._nbins
        cfg = self.tenants[tenant]
        values = queue.policy_data.values
        incoming = eq2(values.weights, values.inc)
        owned = self.tenant_slabs()
        nbins = self._nbins
        allow_cross = (self.allow_steal
                       and (cfg.cap_slabs is None
                            or owned[tenant] < cfg.cap_slabs))
        sla_r = cfg.sla_weight

        donor = None
        donor_tenant = tenant
        min_out = float("inf")
        for q in self.cache.iter_queues():
            if not q.can_donate():
                continue
            d = q.bin_idx // nbins
            values = q.policy_data.values
            out = eq2(values.weights, values.out)
            if d != tenant:
                if not allow_cross:
                    continue
                if owned[d] - 1 < self.tenants[d].reserve_slabs:
                    continue
                out *= (self.tenants[d].sla_weight / sla_r) \
                    * self.steal_margin
            if out < min_out:
                donor, donor_tenant, min_out = q, d, out
        if donor is None:
            return None

        cross = donor_tenant != tenant
        if donor is queue:
            self._inners[tenant].migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "self")
            return queue
        if incoming <= min_out and not must_migrate:
            self._inners[tenant].migrations_declined += 1
            if cross:
                self.steals_declined += 1
            self._record_decision(queue, donor, incoming, min_out,
                                  "steal-declined" if cross else "declined")
            return None
        if incoming <= min_out:
            self._inners[tenant].migrations_forced += 1
            if cross:
                self.steals_forced += 1
            self._record_decision(queue, donor, incoming, min_out,
                                  "steal-forced" if cross else "forced")
        else:
            self._inners[tenant].migrations_approved += 1
            if cross:
                self.steals_approved += 1
            self._record_decision(queue, donor, incoming, min_out,
                                  "steal-approved" if cross else "approved")
        return donor


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
