"""Property tests: the vectorized derive pass vs its scalar references.

Every derived column must agree element-wise with the scalar function
the replay loop used to call per request — ``hash_key`` /
``class_for_size`` / ``PamaConfig.bin_for`` / ``shard_of`` — and the
derived replay loop must produce ``==``-identical results to the scalar
loop end to end.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import MIB
from repro.bloom.hashing import (PAIR_SEED_DELTA, hash_key, hash_key_array,
                                 hash_pair, hash_pair_arrays)
from repro.cache import SlabCache, SizeClassConfig
from repro.cache.sizeclasses import InvalidItemError, ItemTooLargeError
from repro.core.config import PamaConfig
from repro.obs import TimelineRecorder
from repro.policies import make_policy
from repro.sim.derive import (class_index_array, derive_unsupported_reason,
                              penalty_bin_array)
from repro.sim.simulator import simulate
from repro.traces.record import Trace

INT64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


class TestHashParity:
    @given(st.lists(INT64, max_size=64),
           st.sampled_from([0, 1, PAIR_SEED_DELTA, 0x51A8D]))
    @settings(max_examples=60, deadline=None)
    def test_hash_key_array_matches_scalar(self, keys, seed):
        got = hash_key_array(np.array(keys, dtype=np.int64), seed)
        assert got.dtype == np.uint64
        assert got.tolist() == [hash_key(k, seed) for k in keys]

    @given(st.lists(INT64, min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_hash_pair_arrays_matches_scalar_pair(self, keys):
        h1, h2 = hash_pair_arrays(np.array(keys, dtype=np.int64))
        pairs = [hash_pair(k) for k in keys]
        assert h1.tolist() == [p[0] for p in pairs]
        assert h2.tolist() == [p[1] for p in pairs]
        # h2 odd: 0 stays the "pair absent" sentinel everywhere.
        assert all(v & 1 for v in h2.tolist())

    def test_uint64_column_accepted(self):
        keys = np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)
        got = hash_key_array(keys)
        assert got.tolist() == [hash_key(int(k)) for k in keys.tolist()]


class TestClassIndexParity:
    @pytest.fixture(scope="class")
    def classes(self):
        return SizeClassConfig(slab_size=64 << 10, base_size=64)

    def scalar_index(self, classes, ks, vs):
        """The lookup path's scalar semantics, sentinels included."""
        if ks < 0:
            return -1
        try:
            return classes.class_for_size(ks + vs)
        except ItemTooLargeError:
            return -1
        except InvalidItemError:
            return -2

    @given(st.lists(st.tuples(
        st.integers(min_value=-64, max_value=256),
        st.integers(min_value=-256, max_value=1 << 20)), max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, classes, rows):
        ks = np.array([r[0] for r in rows], dtype=np.int32)
        vs = np.array([r[1] for r in rows], dtype=np.int32)
        got = class_index_array(ks, vs, classes).tolist()
        assert got == [self.scalar_index(classes, k, v) for k, v in rows]

    def test_sentinel_precedence(self, classes):
        # unknown key size wins over invalid item size: the scalar path
        # never validates a "miss details unknown" row.
        got = class_index_array(np.array([-1, 10, 10]),
                                np.array([-5, -20, 64 << 20]),
                                classes).tolist()
        assert got == [-1, -2, -1]


class TestPenaltyBinParity:
    CONFIG = PamaConfig(penalty_edges=(0.001, 0.01, 0.1, 1.0))

    @given(st.lists(st.one_of(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-10.0, max_value=-1e-9),
        st.just(float("nan")), st.just(float("inf"))), max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, penalties):
        got = penalty_bin_array(np.array(penalties, dtype=np.float64),
                                self.CONFIG.penalty_edges).tolist()
        for value, idx in zip(penalties, got):
            if math.isnan(value) or value < 0:
                assert idx == -1  # sentinel: consumer re-dispatches
            else:
                assert idx == self.CONFIG.bin_for(value)

    def test_empty_edges_single_bin(self):
        got = penalty_bin_array(np.array([0.0, 5.0, -1.0, float("nan")]),
                                ()).tolist()
        assert got == [0, 0, -1, -1]


def _mixed_trace(n=20_000, seed=13):
    rng = random.Random(seed)
    ops, keys, ks, vs, pens = [], [], [], [], []
    for _ in range(n):
        r = rng.random()
        ops.append(0 if r < 0.8 else (1 if r < 0.95 else 2))
        keys.append(rng.randrange(3000))
        ks.append(16)
        vs.append(rng.choice((40, 200, 900, 3000, 70000)))
        pens.append(rng.choice((0.0005, 0.005, 0.05, 0.5, 2.0)))
    return Trace(np.array(ops, np.uint8), np.array(keys, np.int64),
                 np.array(ks, np.int32), np.array(vs, np.int32),
                 np.array(pens, np.float64))


def _result_tuple(r):
    return (r.total_gets, r.hit_ratio, r.avg_service_time, r.cache_stats,
            r.final_class_slabs, r.final_queue_slabs,
            [(w.index, w.gets, w.hits, w.penalty_sum, w.service_sum)
             for w in r.windows])


class TestDerivedReplayEquivalence:
    @pytest.mark.parametrize("policy,kwargs", [
        ("memcached", {}),
        ("pre-pama", {"value_window": 5000}),
        ("pama", {"value_window": 5000}),
        ("pama", {"value_window": 5000, "tracker": "bloom"}),
    ])
    def test_forced_derive_matches_scalar(self, policy, kwargs):
        trace = _mixed_trace()
        out = {}
        for derive in (False, True):
            cache = SlabCache(4 * MIB, make_policy(policy, **kwargs),
                              SizeClassConfig(slab_size=64 << 10))
            out[derive] = _result_tuple(
                simulate(trace, cache, window_gets=5000, derive=derive))
        assert out[False] == out[True]


class TestDeriveGating:
    def _cache(self, policy="pama", **kwargs):
        kwargs.setdefault("value_window", 5000)
        return SlabCache(4 * MIB, make_policy(policy, **kwargs),
                         SizeClassConfig(slab_size=64 << 10))

    def test_supported_for_static_bins(self):
        cache = self._cache()
        assert derive_unsupported_reason(cache, cache.policy) is None

    def test_adaptive_policy_falls_back(self):
        cache = self._cache(policy="pama-adaptive")
        reason = derive_unsupported_reason(cache, cache.policy)
        assert reason is not None and "dynamically" in reason
        with pytest.raises(ValueError, match="derive pass unavailable"):
            simulate(_mixed_trace(500), cache, derive=True)

    def test_timeline_forces_scalar_loop(self):
        cache = self._cache()
        with pytest.raises(ValueError, match="timeline"):
            simulate(_mixed_trace(500), cache, derive=True,
                     timeline=TimelineRecorder(stride=100))

    def test_auto_derive_requires_key_hashes(self):
        # Hash-free policies stay scalar on auto: the derive pass only
        # pays for itself when it eliminates per-request hashing.
        exact = self._cache()
        bloom = self._cache(tracker="bloom")
        assert not exact._wants_hashes
        assert bloom._wants_hashes
        # Both supported when forced; equivalence is pinned above.
        assert derive_unsupported_reason(exact, exact.policy) is None
        assert derive_unsupported_reason(bloom, bloom.policy) is None
