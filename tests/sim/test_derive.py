"""Property tests: the vectorized window columns vs their scalar references.

Every column must agree element-wise with the scalar function the cache
calls per request — ``hash_key`` / ``hash_pair`` / ``class_for_size`` /
``PamaConfig.bin_for``.  A Bloom-tracked replay hands the cache
``hash_pair_arrays``' pairs, so its parity is what keeps that replay
``==`` to the per-request loop (pinned end to end by the ``pama-bloom``
cells of ``test_kernel_differential.py``).
"""

import math

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
from repro.policies import make_policy
from repro.sim.derive import (class_index_array, derive_unsupported_reason,
                              penalty_bin_array)

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


class TestDeriveGating:
    def _cache(self, policy="pama", **kwargs):
        kwargs.setdefault("value_window", 5000)
        return SlabCache(4 * MIB, make_policy(policy, **kwargs),
                         SizeClassConfig(slab_size=64 << 10))

    def test_supported_for_static_bins(self):
        cache = self._cache()
        assert derive_unsupported_reason(cache, cache.policy) is None

    def test_a_faulted_replay_takes_the_pairs(self):
        # apply_rows raises TypeError when a hashing policy's run comes
        # without the pairs: the replay finishing is the check.
        from repro.faults import FaultInjector, make_plan
        from repro.sim import Simulator
        from repro.traces import ETC, generate

        cache = self._cache(tracker="bloom")
        assert derive_unsupported_reason(cache, cache.policy) is None
        inj = FaultInjector(make_plan("backend-brownout", 4_000, ["n0"], 7))
        Simulator(cache, window_gets=500, faults=inj).run(
            generate(ETC.scaled(0.02), 4_000, seed=3))
        assert inj.counters["backend_error"] > 0
        with pytest.raises(TypeError):
            derive_unsupported_reason(cache, cache.policy, faults=inj)

    def test_auto_derive_requires_key_hashes(self):
        # derive.engaged (benchmarks/e2e) is this reason's None and the
        # cache's _wants_hashes: only a hashing policy takes the pairs.
        exact = self._cache()
        bloom = self._cache(tracker="bloom")
        assert not exact._wants_hashes
        assert bloom._wants_hashes
        assert derive_unsupported_reason(exact, exact.policy) is None
        assert derive_unsupported_reason(bloom, bloom.policy) is None
