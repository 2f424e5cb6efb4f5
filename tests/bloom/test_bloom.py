"""Tests for the plain Bloom filter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom import BloomFilter
from repro.bloom.bloom import optimal_params


class TestOptimalParams:
    def test_reasonable_sizing(self):
        nbits, nhashes = optimal_params(1000, 0.01)
        # ~9.6 bits/key for 1% fp, rounded up to a power of two
        assert nbits >= 9600
        assert nbits & (nbits - 1) == 0
        assert 1 <= nhashes <= 20

    def test_lower_fp_needs_more_bits(self):
        loose, _ = optimal_params(1000, 0.1)
        tight, _ = optimal_params(1000, 0.001)
        assert tight > loose

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_params(0, 0.01)
        with pytest.raises(ValueError):
            optimal_params(100, 0.0)
        with pytest.raises(ValueError):
            optimal_params(100, 1.0)


class TestBloomFilter:
    def test_no_false_negatives(self):
        f = BloomFilter(capacity=500, fp_rate=0.01)
        keys = list(range(500))
        for k in keys:
            f.add(k)
        assert all(k in f for k in keys)

    def test_fresh_filter_is_empty(self):
        f = BloomFilter(capacity=100)
        assert 42 not in f
        assert len(f) == 0

    def test_false_positive_rate_near_target(self):
        f = BloomFilter(capacity=1000, fp_rate=0.01, seed=7)
        for k in range(1000):
            f.add(k)
        false_positives = sum(1 for k in range(10_000, 30_000) if k in f)
        assert false_positives / 20_000 < 0.05  # generous margin over 1%

    def test_clear(self):
        f = BloomFilter(capacity=100)
        for k in range(100):
            f.add(k)
        f.clear()
        assert len(f) == 0
        assert sum(1 for k in range(100) if k in f) == 0

    def test_saturation_monotone(self):
        f = BloomFilter(capacity=200)
        assert f.saturation() == 0.0
        prev = 0.0
        for k in range(200):
            f.add(k)
            sat = f.saturation()
            assert sat >= prev
            prev = sat
        assert 0.0 < f.estimated_fp_rate() < 1.0

    def test_string_keys(self):
        f = BloomFilter(capacity=10)
        f.add("alpha")
        assert "alpha" in f
        assert "beta" not in f or True  # may be a false positive; no crash

    def test_seed_isolation(self):
        a = BloomFilter(capacity=100, seed=1)
        b = BloomFilter(capacity=100, seed=2)
        a.add(12345)
        # b uses a different hash family; 12345 almost surely absent
        assert 12345 in a

    def test_geometry_is_optimal_params(self):
        # the width is a power of two, so a probe is a bitmask
        for capacity in (1, 10, 100, 1000):
            f = BloomFilter(capacity, 0.01)
            assert (f.nbits, f.nhashes) == optimal_params(capacity, 0.01)
            assert f.nbits & (f.nbits - 1) == 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(fp_rate=1.0)

    @settings(max_examples=50)
    @given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=200))
    def test_membership_property(self, keys):
        f = BloomFilter(capacity=max(len(keys), 1), fp_rate=0.01)
        for k in keys:
            f.add(k)
        assert all(k in f for k in keys)
