"""The ``*_hashes`` fast paths must agree with the reference construction.

The hash-once hot path computes one :func:`hash_pair` per request and
threads it through every filter; these properties pin the contract that
makes that sound: for any key, seed and filter geometry
(:func:`optimal_params`'s, whose width is a power of two), the fast
paths touch exactly the bit positions the reference
:func:`double_hashes` construction defines, and the key-based APIs
remain thin wrappers with bit-identical behaviour.
"""

from hypothesis import given, settings, strategies as st

from repro.bloom.bloom import BloomFilter
from repro.bloom.hashing import _MASK64, double_hashes, hash_key, hash_pair
from repro.bloom.removal import RemovalFilter

#: all key types the cache accepts (bool is rejected by hash_key).
KEYS = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.text(max_size=32),
    st.binary(max_size=32),
)
SEEDS = st.integers(min_value=0, max_value=2 ** 32)
#: widths for the reference construction: powers of two (the
#: optimal_params output) and arbitrary sizes.
NBITS = st.one_of(st.sampled_from([8, 64, 1024, 16384]),
                  st.integers(min_value=1, max_value=5000))
NHASHES = st.integers(min_value=1, max_value=12)
#: filter geometries, as optimal_params sizes them: widths from 8 bits
#: up, one to seven probes.
CAPACITIES = st.integers(min_value=1, max_value=2000)
FP_RATES = st.sampled_from([0.5, 0.1, 0.01, 0.001])


class TestHashPair:
    @given(KEYS, SEEDS)
    def test_pair_matches_hash_key(self, key, seed):
        h1, h2 = hash_pair(key, seed)
        assert h1 == hash_key(key, seed)
        assert h2 & 1, "h2 must be odd (and 0 usable as an absent marker)"

    @given(KEYS, NHASHES, NBITS, SEEDS)
    def test_pair_generates_double_hashes(self, key, k, nbits, seed):
        h1, h2 = hash_pair(key, seed)
        ref = double_hashes(key, k, nbits, seed)
        assert ref == [((h1 + i * h2) & _MASK64) % nbits for i in range(k)]

    @given(KEYS, NHASHES, SEEDS,
           st.integers(min_value=3, max_value=14).map(lambda e: 1 << e))
    def test_pow2_mask_equals_modulo(self, key, k, seed, nbits):
        # the satellite fix: & (nbits-1) must equal the % nbits reference
        h1, h2 = hash_pair(key, seed)
        assert double_hashes(key, k, nbits, seed) == [
            (h1 + i * h2) & (nbits - 1) for i in range(k)]


class TestBloomFilterFastPath:
    @given(KEYS, SEEDS, CAPACITIES, FP_RATES)
    @settings(max_examples=200)
    def test_add_hashes_sets_reference_bits(self, key, seed, capacity, fp):
        by_key = BloomFilter(capacity, fp, seed=seed)
        by_pair = BloomFilter(capacity, fp, seed=seed)
        by_key.add(key)
        by_pair.add_hashes(*hash_pair(key, seed))
        expected = 0
        for pos in double_hashes(key, by_key.nhashes, by_key.nbits, seed):
            expected |= 1 << pos
        assert by_key._bits == by_pair._bits == expected
        assert key in by_key
        assert by_pair.contains_hashes(*hash_pair(key, seed))

    @given(st.lists(KEYS, max_size=8), KEYS, SEEDS, CAPACITIES, FP_RATES)
    @settings(max_examples=200)
    def test_contains_hashes_agrees_with_key_api(self, members, probe,
                                                 seed, capacity, fp):
        filt = BloomFilter(capacity, fp, seed=seed)
        for m in members:
            filt.add(m)
        assert (probe in filt) == filt.contains_hashes(*hash_pair(probe, seed))

    @given(st.lists(KEYS, max_size=16), CAPACITIES, FP_RATES)
    def test_saturation_counts_set_bits(self, members, capacity, fp):
        filt = BloomFilter(capacity, fp)
        for m in members:
            filt.add(m)
        assert filt.saturation() == bin(filt._bits).count("1") / filt.nbits


class TestRemovalFilterFastPath:
    @given(st.lists(KEYS, max_size=8), KEYS, SEEDS)
    def test_masks_agrees_with_key_api(self, removed, probe, seed):
        by_key = RemovalFilter(64, seed=seed)
        by_pair = RemovalFilter(64, seed=seed)
        for r in removed:
            by_key.mark_removed(r)
            by_pair.mark_removed_hashes(*hash_pair(r, seed))
        assert by_key._filter._bits == by_pair._filter._bits
        assert by_key.masks(probe) == by_pair.masks_hashes(
            *hash_pair(probe, seed))

    @given(st.lists(KEYS, max_size=8), KEYS, SEEDS)
    def test_on_segment_add_agrees_with_key_api(self, removed, added, seed):
        by_key = RemovalFilter(64, seed=seed)
        by_pair = RemovalFilter(64, seed=seed)
        for r in removed:
            by_key.mark_removed(r)
            by_pair.mark_removed(r)
        by_key.on_segment_add(added)
        by_pair.on_segment_add_hashes(*hash_pair(added, seed))
        assert by_key.clears == by_pair.clears
        assert by_key._filter._bits == by_pair._filter._bits
