"""Tests for the synthetic trace generator."""

import numpy as np
import pytest

from repro.traces import ETC, USR, Op, WorkloadProfile, generate
from repro.traces.synthetic import SyntheticTraceGenerator, zipf_cdf


class TestZipfCdf:
    def test_shape(self):
        cdf = zipf_cdf(100, 1.0)
        assert len(cdf) == 100
        assert cdf[-1] == pytest.approx(1.0)
        assert (np.diff(cdf) > 0).all()

    def test_higher_alpha_more_skew(self):
        mild = zipf_cdf(1000, 0.5)
        steep = zipf_cdf(1000, 1.5)
        assert steep[0] > mild[0]  # rank-0 mass larger under steeper skew

    def test_invalid(self):
        with pytest.raises(ValueError):
            zipf_cdf(0, 1.0)


class TestGenerator:
    def test_deterministic(self):
        a = generate(ETC.scaled(0.05), 5_000, seed=3)
        b = generate(ETC.scaled(0.05), 5_000, seed=3)
        assert (a.keys == b.keys).all()
        assert (a.ops == b.ops).all()
        assert (a.penalties == b.penalties).all()

    def test_seed_changes_trace(self):
        a = generate(ETC.scaled(0.05), 5_000, seed=3)
        b = generate(ETC.scaled(0.05), 5_000, seed=4)
        assert not (a.keys == b.keys).all()

    def test_operation_mix_matches_profile(self):
        trace = generate(ETC.scaled(0.05), 40_000, seed=1)
        get_frac = np.count_nonzero(trace.ops == Op.GET) / len(trace)
        assert abs(get_frac - ETC.get_fraction) < 0.02

    def test_sizes_respect_mixture_bounds(self):
        trace = generate(USR.scaled(0.05), 5_000, seed=1)
        assert set(np.unique(trace.value_sizes)) == {2}
        assert set(np.unique(trace.key_sizes)) <= {16, 21}

    def test_per_key_attributes_stable(self):
        trace = generate(ETC.scaled(0.05), 30_000, seed=2)
        seen: dict[int, tuple] = {}
        for i in range(len(trace)):
            k = int(trace.keys[i])
            attrs = (int(trace.key_sizes[i]), int(trace.value_sizes[i]),
                     float(trace.penalties[i]))
            if k in seen:
                assert seen[k] == attrs, f"key {k} changed attributes"
            seen[k] = attrs

    def test_popularity_is_skewed(self):
        trace = generate(ETC.scaled(0.1), 50_000, seed=5)
        _keys, counts = np.unique(trace.keys, return_counts=True)
        counts = np.sort(counts)[::-1]
        top_share = counts[: max(1, len(counts) // 100)].sum() / counts.sum()
        assert top_share > 0.2  # top 1% of keys take >20% of accesses

    def test_cold_keys_are_one_timers(self):
        profile = ETC.scaled(0.05)
        trace = generate(profile, 20_000, seed=6)
        gen_base = SyntheticTraceGenerator.COLD_KEY_BASE
        cold_mask = trace.keys >= gen_base
        assert cold_mask.any()
        cold_keys, counts = np.unique(trace.keys[cold_mask], return_counts=True)
        assert (counts == 1).all()

    def test_churn_rotates_hot_set(self):
        profile = WorkloadProfile(name="churny", num_keys=1_000,
                                  churn_interval=5_000, churn_fraction=0.5,
                                  cold_fraction=0.0, get_fraction=1.0,
                                  set_fraction=0.0)
        gen = SyntheticTraceGenerator(profile, seed=1)
        early = gen.generate(5_000, start_position=0)
        late = gen.generate(5_000, start_position=50_000)
        assert early.keys.min() < 1_000
        assert late.keys.min() >= 1_000  # whole universe shifted

    def test_timestamps_increase(self):
        trace = generate(ETC.scaled(0.05), 2_000, seed=1)
        assert (np.diff(trace.timestamps) > 0).all()

    def test_penalties_bounded(self):
        trace = generate(ETC.scaled(0.05), 20_000, seed=1)
        assert trace.penalties.min() > 0
        assert trace.penalties.max() <= 5.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate(ETC, 0)


class TestDrift:
    @staticmethod
    def _profile(drift):
        return WorkloadProfile(name="drifty", num_keys=1_000,
                               cold_fraction=0.0, get_fraction=1.0,
                               set_fraction=0.0, drift_per_request=drift)

    def test_hot_set_glides_continuously(self):
        gen = SyntheticTraceGenerator(self._profile(0.05), seed=3)
        early = gen.generate(2_000, start_position=0)
        late = gen.generate(2_000, start_position=100_000)
        # 100k requests x 0.05 drift = 5000-id glide: disjoint hot sets.
        assert late.keys.min() >= early.keys.max()
        assert np.median(late.keys) > np.median(early.keys) + 4_000

    def test_zero_drift_is_stationary(self):
        gen = SyntheticTraceGenerator(self._profile(0.0), seed=3)
        late = gen.generate(2_000, start_position=100_000)
        assert late.keys.max() < 1_000

    def test_drift_composes_with_churn(self):
        profile = WorkloadProfile(name="both", num_keys=1_000,
                                  cold_fraction=0.0, get_fraction=1.0,
                                  set_fraction=0.0, drift_per_request=0.01,
                                  churn_interval=5_000, churn_fraction=0.5)
        gen = SyntheticTraceGenerator(profile, seed=3)
        late = gen.generate(1_000, start_position=50_000)
        # churn alone shifts by 10*500=5000; drift adds 50000*0.01=500.
        assert late.keys.min() >= 5_000 + 500

    def test_chunks_are_position_anchored(self):
        # Drift and diurnal phase key off the absolute position, so a
        # chunk depends only on (seed, start_position) — never on what
        # was generated before it.
        profile = WorkloadProfile(name="drifty", num_keys=1_000,
                                  cold_fraction=0.0, get_fraction=1.0,
                                  set_fraction=0.0, drift_per_request=0.05,
                                  diurnal_period=0.5,
                                  diurnal_amplitude=0.6)
        gen = SyntheticTraceGenerator(profile, seed=9)
        for p in range(0, 3_000, 1_000):
            gen.generate(1_000, start_position=p)  # advance through...
        sequential = gen.generate(1_000, start_position=3_000)
        direct = SyntheticTraceGenerator(profile, seed=9).generate(
            1_000, start_position=3_000)
        assert (sequential.keys == direct.keys).all()
        assert (sequential.ops == direct.ops).all()
        assert (sequential.timestamps == direct.timestamps).all()


class TestDiurnal:
    @staticmethod
    def _profile(amplitude, period):
        return WorkloadProfile(name="tidal", num_keys=1_000,
                               cold_fraction=0.0, get_fraction=1.0,
                               set_fraction=0.0, diurnal_period=period,
                               diurnal_amplitude=amplitude)

    def test_rate_peaks_compress_gaps(self):
        # One full cycle over 4000 requests (mean gap 1e-4 -> t in
        # [0, 0.4), period 0.4).  Peak rate at position ~1000, trough
        # at ~3000; with A=0.9 the mean gap differs by ~19x.
        gen = SyntheticTraceGenerator(self._profile(0.9, 0.4), seed=7)
        gaps = np.diff(gen.generate(4_000).timestamps)
        peak = gaps[900:1100].mean()
        trough = gaps[2900:3100].mean()
        assert trough > 5 * peak

    def test_zero_amplitude_identical_to_flat(self):
        flat = SyntheticTraceGenerator(
            self._profile(0.0, 0.4), seed=7).generate(2_000)
        plain = SyntheticTraceGenerator(
            WorkloadProfile(name="tidal", num_keys=1_000,
                            cold_fraction=0.0, get_fraction=1.0,
                            set_fraction=0.0), seed=7).generate(2_000)
        assert (flat.timestamps == plain.timestamps).all()

    def test_timestamps_still_monotonic(self):
        trace = SyntheticTraceGenerator(
            self._profile(0.95, 0.1), seed=11).generate(5_000)
        assert (np.diff(trace.timestamps) > 0).all()


class TestSeedRange:
    """Cold keys are numbered from ``COLD_KEY_BASE + (seed << 32)`` in
    an int64: a seed past ``2**31 - 257`` used to construct fine and
    die inside ``generate`` with a bare ``OverflowError`` (only for
    profiles with cold keys), a negative one with ``SeedSequence``'s
    "expected non-negative integer"."""

    @pytest.mark.parametrize("seed", [-1, 2**31 - 256, 2**31, 2**40])
    def test_out_of_range_seed_is_refused_at_construction(self, seed):
        with pytest.raises(ValueError,
                           match=r"seed must be in \[0, 2\*\*31 - 256\)"):
            SyntheticTraceGenerator(ETC.scaled(0.05), seed=seed)

    def test_largest_accepted_seed_numbers_its_cold_keys(self):
        gen = SyntheticTraceGenerator(ETC.scaled(0.05), seed=2**31 - 257)
        cold = gen.generate(20_000).keys
        cold = cold[cold >= gen.COLD_KEY_BASE]
        assert len(cold) > 100
        assert cold.min() == 2**63 - 2**32
        assert len(np.unique(cold)) == len(cold)
