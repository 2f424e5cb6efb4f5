"""Tests for PamaConfig."""

import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.core.config import (DEFAULT_PENALTY_EDGES, PamaConfig)
from repro.core.pama import PamaPolicy


class TestPenaltyBinning:
    def test_paper_bins(self):
        cfg = PamaConfig()
        assert cfg.num_bins == 5
        assert cfg.penalty_edges == DEFAULT_PENALTY_EDGES

    def test_bin_edges(self):
        cfg = PamaConfig()
        # (0,1ms], (1ms,10ms], (10ms,100ms], (100ms,1s], (1s,5s]
        assert cfg.bin_for(0.0005) == 0
        assert cfg.bin_for(0.001) == 0
        assert cfg.bin_for(0.0011) == 1
        assert cfg.bin_for(0.01) == 1
        assert cfg.bin_for(0.05) == 2
        assert cfg.bin_for(0.1) == 2
        assert cfg.bin_for(0.5) == 3
        assert cfg.bin_for(1.0) == 3
        assert cfg.bin_for(2.0) == 4
        assert cfg.bin_for(5.0) == 4

    def test_above_cap_goes_to_last_bin(self):
        cfg = PamaConfig()
        assert cfg.bin_for(100.0) == 4

    def test_zero_penalty_first_bin(self):
        assert PamaConfig().bin_for(0.0) == 0

    def test_invalid_penalty(self):
        cfg = PamaConfig()
        with pytest.raises(ValueError):
            cfg.bin_for(float("nan"))
        with pytest.raises(ValueError):
            cfg.bin_for(-1.0)


class TestConfigValidation:
    def test_segments_from_m(self):
        cfg = PamaConfig(m=2)
        assert cfg.num_segments == 3
        # the ghost is as deep as the tracked stack bottom
        policy = PamaPolicy(cfg)
        cache = SlabCache(8 * 4096, policy, SizeClassConfig(slab_size=4096))
        cache.set("k", 8, 50, 0.05)
        state = next(iter(cache.iter_queues())).policy_data
        assert state.ghost.num_segments == 3
        assert len(state.values.inc) == 3

    def test_m_zero_allowed(self):
        # Fig 10 sweeps m=0: candidate segment only
        cfg = PamaConfig(m=0)
        assert cfg.num_segments == 1

    def test_segment_weights_eq2(self):
        cfg = PamaConfig(m=2)
        assert cfg.segment_weights() == [0.5, 0.25, 0.125]

    def test_ghost_segments_keyword_refused(self):
        # It was read by nothing but a test, and any depth past m + 1
        # crashed add_incoming on the first hit in ghost segment m + 1
        # (``inc`` and ``weights`` have m + 1 entries).
        with pytest.raises(TypeError):
            PamaConfig(m=2, ghost_segments=5)
        assert not hasattr(PamaConfig(), "ghost_depth_segments")

    @pytest.mark.parametrize("kwargs", [
        dict(penalty_edges=()),
        dict(penalty_edges=(0.1, 0.01)),
        dict(penalty_edges=(-0.1, 0.01)),
        dict(m=-1),
        dict(value_window=0),
        dict(window_mode="bogus"),
        dict(decay=1.5),
        dict(tracker="magic"),
        dict(bloom_fp_rate=0.0),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            PamaConfig(**kwargs)
