"""Tests for the size-class geometry."""

import pytest
from hypothesis import given, strategies as st

from repro._util import MIB
from repro.cache.errors import InvalidItemError, ItemTooLargeError
from repro.cache.sizeclasses import SizeClassConfig


class TestGeometry:
    def test_paper_layout(self):
        # 1 MiB slabs, 64 B base, doubling: 64, 128, ..., 1 MiB -> 15 classes
        cfg = SizeClassConfig()
        assert cfg.slot_size(0) == 64
        assert cfg.slot_size(1) == 128
        assert cfg.num_classes == 15
        assert cfg.slot_size(cfg.num_classes - 1) == MIB
        assert cfg.slots_per_slab(0) == MIB // 64
        assert cfg.slots_per_slab(cfg.num_classes - 1) == 1

    def test_class_for_size_boundaries(self):
        cfg = SizeClassConfig()
        assert cfg.class_for_size(1) == 0
        assert cfg.class_for_size(64) == 0
        assert cfg.class_for_size(65) == 1
        assert cfg.class_for_size(128) == 1
        assert cfg.class_for_size(MIB) == cfg.num_classes - 1

    def test_too_large_rejected(self):
        cfg = SizeClassConfig()
        with pytest.raises(ItemTooLargeError):
            cfg.class_for_size(MIB + 1)

    def test_non_positive_rejected(self):
        cfg = SizeClassConfig()
        with pytest.raises(InvalidItemError):
            cfg.class_for_size(0)
        with pytest.raises(InvalidItemError):
            cfg.class_for_size(-5)

    def test_item_overhead_shifts_class(self):
        cfg = SizeClassConfig(item_overhead=56)
        # 60 B item + 56 B overhead = 116 B -> class 1
        assert cfg.class_for_size(60) == 1

    def test_non_doubling_growth(self):
        cfg = SizeClassConfig(slab_size=1 << 16, base_size=80, growth=1.25)
        sizes = [cfg.slot_size(i) for i in range(cfg.num_classes)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 1 << 16
        # consecutive ratios near the growth factor (integer rounding)
        for a, b in zip(sizes, sizes[1:-1]):
            assert b / a <= 1.26

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SizeClassConfig(slab_size=0)
        with pytest.raises(ValueError):
            SizeClassConfig(growth=1.0)
        with pytest.raises(ValueError):
            SizeClassConfig(base_size=2 * MIB, slab_size=MIB)
        with pytest.raises(ValueError):
            SizeClassConfig(item_overhead=-1)

    def test_describe_lists_all_classes(self):
        cfg = SizeClassConfig(slab_size=4096, base_size=64)
        text = cfg.describe()
        assert len(text.splitlines()) == cfg.num_classes + 1

    @given(st.integers(min_value=1, max_value=MIB))
    def test_chosen_class_fits_and_is_tight(self, size):
        cfg = SizeClassConfig()
        idx = cfg.class_for_size(size)
        assert size <= cfg.slot_size(idx)
        if idx > 0:
            assert size > cfg.slot_size(idx - 1)

    @given(st.integers(min_value=0, max_value=14))
    def test_slab_fully_divisible(self, idx):
        cfg = SizeClassConfig()
        assert cfg.slots_per_slab(idx) * cfg.slot_size(idx) <= cfg.slab_size
        assert cfg.slots_per_slab(idx) >= 1


class TestTooLargeIsMemoized:
    """A size no class holds is memoized as -1: the cache reads it as
    "too large" without raising, a direct ``class_for_size`` still
    raises."""

    def test_classify_memoizes_minus_one(self):
        cfg = SizeClassConfig(slab_size=1024)
        assert cfg.classify(1025) == -1 and cfg.classify(1024) == 4
        with pytest.raises(ItemTooLargeError):
            cfg.class_for_size(1025)  # from the memo
        with pytest.raises(InvalidItemError):
            cfg.classify(0)

    def test_a_replay_of_too_large_rows_constructs_no_error(self,
                                                            monkeypatch):
        from repro.cache import SlabCache
        from repro.cache.cache import apply_rows_per_request
        from repro.policies import make_policy

        built = []
        original = ItemTooLargeError.__init__

        def counting(self, size, max_size):
            built.append(size)
            original(self, size, max_size)

        monkeypatch.setattr(ItemTooLargeError, "__init__", counting)
        big = (8, 2000, 0.05)  # past the 1 KiB slab
        rows = ([(0, k, *big) for k in range(4)]
                + [(1, k, *big) for k in range(4)]
                + [(0, "small", 8, 32, 0.05), (0, 9, *big)])
        caches, notes = [], []
        for apply in (SlabCache.apply_rows, apply_rows_per_request):
            cache = SlabCache(8 * 1024, make_policy("memcached"),
                              SizeClassConfig(slab_size=1024))
            got = []
            apply(cache, iter(rows), True, got.append)
            caches.append(cache)
            notes.append(got)
        assert built == []
        assert notes[0] == notes[1] == [-1] * 6
        assert caches[0].stats == caches[1].stats
        assert caches[0].stats.rejected_too_large == 4 + 4 + 1
        with pytest.raises(ItemTooLargeError):
            caches[0].size_classes.class_for_size(2008)
        assert built == [2008]
