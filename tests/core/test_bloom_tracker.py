"""Tests for the Bloom-filter segment tracker (the paper's mechanism)."""

from repro.cache.item import Item
from repro.cache.lru import LRUList
from repro.core.bloom_tracker import BloomSegmentTracker
from repro.core import PamaConfig, PamaPolicy
from repro.cache import SlabCache, SizeClassConfig


def make_item(key):
    return Item(key, 8, 32, 0.01)


def build(seg_len=4, num_segments=2, n_items=12):
    lru = LRUList()
    tracker = BloomSegmentTracker(lru, seg_len, num_segments, fp_rate=0.001)
    items = [make_item(i) for i in range(n_items)]
    for it in items:
        lru.push_front(it)
    return lru, tracker, items


class TestBloomTracker:
    def test_empty_before_rebuild(self):
        lru, tracker, items = build()
        # filters start empty: every access reports "not in segments"
        assert tracker.segment_on_access(items[0]) == -1

    def test_rebuild_indexes_bottom_segments(self):
        lru, tracker, items = build(seg_len=4, num_segments=2)
        tracker.rebuild()
        # bottom 4 items → segment 0; next 4 → segment 1; rest untracked
        assert tracker.segment_on_access(items[0]) == 0
        assert tracker.segment_on_access(items[5]) == 1
        assert tracker.segment_on_access(items[10]) == -1

    def test_removal_filter_masks_promoted_items(self):
        lru, tracker, items = build()
        tracker.rebuild()
        assert tracker.segment_on_access(items[0]) == 0
        lru.move_to_front(items[0])
        # item left the segment: the removal filter must mask it now
        assert tracker.segment_on_access(items[0]) == -1

    def test_rebuild_clears_stale_masks(self):
        lru, tracker, items = build(seg_len=4, num_segments=2)
        tracker.rebuild()
        tracker.segment_on_access(items[0])    # marks item 0 removed
        lru.move_to_front(items[0])
        # push item 0 back to the bottom region by promoting others
        for it in items[1:]:
            lru.move_to_front(it)
        tracker.rebuild()
        # the rebuild re-adds key 0 to a segment; clear-on-readd fires
        assert tracker.removal.clears >= 1
        assert tracker.segment_on_access(items[0]) >= 0

    def test_item_seg_stays_unset(self):
        # The Bloom tracker keeps no per-item segment and the plain list
        # it reads writes none: item.seg is -1 whatever the filters say,
        # through pushes, rebuilds and promotions.
        lru, tracker, items = build(seg_len=4, num_segments=2)
        tracker.rebuild()
        lru.move_to_front(items[0])
        lru.move_to_front(items[3])
        assert all(it.seg == -1 for it in lru)

    def test_rollover_triggers_rebuild(self):
        lru, tracker, items = build()
        before = tracker.rebuilds
        tracker.rollover()
        assert tracker.rebuilds == before + 1


class TestBloomTrackerInPolicy:
    def test_pama_runs_with_bloom_tracker(self):
        import random
        rng = random.Random(4)
        classes = SizeClassConfig(slab_size=4096, base_size=64)
        policy = PamaPolicy(PamaConfig(tracker="bloom", value_window=500))
        cache = SlabCache(8 * 4096, policy, classes)
        for i in range(4000):
            key = rng.randrange(300)
            size = rng.choice([40, 200, 900])
            pen = rng.choice([0.0005, 0.05, 2.0])
            if cache.lookup(key, 8, size, pen) is None:
                cache.set(key, 8, size, pen)
        cache.check_invariants()
        # trackers must have been rebuilt by window rollovers
        trackers = [q.policy_data.tracker for q in cache.iter_queues()]
        assert any(t.rebuilds > 0 for t in trackers)
        assert cache.stats.hits > 0

    def test_hit_is_credited_from_the_filters_not_item_seg(self):
        # The exact tracker's answer is item.seg and PamaPolicy.on_hit
        # reads it there; under Bloom tracking item.seg is always -1
        # and the segment must come from the tracker.
        classes = SizeClassConfig(slab_size=4096, base_size=64)
        policy = PamaPolicy(PamaConfig(tracker="bloom",
                                       value_window=1_000_000))
        cache = SlabCache(8 * 4096, policy, classes)
        for key in range(20):
            cache.set(key, 8, 40, 0.05)
        queue = next(iter(cache.iter_queues()))
        queue.policy_data.tracker.rebuild()
        bottom = queue.lru.back
        assert bottom.seg == -1
        assert queue.policy_data.values.outgoing_value() == 0.0
        assert cache.get(bottom.key) is bottom
        assert queue.policy_data.values.outgoing_value() == 0.05 * 0.5

    def test_agreement_with_exact_tracker(self):
        """Same workload under exact vs bloom tracking: hit ratios close.

        The bloom tracker only affects *value accounting*, so cache
        contents may drift, but aggregate behaviour should stay in the
        same ballpark (the ablation bench quantifies this precisely).
        """
        import random

        def run(tracker):
            rng = random.Random(9)
            classes = SizeClassConfig(slab_size=4096, base_size=64)
            policy = PamaPolicy(PamaConfig(tracker=tracker, value_window=500))
            cache = SlabCache(16 * 4096, policy, classes)
            for i in range(6000):
                key = rng.randrange(500)
                size = rng.choice([40, 200, 900])
                pen = rng.choice([0.0005, 0.05, 2.0])
                if cache.lookup(key, 8, size, pen) is None:
                    cache.set(key, 8, size, pen)
            return cache.stats.hit_ratio

        exact, bloom = run("exact"), run("bloom")
        assert abs(exact - bloom) < 0.15
