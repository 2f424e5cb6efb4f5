"""Tests for the exact segment tracker, the segmented LRU list,
including a brute-force oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.item import Item
from repro.cache.lru import LRUList
from repro.core.segments import SegmentedLRU


def make_item(key):
    return Item(key, 8, 32, 0.01)


def tracked_list(seg_len, num_segments):
    """The list and its tracker, which are one object."""
    lru = SegmentedLRU(seg_len, num_segments)
    return lru, lru


class TestSegmentAssignment:
    def test_first_item_is_segment_zero(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=3)
        a = make_item("a")
        lru.push_front(a)
        assert a.seg == 0
        tracker.check_invariants()

    def test_fill_across_segments(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=3)
        items = [make_item(i) for i in range(8)]
        for it in items:
            lru.push_front(it)
        # bottom-distance: items[0] is deepest (pushed first)
        assert items[0].seg == 0 and items[1].seg == 0
        assert items[2].seg == 1 and items[3].seg == 1
        assert items[4].seg == 2 and items[5].seg == 2
        assert items[6].seg == -1 and items[7].seg == -1
        tracker.check_invariants()

    def test_promotion_shifts_segments(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=2)
        items = [make_item(i) for i in range(5)]
        for it in items:
            lru.push_front(it)
        # order (MRU→LRU): 4 3 2 1 0 ; segs: -1 1 1 0 0
        lru.move_to_front(items[0])  # bottom item promoted
        # new order: 0 4 3 2 1 ; distances: 1→0, 2→1, 3→2, 4→3, 0→4
        assert items[1].seg == 0
        assert items[2].seg == 0
        assert items[3].seg == 1
        assert items[4].seg == 1
        assert items[0].seg == -1
        tracker.check_invariants()

    def test_eviction_from_bottom(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=2)
        items = [make_item(i) for i in range(6)]
        for it in items:
            lru.push_front(it)
        victim = lru.pop_back()
        assert victim is items[0]
        assert items[1].seg == 0 and items[2].seg == 0
        assert items[3].seg == 1 and items[4].seg == 1
        assert items[5].seg == -1
        tracker.check_invariants()

    def test_segment_on_access_reads_pre_promotion_segment(self):
        lru, tracker = tracked_list(seg_len=1, num_segments=3)
        items = [make_item(i) for i in range(4)]
        for it in items:
            lru.push_front(it)
        assert tracker.segment_on_access(items[1]) == 1
        lru.move_to_front(items[1])
        assert tracker.segment_on_access(items[1]) == -1

    def test_seg_len_one(self):
        lru, tracker = tracked_list(seg_len=1, num_segments=4)
        items = [make_item(i) for i in range(6)]
        for it in items:
            lru.push_front(it)
        for d, it in enumerate(items):
            assert it.seg == (d if d < 4 else -1)
        lru.remove(items[2])
        tracker.check_invariants()
        assert items[3].seg == 2 and items[4].seg == 3 and items[5].seg == -1


class TestConstruction:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SegmentedLRU(0, 2)
        with pytest.raises(ValueError):
            SegmentedLRU(2, 0)

    def test_is_an_lru_list(self):
        lru, _ = tracked_list(2, 2)
        assert isinstance(lru, LRUList)
        assert len(lru) == 0 and lru.bounds == [None, None, None]
        lru.check_invariants()

    def test_rollover_is_noop(self):
        lru, tracker = tracked_list(2, 2)
        tracker.rollover()
        tracker.check_invariants()


class TestSegmentTrackerOracle:
    """Drive random op sequences; check_invariants recomputes every
    item's segment brute-force and compares boundary pointers."""

    @settings(max_examples=80, deadline=None)
    @given(
        seg_len=st.integers(1, 4),
        num_segments=st.integers(1, 4),
        ops=st.lists(st.tuples(st.sampled_from(["push", "move", "pop", "remove"]),
                               st.integers(0, 24)), max_size=150),
    )
    def test_random_ops_match_oracle(self, seg_len, num_segments, ops):
        lru, tracker = tracked_list(seg_len, num_segments)
        live = {}
        counter = [0]
        for op, k in ops:
            if op == "push":
                key = f"k{counter[0]}"
                counter[0] += 1
                it = make_item(key)
                live[key] = it
                lru.push_front(it)
            elif op == "move" and live:
                key = sorted(live)[k % len(live)]
                lru.move_to_front(live[key])
            elif op == "pop" and live:
                victim = lru.pop_back()
                del live[victim.key]
            elif op == "remove" and live:
                key = sorted(live)[k % len(live)]
                lru.remove(live.pop(key))
            tracker.check_invariants()


def two_step_move_to_front(lru, item):
    """A promotion as ``remove`` + ``push_front``: the oracle for the
    one-body ``move_to_front``."""
    if lru.head is item:
        return
    lru.remove(item)
    lru.push_front(item)


def tracked_state(lru, tracker):
    return ([(it.key, it.seg) for it in lru], lru.size, len(tracker),
            [b.key if b is not None else None for b in tracker.bounds])


class TestFusedMoveToFront:
    """Two tracked lists driven in lockstep, one promoted by the fused
    ``move_to_front`` and one by ``remove`` + ``push_front``, one
    drained by ``pop_back_run`` and one by that many ``pop_back``."""

    @settings(max_examples=120, deadline=None)
    @given(
        seg_len=st.integers(1, 4),
        num_segments=st.integers(1, 4),
        ops=st.lists(st.tuples(st.sampled_from(["push", "push", "move", "move",
                                                "pop", "remove", "run"]),
                               st.integers(0, 24)), max_size=150),
    )
    def test_same_order_size_segments_and_bounds(self, seg_len, num_segments,
                                                 ops):
        fused, fused_tracker = tracked_list(seg_len, num_segments)
        plain, plain_tracker = tracked_list(seg_len, num_segments)
        live = {}  # key -> (item in fused, item in plain)
        pushed = 0
        for op, k in ops:
            if op == "push":
                key = f"k{pushed:03d}"
                pushed += 1
                live[key] = (make_item(key), make_item(key))
                fused.push_front(live[key][0])
                plain.push_front(live[key][1])
            elif not live:
                continue
            elif op == "move":
                a, b = live[sorted(live)[k % len(live)]]
                fused.move_to_front(a)
                two_step_move_to_front(plain, b)
            elif op == "pop":
                victim = fused.pop_back()
                assert plain.pop_back().key == victim.key
                del live[victim.key]
            elif op == "run":
                run = fused.pop_back_run(k % 7)  # may ask for too many
                assert len(run) == min(k % 7, len(live))
                assert [v.key for v in run] \
                    == [plain.pop_back().key for _ in run]
                for victim in run:
                    assert victim.prev is None and victim.next is None
                    assert victim.seg == -1
                    del live[victim.key]
            else:
                a, b = live.pop(sorted(live)[k % len(live)])
                fused.remove(a)
                plain.remove(b)
            fused.check_invariants()
            fused_tracker.check_invariants()
            assert (tracked_state(fused, fused_tracker)
                    == tracked_state(plain, plain_tracker))

    def test_head_item_is_left_alone(self):
        lru, tracker = tracked_list(seg_len=1, num_segments=2)
        items = [make_item(i) for i in range(3)]
        for it in items:
            lru.push_front(it)
        before = tracked_state(lru, tracker)
        lru.move_to_front(items[2])
        assert tracked_state(lru, tracker) == before

    def test_single_item(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=2)
        only = make_item("only")
        lru.push_front(only)
        lru.move_to_front(only)
        assert lru.front is only and lru.back is only and len(lru) == 1
        assert only.prev is None and only.next is None and only.seg == 0
        tracker.check_invariants()

    def test_tail_item_hands_the_tail_to_its_predecessor(self):
        lru, tracker = tracked_list(seg_len=1, num_segments=2)
        a, b = make_item("a"), make_item("b")
        lru.push_front(a)
        lru.push_front(b)
        lru.move_to_front(a)
        assert [it.key for it in lru] == ["a", "b"]
        assert lru.back is b and b.next is None and a.prev is None
        assert (a.seg, b.seg) == (1, 0)
        lru.check_invariants()
        tracker.check_invariants()


class TestOnPromote:
    """A promotion against the ``remove`` + ``push_front`` it stands
    for: two tracked lists in lockstep, one promoted by
    ``move_to_front``, the other in those two steps, for every stack
    length up to past the tracked region and every pair of positions —
    so short stacks (n <= limit), an item sitting on each boundary, the
    first untracked item and ``seg_len == 1`` are all among them.
    (``TestFusedMoveToFront`` mixes promotions with pushes, pops, removals
    and runs at random, against ``remove`` + ``push_front``.)"""

    @pytest.mark.parametrize("seg_len", [1, 2, 3])
    @pytest.mark.parametrize("num_segments", [1, 2, 3])
    def test_every_length_and_pair_of_positions(self, seg_len, num_segments):
        limit = seg_len * num_segments
        for n in range(1, limit + 4):
            for first in range(n):
                for second in range(n):
                    one, one_tracker = tracked_list(seg_len, num_segments)
                    two, two_tracker = tracked_list(seg_len, num_segments)
                    ones = [make_item(i) for i in range(n)]
                    twos = [make_item(i) for i in range(n)]
                    for a, b in zip(ones, twos):
                        one.push_front(a)
                        two.push_front(b)
                    for at in (first, second):
                        one.move_to_front(ones[at])
                        two_step_move_to_front(two, twos[at])
                        one.check_invariants()
                        one_tracker.check_invariants()
                        assert (tracked_state(one, one_tracker)
                                == tracked_state(two, two_tracker))

    def test_the_first_untracked_item_hands_the_boundary_up(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=2)
        items = [make_item(i) for i in range(7)]
        for it in items:
            lru.push_front(it)
        assert tracker.bounds[2] is items[4]
        lru.move_to_front(items[4])
        assert tracker.bounds[2] is items[5] and items[4].seg == -1
        tracker.check_invariants()

    def test_a_short_stack_keeps_its_top_item_tracked(self):
        lru, tracker = tracked_list(seg_len=2, num_segments=2)
        items = [make_item(i) for i in range(3)]
        for it in items:
            lru.push_front(it)
        lru.move_to_front(items[0])     # n == 3 <= limit: lands in segment 1
        assert [it.seg for it in lru] == [1, 0, 0]
        assert tracker.bounds == [items[1], items[0], None]
        tracker.check_invariants()


class TestPopBackRun:
    """``pop_back_run`` against that many ``pop_back`` calls, for every
    stack length up to past the tracked region and every run length up
    to past the stack: runs shorter than, equal to and longer than a
    segment, and longer than the whole region."""

    @pytest.mark.parametrize("seg_len", [1, 2, 3])
    @pytest.mark.parametrize("num_segments", [1, 2, 3])
    def test_every_length_and_run(self, seg_len, num_segments):
        limit = seg_len * num_segments
        for n in range(limit + seg_len + 3):
            for count in range(n + 2):
                one, _ = tracked_list(seg_len, num_segments)
                two, _ = tracked_list(seg_len, num_segments)
                ones = [make_item(i) for i in range(n)]
                twos = [make_item(i) for i in range(n)]
                for a, b in zip(ones, twos):
                    one.push_front(a)
                    two.push_front(b)
                run = one.pop_back_run(count)
                assert [v.key for v in run] \
                    == [two.pop_back().key for _ in run]
                assert len(run) == min(count, n)
                assert all(v.prev is None and v.next is None and v.seg == -1
                           for v in run)
                one.check_invariants()
                assert tracked_state(one, one) == tracked_state(two, two)
