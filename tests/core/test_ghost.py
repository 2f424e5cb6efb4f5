"""Tests for the ghost list, including a brute-force oracle."""

from collections import namedtuple
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ghost import GhostList
from repro.core.pama import PamaPolicy
from tests.reference_pressure import TwoIndexGhostList

#: what ``push_run`` reads off an evicted item
Evicted = namedtuple("Evicted", "key penalty")


def push(ghost, key, penalty):
    """One eviction: a run of one."""
    ghost.push_run((Evicted(key, penalty),))


class TestGhostBasics:
    def test_push_and_lookup(self):
        g = GhostList(seg_len=2, num_segments=2)
        push(g, "a", 0.5)
        assert "a" in g
        entry = g.lookup("a")
        assert entry.penalty == 0.5 and entry.seg == 0
        g.check_invariants()

    def test_segments_by_eviction_recency(self):
        g = GhostList(seg_len=2, num_segments=3)
        for i in range(5):
            push(g, i, 0.1)
        # most recent push (4) at top: segment 0
        assert g.segment_of(4) == 0 and g.segment_of(3) == 0
        assert g.segment_of(2) == 1 and g.segment_of(1) == 1
        assert g.segment_of(0) == 2
        g.check_invariants()

    def test_capacity_drop(self):
        g = GhostList(seg_len=2, num_segments=2)
        for i in range(4):
            push(g, i, 0.1)
        assert len(g) == 4 and 0 in g
        push(g, 4, 0.1)
        assert 0 not in g and 1 in g
        push(g, 5, 0.1)
        assert len(g) == 4 and set(g.index) == {2, 3, 4, 5}
        assert 0 not in g and 1 not in g
        g.check_invariants()

    def test_remove(self):
        g = GhostList(seg_len=2, num_segments=2)
        for i in range(4):
            push(g, i, 0.1)
        assert g.remove(2)
        assert not g.remove(2)
        assert len(g) == 3
        # entries below the removed one move up a distance
        assert g.segment_of(3) == 0
        assert g.segment_of(1) == 0
        assert g.segment_of(0) == 1
        g.check_invariants()

    def test_repush_refreshes_position(self):
        g = GhostList(seg_len=1, num_segments=3)
        push(g, "a", 0.1)
        push(g, "b", 0.2)
        push(g, "a", 0.3)  # re-eviction of a
        assert g.segment_of("a") == 0
        assert g.segment_of("b") == 1
        assert g.lookup("a").penalty == 0.3
        assert len(g) == 2
        g.check_invariants()

    def test_segment_of_absent(self):
        g = GhostList(2, 2)
        assert g.segment_of("nope") == -1

    def test_clear(self):
        g = GhostList(2, 2)
        for i in range(3):
            push(g, i, 0.1)
        g.clear()
        assert len(g) == 0 and 0 not in g
        g.check_invariants()

    def test_iteration_order_top_down(self):
        g = GhostList(3, 2)
        for i in range(4):
            push(g, i, 0.1)
        assert [e.key for e in g] == [3, 2, 1, 0]

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            GhostList(0, 2)
        with pytest.raises(ValueError):
            GhostList(2, 0)


class TestGhostOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seg_len=st.integers(1, 4),
        num_segments=st.integers(1, 4),
        ops=st.lists(st.tuples(st.sampled_from(["push", "remove", "repush"]),
                               st.integers(0, 30)), max_size=150),
    )
    def test_random_ops_match_oracle(self, seg_len, num_segments, ops):
        g = GhostList(seg_len, num_segments)
        model = []  # keys, top first
        for op, k in ops:
            if op == "push":
                key = f"k{k}"
                if key in model:
                    model.remove(key)
                push(g, key, 0.1)
                model.insert(0, key)
                if len(model) > g.capacity:
                    model.pop()
            elif op == "remove" and model:
                key = model[k % len(model)]
                g.remove(key)
                model.remove(key)
            elif op == "repush" and model:
                key = model[k % len(model)]
                push(g, key, 0.2)
                model.remove(key)
                model.insert(0, key)
            g.check_invariants()
            assert [e.key for e in g] == model
            for d, key in enumerate(model):
                assert g.segment_of(key) == d // seg_len


class TestSharedDirectory:
    """Lists built over one directory: one key set, each entry knowing
    its list."""

    def test_membership_is_per_list(self):
        directory = {}
        a = GhostList(2, 2, directory)
        b = GhostList(2, 2, directory)
        push(a, "x", 0.1)
        push(b, "y", 0.2)
        assert set(directory) == {"x", "y"}
        assert directory["x"].ghost is a and directory["y"].ghost is b
        assert "x" in a and "x" not in b
        assert b.lookup("x") is None and b.segment_of("x") == -1
        assert not b.remove("x") and "x" in a
        a.check_invariants()
        b.check_invariants()

    def test_overflow_drops_only_the_own_tail(self):
        directory = {}
        a = GhostList(1, 2, directory)
        b = GhostList(1, 2, directory)
        push(b, "keep", 0.1)
        for k in "pq":
            push(a, k, 0.1)
        assert set(directory) == {"keep", "p", "q"}
        push(a, "r", 0.1)
        assert set(directory) == {"keep", "q", "r"}
        a.check_invariants()
        b.check_invariants()

    def test_push_moves_a_key_filed_under_a_sibling(self):
        directory = {}
        a = GhostList(2, 2, directory)
        b = GhostList(2, 2, directory)
        push(a, "x", 0.1)
        push(a, "z", 0.1)
        push(b, "x", 0.3)
        assert [e.key for e in a] == ["z"] and [e.key for e in b] == ["x"]
        assert directory["x"].ghost is b and directory["x"].penalty == 0.3
        a.check_invariants()
        b.check_invariants()

    def test_clear_keeps_the_siblings_keys(self):
        directory = {}
        a = GhostList(2, 2, directory)
        b = GhostList(2, 2, directory)
        for k in range(3):
            push(a, ("a", k), 0.1)
            push(b, ("b", k), 0.1)
        a.clear()
        assert len(a) == 0 and set(directory) == {("b", k) for k in range(3)}
        a.check_invariants()
        b.check_invariants()

    def test_a_list_alone_owns_its_directory(self):
        a, b = GhostList(2, 2), GhostList(2, 2)
        push(a, "x", 0.1)
        assert "x" not in b and a.index is not b.index

    @settings(max_examples=60, deadline=None)
    @given(seg_len=st.integers(1, 3), num_segments=st.integers(1, 3),
           ops=st.lists(st.tuples(st.sampled_from(["push", "remove"]),
                                  st.integers(0, 2), st.integers(0, 12)),
                        max_size=120))
    def test_three_lists_match_three_lists_alone(self, seg_len, num_segments,
                                                 ops):
        # keys are per list (a policy never ghosts a live key twice), so
        # sharing the directory must change nothing a list can observe
        directory = {}
        shared = [GhostList(seg_len, num_segments, directory)
                  for _ in range(3)]
        alone = [GhostList(seg_len, num_segments) for _ in range(3)]
        for op, which, k in ops:
            key = (which, k)
            if op == "push":
                push(shared[which], key, 0.1 * k)
                push(alone[which], key, 0.1 * k)
            else:
                assert shared[which].remove(key) == alone[which].remove(key)
            for s, a in zip(shared, alone):
                s.check_invariants()
                assert [(e.key, e.seg, e.penalty) for e in s] \
                    == [(e.key, e.seg, e.penalty) for e in a]
            assert len(directory) == sum(len(s) for s in shared)


def _check_ghost_sync(lists, directory):
    """``PamaPolicy.check_ghost_sync`` over bare lists sharing one
    directory."""
    states = {}
    for i, ghost in enumerate(lists):
        ghost.owner = states[i] = SimpleNamespace(ghost=ghost)
    PamaPolicy.check_ghost_sync(
        SimpleNamespace(_states=states, ghost_owner=directory))


class TestPushRun:
    """``push_run`` against one ``push`` per item of the sequential
    reference (``TwoIndexGhostList``, each list with its own index and
    ``owner`` keeping key -> list by hand): three lists share a
    directory, and a run's keys are fresh, filed under a sibling, or
    filed under the list itself — on empty, partial and full ghosts, in
    runs of one to two past a segment."""

    @settings(max_examples=150, deadline=None)
    @given(seg_len=st.integers(1, 3), num_segments=st.integers(1, 3),
           runs=st.lists(st.tuples(st.integers(0, 2),
                                   st.lists(st.integers(0, 40), min_size=1,
                                            max_size=5)),
                         max_size=30))
    def test_a_run_is_one_push_per_item(self, seg_len, num_segments, runs):
        directory = {}
        lists = [GhostList(seg_len, num_segments, directory)
                 for _ in range(3)]
        refs = [TwoIndexGhostList(seg_len, num_segments) for _ in range(3)]
        owner = {}  # key -> the reference list holding it
        fresh = 0
        for target, picks in runs:
            picks = picks[:seg_len + 2]
            keys = []
            for pick in picks:
                filed = sorted(owner)
                if pick % 3 == 0 or not filed:
                    key = fresh = fresh + 1
                else:
                    key = filed[pick % len(filed)]
                if key not in keys:
                    keys.append(key)
            run = [Evicted(key, 0.001 * key) for key in keys]
            lists[target].push_run(run)
            for item in run:
                held = owner.get(item.key)
                if held is not None:
                    refs[held].remove(item.key)
                dropped = refs[target].push(item.key, item.penalty)
                owner[item.key] = target
                if dropped is not None:
                    del owner[dropped]
            for ghost, ref in zip(lists, refs):
                ref.check_invariants()
                assert [(e.key, e.seg, e.penalty) for e in ghost] \
                    == [(e.key, e.seg, e.penalty) for e in ref]
                assert [None if e is None else e.key for e in ghost.bounds] \
                    == [None if e is None else e.key for e in ref.bounds]
                assert len(ghost) == len(ref)
            assert {key: lists.index(entry.ghost)
                    for key, entry in directory.items()} == owner
            _check_ghost_sync(lists, directory)
