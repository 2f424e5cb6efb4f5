"""Tests for the intrusive LRU list."""

import random

from hypothesis import given, settings, strategies as st

from repro.cache.item import Item
from repro.cache.lru import LRUList


def make_item(key):
    return Item(key, key_size=8, value_size=32, penalty=0.01)


class TestLRUListBasics:
    def test_empty(self):
        lru = LRUList()
        assert len(lru) == 0
        assert lru.front is None and lru.back is None
        assert lru.pop_back() is None
        lru.check_invariants()

    def test_push_order(self):
        lru = LRUList()
        items = [make_item(i) for i in range(5)]
        for it in items:
            lru.push_front(it)
        assert [i.key for i in lru] == [4, 3, 2, 1, 0]
        assert [i.key for i in lru.iter_from_back()] == [0, 1, 2, 3, 4]
        assert lru.front.key == 4 and lru.back.key == 0

    def test_move_to_front(self):
        lru = LRUList()
        items = [make_item(i) for i in range(4)]
        for it in items:
            lru.push_front(it)
        lru.move_to_front(items[1])
        assert [i.key for i in lru] == [1, 3, 2, 0]
        lru.check_invariants()

    def test_move_front_item_is_noop(self):
        lru = LRUList()
        a, b = make_item("a"), make_item("b")
        lru.push_front(a)
        lru.push_front(b)
        lru.move_to_front(b)
        assert [i.key for i in lru] == ["b", "a"]

    def test_remove_middle(self):
        lru = LRUList()
        items = [make_item(i) for i in range(3)]
        for it in items:
            lru.push_front(it)
        lru.remove(items[1])
        assert [i.key for i in lru] == [2, 0]
        assert items[1].prev is None and items[1].next is None

    def test_pop_back(self):
        lru = LRUList()
        for i in range(3):
            lru.push_front(make_item(i))
        assert lru.pop_back().key == 0
        assert lru.pop_back().key == 1
        assert lru.pop_back().key == 2
        assert lru.pop_back() is None

    def test_pop_back_run(self):
        lru = LRUList()
        items = [make_item(i) for i in range(5)]
        for it in items:
            lru.push_front(it)
        assert lru.pop_back_run(0) == []
        assert [it.key for it in lru.pop_back_run(2)] == [0, 1]  # LRU first
        assert [it.key for it in lru] == [4, 3, 2] and len(lru) == 3
        assert items[0].prev is None and items[1].next is None
        lru.check_invariants()
        # asking for more than there is drains the list and stops
        assert [it.key for it in lru.pop_back_run(9)] == [2, 3, 4]
        assert len(lru) == 0 and lru.front is None and lru.back is None
        assert lru.pop_back_run(1) == []
        lru.check_invariants()

    def test_remove_only_item(self):
        lru = LRUList()
        it = make_item(0)
        lru.push_front(it)
        lru.remove(it)
        assert len(lru) == 0 and lru.front is None and lru.back is None
        lru.check_invariants()


class TestLRUPropertyBased:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(["push", "move", "pop", "remove"]),
                              st.integers(0, 19)), max_size=120))
    def test_matches_python_list_model(self, ops):
        lru = LRUList()
        model = []  # front at index 0
        items = {}
        for op, k in ops:
            if op == "push":
                if k in items:
                    continue
                it = make_item(k)
                items[k] = it
                lru.push_front(it)
                model.insert(0, k)
            elif op == "move" and k in items:
                lru.move_to_front(items[k])
                model.remove(k)
                model.insert(0, k)
            elif op == "pop" and model:
                popped = lru.pop_back()
                expect = model.pop()
                assert popped.key == expect
                del items[expect]
            elif op == "remove" and k in items:
                lru.remove(items[k])
                model.remove(k)
                del items[k]
            lru.check_invariants()
            assert [i.key for i in lru] == model
