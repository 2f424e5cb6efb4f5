"""Intrusive doubly-linked LRU list.

The list links :class:`~repro.cache.item.Item` nodes through their own
``prev``/``next`` slots, so push/remove/move are pointer surgery with no
allocation.  Order convention: **front = MRU, back = LRU** (the paper's
"stack top" is the front, "stack bottom" the back).

PAMA's exact tracker is a subclass,
:class:`~repro.core.segments.SegmentedLRU`, whose mutators also keep
every item's bottom segment; the cache drives both through the same
four mutators.
"""

from __future__ import annotations

from typing import Iterator

from repro.cache.item import Item


class LRUList:
    """Doubly-linked list of Items; front is MRU, back is LRU."""

    __slots__ = ("head", "tail", "size")

    def __init__(self) -> None:
        self.head: Item | None = None   # MRU
        self.tail: Item | None = None   # LRU
        self.size = 0

    def push_front(self, item: Item) -> None:
        """Insert ``item`` at the MRU end. The item must be unlinked."""
        item.prev = None
        item.next = self.head
        if self.head is not None:
            self.head.prev = item
        self.head = item
        if self.tail is None:
            self.tail = item
        self.size += 1

    def remove(self, item: Item) -> None:
        """Unlink ``item`` from the list."""
        prev, nxt = item.prev, item.next
        if prev is not None:
            prev.next = nxt
        else:
            self.head = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        item.prev = item.next = None
        self.size -= 1

    def move_to_front(self, item: Item) -> None:
        """Promote ``item`` to MRU (the LRU 'hit' operation).

        :meth:`remove` then :meth:`push_front` in one body, ``size``
        untouched; the head is left alone.
        """
        head = self.head
        if head is item:
            return
        # Not the head, so there is a predecessor.
        prev, nxt = item.prev, item.next
        prev.next = nxt
        if nxt is not None:
            nxt.prev = prev
        else:
            self.tail = prev
        item.prev = None
        item.next = head
        head.prev = item
        self.head = item

    def pop_back(self) -> Item | None:
        """Remove and return the LRU item, or None if empty."""
        item = self.tail
        if item is not None:
            self.remove(item)
        return item

    def pop_back_run(self, count: int) -> list[Item]:
        """Remove the ``count`` LRU-most items; returns them LRU first.

        :meth:`pop_back` ``count`` times in one body, each item left
        unlinked; ``tail`` and ``size`` settle once, after the run.
        Stops early at an empty list.
        """
        run: list[Item] = []
        item = self.tail
        for _ in range(count):
            if item is None:
                break
            prev = item.prev
            if prev is not None:
                prev.next = None
            item.prev = None
            run.append(item)
            item = prev
        self.tail = item
        if item is None:
            self.head = None
        self.size -= len(run)
        return run

    @property
    def back(self) -> Item | None:
        return self.tail

    @property
    def front(self) -> Item | None:
        return self.head

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Item]:
        """Iterate MRU → LRU."""
        node = self.head
        while node is not None:
            # Capture next before yielding so callers may unlink the
            # yielded node.
            nxt = node.next
            yield node
            node = nxt

    def iter_from_back(self) -> Iterator[Item]:
        """Iterate LRU → MRU (the order evictions scan)."""
        node = self.tail
        while node is not None:
            prv = node.prev
            yield node
            node = prv

    def check_invariants(self) -> None:
        """Verify structural integrity; used by tests and debug builds."""
        count = 0
        prev = None
        node = self.head
        while node is not None:
            assert node.prev is prev, "broken prev link"
            prev = node
            node = node.next
            count += 1
            assert count <= self.size, "cycle detected"
        assert count == self.size, f"size mismatch: {count} != {self.size}"
        assert self.tail is prev, "tail does not match last node"
