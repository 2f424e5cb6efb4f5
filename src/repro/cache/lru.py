"""Intrusive doubly-linked LRU list with an optional observer.

The list links :class:`~repro.cache.item.Item` nodes through their own
``prev``/``next`` slots, so push/remove/move are pointer surgery with no
allocation.  Order convention: **front = MRU, back = LRU** (the paper's
"stack top" is the front, "stack bottom" the back).

An observer (PAMA's segment tracker) can subscribe to structural
changes: one callback per change, see :class:`LRUObserver`.
"""

from __future__ import annotations

from typing import Iterator, Protocol

from repro.cache.item import Item


class LRUObserver(Protocol):
    """Callbacks a segment tracker implements to shadow list changes.

    ``on_push_front`` fires after the item is linked at the front;
    ``on_remove`` fires *before* the item is unlinked, so the observer
    can still read ``item.prev``/``item.next``.  A promotion
    (:meth:`LRUList.move_to_front`) is one ``on_promote``, fired like a
    removal — before anything moves, links intact — and standing for
    that removal and the push to the front that follows it; it does not
    fire for an item that already is the head.
    """

    def on_push_front(self, item: Item) -> None: ...

    def on_remove(self, item: Item) -> None: ...

    def on_promote(self, item: Item) -> None: ...


class LRUList:
    """Doubly-linked list of Items; front is MRU, back is LRU."""

    __slots__ = ("head", "tail", "size", "observer")

    def __init__(self) -> None:
        self.head: Item | None = None   # MRU
        self.tail: Item | None = None   # LRU
        self.size = 0
        self.observer: LRUObserver | None = None

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
        if self.observer is not None:
            self.observer.on_push_front(item)

    def remove(self, item: Item) -> None:
        """Unlink ``item`` from the list."""
        if self.observer is not None:
            self.observer.on_remove(item)
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
        untouched, and one observer callback for the pair:
        ``on_promote(item)`` while the item is still linked where it
        was.  The head is left alone and the observer hears nothing.
        """
        head = self.head
        if head is item:
            return
        observer = self.observer
        if observer is not None:
            observer.on_promote(item)
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

        :meth:`pop_back` ``count`` times in one body: the observer hears
        ``on_remove`` per item, LRU first, each with its links intact and
        everything beneath it already gone.  ``tail`` and ``size`` settle
        once, after the run (no observer reads them).  Stops early at an
        empty list.
        """
        observer = self.observer
        on_remove = observer.on_remove if observer is not None else None
        run: list[Item] = []
        item = self.tail
        for _ in range(count):
            if item is None:
                break
            if on_remove is not None:
                on_remove(item)
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
