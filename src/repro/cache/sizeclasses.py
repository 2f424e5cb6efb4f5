"""Size-class geometry: how item sizes map to slab classes.

The paper (§IV) follows Memcached's doubling layout: "the first class
stores items of 64 bytes or smaller, the second class stores items of
128 bytes or smaller... every class stores items whose maximum size
doubles the one of its previous class."  The largest class slot equals
one slab (one item per slab).
"""

from __future__ import annotations

import math

from repro._util import MIB, fmt_bytes
from repro.cache.errors import InvalidItemError, ItemTooLargeError


class SizeClassConfig:
    """Immutable description of the class/slab geometry.

    Args:
        slab_size: bytes per slab (Memcached default 1 MiB; scaled-down
            experiments use smaller slabs so small caches still hold
            hundreds of slabs).
        base_size: slot size of class 0.
        growth: slot-size multiplier between consecutive classes (the
            paper uses 2.0; Memcached's default binary is 1.25).
        item_overhead: fixed per-item metadata bytes added to
            key_size + value_size before class selection (0 keeps the
            simulator aligned with trace sizes).
    """

    __slots__ = ("slab_size", "base_size", "growth", "item_overhead",
                 "_slot_sizes", "_slots_per_slab", "_class_cache")

    def __init__(self, slab_size: int = MIB, base_size: int = 64,
                 growth: float = 2.0, item_overhead: int = 0) -> None:
        if slab_size <= 0 or base_size <= 0:
            raise ValueError("slab_size and base_size must be positive")
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1.0, got {growth}")
        if base_size > slab_size:
            raise ValueError("base_size cannot exceed slab_size")
        if item_overhead < 0:
            raise ValueError("item_overhead must be non-negative")
        self.slab_size = slab_size
        self.base_size = base_size
        self.growth = growth
        self.item_overhead = item_overhead

        sizes: list[int] = []
        size = float(base_size)
        while True:
            slot = min(int(math.ceil(size)), slab_size)
            sizes.append(slot)
            if slot >= slab_size:
                break
            size *= growth
        self._slot_sizes = tuple(sizes)
        self._slots_per_slab = tuple(slab_size // s for s in sizes)
        # item_size -> class memo: traces draw from a handful of
        # distinct sizes, so the GET/SET hot path resolves classes with
        # one dict probe instead of a scan (only valid sizes are cached).
        self._class_cache: dict[int, int] = {}

    @property
    def num_classes(self) -> int:
        return len(self._slot_sizes)

    @property
    def slot_sizes(self) -> tuple[int, ...]:
        """Ascending slot sizes, one per class (read-only).

        ``repro.sim.derive.class_index_array`` binary-searches this
        tuple to vectorize :meth:`class_for_size` over a trace window.
        """
        return self._slot_sizes

    @property
    def max_item_size(self) -> int:
        """Largest storable item (one whole slab)."""
        return self._slot_sizes[-1]

    def slot_size(self, class_idx: int) -> int:
        """Slot size in bytes of ``class_idx``."""
        return self._slot_sizes[class_idx]

    def slots_per_slab(self, class_idx: int) -> int:
        """How many slots one slab yields in ``class_idx``."""
        return self._slots_per_slab[class_idx]

    def class_for_size(self, item_size: int) -> int:
        """Smallest class whose slot fits ``item_size`` (+ overhead).

        Raises :class:`ItemTooLargeError` if no class fits and
        :class:`InvalidItemError` for non-positive sizes.
        """
        cached = self._class_cache.get(item_size)
        if cached is not None:
            return cached
        if item_size <= 0:
            raise InvalidItemError(f"item size must be positive, got {item_size}")
        total = item_size + self.item_overhead
        if total > self.max_item_size:
            raise ItemTooLargeError(total, self.max_item_size)
        # Classes are few (tens); a linear scan beats bisect setup cost
        # and stays obviously correct for non-power-of-two growth.
        for idx, slot in enumerate(self._slot_sizes):
            if total <= slot:
                self._class_cache[item_size] = idx
                return idx
        raise AssertionError("unreachable: size checked against max")

    def describe(self) -> str:
        """Human-readable table of the class layout."""
        lines = [f"{'class':>5} {'slot':>10} {'slots/slab':>10}"]
        for i, slot in enumerate(self._slot_sizes):
            lines.append(f"{i:>5} {fmt_bytes(slot):>10} {self._slots_per_slab[i]:>10}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SizeClassConfig(slab={fmt_bytes(self.slab_size)}, "
                f"base={self.base_size}, growth={self.growth}, "
                f"classes={self.num_classes})")
