"""Service-time model for GET requests.

The paper's metric: a hit costs (approximately) the in-memory lookup; a
miss costs the item's penalty — retrieving or recomputing the value
from the back end.  We optionally add a size-proportional transfer term
to hits, which matters only for throughput-style studies; the default
matches the paper (constant hit time, penalty-dominated misses).
"""

from __future__ import annotations

import numpy as np


class ServiceTimeModel:
    """Maps hits and misses to seconds of user-visible service time."""

    __slots__ = ("hit_time", "bandwidth")

    def __init__(self, hit_time: float = 1e-4,
                 bandwidth: float | None = None) -> None:
        if hit_time < 0:
            raise ValueError("hit_time must be >= 0")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive when given")
        self.hit_time = hit_time
        self.bandwidth = bandwidth

    def hit(self, size: int = 0) -> float:
        """Service time of a GET hit on an item of ``size`` bytes."""
        if self.bandwidth is not None:
            return self.hit_time + size / self.bandwidth
        return self.hit_time

    def miss(self, penalty: float) -> float:
        """Service time of a GET miss with the given penalty."""
        return penalty

    def miss_array(self, penalties) -> list[float]:
        """Vector form of :meth:`miss` over a whole trace column.

        The simulator precomputes every row's miss cost once, before the
        replay loop, instead of calling :meth:`miss` per request.  For
        the default model the cost *is* the penalty, so the column
        converts straight to plain floats (``tolist``) — bit-identical
        to the per-request path.  Subclasses that override :meth:`miss`
        are mapped element-wise and need no further changes.
        """
        values = (penalties.tolist() if hasattr(penalties, "tolist")
                  else list(penalties))
        if type(self).miss is ServiceTimeModel.miss:
            return values
        return [self.miss(p) for p in values]

    def hit_array(self, sizes) -> np.ndarray:
        """Vector form of :meth:`hit` over the sizes of the items hit,
        element-wise identical; a subclass's :meth:`hit` is mapped."""
        if type(self).hit is not ServiceTimeModel.hit:
            return np.array([self.hit(size) for size in sizes.tolist()],
                            dtype=np.float64)
        if self.bandwidth is None:
            return np.full(len(sizes), self.hit_time)
        return self.hit_time + sizes / self.bandwidth
