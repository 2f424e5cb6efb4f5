"""Service-time model for GET requests.

The paper's metric: a hit costs a constant — the in-memory lookup; a
miss costs the item's penalty — retrieving or recomputing the value
from the back end.
"""

from __future__ import annotations


class ServiceTimeModel:
    """Maps hits and misses to seconds of user-visible service time."""

    __slots__ = ("hit_time",)

    def __init__(self, hit_time: float = 1e-4) -> None:
        if hit_time < 0:
            raise ValueError("hit_time must be >= 0")
        #: service time of every GET hit
        self.hit_time = hit_time

    def miss_array(self, penalties) -> list[float]:
        """The service times of misses on a trace column of penalties,
        as plain floats: a miss costs its penalty."""
        return (penalties.tolist() if hasattr(penalties, "tolist")
                else list(penalties))
