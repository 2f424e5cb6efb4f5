"""Windowed metrics: the per-window series every evaluation figure plots.

The paper reports hit ratio and average service time "in each time
window (1 million GET requests)" plus per-class slab allocations over
time.  :class:`MetricsCollector` closes a window every ``window_gets``
GETs and snapshots whatever the caller registers.  The snapshot
callable lives as long as the collector, so it should reach the cache
and not the collector's owner: a bound method of the simulator that
holds the collector makes a reference cycle, and a dropped replay's
cache then waits for the cyclic collector to be freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import seq_sum


@dataclass
class WindowStats:
    """One closed metrics window."""

    index: int
    gets: int
    hits: int
    penalty_sum: float
    service_sum: float
    #: slab count per size class at window close.
    class_slabs: dict[int, int] = field(default_factory=dict)
    #: slab count per (class, bin) queue at window close.
    queue_slabs: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def misses(self) -> int:
        return self.gets - self.hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    @property
    def avg_service_time(self) -> float:
        return self.service_sum / self.gets if self.gets else 0.0


class MetricsCollector:
    """Accumulates GET outcomes and closes windows on a GET counter."""

    def __init__(self, window_gets: int = 100_000,
                 snapshot_fn=None) -> None:
        if window_gets <= 0:
            raise ValueError("window_gets must be positive")
        self.window_gets = window_gets
        self.snapshot_fn = snapshot_fn
        self.windows: list[WindowStats] = []
        self._gets = 0
        self._hits = 0
        self._penalty = 0.0
        self._service = 0.0
        # totals across the whole run
        self.total_gets = 0
        self.total_hits = 0
        self.total_penalty = 0.0
        self.total_service = 0.0

    def record_hit(self, service_time: float) -> None:
        self._gets += 1
        self._hits += 1
        self._service += service_time
        self.total_gets += 1
        self.total_hits += 1
        self.total_service += service_time
        if self._gets >= self.window_gets:
            self._close_window()

    def record_miss(self, penalty: float) -> None:
        self._gets += 1
        self._penalty += penalty
        self._service += penalty
        self.total_gets += 1
        self.total_penalty += penalty
        self.total_service += penalty
        if self._gets >= self.window_gets:
            self._close_window()

    @property
    def gets_to_close(self) -> int:
        """GETs left until the one that closes the open window (>= 1)."""
        return self.window_gets - self._gets

    def record_many(self, hits, costs) -> None:
        """Array form of :meth:`record_hit` / :meth:`record_miss`: one
        run of GET outcomes in order (``hits`` a bool array, ``costs``
        the service times), every float sum bit for bit.

        A GET that closes a window goes through the per-request
        methods, which own the close; a caller that needs the snapshot
        at that GET's instant (the replay kernel) ends its run before it.
        """
        start = 0
        while len(costs) - start >= self.gets_to_close:
            stop = start + self.gets_to_close - 1
            self._add(hits[start:stop], costs[start:stop])
            record = self.record_hit if hits[stop] else self.record_miss
            record(float(costs[stop]))
            start = stop + 1
        self._add(hits[start:], costs[start:])

    def _add(self, hits, costs) -> None:
        gets = len(costs)
        if not gets:
            return
        nhits = int(np.count_nonzero(hits))
        missed = costs[~hits]
        self._gets += gets
        self._hits += nhits
        self._penalty = seq_sum(self._penalty, missed)
        self._service = seq_sum(self._service, costs)
        self.total_gets += gets
        self.total_hits += nhits
        self.total_penalty = seq_sum(self.total_penalty, missed)
        self.total_service = seq_sum(self.total_service, costs)

    def _close_window(self) -> None:
        stats = WindowStats(index=len(self.windows), gets=self._gets,
                            hits=self._hits, penalty_sum=self._penalty,
                            service_sum=self._service)
        if self.snapshot_fn is not None:
            class_slabs, queue_slabs = self.snapshot_fn()
            stats.class_slabs = class_slabs
            stats.queue_slabs = queue_slabs
        self.windows.append(stats)
        self._gets = self._hits = 0
        self._penalty = self._service = 0.0

    def flush(self) -> None:
        """Close a final partial window, if it has any GETs."""
        if self._gets:
            self._close_window()

    # -- aggregate views ---------------------------------------------------
    @property
    def overall_hit_ratio(self) -> float:
        return self.total_hits / self.total_gets if self.total_gets else 0.0

    @property
    def overall_avg_service_time(self) -> float:
        return self.total_service / self.total_gets if self.total_gets else 0.0

