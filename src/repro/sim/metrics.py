"""Windowed metrics: the per-window series every evaluation figure plots.

The paper reports hit ratio and average service time "in each time
window (1 million GET requests)" plus per-class slab allocations over
time.  :class:`MetricsCollector` closes a window every ``window_gets``
GETs and snapshots whatever the caller registers.
"""

from __future__ import annotations

import math
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

    @classmethod
    def merge(cls, parts: list["MetricsCollector"]) -> "MetricsCollector":
        """Merge flushed per-shard collectors into one, window-aligned.

        Window ``i`` of the merged collector sums window ``i`` of every
        part that closed one (shards drain at different rates, so the
        tail windows may draw from fewer parts).  Integer counters add;
        float sums combine with :func:`math.fsum`, whose exactly-rounded
        result is independent of shard order — merging ``[a, b]`` and
        ``[b, a]`` is bit-identical, and merging a single part is the
        identity (the ``shards=1`` exactness contract of
        :func:`repro.sim.sharded.run_sharded`).  Slab-snapshot dicts sum
        per key over sorted keys, so per-shard allocations aggregate the
        way :meth:`repro.server.shard.ShardSet.stats_snapshot` sums
        per-shard cache stats.

        Parts must be flushed; a part mid-window would silently lose its
        open counts.  The merged collector is a read-only view (its
        ``snapshot_fn`` is ``None``); ``window_gets`` is the parts' sum,
        approximating the unsharded window the per-shard thresholds were
        derived from.
        """
        if not parts:
            raise ValueError("merge needs at least one collector")
        for part in parts:
            if part._gets:
                raise ValueError("merge requires flushed collectors "
                                 "(found an open window)")
        merged = cls(window_gets=sum(p.window_gets for p in parts))
        merged.total_gets = sum(p.total_gets for p in parts)
        merged.total_hits = sum(p.total_hits for p in parts)
        merged.total_penalty = math.fsum(p.total_penalty for p in parts)
        merged.total_service = math.fsum(p.total_service for p in parts)
        for index in range(max(len(p.windows) for p in parts)):
            rows = [p.windows[index] for p in parts
                    if index < len(p.windows)]
            stats = WindowStats(
                index=index,
                gets=sum(w.gets for w in rows),
                hits=sum(w.hits for w in rows),
                penalty_sum=math.fsum(w.penalty_sum for w in rows),
                service_sum=math.fsum(w.service_sum for w in rows))
            stats.class_slabs = _sum_dicts(w.class_slabs for w in rows)
            stats.queue_slabs = _sum_dicts(w.queue_slabs for w in rows)
            merged.windows.append(stats)
        return merged

    # -- aggregate views ---------------------------------------------------
    @property
    def overall_hit_ratio(self) -> float:
        return self.total_hits / self.total_gets if self.total_gets else 0.0

    @property
    def overall_avg_service_time(self) -> float:
        return self.total_service / self.total_gets if self.total_gets else 0.0

    def hit_ratio_series(self) -> list[float]:
        return [w.hit_ratio for w in self.windows]

    def service_time_series(self) -> list[float]:
        return [w.avg_service_time for w in self.windows]


def _sum_dicts(dicts) -> dict:
    """Key-wise sum over mappings, keys emitted in sorted order."""
    totals: dict = {}
    for d in dicts:
        for key, value in d.items():
            totals[key] = totals.get(key, 0) + value
    return {key: totals[key] for key in sorted(totals)}
