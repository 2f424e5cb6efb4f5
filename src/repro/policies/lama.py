"""LAMA-lite: miss-ratio-curve driven allocation (after Hu et al. [9]).

The paper's §II discusses LAMA as the closest related scheme: per-class
miss ratio curves feed a dynamic program that picks the allocation
minimizing either total misses or average request service time (using
*average* per-class miss penalty — the very averaging PAMA criticises).

This implementation samples per-class reuse distances
(:mod:`repro.policies.mrc`), rebuilds allocations every epoch with a
min-plus DP over slab counts, and migrates slabs toward the target.
It is an extension baseline — useful to show where average-penalty
optimisation falls short of PAMA's per-item penalties.
"""

from __future__ import annotations

from repro.policies.base import AllocationPolicy
from repro.policies.mrc import DistanceHistogram, ReuseDistanceProfiler
from repro.cache.queue import Queue


class _ClassProfile:
    """Per-size-class profiling state."""

    __slots__ = ("profiler", "histogram", "requests", "penalty_sum",
                 "penalty_count")

    def __init__(self, sample_shift: int) -> None:
        self.profiler = ReuseDistanceProfiler(sample_shift)
        self.histogram = DistanceHistogram()
        self.requests = 0
        self.penalty_sum = 0.0
        self.penalty_count = 0

    @property
    def avg_penalty(self) -> float:
        if self.penalty_count == 0:
            return 0.1  # the paper's default penalty
        return self.penalty_sum / self.penalty_count


class LamaPolicy(AllocationPolicy):
    """MRC + dynamic-programming slab allocation.

    Args:
        epoch_accesses: accesses between reallocation rounds.
        objective: ``"service"`` weights misses by the class's average
            penalty (LAMA-AST); ``"misses"`` minimizes miss count
            (LAMA-MR).
        sample_shift: reuse-distance sampling rate is 1/2^shift.
        max_moves: slab migrations applied per epoch (gradual adaptation).
        max_dp_units: DP table width; slabs are grouped into chunks when
            the cache has more slabs than this.
    """

    name = "lama"

    def __init__(self, epoch_accesses: int = 200_000,
                 objective: str = "service", sample_shift: int = 4,
                 max_moves: int = 16, max_dp_units: int = 256) -> None:
        super().__init__()
        if objective not in ("service", "misses"):
            raise ValueError(f"unknown objective {objective!r}")
        if epoch_accesses <= 0 or max_moves <= 0 or max_dp_units <= 1:
            raise ValueError("epoch_accesses, max_moves, max_dp_units must be positive")
        self.epoch_accesses = epoch_accesses
        self.objective = objective
        self.sample_shift = sample_shift
        self.max_moves = max_moves
        self.max_dp_units = max_dp_units
        self._profiles: dict[int, _ClassProfile] = {}
        self._epoch_start = 0
        self.reallocations = 0

    # -- profiling ----------------------------------------------------------
    def _profile(self, class_idx: int) -> _ClassProfile:
        prof = self._profiles.get(class_idx)
        if prof is None:
            prof = _ClassProfile(self.sample_shift)
            self._profiles[class_idx] = prof
        return prof

    def _record(self, class_idx: int, key: object, penalty: float) -> None:
        prof = self._profile(class_idx)
        prof.requests += 1
        if penalty == penalty and penalty >= 0:
            prof.penalty_sum += penalty
            prof.penalty_count += 1
        if prof.profiler.sampled(key):
            prof.histogram.add(prof.profiler.record(key))

    def on_hit(self, queue: Queue, item,
               h1: int = 0, h2: int = 0) -> None:
        self._record(queue.class_idx, item.key, item.penalty)
        self._maybe_reallocate()

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        if class_idx >= 0:
            self._record(class_idx, key, penalty)
        self._maybe_reallocate()

    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        return None

    # -- reallocation ----------------------------------------------------------
    def _maybe_reallocate(self) -> None:
        cache = self.cache
        if cache.accesses - self._epoch_start < self.epoch_accesses:
            return
        self._epoch_start = cache.accesses
        self._reallocate()
        for prof in self._profiles.values():
            prof.histogram.decay(0.5)
            prof.requests //= 2

    def _class_cost_curve(self, class_idx: int, max_units: int,
                          slabs_per_unit: int):
        """Predicted epoch cost for each allocation 0..max_units, as a
        NumPy array."""
        import numpy as np

        prof = self._profiles.get(class_idx)
        classes = self.cache.size_classes
        slots_per_slab = classes.slots_per_slab(class_idx)
        costs = np.empty(max_units + 1)
        if prof is None or prof.requests == 0:
            costs.fill(0.0)
            return costs
        weight = prof.avg_penalty if self.objective == "service" else 1.0
        hist_total = prof.histogram.total
        for units in range(max_units + 1):
            items = units * slabs_per_unit * slots_per_slab
            if hist_total:
                # hits_within counts sampled accesses; rescale the hit
                # fraction to the class's full request count.
                hit_fraction = prof.histogram.hits_within(items) / hist_total
            else:
                hit_fraction = 0.0
            costs[units] = prof.requests * (1.0 - hit_fraction) * weight
        return costs

    def _reallocate(self) -> None:
        import numpy as np

        cache = self.cache
        class_ids = sorted({q.class_idx for q in cache.iter_queues()})
        if len(class_ids) < 2:
            return
        total_slabs = cache.pool.total
        slabs_per_unit = max(1, -(-total_slabs // self.max_dp_units))
        total_units = total_slabs // slabs_per_unit
        if total_units < len(class_ids):
            return

        # min-plus DP over allocation units
        inf = float("inf")
        f = np.full(total_units + 1, inf)
        f[: total_units + 1] = self._class_cost_curve(
            class_ids[0], total_units, slabs_per_unit)
        choices = []
        for cid in class_ids[1:]:
            cost = self._class_cost_curve(cid, total_units, slabs_per_unit)
            g = np.full(total_units + 1, inf)
            choice = np.zeros(total_units + 1, dtype=np.int64)
            for n in range(total_units + 1):
                # g[n] = min_k f[n-k] + cost[k]
                cand = f[n::-1] + cost[: n + 1]
                k = int(np.argmin(cand))
                g[n] = cand[k]
                choice[n] = k
            f = g
            choices.append(choice)

        # backtrack target units per class
        targets: dict[int, int] = {}
        remaining = total_units
        for cid, choice in zip(reversed(class_ids[1:]), reversed(choices)):
            k = int(choice[remaining])
            targets[cid] = k
            remaining -= k
        targets[class_ids[0]] = remaining

        self._apply_targets(targets, slabs_per_unit)
        self.reallocations += 1

    def _apply_targets(self, targets: dict[int, int],
                       slabs_per_unit: int) -> None:
        cache = self.cache
        deficits: list[tuple[int, Queue]] = []
        surpluses: list[tuple[int, Queue]] = []
        for cid, units in targets.items():
            queue = cache.queue_for(cid, 0)
            want = units * slabs_per_unit
            diff = want - queue.slabs
            if diff > 0:
                deficits.append((diff, queue))
            elif diff < 0:
                surpluses.append((-diff, queue))
        deficits.sort(key=lambda dq: -dq[0])
        surpluses.sort(key=lambda dq: -dq[0])

        moves = 0
        di = si = 0
        while (moves < self.max_moves and di < len(deficits)
               and si < len(surpluses)):
            dneed, dq = deficits[di]
            sgive, sq = surpluses[si]
            if dneed == 0:
                di += 1
                continue
            if sgive == 0 or not sq.can_donate():
                si += 1
                continue
            cache.migrate(sq, dq)
            moves += 1
            deficits[di] = (dneed - 1, dq)
            surpluses[si] = (sgive - 1, sq)
