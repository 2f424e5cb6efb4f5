"""PAMA — the Penalty Aware Memory Allocation policy (paper §III).

Items are routed to subclasses by (size class × penalty bin).  Each
subclass tracks the value of its bottom ("candidate") slab and of a
hypothetical extra slab (over the ghost list).  When a subclass needs a
slot and no free slab exists:

* find the minimum **outgoing value** over all subclasses' candidate
  slabs;
* if the requester's **incoming value** exceeds it, migrate that slab;
* if the cheapest candidate belongs to the requester itself, or the
  incoming value does not justify a migration, evict one item within
  the requester (no cross-subclass move).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

from repro.core.bloom_tracker import BloomSegmentTracker
from repro.core.config import PamaConfig
from repro.core.ghost import GhostEntry, GhostList
from repro.core.segments import SegmentedLRU
from repro.core.value import ValueAccumulator
from repro.policies.base import AllocationPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.item import Item
    from repro.cache.queue import Queue


class PamaQueueState:
    """Per-subclass machinery: segment tracker, ghost list, values.

    The exact tracker is the queue's own list (a
    :class:`~repro.core.segments.SegmentedLRU`); the Bloom tracker
    watches a plain one.
    """

    __slots__ = ("tracker", "ghost", "values", "qid")

    def __init__(self, tracker, ghost: GhostList,
                 values: ValueAccumulator,
                 qid: tuple[int, int] = (-1, -1)) -> None:
        self.tracker = tracker
        self.ghost = ghost
        self.values = values
        self.qid = qid


class PamaPolicy(AllocationPolicy):
    """Penalty-aware slab allocation."""

    name = "pama"

    #: contribution of one request to a segment's value; PAMA uses the
    #: item's miss penalty, pre-PAMA overrides this with a count of 1.
    penalty_aware = True

    def __init__(self, config: PamaConfig | None = None) -> None:
        super().__init__()
        self.config = config or PamaConfig()
        # Bloom tracking probes filters on every hit; ask the cache to
        # compute the request key's hash pair once and thread it down.
        self.wants_key_hashes = self.config.tracker == "bloom"
        # Hoisted off the frozen dataclass: read on every single access.
        self._value_window = self.config.value_window
        self._edges = self.config.penalty_edges
        self._last_bin = len(self._edges) - 1
        # The exact tracker keeps every item's segment in ``item.seg``;
        # on_hit reads it there instead of asking the tracker.
        self._exact_tracker = self.config.tracker == "exact"
        #: the ghost directory, key -> entry, shared by every subclass's
        #: ghost list: a miss finds its entry without knowing the missed
        #: item's size, and ``entry.ghost.owner`` is the subclass state.
        self.ghost_owner: dict[object, GhostEntry] = {}
        self._states: dict[tuple[int, int], PamaQueueState] = {}
        #: (queue, its values) per subclass in creation order — the order
        #: of ``cache.queues``, so the donor scan breaks ties as a walk
        #: over the queues would.
        self._scan: list[tuple[Queue, ValueAccumulator]] = []
        self._last_rollover = 0
        # decision statistics (reported by the ablation benches)
        self.migrations_approved = 0
        self.migrations_declined = 0
        self.migrations_forced = 0

    # -- binning -------------------------------------------------------
    def bin_for(self, penalty: float) -> int:
        # PamaConfig.bin_for over the hoisted edges.  No penalty -> bin
        # memo: real penalties are all but distinct, so one grew by an
        # entry per item stored.
        if penalty != penalty or penalty < 0:  # NaN or negative
            raise ValueError(f"invalid penalty {penalty}")
        idx = bisect_left(self._edges, penalty)
        return idx if idx < self._last_bin else self._last_bin

    def bin_edges(self) -> tuple[float, ...] | None:
        # Static config edges — but only while this exact bin_for is
        # the one in effect; a subclass that re-bins (adaptive edges)
        # must fall back to the scalar path.
        if type(self).bin_for is PamaPolicy.bin_for:
            return self.config.penalty_edges
        return None

    # -- per-queue state --------------------------------------------------
    def on_queue_created(self, queue: Queue) -> None:
        cfg = self.config
        seg_len = queue.slots_per_slab
        if cfg.tracker == "bloom":
            tracker = BloomSegmentTracker(queue.lru, seg_len,
                                          cfg.num_segments,
                                          fp_rate=cfg.bloom_fp_rate)
        else:
            # The queue is new and empty: its list becomes one that
            # keeps its items' segments.
            queue.lru = tracker = SegmentedLRU(seg_len, cfg.num_segments)
        # As deep as the tracked stack bottom: Eq. 2 sums one incoming
        # term per outgoing one.
        ghost = GhostList(seg_len, cfg.num_segments, self.ghost_owner)
        values = ValueAccumulator(cfg.num_segments)
        state = ghost.owner = PamaQueueState(tracker, ghost, values,
                                             qid=queue.qid)
        queue.policy_data = state
        self._states[queue.qid] = state
        self._scan.append((queue, values))

    def detach(self) -> None:
        # A ghost list's entries link one another, and the list and its
        # subclass state point at each other.
        for state in self._states.values():
            state.ghost.clear()
            state.ghost.owner = None
        super().detach()

    def _maybe_rollover(self) -> None:
        cfg = self.config
        if self.cache.accesses - self._last_rollover < self._value_window:
            return
        self._last_rollover = self.cache.accesses
        for state in self._states.values():
            state.values.rollover(cfg.window_mode, cfg.decay)
            state.tracker.rollover()
        events = self.cache.events
        if events is not None:
            events.record("window_rollover", self.cache.accesses,
                          window=cfg.value_window, queues=len(self._states))

    # -- event observation ----------------------------------------------
    def on_hit(self, queue: Queue, item: Item,
               h1: int = 0, h2: int = 0) -> None:
        # Inline the cheap side of _maybe_rollover: one subtraction per
        # hit instead of a method call.
        if self.cache.accesses - self._last_rollover >= self._value_window:
            self._maybe_rollover()
        if self._exact_tracker:
            seg = item.seg
        else:
            seg = queue.policy_data.tracker.segment_on_access(item, h1, h2)
        if seg >= 0:
            # ValueAccumulator.add_outgoing, in this frame
            values = queue.policy_data.values
            values.out[seg] += item.penalty if self.penalty_aware else 1.0
            values.out_hits[seg] += 1
            values._out_value = None

    def on_miss(self, key: object, class_idx: int, penalty: float,
                h1: int = 0, h2: int = 0) -> None:
        if self.cache.accesses - self._last_rollover >= self._value_window:
            self._maybe_rollover()
        entry = self.ghost_owner.get(key)
        if entry is None:
            return
        state: PamaQueueState = entry.ghost.owner
        # Use the penalty remembered at eviction time — "PAMA uses actual
        # miss penalties associated with each slab".
        state.values.add_incoming(
            entry.seg, entry.penalty if self.penalty_aware else 1.0)
        timeline = self.cache.timeline
        if timeline is not None:
            timeline.note_ghost_hit()
        events = self.cache.events
        if events is not None:
            events.record("ghost_hit", self.cache.accesses, key=key,
                          queue=state.qid, seg=entry.seg,
                          penalty=entry.penalty)

    def on_insert(self, queue: Queue, item: Item) -> None:
        # The key is live again; it must leave the ghost or a future
        # eviction/miss would double count it.
        entry = self.ghost_owner.get(item.key)
        if entry is not None:
            entry.ghost.remove_entry(entry)

    def on_evict(self, queue: Queue, items: Sequence[Item]) -> None:
        # Stack bottom -> ghost top, the run in one call; the list files
        # the entries in the directory and drops the keys that fall off
        # its own bottom.
        queue.policy_data.ghost.push_run(items)

    def on_remove(self, queue: Queue, item: Item) -> None:
        # DELETE / replacement: the key leaves without becoming a ghost
        # (it was not evicted for space, so it predicts no saved miss).
        entry = self.ghost_owner.get(item.key)
        if entry is not None:
            entry.ghost.remove_entry(entry)

    # -- integrity -----------------------------------------------------
    def check_ghost_sync(self) -> None:
        """Audit the ghost directory against the per-queue ghost lists.

        Invariant: the directory holds exactly the entries linked in
        this policy's lists, each under its own key.  Every list checks
        that what it links is filed (and filed under it); the count
        closes the other direction — a filed entry no list links.
        Driven by the Hypothesis property tests over random op
        sequences.
        """
        linked = 0
        for state in self._states.values():
            assert state.ghost.owner is state
            state.ghost.check_invariants()
            linked += len(state.ghost)
        assert linked == len(self.ghost_owner), (
            f"ghost directory drifted: {len(self.ghost_owner)} entries "
            f"filed, {linked} linked")

    # -- the allocation decision ----------------------------------------------
    def candidate_values(self) -> dict[tuple[int, int], float]:
        """Outgoing value of each subclass's candidate slab (diagnostics)."""
        return {qid: st.values.outgoing_value()
                for qid, st in self._states.items()}

    def resolve_pressure(self, queue: Queue, must_migrate: bool) -> Queue | None:
        if self.cache.accesses - self._last_rollover >= self._value_window:
            self._maybe_rollover()
        incoming = queue.policy_data.values.incoming_value()

        donor: Queue | None = None
        min_out = float("inf")
        for q, values in self._scan:
            if q.slabs < 1:  # cannot donate
                continue
            out = values._out_value  # the kept Eq. 2 sum, see value.py
            if out is None:
                out = values.outgoing_value()
            if out < min_out:
                donor, min_out = q, out
        if donor is None:
            return None  # nothing can donate; fallback machinery decides

        if donor is queue:
            # Scenario 2 (§III): the cheapest candidate slab is our own —
            # no cross-subclass migration, replace one item in place.
            self.migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "self")
            return queue
        if incoming <= min_out and not must_migrate:
            # Scenario 1: a migration would not improve utilization.
            self.migrations_declined += 1
            self._record_decision(queue, donor, incoming, min_out, "declined")
            return None
        if incoming <= min_out:
            self.migrations_forced += 1
            self._record_decision(queue, donor, incoming, min_out, "forced")
        else:
            self.migrations_approved += 1
            self._record_decision(queue, donor, incoming, min_out, "approved")
        return donor

    def _record_decision(self, queue: Queue, donor: Queue, incoming: float,
                         min_out: float, outcome: str) -> None:
        """Trace one migration decision with the values that drove it."""
        timeline = self.cache.timeline
        if timeline is not None:
            timeline.note_decision(incoming, min_out, outcome)
        events = self.cache.events
        if events is not None:
            events.record("pama_decision", self.cache.accesses,
                          requester=queue.qid, donor=donor.qid,
                          incoming=incoming, outgoing=min_out,
                          outcome=outcome)
