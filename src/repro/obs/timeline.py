"""Windowed time-series telemetry keyed on access ticks.

The paper's central evidence is *time-resolved*: Figs 3/4 plot slab
allocation per (sub)class over the trace and the burst study (Fig 9)
only makes sense as a timeline.  :class:`TimelineRecorder` turns every
replay into that trajectory: per stride of access ticks it closes a
*row* holding hit/miss/ghost-hit counts, penalty mass, service-time
quantiles, migration flux, the Eq.1 incoming / Eq.2 outgoing values
that drove PAMA's migration decisions, and a snapshot of per-class and
per-(class, bin) slab counts.

Cost model mirrors :mod:`repro.obs`: nothing is recorded unless a
recorder is attached, and every cold-path hook is one ``is not None``
check.  Attaching one does not change the replay loop: the simulator's
kernel hands each run of GET outcomes inside the open row to
:meth:`TimelineRecorder.record_many`, and rolls the row with
:meth:`~TimelineRecorder.advance` at the request on which it closes.

Rows can also stream to an append-friendly :class:`JsonlSink` as they
close (the dump-directory format ``repro-kv report`` renders).
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np

from repro._util import seq_sum
from repro.obs.registry import Histogram

#: quantiles each row reports for the window's service times.
ROW_QUANTILES = (0.5, 0.99)

#: scalar columns of a row.
SCALAR_FIELDS = (
    "window", "tick_start", "tick_end", "gets", "hits", "misses",
    "hit_ratio", "ghost_hits", "penalty_mass", "avg_service_time",
    "service_p50", "service_p99", "evictions", "migrations",
    "decision_count", "eq1_incoming_sum", "eq2_outgoing_sum",
)

#: nested columns.  ``tenants`` maps tenant id -> per-window {gets,
#: hits, service, penalty} and stays ``{}`` unless the replay loop tags
#: requests with tenants.
NESTED_FIELDS = ("decisions", "class_slabs", "queue_slabs", "tenants")


class JsonlSink:
    """Streams one JSON object per row to a file — append-friendly:
    a crashed run leaves every closed window readable."""

    def __init__(self, path_or_file: str | IO[str]) -> None:
        if isinstance(path_or_file, str):
            self._fh: IO[str] = open(path_or_file, "w")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self.rows_written = 0

    def write(self, row: dict) -> None:
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self.rows_written += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class TimelineRecorder:
    """Windowed time-series recorder over access ticks.

    Args:
        stride: access ticks per window (one tick per trace request).
        sink: optional row sink (a :class:`JsonlSink`); rows stream out
            as windows close.

    Request accounting (:meth:`advance` at a request's tick, then
    :meth:`record_many` for a run of GETs inside the open window) is
    driven by the replay loop with the global request tick; cold-path
    hooks (:meth:`note_eviction` and friends) are called by the cache
    and the policy and accumulate into whatever window is open, so the
    same recorder works for a single cache or a whole cluster.
    """

    def __init__(self, stride: int = 10_000, sink=None) -> None:
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.stride = stride
        self.sink = sink
        self.rows: list[dict] = []
        self.rows_closed = 0
        #: snapshot hook returning (class_slabs, queue_slabs); the
        #: simulator points this at its own snapshot function.
        self.snapshot_fn = None
        self._window_start = 0
        self._hist = Histogram("timeline_window_service", lo=1e-6,
                               growth=1.25, nbuckets=96)
        self._zero_window()

    def _zero_window(self) -> None:
        self._gets = 0
        self._hits = 0
        self._service = 0.0
        self._penalty = 0.0
        self._ghost_hits = 0
        self._evictions = 0
        self._migrations = 0
        self._decisions: dict[str, int] = {}
        self._eq1_sum = 0.0
        self._eq2_sum = 0.0
        self._decision_count = 0
        #: tenant id -> [gets, hits, service_sum, penalty_sum]
        self._tenants: dict[int, list] = {}
        self._hist.reset()

    # -- request accounting (replay loop) -------------------------------
    def record_many(self, hits, costs, penalties, tenants=None) -> None:
        """A run of GETs that all fall inside the open window: ``hits``
        a bool array, ``costs`` their service times, ``penalties`` their
        penalties, of which the misses' add to the penalty mass (a NaN
        is skipped); ``tenants``, when given, the GETs' tenant ids for
        the per-tenant cells.

        Rolling the window stays with :meth:`advance`: the caller ends
        its run before the request at :attr:`next_close` and calls
        :meth:`advance` at that request's tick before recording it.
        """
        if not len(costs):
            return
        self._gets += len(costs)
        self._hits += int(np.count_nonzero(hits))
        self._service = seq_sum(self._service, costs)
        self._hist.record_many(costs)
        missed = penalties[~hits]
        self._penalty = seq_sum(self._penalty, missed[missed == missed])
        if tenants is not None:
            tally_tenants(self._tenants, tenants, hits, costs, penalties)

    @property
    def next_close(self) -> int:
        """The first tick at which a request rolls the open window."""
        return self._window_start + self.stride

    def advance(self, tick: int) -> None:
        """The request at ``tick``: close the open window if ``tick``
        is past it."""
        if tick >= self._window_start + self.stride:
            self._close(tick)

    # -- cold-path notes (cache / policy hooks) -------------------------
    def note_eviction(self, count: int = 1) -> None:
        self._evictions += count

    def note_migration(self) -> None:
        self._migrations += 1

    def note_ghost_hit(self) -> None:
        self._ghost_hits += 1

    def note_decision(self, incoming: float, outgoing: float,
                      outcome: str) -> None:
        """One PAMA migration decision with its Eq.1/Eq.2 values."""
        self._decisions[outcome] = self._decisions.get(outcome, 0) + 1
        self._eq1_sum += incoming
        self._eq2_sum += outgoing
        self._decision_count += 1

    # -- window mechanics ----------------------------------------------
    def _close(self, next_tick: int) -> None:
        """Close the open window and align the next one to ``next_tick``."""
        row = self._build_row()
        self.rows_closed += 1
        if self.sink is not None:
            self.sink.write(row)
        self.rows.append(row)
        # Align to the stride grid so sparse traces skip empty windows.
        self._window_start = max(self._window_start + self.stride,
                                 (next_tick // self.stride) * self.stride)
        self._zero_window()

    def _build_row(self) -> dict:
        gets = self._gets
        quantiles = ({q: self._hist.quantile(q) for q in ROW_QUANTILES}
                     if gets else dict.fromkeys(ROW_QUANTILES, 0.0))
        class_slabs: dict = {}
        queue_slabs: dict = {}
        if self.snapshot_fn is not None:
            cls, queues = self.snapshot_fn()
            class_slabs = {str(c): n for c, n in sorted(cls.items())}
            queue_slabs = {f"{c}:{b}": n
                           for (c, b), n in sorted(queues.items())}
        return {
            "window": self.rows_closed,
            "tick_start": self._window_start,
            "tick_end": self._window_start + self.stride,
            "gets": gets,
            "hits": self._hits,
            "misses": gets - self._hits,
            "hit_ratio": self._hits / gets if gets else 0.0,
            "ghost_hits": self._ghost_hits,
            "penalty_mass": self._penalty,
            "avg_service_time": self._service / gets if gets else 0.0,
            "service_p50": quantiles[0.5],
            "service_p99": quantiles[0.99],
            "evictions": self._evictions,
            "migrations": self._migrations,
            "decisions": dict(sorted(self._decisions.items())),
            "decision_count": self._decision_count,
            "eq1_incoming_sum": self._eq1_sum,
            "eq2_outgoing_sum": self._eq2_sum,
            "class_slabs": class_slabs,
            "queue_slabs": queue_slabs,
            "tenants": {str(t): {"gets": c[0], "hits": c[1],
                                 "service": c[2], "penalty": c[3]}
                        for t, c in sorted(self._tenants.items())},
        }

    def finish(self) -> None:
        """Close a final partial window (if any) and flush the sink."""
        if self._gets or self._decision_count or self._migrations \
                or self._evictions:
            self._close(self._window_start + self.stride)
        if self.sink is not None:
            self.sink.close()

    # -- series accessors (tests / report) ------------------------------
    def series(self, field: str) -> list:
        return [row[field] for row in self.rows]

    def class_slab_series(self, class_idx: int) -> list[int]:
        """Per-window slab count of one size class (a Fig 3 line)."""
        key = str(class_idx)
        return [row["class_slabs"].get(key, 0) for row in self.rows]


def tally_tenants(cells: dict, tenants, hits, costs, penalties) -> list:
    """Add a run of GET outcomes (arrays per GET) to per-tenant
    ``[gets, hits, service_sum, penalty_sum]`` cells, summed left to
    right; a miss's NaN penalty is skipped.  Returns ``(tenant, mask)``
    per tenant of the run, in the order the tenants first appear.
    """
    ids, first = np.unique(tenants, return_index=True)
    out = []
    for tenant in ids[np.argsort(first)].tolist():
        mine = tenants == tenant
        cell = cells.get(tenant)
        if cell is None:
            cell = cells[tenant] = [0, 0, 0.0, 0.0]
        cell[0] += int(np.count_nonzero(mine))
        cell[1] += int(np.count_nonzero(hits[mine]))
        cell[2] = seq_sum(cell[2], costs[mine])
        missed = penalties[mine & ~hits]
        cell[3] = seq_sum(cell[3], missed[missed == missed])
        out.append((tenant, mine))
    return out


def load_jsonl(path: str) -> list[dict]:
    """Read a JSONL timeline back into row dicts."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
