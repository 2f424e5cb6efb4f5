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
kernel hands a run of GET outcomes to :meth:`TimelineRecorder.record_many`
and sends only the request on which a row closes through
:meth:`~TimelineRecorder.record_get` / :meth:`~TimelineRecorder.advance`.

Memory is bounded two ways:

* rows can stream to an append-friendly :class:`JsonlSink` /
  :class:`CsvSink` as they close (the dump-directory format
  ``repro-kv report`` renders);
* the in-memory row list can be capped with ``max_rows``: when it
  fills, adjacent rows are merged pairwise and the stride doubles —
  the series keeps full time coverage at half the resolution, like a
  flight recorder.
"""

from __future__ import annotations

import csv
import json
from typing import IO

import numpy as np

from repro._util import seq_sum
from repro.obs.registry import Histogram

#: quantiles each row reports for the window's service times.
ROW_QUANTILES = (0.5, 0.99)

#: scalar columns, in CSV header order (complex columns follow).
SCALAR_FIELDS = (
    "window", "tick_start", "tick_end", "gets", "hits", "misses",
    "hit_ratio", "ghost_hits", "penalty_mass", "avg_service_time",
    "service_p50", "service_p99", "evictions", "migrations",
    "decision_count", "eq1_incoming_sum", "eq2_outgoing_sum",
)

#: nested columns (JSON-encoded in CSV cells).  ``tenants`` maps tenant
#: id -> per-window {gets, hits, service, penalty} and stays ``{}``
#: unless the replay loop tags requests with tenants.
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


class CsvSink:
    """Streams rows as CSV: scalar columns verbatim, nested columns
    (slab distributions, decision outcomes) JSON-encoded per cell."""

    def __init__(self, path_or_file: str | IO[str]) -> None:
        if isinstance(path_or_file, str):
            self._fh: IO[str] = open(path_or_file, "w", newline="")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self._writer = csv.writer(self._fh)
        self._writer.writerow(SCALAR_FIELDS + NESTED_FIELDS)
        self.rows_written = 0

    def write(self, row: dict) -> None:
        cells = [row.get(f, "") for f in SCALAR_FIELDS]
        cells += [json.dumps(row.get(f, {}), sort_keys=True)
                  for f in NESTED_FIELDS]
        self._writer.writerow(cells)
        self.rows_written += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


def open_sink(path: str) -> JsonlSink | CsvSink:
    """Pick a sink by extension: ``.csv`` -> CSV, anything else JSONL."""
    return CsvSink(path) if path.endswith(".csv") else JsonlSink(path)


class TimelineRecorder:
    """Windowed time-series recorder over access ticks.

    Args:
        stride: access ticks per window (one tick per trace request).
        sink: optional row sink; rows stream out as windows close.
        max_rows: cap on in-memory rows; on overflow adjacent rows are
            merged pairwise and the stride doubles (must be >= 2).
        keep_rows: set False to keep *no* rows in memory (sink-only
            mode for very long runs).

    Request accounting (:meth:`record_get` / :meth:`advance`, or
    :meth:`record_many` for a run of GETs inside the open window) is
    driven by the replay loop with the global request tick; cold-path
    hooks (:meth:`note_eviction` and friends) are called by the cache
    and the policy and accumulate into whatever window is open, so the
    same recorder works for a single cache or a whole cluster.
    """

    def __init__(self, stride: int = 10_000, sink=None,
                 max_rows: int | None = None,
                 keep_rows: bool = True) -> None:
        if stride <= 0:
            raise ValueError("stride must be positive")
        if max_rows is not None and max_rows < 2:
            raise ValueError("max_rows must be >= 2 (merging needs pairs)")
        self.stride = stride
        self.sink = sink
        self.max_rows = max_rows
        self.keep_rows = keep_rows
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

    # -- per-request accounting (replay loop) ---------------------------
    def record_get(self, tick: int, hit: bool, cost: float,
                   penalty: float = 0.0) -> None:
        """One GET outcome at ``tick``; rolls the window when crossed.

        Per-tenant cells are fed by :meth:`record_many`'s ``tenants``.
        """
        if tick >= self._window_start + self.stride:
            self._close(tick)
        self._gets += 1
        self._service += cost
        self._hist.record(cost)
        if hit:
            self._hits += 1
        elif penalty == penalty:  # miss; skip NaN (unknown penalty)
            self._penalty += penalty

    def record_many(self, hits, costs, penalties, tenants=None) -> None:
        """Array form of :meth:`record_get` for a run of GETs that all
        fall inside the open window (``hits`` a bool array; NaN
        penalties of misses are skipped, as there; ``tenants``, when
        given, the GETs' tenant ids for the per-tenant cells).

        Rolling the window stays with :meth:`record_get` and
        :meth:`advance`: the caller ends its run before the request at
        :attr:`next_close` and calls :meth:`advance` at that request's
        tick before recording it.
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
        """A non-GET request at ``tick`` (SET/DELETE): window roll only."""
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
        if self.keep_rows:
            self.rows.append(row)
            if self.max_rows is not None and len(self.rows) > self.max_rows:
                self._downsample()
        # Align to the stride grid so sparse traces skip empty windows
        # (the stride may just have doubled in _downsample).
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

    def _downsample(self) -> None:
        """Merge adjacent row pairs and double the stride: same time
        coverage, half the resolution, bounded memory."""
        merged = [merge_rows(self.rows[i], self.rows[i + 1])
                  if i + 1 < len(self.rows) else self.rows[i]
                  for i in range(0, len(self.rows), 2)]
        self.rows = merged
        self.stride *= 2

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


def merge_rows(a: dict, b: dict) -> dict:
    """Combine two adjacent rows into one covering both windows.

    Counts and sums add; ratio/means are recomputed from the merged
    sums; the per-window quantiles take the pairwise max (a
    conservative tail estimate — exact merging would need the raw
    buckets); slab snapshots keep the *later* row's (end-of-window
    semantics).
    """
    gets = a["gets"] + b["gets"]
    hits = a["hits"] + b["hits"]
    service = (a["avg_service_time"] * a["gets"]
               + b["avg_service_time"] * b["gets"])
    decisions = dict(a["decisions"])
    for outcome, n in b["decisions"].items():
        decisions[outcome] = decisions.get(outcome, 0) + n
    # ``tenants`` may be absent in rows from pre-tenancy dumps.
    tenants = {t: dict(cell) for t, cell in a.get("tenants", {}).items()}
    for t, cell in b.get("tenants", {}).items():
        merged_cell = tenants.setdefault(
            t, {"gets": 0, "hits": 0, "service": 0.0, "penalty": 0.0})
        for k, v in cell.items():
            merged_cell[k] = merged_cell.get(k, 0) + v
    return {
        "window": a["window"],
        "tick_start": a["tick_start"],
        "tick_end": b["tick_end"],
        "gets": gets,
        "hits": hits,
        "misses": gets - hits,
        "hit_ratio": hits / gets if gets else 0.0,
        "ghost_hits": a["ghost_hits"] + b["ghost_hits"],
        "penalty_mass": a["penalty_mass"] + b["penalty_mass"],
        "avg_service_time": service / gets if gets else 0.0,
        "service_p50": max(a["service_p50"], b["service_p50"]),
        "service_p99": max(a["service_p99"], b["service_p99"]),
        "evictions": a["evictions"] + b["evictions"],
        "migrations": a["migrations"] + b["migrations"],
        "decisions": dict(sorted(decisions.items())),
        "decision_count": a["decision_count"] + b["decision_count"],
        "eq1_incoming_sum": a["eq1_incoming_sum"] + b["eq1_incoming_sum"],
        "eq2_outgoing_sum": a["eq2_outgoing_sum"] + b["eq2_outgoing_sum"],
        "class_slabs": b["class_slabs"],
        "queue_slabs": b["queue_slabs"],
        "tenants": {t: tenants[t] for t in sorted(tenants)},
    }


def load_jsonl(path: str) -> list[dict]:
    """Read a JSONL timeline back into row dicts."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
