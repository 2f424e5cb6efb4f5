"""Spans recorded by the benchmark around its calls into each layer.

A span is ``(id, parent, name, start, end, counts)``; they stay in
memory during a run and are written to ``out/trace-<workload>.json``
when it ends.  A disabled recorder (the untraced run) records nothing,
so the difference between the two runs is the tracing overhead.
"""

from __future__ import annotations

import json


class Spans:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[list] = []

    def begin(self, name: str, start: float, parent: int = -1) -> int:
        """Open a span whose end is not known yet; returns its id."""
        if not self.enabled:
            return -1
        self.rows.append([len(self.rows), parent, name, start, start, {}])
        return len(self.rows) - 1

    def finish(self, span_id: int, end: float, **counts) -> None:
        if span_id >= 0:
            row = self.rows[span_id]
            row[4] = end
            row[5].update(counts)

    def add(self, name: str, start: float, end: float, parent: int = -1,
            **counts) -> int:
        span_id = self.begin(name, start, parent)
        self.finish(span_id, end, **counts)
        return span_id

    def as_dicts(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "start": s, "end": e,
                 "counts": c} for i, p, n, s, e, c in self.rows]


def merge_jobs(jobs: dict[str, list[dict]]) -> list[dict]:
    """One span list out of several jobs'.  Every job numbers its spans
    from 0, so ids and parents are shifted past the jobs before it and
    each span is tagged with its job."""
    merged: list[dict] = []
    for label, spans in jobs.items():
        shift = len(merged)
        for s in spans:
            parent = s["parent"]
            merged.append(dict(s, id=s["id"] + shift, job=label,
                               parent=parent + shift if parent >= 0 else -1))
    return merged


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its direct children cover (overlapping children are
    merged, children are clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, edge = 0.0, lo
        for c_lo, c_hi in sorted(children.get(s["id"], ())):
            c_lo, c_hi = max(c_lo, edge), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                edge = c_hi
        out[s["id"]] = (hi - lo) - covered
    return out


def by_name(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: how many, total duration, total self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
    return out


def write(path: str, meta: dict, spans: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, "by_name": by_name(spans), "spans": spans},
                  fh)
        fh.write("\n")
