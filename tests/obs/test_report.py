"""Tests for dump directories, schema validation and the HTML report."""

import json
import os

from repro.obs import Registry
from repro.obs.report import (load_dump, render_html, render_report,
                              validate_dump, write_dump)
from repro.obs.spans import SpanTracer
from repro.obs.timeline import TimelineRecorder
from tests.sim.test_kernel_differential import record_get

import pytest


def _sample_timeline() -> TimelineRecorder:
    rec = TimelineRecorder(stride=10)
    rec.snapshot_fn = lambda: ({1: 2, 3: 1}, {(1, 0): 2, (3, 0): 1})
    for t in range(25):
        record_get(rec, t, hit=(t % 3 != 0), cost=0.001 if t % 3 else 0.2,
                   penalty=0.2)
    rec.note_decision(2.0, 1.0, "approved")
    rec.note_migration()
    rec.note_eviction()
    rec.finish()
    return rec


def _sample_tracer() -> SpanTracer:
    tr = SpanTracer()
    root = tr.start_trace(3, "get", key="k")
    bad = tr.start("node_attempt", 3, node="node0", rank=0, failover=False)
    bad.add_event("retry", 3, attempt=1)
    tr.end(bad, 4, status="failed")
    ok = tr.start("node_attempt", 4, node="node1", rank=1, failover=True)
    tr.end(ok, 5, status="ok")
    tr.end(root, 5, status="ok")
    return tr


def _sample_registry() -> Registry:
    r = Registry()
    h = r.histogram("sim_service_time_seconds", "svc", policy="pama")
    for v in (0.001, 0.002, 0.3):
        h.record(v)
    r.counter("cache_gets_total").inc(3)
    return r


class TestDumpRoundtrip:
    def test_write_load_validate(self, tmp_path):
        d = str(tmp_path / "dump")
        written = write_dump(d, meta={"scenario": "x", "seed": 7},
                             registry=_sample_registry(),
                             timeline=_sample_timeline(),
                             tracer=_sample_tracer())
        assert len(written) == 4
        dump = load_dump(d)
        assert dump["meta"]["seed"] == 7
        assert len(dump["timeline"]) == 3
        assert len(dump["traces"]) == 1
        assert dump["snapshot"]["counters"]
        assert validate_dump(dump) == []

    def test_partial_dump_loads_with_defaults(self, tmp_path):
        d = str(tmp_path / "dump")
        write_dump(d, meta={"run": 1})
        dump = load_dump(d)
        assert dump["timeline"] == []
        assert dump["traces"] == []
        assert validate_dump(dump) == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dump(str(tmp_path / "nope"))


class TestValidation:
    def _valid(self, tmp_path) -> dict:
        d = str(tmp_path / "dump")
        write_dump(d, timeline=_sample_timeline(),
                   tracer=_sample_tracer())
        return load_dump(d)

    def test_missing_row_fields_reported(self, tmp_path):
        dump = self._valid(tmp_path)
        del dump["timeline"][0]["hit_ratio"]
        errors = validate_dump(dump)
        assert any("hit_ratio" in e for e in errors)

    def test_unordered_rows_reported(self, tmp_path):
        dump = self._valid(tmp_path)
        dump["timeline"].reverse()
        assert any("ordered" in e for e in validate_dump(dump))

    def test_hits_exceeding_gets_reported(self, tmp_path):
        dump = self._valid(tmp_path)
        dump["timeline"][0]["hits"] = dump["timeline"][0]["gets"] + 5
        assert any("exceed" in e for e in validate_dump(dump))

    def test_dangling_parent_reported(self, tmp_path):
        dump = self._valid(tmp_path)
        dump["traces"][0][1]["parent_id"] = 999
        assert any("dangling" in e for e in validate_dump(dump))

    def test_rootless_trace_reported(self, tmp_path):
        dump = self._valid(tmp_path)
        dump["traces"][0][0]["parent_id"] = 12345
        errors = validate_dump(dump)
        assert any("root" in e for e in errors)


class TestRenderHtml:
    def test_report_is_self_contained_and_complete(self, tmp_path):
        d = str(tmp_path / "dump")
        write_dump(d, meta={"scenario": "node-flap"},
                   registry=_sample_registry(),
                   timeline=_sample_timeline(), tracer=_sample_tracer())
        doc = render_html(load_dump(d))
        # self-contained: no external fetches
        assert "http://" not in doc and "https://" not in doc
        assert "<svg" in doc
        assert "Hit ratio per window" in doc
        assert "Slab allocation per size class" in doc
        assert "Migration summary" in doc
        assert "Tail latency" in doc
        assert "node_attempt" in doc  # waterfall bars
        assert "prefers-color-scheme: dark" in doc
        assert "node-flap" in doc

    def test_html_escaping_of_hostile_names(self):
        tr = SpanTracer()
        root = tr.start_trace(0, "<script>alert(1)</script>", key="<k&>")
        tr.end(root, 1)
        doc = render_html({"meta": {"note": "<img src=x>"},
                           "timeline": [], "traces": tr.trace_dicts(),
                           "snapshot": {}})
        assert "<script>alert(1)</script>" not in doc
        assert "&lt;script&gt;" in doc
        assert "<img src=x>" not in doc

    def test_empty_dump_renders_placeholders(self):
        doc = render_html({"meta": {}, "timeline": [], "traces": [],
                           "snapshot": {}})
        assert "No timeline" in doc
        assert "No span traces" in doc

    def test_render_report_end_to_end(self, tmp_path):
        d = str(tmp_path / "dump")
        write_dump(d, timeline=_sample_timeline())
        out = str(tmp_path / "r.html")
        assert render_report(d, out) == []
        assert os.path.getsize(out) > 1000

    def test_render_report_rejects_invalid_dump(self, tmp_path):
        d = str(tmp_path / "dump")
        write_dump(d, timeline=_sample_timeline())
        # corrupt a row on disk
        path = os.path.join(d, "timeline.jsonl")
        rows = [json.loads(line) for line in open(path)]
        del rows[0]["gets"]
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        with pytest.raises(ValueError, match="invalid dump"):
            render_report(d, str(tmp_path / "r.html"))

    def test_many_classes_fold_into_other(self):
        rec = TimelineRecorder(stride=10)
        rec.snapshot_fn = lambda: ({c: c + 1 for c in range(12)}, {})
        for t in range(10):
            record_get(rec, t, hit=True, cost=0.001)
        rec.finish()
        doc = render_html({"meta": {}, "timeline": rec.rows, "traces": [],
                           "snapshot": {}})
        assert "Other" in doc
