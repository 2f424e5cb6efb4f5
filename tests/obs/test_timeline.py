"""Tests for the windowed timeline recorder and its JSONL sink."""

import io
import json

import pytest

from repro.obs.timeline import (JsonlSink, NESTED_FIELDS, SCALAR_FIELDS,
                                TimelineRecorder, load_jsonl)
from tests.sim.test_kernel_differential import record_get


def _drive(recorder: TimelineRecorder, ticks: int, stride_hits=0.5):
    """Feed a deterministic GET pattern: every other request hits."""
    for t in range(ticks):
        record_get(recorder, t, hit=(t % 2 == 0), cost=0.001 if t % 2 == 0
                   else 0.1, penalty=0.1)
    recorder.finish()


class TestWindows:
    def test_rows_close_on_stride_boundaries(self):
        rec = TimelineRecorder(stride=10)
        _drive(rec, 35)
        # 3 full windows + 1 partial from finish()
        assert len(rec.rows) == 4
        assert [r["tick_start"] for r in rec.rows] == [0, 10, 20, 30]
        assert all(r["tick_end"] - r["tick_start"] == 10 for r in rec.rows)
        full = rec.rows[0]
        assert full["gets"] == 10
        assert full["hits"] == 5
        assert full["misses"] == 5
        assert full["hit_ratio"] == pytest.approx(0.5)

    def test_window_indices_and_series(self):
        rec = TimelineRecorder(stride=10)
        _drive(rec, 30)
        assert rec.series("window") == [0, 1, 2]
        assert rec.series("gets") == [10, 10, 10]

    def test_penalty_mass_counts_misses_only(self):
        rec = TimelineRecorder(stride=4)
        record_get(rec, 0, hit=True, cost=0.001, penalty=9.0)
        record_get(rec, 1, hit=False, cost=0.5, penalty=0.5)
        record_get(rec, 2, hit=False, cost=0.25, penalty=0.25)
        rec.finish()
        assert rec.rows[0]["penalty_mass"] == pytest.approx(0.75)

    def test_nan_penalty_skipped(self):
        rec = TimelineRecorder(stride=4)
        record_get(rec, 0, hit=False, cost=0.5, penalty=float("nan"))
        rec.finish()
        assert rec.rows[0]["penalty_mass"] == 0.0
        assert rec.rows[0]["misses"] == 1

    def test_sparse_trace_skips_empty_windows(self):
        rec = TimelineRecorder(stride=10)
        record_get(rec, 3, hit=True, cost=0.001)
        record_get(rec, 905, hit=True, cost=0.001)
        rec.finish()
        assert [r["tick_start"] for r in rec.rows] == [0, 900]

    def test_advance_rolls_without_recording(self):
        rec = TimelineRecorder(stride=10)
        record_get(rec, 0, hit=True, cost=0.001)
        rec.advance(25)  # SET/DELETE far later
        record_get(rec, 26, hit=False, cost=0.1, penalty=0.1)
        rec.finish()
        assert [r["gets"] for r in rec.rows] == [1, 1]

    def test_cold_notes_accumulate_into_open_window(self):
        rec = TimelineRecorder(stride=10)
        record_get(rec, 0, hit=True, cost=0.001)
        rec.note_eviction()
        rec.note_migration()
        rec.note_ghost_hit()
        rec.note_decision(2.0, 1.0, "approved")
        rec.note_decision(0.5, 1.5, "declined")
        rec.finish()
        row = rec.rows[0]
        assert row["evictions"] == 1
        assert row["migrations"] == 1
        assert row["ghost_hits"] == 1
        assert row["decisions"] == {"approved": 1, "declined": 1}
        assert row["decision_count"] == 2
        assert row["eq1_incoming_sum"] == pytest.approx(2.5)
        assert row["eq2_outgoing_sum"] == pytest.approx(2.5)

    def test_quantiles_present_per_window(self):
        rec = TimelineRecorder(stride=100)
        _drive(rec, 100)
        row = rec.rows[0]
        assert 0 < row["service_p50"] <= row["service_p99"]
        assert row["service_p99"] == pytest.approx(0.1, rel=0.2)

    def test_snapshot_fn_feeds_slab_columns(self):
        rec = TimelineRecorder(stride=10)
        rec.snapshot_fn = lambda: ({2: 3, 5: 1}, {(2, 0): 2, (2, 1): 1,
                                                  (5, 0): 1})
        _drive(rec, 10)
        row = rec.rows[0]
        assert row["class_slabs"] == {"2": 3, "5": 1}
        assert row["queue_slabs"] == {"2:0": 2, "2:1": 1, "5:0": 1}
        assert rec.class_slab_series(2) == [3]
        assert rec.class_slab_series(9) == [0]

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder(stride=0)


class TestSinks:
    def test_jsonl_sink_streams_every_closed_row(self):
        buf = io.StringIO()
        rec = TimelineRecorder(stride=10, sink=JsonlSink(buf))
        _drive(rec, 25)
        lines = [json.loads(line) for line in
                 buf.getvalue().strip().splitlines()]
        assert len(lines) == 3
        assert lines[0]["gets"] == 10
        assert rec.rows == lines
        assert rec.rows_closed == 3

    def test_jsonl_roundtrip_via_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        rec = TimelineRecorder(stride=10, sink=JsonlSink(path))
        _drive(rec, 20)
        rows = load_jsonl(path)
        assert rows == rec.rows

    def test_schema_constants_cover_row(self):
        rec = TimelineRecorder(stride=10)
        _drive(rec, 10)
        assert set(rec.rows[0]) == set(SCALAR_FIELDS) | set(NESTED_FIELDS)
