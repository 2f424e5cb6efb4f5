"""Tests for the windowed metrics collector."""

import pytest

from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import SimulationResult


class TestMetricsCollector:
    def test_window_closure(self):
        m = MetricsCollector(window_gets=3)
        m.record_hit(0.001)
        m.record_miss(0.5)
        assert len(m.windows) == 0
        m.record_hit(0.001)
        assert len(m.windows) == 1
        w = m.windows[0]
        assert w.gets == 3 and w.hits == 2 and w.misses == 1
        assert w.hit_ratio == pytest.approx(2 / 3)
        assert w.avg_service_time == pytest.approx((0.002 + 0.5) / 3)

    def test_flush_partial_window(self):
        m = MetricsCollector(window_gets=10)
        m.record_hit(0.001)
        m.flush()
        assert len(m.windows) == 1
        assert m.windows[0].gets == 1
        m.flush()  # idempotent on empty
        assert len(m.windows) == 1

    def test_totals_span_windows(self):
        m = MetricsCollector(window_gets=2)
        for _ in range(5):
            m.record_miss(0.1)
        assert m.total_gets == 5
        assert m.overall_hit_ratio == 0.0
        assert m.overall_avg_service_time == pytest.approx(0.1)

    def test_snapshot_fn_called_at_close(self):
        calls = []

        def snap():
            calls.append(1)
            return {0: 2}, {(0, 0): 2}

        m = MetricsCollector(window_gets=1, snapshot_fn=snap)
        m.record_hit(0.0)
        assert calls == [1]
        assert m.windows[0].class_slabs == {0: 2}
        assert m.windows[0].queue_slabs == {(0, 0): 2}

    def test_series_accessors(self):
        # the per-window series callers read, SimulationResult's
        m = MetricsCollector(window_gets=1)
        m.record_hit(0.001)
        m.record_miss(0.2)
        result = SimulationResult("p", m.windows, m.overall_hit_ratio,
                                  m.overall_avg_service_time, m.total_gets,
                                  {}, 0.0)
        assert result.hit_ratio_series() == [1.0, 0.0]
        assert result.service_time_series() == pytest.approx([0.001, 0.2])

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            MetricsCollector(window_gets=0)


class TestFlushPartialWindow:
    """flush() closes a trailing partial window exactly once."""

    def test_partial_window_keeps_sums_and_index(self):
        m = MetricsCollector(window_gets=3)
        for _ in range(4):
            m.record_hit(0.001)
        m.record_miss(0.5)  # window 0 closed at 3 gets; 2 pending
        m.flush()
        assert [w.gets for w in m.windows] == [3, 2]
        assert [w.index for w in m.windows] == [0, 1]
        assert m.windows[1].hits == 1 and m.windows[1].misses == 1
        assert m.windows[1].penalty_sum == pytest.approx(0.5)
        assert m.windows[1].service_sum == pytest.approx(0.501)

    def test_flush_on_exact_boundary_adds_nothing(self):
        m = MetricsCollector(window_gets=2)
        m.record_hit(0.001)
        m.record_hit(0.001)
        assert len(m.windows) == 1
        m.flush()
        assert len(m.windows) == 1  # no empty trailing window

    def test_flush_takes_a_snapshot(self):
        snaps = []

        def snap():
            snaps.append(1)
            return {0: 1}, {(0, 0): 1}

        m = MetricsCollector(window_gets=10, snapshot_fn=snap)
        m.record_miss(0.2)
        m.flush()
        assert snaps == [1]
        assert m.windows[0].class_slabs == {0: 1}

    def test_totals_unchanged_by_flush(self):
        m = MetricsCollector(window_gets=10)
        m.record_hit(0.001)
        m.record_miss(0.3)
        before = (m.total_gets, m.total_hits, m.total_service)
        m.flush()
        assert (m.total_gets, m.total_hits, m.total_service) == before
        assert m.overall_hit_ratio == 0.5

    def test_partial_window_ratios(self):
        m = MetricsCollector(window_gets=100)
        m.record_hit(0.001)
        m.record_hit(0.001)
        m.record_miss(0.4)
        m.flush()
        w = m.windows[0]
        assert w.hit_ratio == pytest.approx(2 / 3)
        assert w.avg_service_time == pytest.approx(0.402 / 3)
