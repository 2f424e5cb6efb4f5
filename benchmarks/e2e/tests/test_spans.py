"""Span bookkeeping and the self-time rule."""

import pytest

from spans import Spans, by_name, merge_jobs, self_times


def test_disabled_recorder_records_nothing():
    spans = Spans(False)
    root = spans.begin("run", 0.0)
    spans.add("child", 0.0, 1.0, root, rows=3)
    spans.finish(root, 2.0)
    assert root == -1 and spans.as_dicts() == []


def test_self_time_subtracts_what_children_cover():
    spans = Spans(True)
    root = spans.begin("run", 0.0)
    spans.add("a", 1.0, 3.0, root)
    spans.add("b", 2.0, 4.0, root)        # overlaps a: union is [1, 4]
    spans.add("c", 9.0, 12.0, root)       # clipped to the parent's end
    inner = spans.add("d", 5.0, 6.0, root)
    spans.add("e", 5.2, 5.4, inner)       # grandchild: counts for d only
    spans.finish(root, 10.0, rows=7)
    rows = spans.as_dicts()
    own = self_times(rows)
    assert own[root] == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert own[inner] == pytest.approx(0.8)
    assert rows[root]["counts"] == {"rows": 7}
    agg = by_name(rows)
    assert agg["run"]["count"] == 1
    assert agg["run"]["total_s"] == pytest.approx(10.0)
    assert agg["d"]["self_s"] == pytest.approx(0.8)


def test_leaf_self_time_is_its_duration():
    spans = Spans(True)
    leaf = spans.add("leaf", 2.0, 2.5)
    assert self_times(spans.as_dicts())[leaf] == pytest.approx(0.5)


def test_jobs_with_the_same_ids_keep_their_own_children():
    jobs = {}
    for label, child_s in (("main", 3.0), ("probes", 1.0)):
        spans = Spans(True)
        root = spans.begin("run", 0.0)         # id 0 in both jobs
        spans.add("window", 0.0, child_s, root)
        spans.finish(root, 4.0)
        jobs[label] = spans.as_dicts()
    merged = merge_jobs(jobs)
    assert len({s["id"] for s in merged}) == len(merged) == 4
    assert [s["job"] for s in merged] == ["main"] * 2 + ["probes"] * 2
    agg = by_name(merged)
    assert agg["run"]["self_s"] == pytest.approx((4.0 - 3.0) + (4.0 - 1.0))
    assert agg["window"]["self_s"] == pytest.approx(4.0)
