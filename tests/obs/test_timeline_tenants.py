"""Per-tenant timeline cells and their back-compat guarantees.

The cells are fed by ``record_many``'s ``tenants``, the way the replay
kernel records a run of GETs inside the open window."""

import numpy as np

from repro.obs.timeline import TimelineRecorder, merge_rows


def record(tl, hits, costs, penalties, tenants=None):
    tl.record_many(np.array(hits, dtype=bool), np.array(costs),
                   np.array(penalties),
                   None if tenants is None else np.array(tenants))


def test_tenant_cells_accumulate_per_window():
    tl = TimelineRecorder(stride=10)
    record(tl, [True, False, False], [1e-4, 0.5, 0.25], [0.0, 0.5, 0.25],
           [0, 0, 1])
    tl.finish()
    assert len(tl.rows) == 1
    cells = tl.rows[0]["tenants"]
    assert cells["0"] == {"gets": 2, "hits": 1,
                          "service": 1e-4 + 0.5, "penalty": 0.5}
    assert cells["1"] == {"gets": 1, "hits": 0,
                          "service": 0.25, "penalty": 0.25}


def test_untagged_gets_emit_empty_tenant_map():
    tl = TimelineRecorder(stride=10)
    record(tl, [True, False], [1e-4, 0.5], [0.0, 0.5])
    tl.finish()
    row = tl.rows[0]
    assert row["tenants"] == {}
    assert row["gets"] == 2  # global counters are unaffected


def test_nan_penalty_miss_skips_tenant_penalty():
    tl = TimelineRecorder(stride=10)
    record(tl, [False], [0.1], [float("nan")], [2])
    tl.finish()
    cell = tl.rows[0]["tenants"]["2"]
    assert cell["gets"] == 1 and cell["penalty"] == 0.0


def test_merge_rows_adds_tenant_cells():
    tl = TimelineRecorder(stride=5)
    for start in (0, 5):
        tl.advance(start)
        ticks = range(start, start + 5)
        record(tl, [t % 2 == 0 for t in ticks], [0.1] * 5,
               [0.0 if t % 2 == 0 else 0.1 for t in ticks],
               [t % 2 for t in ticks])
    tl.finish()
    assert len(tl.rows) == 2
    merged = merge_rows(tl.rows[0], tl.rows[1])
    assert merged["tenants"]["0"]["gets"] == \
        (tl.rows[0]["tenants"]["0"]["gets"]
         + tl.rows[1]["tenants"]["0"]["gets"])
    assert merged["gets"] == 10


def test_merge_rows_tolerates_pre_tenancy_rows():
    tl = TimelineRecorder(stride=5)
    record(tl, [True] * 5, [0.1] * 5, [0.0] * 5)
    tl.advance(5)
    record(tl, [True] * 5, [0.1] * 5, [0.0] * 5, [0] * 5)
    tl.finish()
    old, new = tl.rows
    assert old["tenants"] == {}
    del old["tenants"]  # a row from a dump written before v2
    merged = merge_rows(old, new)
    assert merged["tenants"]["0"]["gets"] == 5
    merged_rev = merge_rows(new, dict(old))
    assert merged_rev["tenants"]["0"]["gets"] == 5
