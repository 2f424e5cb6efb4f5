"""Per-tenant timeline cells.

The cells are fed by ``record_many``'s ``tenants``, the way the replay
kernel records a run of GETs inside the open window."""

import numpy as np

from repro.obs.timeline import TimelineRecorder


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
