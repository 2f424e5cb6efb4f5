"""Round, median, calibration and percentile arithmetic on synthetic
timings."""

import pytest

import timebase as tb
from workloads import WINDOW, WORKLOADS, plan_rows


def test_median_and_percentile():
    assert tb.median([3, 1, 2]) == 2
    assert tb.median([4, 1, 3, 2]) == 2.5
    assert tb.percentile([10, 20, 30, 40, 50], 50) == 30
    assert tb.percentile([0, 10], 95) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        tb.median([])


def test_split_rounds_covers_every_batch_once():
    for n in (1, 8, 9, 10, 100, 631):
        bounds = tb.split_rounds(n, 9)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


def test_percentile_support_rule():
    # a percentile needs ten samples beyond it
    assert tb.supported_percentile(40) == 75.0
    assert tb.supported_percentile(199) == 90.0
    assert tb.supported_percentile(200) == 95.0
    assert tb.supported_percentile(630) == 95.0
    assert tb.supported_percentile(1000) == 99.0
    assert tb.supported_percentile(5) == 50.0


def test_rounds_own_the_spins_on_both_edges():
    rows, wall = [10] * 6, [1.0] * 6
    spins = [(0, 4.0), (1, 9.0), (2, 5.0), (4, 6.0), (6, 7.0)]
    rounds = tb.rounds_from_batches(rows, wall, wall, spins, rounds=3)
    assert [r.spins_ms for r in rounds] == [[4.0, 9.0, 5.0], [5.0, 6.0],
                                            [6.0, 7.0]]
    assert [r.rows for r in rounds] == [20, 20, 20]


def test_calibration_cancels_a_slow_host():
    """A host twice as slow doubles batch times and spin times alike:
    the calibrated numbers do not move, the raw rate halves."""
    def summary(slowdown):
        rows = [100] * 18
        wall = [0.01 * slowdown] * 18
        spins = [(i, tb.CAL_REF_MS * slowdown) for i in range(0, 19, 2)]
        return tb.summarize(
            tb.rounds_from_batches(rows, wall, wall, spins), calibrate=True)

    ref, slow = summary(1.0), summary(2.0)
    for key in ("ops_per_s", "cpu_us_per_op", "p50_ms", "p95_ms"):
        assert slow[key] == pytest.approx(ref[key])
    assert ref["ops_per_s"] == pytest.approx(10_000)
    assert ref["cpu_us_per_op"] == pytest.approx(100)
    assert slow["raw_ops_per_s"] == pytest.approx(ref["raw_ops_per_s"] / 2)
    assert slow["cal_ms"] == pytest.approx(2 * tb.CAL_REF_MS)


def test_median_over_rounds_ignores_a_burst():
    rounds = [tb.Round(rows=1000, wall_s=1.0, cpu_s=0.5, latencies_s=[0.1],
                       spins_ms=[tb.CAL_REF_MS]) for _ in range(9)]
    rounds[3].wall_s = 3.0      # one round hit by a host stall
    out = tb.summarize(rounds, calibrate=False)
    assert out["ops_per_s"] == pytest.approx(1000)
    assert out["raw_ops_per_s"] == pytest.approx(9000 / 11)
    assert out["cpu_us_per_op"] == pytest.approx(500)


def test_round_without_spins_uses_the_run_median():
    rounds = [tb.Round(1000, 1.0, 1.0, [1.0], [9.0]),
              tb.Round(1000, 1.0, 1.0, [1.0], [])]
    out = tb.summarize(rounds, calibrate=True)
    assert out["ops_per_s"] == pytest.approx(1000 * 9.0 / tb.CAL_REF_MS)


def test_row_counts_are_whole_windows_and_follow_seconds():
    for w in WORKLOADS.values():
        rows, warm = plan_rows(w, 15, quick=False)
        assert rows % WINDOW == 0 and warm % WINDOW == 0 and 0 < warm <= rows
        measured = rows * w.passes - warm
        assert measured == pytest.approx(w.rate * 15, rel=0.01)
        assert plan_rows(w, 15, quick=False) == (rows, warm)
        quick_rows, _ = plan_rows(w, 15, quick=True)
        assert quick_rows == pytest.approx(rows / 10, rel=0.1)
        longer, _ = plan_rows(w, 30, quick=False)
        assert longer > rows


def test_any_integer_is_a_seed(tmp_path):
    import numpy as np

    from workloads import SEED_SPAN, compile_rows

    w = WORKLOADS["replay-miss-pama"]
    big = compile_rows(w, WINDOW, str(tmp_path / "big"), 2**32 - 1)
    folded = compile_rows(w, WINDOW, str(tmp_path / "folded"),
                          (2**32 - 1) % SEED_SPAN)
    other = compile_rows(w, WINDOW, str(tmp_path / "other"), -7)
    assert np.array_equal(big.keys, folded.keys)
    assert not np.array_equal(big.keys, other.keys)
