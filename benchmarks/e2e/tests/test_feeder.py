"""The window iterator that times a replay from outside."""

from replay import Feeder
from spans import Spans


def test_feeder_separates_warm_up_from_measured_batches():
    windows = [range(8)] * 3 + [range(8)] * 5 + [range(4)]
    spans = Spans(True)
    feeder = Feeder(iter(windows), warm=3, measured=6, spans=spans, rounds=3)
    assert list(feeder.windows()) == windows
    assert feeder.rows_fed == 68
    assert feeder.rows == [8, 8, 8, 8, 8, 4]
    assert len(feeder.wall) == len(feeder.cpu) == 6
    # one spin at every round start, one after the last batch
    assert [i for i, _ in feeder.spins] == [0, 2, 4, 6]
    assert len(feeder.warm_spins) >= 1 and feeder.measure_start > 0
    names = [s["name"] for s in spans.as_dicts()]
    assert names.count("sim.window") == 6
    out = feeder.summary()
    assert out["batches"] == 6 and out["ops_per_s"] > 0
