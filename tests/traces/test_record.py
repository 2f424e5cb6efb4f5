"""Tests for the Trace container."""

import numpy as np
import pytest

from repro.traces import Op, Request, Trace


def tiny_trace(n=6):
    return Trace(
        ops=np.array([0, 1, 0, 0, 2, 0], dtype=np.uint8)[:n],
        keys=np.arange(n, dtype=np.int64),
        key_sizes=np.full(n, 16, dtype=np.int32),
        value_sizes=(np.arange(n, dtype=np.int32) + 1) * 100,
        penalties=np.linspace(0.01, 0.06, n),
        timestamps=np.linspace(0.0, 1.0, n),
        meta={"workload": "test"},
    )


class TestTrace:
    def test_len_and_getitem(self):
        t = tiny_trace()
        assert len(t) == 6
        req = t[1]
        assert isinstance(req, Request)
        assert req.op == Op.SET
        assert req.key == 1
        assert req.value_size == 200

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(np.zeros(3, dtype=np.uint8), np.zeros(2, dtype=np.int64),
                  np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int32),
                  np.zeros(3))

    def test_iter_rows_matches_getitem(self):
        t = tiny_trace()
        for i, (op, key, ksz, vsz, pen) in enumerate(t.iter_rows()):
            req = t[i]
            assert (op, key, ksz, vsz) == (req.op, req.key, req.key_size,
                                           req.value_size)
            assert pen == pytest.approx(req.penalty)

    def test_slice(self):
        t = tiny_trace()
        s = t.slice(2, 5)
        assert len(s) == 3
        assert s[0].key == 2

    def test_concat_shifts_timestamps(self):
        t = tiny_trace()
        joined = t.concat(t)
        assert len(joined) == 12
        assert joined.timestamps[6] >= joined.timestamps[5]
        assert joined.meta["concatenated"]

    def test_repeat(self):
        t = tiny_trace()
        r = t.repeat(3)
        assert len(r) == 18
        assert r.meta["repeats"] == 3
        assert (r.keys[:6] == r.keys[6:12]).all()
        with pytest.raises(ValueError):
            t.repeat(0)

    def test_num_gets_and_unique_keys(self):
        t = tiny_trace()
        assert t.num_gets == 4
        assert t.unique_keys == 6

    def test_default_timestamps_zero(self):
        t = Trace(np.zeros(2, dtype=np.uint8), np.zeros(2, dtype=np.int64),
                  np.ones(2, dtype=np.int32), np.ones(2, dtype=np.int32),
                  np.ones(2))
        assert (t.timestamps == 0).all()

