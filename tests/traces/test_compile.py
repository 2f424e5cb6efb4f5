"""Tests for the columnar trace compiler (repro.traces.compile)."""

import json
import pickle

import numpy as np
import pytest

from repro.traces import (ETC, CompiledTrace, CompiledTraceWriter, Op, Trace,
                          TraceMetaWarning, compile_csv, compile_synthetic,
                          compile_trace, generate, is_compiled_trace,
                          load_csv, load_npz, save_csv, save_npz)
from repro.traces.compile import COLUMN_DTYPES, FORMAT, describe
from repro.traces.record import TRACE_COLUMNS


@pytest.fixture
def trace():
    return generate(ETC.scaled(0.02), 8_000, seed=17)


def assert_traces_equal(a, b, penalty_rtol=0.0, timestamp_atol=0.0):
    assert len(a) == len(b)
    assert (np.asarray(a.ops) == np.asarray(b.ops)).all()
    assert (np.asarray(a.keys) == np.asarray(b.keys)).all()
    assert (np.asarray(a.key_sizes) == np.asarray(b.key_sizes)).all()
    assert (np.asarray(a.value_sizes) == np.asarray(b.value_sizes)).all()
    if penalty_rtol:
        assert np.allclose(a.penalties, b.penalties, rtol=penalty_rtol)
    else:
        assert (np.asarray(a.penalties) == np.asarray(b.penalties)).all()
    if timestamp_atol:
        assert np.allclose(a.timestamps, b.timestamps, atol=timestamp_atol)
    else:
        assert (np.asarray(a.timestamps) == np.asarray(b.timestamps)).all()


class TestWriterReader:
    def test_roundtrip_exact(self, trace, tmp_path):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        assert len(c) == len(trace)
        assert_traces_equal(c, trace)
        assert c.meta["workload"] == "etc"

    def test_chunked_append_equals_whole(self, trace, tmp_path):
        whole = compile_trace(trace, tmp_path / "whole.ctrc")
        with CompiledTraceWriter(tmp_path / "chunked.ctrc",
                                 meta=trace.meta) as w:
            for start in range(0, len(trace), 1_000):
                w.append(trace.slice(start, start + 1_000))
        chunked = CompiledTrace(tmp_path / "chunked.ctrc")
        assert_traces_equal(whole, chunked)

    def test_columns_are_mmap_views(self, trace, tmp_path):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        for name in TRACE_COLUMNS:
            arr = getattr(c, name)
            assert isinstance(arr, np.memmap)
            assert arr.dtype == COLUMN_DTYPES[name]

    def test_plain_np_load_reads_columns(self, trace, tmp_path):
        # The column files are standard .npy: no custom reader needed.
        compile_trace(trace, tmp_path / "t.ctrc")
        keys = np.load(tmp_path / "t.ctrc" / "keys.npy")
        assert (keys == trace.keys).all()

    def test_empty_trace(self, tmp_path):
        empty = Trace(np.empty(0, np.uint8), np.empty(0, np.int64),
                      np.empty(0, np.int32), np.empty(0, np.int32),
                      np.empty(0), meta={"label": "empty"})
        c = compile_trace(empty, tmp_path / "e.ctrc")
        assert len(c) == 0
        assert list(c.iter_windows()) == []
        assert c.meta["label"] == "empty"
        assert describe(c)["gets"] == 0

    def test_append_after_close_rejected(self, trace, tmp_path):
        w = CompiledTraceWriter(tmp_path / "t.ctrc")
        w.append(trace)
        w.close()
        with pytest.raises(ValueError, match="closed"):
            w.append(trace)
        w.close()  # idempotent

    def test_mismatched_chunk_columns_rejected(self, trace, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            with CompiledTraceWriter(tmp_path / "t.ctrc") as w:
                w.append({"ops": trace.ops, "keys": trace.keys[:10],
                          "key_sizes": trace.key_sizes,
                          "value_sizes": trace.value_sizes,
                          "penalties": trace.penalties,
                          "timestamps": trace.timestamps})

    def test_not_a_compiled_trace(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CompiledTrace(tmp_path / "missing")
        assert not is_compiled_trace(tmp_path / "missing")

    def test_bad_format_tag_rejected(self, trace, tmp_path):
        compile_trace(trace, tmp_path / "t.ctrc")
        meta_file = tmp_path / "t.ctrc" / "meta.json"
        doc = json.loads(meta_file.read_text())
        doc["format"] = "other/v9"
        meta_file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format"):
            CompiledTrace(tmp_path / "t.ctrc")

    def test_truncated_column_rejected(self, trace, tmp_path):
        compile_trace(trace, tmp_path / "t.ctrc")
        keys = np.load(tmp_path / "t.ctrc" / "keys.npy")
        np.save(tmp_path / "t.ctrc" / "keys.npy", keys[:-5])
        with pytest.raises(ValueError, match="shape"):
            CompiledTrace(tmp_path / "t.ctrc")


class TestWindows:
    @pytest.mark.parametrize("window", [1, 7, 1_000, 8_000, 100_000])
    def test_windows_cover_trace_exactly(self, trace, tmp_path, window):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        windows = list(c.iter_windows(window))
        assert sum(len(w) for w in windows) == len(trace)
        assert all(len(w) <= window for w in windows)
        rebuilt = windows[0]
        for w in windows[1:]:
            rebuilt = Trace(
                np.concatenate([rebuilt.ops, w.ops]),
                np.concatenate([rebuilt.keys, w.keys]),
                np.concatenate([rebuilt.key_sizes, w.key_sizes]),
                np.concatenate([rebuilt.value_sizes, w.value_sizes]),
                np.concatenate([rebuilt.penalties, w.penalties]),
                np.concatenate([rebuilt.timestamps, w.timestamps]))
        assert_traces_equal(rebuilt, trace)

    def test_bad_window_rejected(self, trace, tmp_path):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        with pytest.raises(ValueError):
            list(c.iter_windows(0))
        with pytest.raises(ValueError):
            CompiledTrace(c.path, window=-1)

    def test_pickles_by_path(self, trace, tmp_path):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        c2 = pickle.loads(pickle.dumps(c))
        assert c2.path == c.path and len(c2) == len(c)
        assert_traces_equal(c, c2)

    def test_slice_materializes(self, trace, tmp_path):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        part = c.slice(100, 200)
        assert isinstance(part, Trace)
        assert_traces_equal(part, trace.slice(100, 200))


class TestCompileSynthetic:
    def test_deterministic(self, tmp_path):
        p = ETC.scaled(0.01)
        a = compile_synthetic(p, 20_000, tmp_path / "a.ctrc", seed=3,
                              chunk=4_096)
        b = compile_synthetic(p, 20_000, tmp_path / "b.ctrc", seed=3,
                              chunk=4_096)
        assert_traces_equal(a, b)
        assert a.meta["workload"] == "etc" and a.meta["n"] == 20_000

    def test_matches_generator_chunks(self, tmp_path):
        from repro.traces import SyntheticTraceGenerator
        p = ETC.scaled(0.01)
        c = compile_synthetic(p, 10_000, tmp_path / "c.ctrc", seed=9,
                              chunk=2_500)
        gen = SyntheticTraceGenerator(p, seed=9)
        pos = 0
        for w in c.iter_windows(2_500):
            assert_traces_equal(w, gen.generate(2_500, start_position=pos))
            pos += 2_500

    def test_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError):
            compile_synthetic(ETC.scaled(0.01), 0, tmp_path / "x.ctrc")


class TestPersistenceRoundTrip:
    """npz <-> CSV <-> compiled equality (the satellite suite)."""

    def test_npz_and_compiled_agree_exactly(self, trace, tmp_path):
        save_npz(trace, tmp_path / "t.npz")
        from_npz = load_npz(tmp_path / "t.npz")
        compiled = compile_trace(trace, tmp_path / "t.ctrc")
        assert_traces_equal(from_npz, compiled)
        assert from_npz.meta["workload"] == compiled.meta["workload"]

    def test_csv_compiles_like_it_loads(self, trace, tmp_path):
        small = trace.slice(0, 1_500)
        save_csv(small, tmp_path / "t.csv")
        from_csv = load_csv(tmp_path / "t.csv")
        compiled = compile_csv(tmp_path / "t.csv", tmp_path / "t.ctrc",
                               chunk=400)
        assert_traces_equal(from_csv, compiled)
        # CSV rounds penalties to 6 significant digits and timestamps
        # to microseconds; equality with the source is approximate.
        assert_traces_equal(compiled, small, penalty_rtol=1e-5,
                            timestamp_atol=1e-6)

    def test_zero_penalty_rows_survive_all_formats(self, tmp_path):
        n = 64
        trace = Trace(np.zeros(n, np.uint8), np.arange(n, dtype=np.int64),
                      np.full(n, 16, np.int32), np.full(n, 100, np.int32),
                      np.zeros(n), np.linspace(0, 1, n),
                      meta={"label": "zero-penalty"})
        save_npz(trace, tmp_path / "z.npz")
        save_csv(trace, tmp_path / "z.csv")
        compiled = compile_trace(trace, tmp_path / "z.ctrc")
        assert (load_npz(tmp_path / "z.npz").penalties == 0).all()
        assert (load_csv(tmp_path / "z.csv").penalties == 0).all()
        assert (np.asarray(compiled.penalties) == 0).all()

    def test_empty_trace_roundtrips(self, tmp_path):
        empty = Trace(np.empty(0, np.uint8), np.empty(0, np.int64),
                      np.empty(0, np.int32), np.empty(0, np.int32),
                      np.empty(0), meta={"n": 0})
        save_npz(empty, tmp_path / "e.npz")
        assert len(load_npz(tmp_path / "e.npz")) == 0
        save_csv(empty, tmp_path / "e.csv")
        assert len(load_csv(tmp_path / "e.csv")) == 0
        assert len(compile_trace(empty, tmp_path / "e.ctrc")) == 0


class TestMeta:
    def test_numpy_scalars_unwrap(self, trace, tmp_path):
        trace.meta["count"] = np.int64(41)
        trace.meta["ratio"] = np.float64(0.25)
        save_npz(trace, tmp_path / "t.npz")
        meta = load_npz(tmp_path / "t.npz").meta
        assert meta["count"] == 41 and isinstance(meta["count"], int)
        assert meta["ratio"] == 0.25

    def test_tuples_come_back_as_lists(self, trace, tmp_path):
        trace.meta["span"] = (10, 20)
        save_npz(trace, tmp_path / "t.npz")
        assert load_npz(tmp_path / "t.npz").meta["span"] == [10, 20]

    def test_private_keys_dropped(self, trace, tmp_path):
        trace.meta["_shm"] = object()  # a process-local handle
        save_npz(trace, tmp_path / "t.npz")
        assert "_shm" not in load_npz(tmp_path / "t.npz").meta

    def test_unserializable_value_warns_and_stringifies(self, trace,
                                                        tmp_path):
        class Odd:
            def __repr__(self):
                return "Odd<1>"

        trace.meta["odd"] = Odd()
        with pytest.warns(TraceMetaWarning, match="odd"):
            save_npz(trace, tmp_path / "t.npz")
        assert load_npz(tmp_path / "t.npz").meta["odd"] == "Odd<1>"

    def test_new_archives_load_without_pickle(self, trace, tmp_path):
        save_npz(trace, tmp_path / "t.npz")
        # np.load(allow_pickle=False) is the loader default; an archive
        # needing pickle would raise here.
        with np.load(tmp_path / "t.npz", allow_pickle=False) as data:
            assert "meta_json" in data.files

    def test_legacy_archive_still_loads(self, trace, tmp_path):
        # The pre-JSON writer stored (key, repr(value)) object pairs.
        meta_items = sorted(
            (str(k), repr(v))
            for k, v in {"workload": "etc", "seed": 17,
                         "nested": {"a": [1, 2]}}.items())
        np.savez_compressed(
            tmp_path / "legacy.npz", ops=trace.ops, keys=trace.keys,
            key_sizes=trace.key_sizes, value_sizes=trace.value_sizes,
            penalties=trace.penalties, timestamps=trace.timestamps,
            meta=np.array(meta_items, dtype=object))
        loaded = load_npz(tmp_path / "legacy.npz")
        assert loaded.meta["workload"] == "etc"
        assert loaded.meta["seed"] == 17
        assert loaded.meta["nested"] == {"a": [1, 2]}
        assert (loaded.keys == trace.keys).all()

    def test_compiled_meta_is_json(self, trace, tmp_path):
        trace.meta["tag"] = np.int32(5)
        c = compile_trace(trace, tmp_path / "t.ctrc")
        assert c.meta["tag"] == 5
        doc = json.loads((tmp_path / "t.ctrc" / "meta.json").read_text())
        assert doc["format"] == FORMAT and doc["n"] == len(trace)


class TestDescribe:
    def test_counts_match_full_scan(self, trace, tmp_path):
        c = compile_trace(trace, tmp_path / "t.ctrc")
        c.window = 1_000  # force several windows
        info = describe(c)
        assert info["rows"] == len(trace)
        assert info["gets"] == int((trace.ops == Op.GET).sum())
        assert info["sets"] == int((trace.ops == Op.SET).sum())
        assert info["deletes"] == int((trace.ops == Op.DELETE).sum())
        assert info["mean_penalty"] == pytest.approx(
            float(trace.penalties.mean()))
        assert info["max_penalty"] == pytest.approx(
            float(trace.penalties.max()))


class TestChunkedFromRequests:
    def test_chunked_builder_matches_one_shot(self, trace, tmp_path):
        from repro.traces import from_requests
        reqs = [trace[i] for i in range(500)]
        small_chunks = from_requests(iter(reqs), chunk_rows=64)
        one_shot = from_requests(iter(reqs), chunk_rows=10**9)
        assert_traces_equal(small_chunks, one_shot)

    def test_empty_iterable(self):
        from repro.traces import from_requests
        t = from_requests(iter(()))
        assert len(t) == 0
        assert t.ops.dtype == np.uint8 and t.keys.dtype == np.int64

    def test_iter_request_chunks_bounded(self, trace, tmp_path):
        from repro.traces import iter_request_chunks
        save_csv(trace.slice(0, 1_000), tmp_path / "t.csv")
        chunks = list(iter_request_chunks(tmp_path / "t.csv",
                                          chunk_rows=128))
        assert all(len(c) <= 128 for c in chunks)
        assert sum(len(c) for c in chunks) == 1_000
