"""Columnar trace compiler: packed binary traces for 100M-op replays.

The in-process :class:`~repro.traces.record.Trace` holds every column in
RAM, which caps replays at what fits in memory *twice* (once for the
arrays, once for the ``.tolist()`` hot-loop lists).  A *compiled* trace
is a directory of one ``.npy`` file per column — written incrementally
by :class:`CompiledTraceWriter` so the whole trace never has to exist in
memory — that loads back as **mmap-backed views** (``np.load(...,
mmap_mode="r")``).  There is no decompress-into-RAM step: the kernel
pages columns in on demand and, with ``release=True`` (the default),
the streaming window iterator advises consumed pages back out
(``madvise(MADV_DONTNEED)``), so a replay's resident set is bounded by
the window size, not the trace size.

Layout of a compiled trace directory (``FORMAT`` in ``meta.json``)::

    trace.ctrc/
        ops.npy          uint8    GET/SET/DELETE
        keys.npy         int64    key hash / id
        key_sizes.npy    int32
        value_sizes.npy  int32
        penalties.npy    float64  miss penalty, seconds
        timestamps.npy   float64  seconds since trace start
        meta.json        {"format": ..., "n": ..., "meta": {...}}

Every ``.npy`` is a standard NumPy format-1.0 file (readable by plain
``np.load``); the writer reserves a fixed-size header so the row count
can be patched in on close without rewriting the data.

Typical use::

    with CompiledTraceWriter("etc.ctrc", meta={"workload": "etc"}) as w:
        for chunk in chunks:          # Trace objects of any length
            w.append(chunk)
    compiled = CompiledTrace("etc.ctrc")
    result = simulate(compiled, cache)   # streams windows, bounded RSS
"""

from __future__ import annotations

import json
import os
import struct
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.traces.record import TRACE_COLUMNS, TRACE_COLUMNS_V2, Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.workloads import WorkloadProfile

#: v1 format tag: the original six columns, no tenant tagging.
FORMAT_V1 = "repro-kv/compiled-trace/v1"

#: v2 format tag: v1 plus a ``tenants.npy`` column (``<u2`` tenant ids).
FORMAT_V2 = "repro-kv/compiled-trace/v2"

#: what the writer emits today (kept as ``FORMAT`` for callers that
#: predate v2); the reader accepts both tags.
FORMAT = FORMAT_V2

#: every format tag the reader accepts, mapped to its column set.
_FORMAT_COLUMNS = {FORMAT_V1: TRACE_COLUMNS, FORMAT_V2: TRACE_COLUMNS_V2}

#: column name -> little-endian dtype, fixed for the format.
COLUMN_DTYPES: dict[str, np.dtype] = {
    "ops": np.dtype("<u1"),
    "keys": np.dtype("<i8"),
    "key_sizes": np.dtype("<i4"),
    "value_sizes": np.dtype("<i4"),
    "penalties": np.dtype("<f8"),
    "timestamps": np.dtype("<f8"),
    "tenants": np.dtype("<u2"),
}

#: rows per streamed window; sized so the hot loop's per-window
#: ``.tolist()`` scratch stays tens of MB while the per-window Python
#: overhead (one zip setup, one madvise) is amortised over ~10^5 rows.
DEFAULT_WINDOW = 1 << 18

#: rows appended per chunk when compiling from row streams (CSV).
DEFAULT_CHUNK = 1 << 16

#: fixed byte size reserved for each ``.npy`` header so the final row
#: count can be patched in place.  A format-1.0 header this size fits
#: any shape below ~10^90 rows.
_HEADER_SIZE = 128
_MAGIC = b"\x93NUMPY\x01\x00"


def _header_bytes(dtype: np.dtype, n: int) -> bytes:
    """A fixed-size NumPy format-1.0 header for a 1-D array of ``n``."""
    body = ("{'descr': %r, 'fortran_order': False, 'shape': (%d,), }"
            % (np.lib.format.dtype_to_descr(dtype), n)).encode("latin1")
    pad = _HEADER_SIZE - len(_MAGIC) - 2 - len(body) - 1
    if pad < 0:  # pragma: no cover - would need a >10^60-row trace
        raise ValueError("npy header overflow")
    return (_MAGIC + struct.pack("<H", _HEADER_SIZE - len(_MAGIC) - 2)
            + body + b" " * pad + b"\n")


def _column_path(path: str | os.PathLike, name: str) -> str:
    return os.path.join(os.fspath(path), f"{name}.npy")


def _meta_path(path: str | os.PathLike) -> str:
    return os.path.join(os.fspath(path), "meta.json")


class CompiledTraceWriter:
    """Streaming writer for the compiled columnar format.

    Appends :class:`Trace` chunks (or per-column array dicts) to one
    ``.npy`` file per column without ever holding more than one chunk in
    memory; :meth:`close` patches the final row count into each header
    and writes ``meta.json``.  Usable as a context manager.
    """

    def __init__(self, path: str | os.PathLike,
                 meta: dict | None = None,
                 format: str = FORMAT) -> None:
        if format not in _FORMAT_COLUMNS:
            raise ValueError(f"unknown compiled-trace format {format!r}")
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        self.meta = dict(meta or {})
        self.format = format
        self.columns = _FORMAT_COLUMNS[format]
        self.n = 0
        self._files = {}
        try:
            for name in self.columns:
                fh = open(_column_path(self.path, name), "wb")
                fh.write(_header_bytes(COLUMN_DTYPES[name], 0))
                self._files[name] = fh
        except OSError:
            self._abort()
            raise

    def _abort(self) -> None:
        for fh in self._files.values():
            fh.close()
        self._files = {}

    def append(self, chunk: Trace | dict) -> None:
        """Append one chunk; columns are cast to the format dtypes."""
        if not self._files:
            raise ValueError("writer is closed")
        get = (chunk.get if isinstance(chunk, dict)
               else lambda name: getattr(chunk, name, None))
        arrays = {}
        n = None
        for name in self.columns:
            arr = get(name)
            if arr is None:
                if name == "tenants":
                    # Dict chunks may omit the tenant column; the format
                    # still carries it (all-zero = single tenant).
                    arr = np.zeros(n if n is not None else 0,
                                   dtype=COLUMN_DTYPES[name])
                else:
                    raise ValueError(f"chunk is missing column {name!r}")
            arr = np.ascontiguousarray(arr, dtype=COLUMN_DTYPES[name])
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError(f"column {name!r} has {len(arr)} rows, "
                                 f"expected {n}")
            arrays[name] = arr
        for name, arr in arrays.items():
            self._files[name].write(arr.tobytes())
        self.n += n or 0

    def close(self) -> None:
        """Finalize headers and ``meta.json`` (idempotent)."""
        if not self._files:
            return
        for name, fh in self._files.items():
            fh.seek(0)
            fh.write(_header_bytes(COLUMN_DTYPES[name], self.n))
            fh.close()
        self._files = {}
        doc = {"format": self.format, "n": self.n,
               "columns": {name: str(COLUMN_DTYPES[name])
                           for name in self.columns},
               "meta": _jsonable_meta(self.meta)}
        with open(_meta_path(self.path), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def __enter__(self) -> "CompiledTraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self._abort()


def _jsonable_meta(meta: dict) -> dict:
    """Meta restricted to JSON-serializable values (see io.save_npz)."""
    from repro.traces.io import meta_to_jsonable
    return meta_to_jsonable(meta)


class CompiledTrace:
    """Reader side: mmap-backed columnar views over a compiled trace.

    The column attributes (``ops``, ``keys``, ...) are ``np.memmap``
    views — indexing and slicing them never loads the whole file.
    :meth:`iter_windows` yields bounded :class:`Trace` windows for the
    simulator's streaming replay; with ``release=True`` consumed pages
    are advised back to the kernel so resident memory stays bounded by
    the window, not the trace.

    Picklable by path: worker processes re-open their own mapping (the
    OS page cache shares the physical pages), which is how
    :func:`repro.sim.parallel.run_grid` ships every trace to its pool
    (an in-memory :class:`Trace` is compiled to a temporary directory
    first).
    """

    def __init__(self, path: str | os.PathLike,
                 window: int = DEFAULT_WINDOW,
                 release: bool = True) -> None:
        self.path = os.fspath(path)
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.release = release
        meta_file = _meta_path(self.path)
        if not os.path.exists(meta_file):
            raise FileNotFoundError(
                f"{self.path!r} is not a compiled trace (no meta.json)")
        with open(meta_file) as fh:
            doc = json.load(fh)
        fmt = doc.get("format")
        if fmt not in _FORMAT_COLUMNS:
            raise ValueError(
                f"{self.path!r}: unexpected format {fmt!r}; expected one "
                f"of {sorted(_FORMAT_COLUMNS)}")
        self.format = fmt
        self.meta = dict(doc.get("meta", {}))
        self.n = int(doc["n"])
        #: column files actually on disk (v1 has no tenants.npy).
        self.disk_columns = _FORMAT_COLUMNS[fmt]
        # Every on-disk column — the tenant column included — must agree
        # with meta.json's row count and the format dtype; a truncated or
        # retyped file is data corruption, not a soft fallback.
        for name in self.disk_columns:
            arr = np.load(_column_path(self.path, name), mmap_mode="r")
            if arr.shape != (self.n,):
                raise ValueError(
                    f"{self.path!r}: column {name!r} has shape {arr.shape}, "
                    f"expected ({self.n},)")
            if arr.dtype != COLUMN_DTYPES[name]:
                raise ValueError(
                    f"{self.path!r}: column {name!r} has dtype {arr.dtype}, "
                    f"expected {COLUMN_DTYPES[name]}")
            setattr(self, name, arr)
        if "tenants" not in self.disk_columns:
            # v1 compatibility: an implicit all-zero tenant column
            # (zero-copy broadcast; slices and .tolist() work the same).
            self.tenants = np.broadcast_to(
                np.zeros(1, dtype=COLUMN_DTYPES["tenants"]), (self.n,))

    def __len__(self) -> int:
        return self.n

    @property
    def nbytes(self) -> int:
        """Total bytes of column data on disk (excluding headers/meta)."""
        return sum(getattr(self, name).nbytes for name in self.disk_columns)

    def slice(self, start: int, stop: int | None = None) -> Trace:
        """An in-memory :class:`Trace` copy of rows ``[start, stop)``."""
        sl = np.s_[start:stop]
        return Trace(*(np.array(getattr(self, name)[sl])
                       for name in TRACE_COLUMNS), meta=dict(self.meta),
                     tenants=np.array(self.tenants[sl]))

    def to_trace(self) -> Trace:
        """Materialize the whole trace in RAM (small traces only)."""
        return self.slice(0, None)

    def _release_range(self, start: int, stop: int) -> None:
        """Advise consumed rows out of the resident set (best effort)."""
        import mmap as _mmap
        advise = getattr(_mmap, "MADV_DONTNEED", None)
        if advise is None:  # pragma: no cover - non-Linux hosts
            return
        page = _mmap.PAGESIZE
        for name in self.disk_columns:
            arr = getattr(self, name)
            mm = getattr(arr, "_mmap", None)
            if mm is None:  # pragma: no cover - future numpy internals
                continue
            item = arr.dtype.itemsize
            # Whole pages fully inside the consumed byte range, shifted
            # by the mmap's own offset of the data start.
            data_off = arr.offset if hasattr(arr, "offset") else 0
            lo = data_off + start * item
            hi = data_off + stop * item
            lo_page = -(-lo // page) * page  # round up
            hi_page = (hi // page) * page    # round down
            if hi_page > lo_page:
                try:
                    mm.madvise(advise, lo_page, hi_page - lo_page)
                except (OSError, ValueError):  # pragma: no cover
                    return

    def iter_windows(self, window: int | None = None) -> Iterator[Trace]:
        """Stream the trace as bounded zero-copy :class:`Trace` windows.

        Each yielded window's columns are views into the mmap; consuming
        code (the simulator's ``.tolist()`` loops) converts them to
        scalars and moves on, after which the pages are released when
        ``self.release`` is set.
        """
        window = self.window if window is None else int(window)
        if window <= 0:
            raise ValueError("window must be positive")
        meta = dict(self.meta)
        for start in range(0, self.n, window):
            stop = min(start + window, self.n)
            yield Trace(*(getattr(self, name)[start:stop]
                          for name in TRACE_COLUMNS), meta=meta,
                        tenants=self.tenants[start:stop])
            if self.release:
                self._release_range(start, stop)

    def __iter__(self) -> Iterator[Trace]:
        return self.iter_windows()

    def __reduce__(self):
        # Pickle by path: a worker process re-opens its own mapping;
        # the OS page cache shares the physical pages, so shipping a
        # compiled trace to a pool costs a path string, not a copy.
        return (CompiledTrace, (self.path, self.window, self.release))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CompiledTrace(path={self.path!r}, n={self.n}, "
                f"window={self.window})")


# ---------------------------------------------------------------------------
# compilation front ends
# ---------------------------------------------------------------------------

def compile_trace(source: Trace | Iterable[Trace], out: str | os.PathLike,
                  meta: dict | None = None) -> CompiledTrace:
    """Compile an in-memory trace (or an iterable of chunks) to ``out``.

    ``meta`` overrides the source's meta; chunk iterables contribute the
    first chunk's meta by default.
    """
    if isinstance(source, Trace):
        chunks: Iterable[Trace] = (source,)
        meta = dict(source.meta) if meta is None else meta
    else:
        chunks = source
    writer = None
    try:
        for chunk in chunks:
            if writer is None:
                chunk_meta = meta if meta is not None else dict(chunk.meta)
                writer = CompiledTraceWriter(out, meta=chunk_meta)
            writer.append(chunk)
        if writer is None:  # empty iterable: still a valid (empty) trace
            writer = CompiledTraceWriter(out, meta=meta)
        writer.close()
    except Exception:
        if writer is not None:
            writer._abort()
        raise
    return CompiledTrace(out)


def compile_csv(csv_path: str | os.PathLike, out: str | os.PathLike,
                meta: dict | None = None,
                chunk: int = DEFAULT_CHUNK) -> CompiledTrace:
    """Stream a CSV trace into the compiled format in bounded memory."""
    from repro.traces.io import iter_request_chunks

    return compile_trace(iter_request_chunks(csv_path, chunk),
                         out, meta=dict(meta or {},
                                        source=os.fspath(csv_path)))


def compile_synthetic(profile: "WorkloadProfile", n: int,
                      out: str | os.PathLike, seed: int = 0,
                      chunk: int = 1 << 20,
                      **generator_kwargs) -> CompiledTrace:
    """Generate ``n`` synthetic requests straight to disk, chunk-wise.

    Chunks come from one :class:`SyntheticTraceGenerator` advanced by
    ``start_position``, so the stream is deterministic in (profile,
    seed) for a fixed chunk size; memory is bounded by the chunk.
    """
    from repro.traces.synthetic import SyntheticTraceGenerator

    if n <= 0:
        raise ValueError("n must be positive")
    gen = SyntheticTraceGenerator(profile, seed=seed, **generator_kwargs)
    meta = {"workload": profile.name, "seed": seed, "n": n, "chunk": chunk}

    def chunks() -> Iterator[Trace]:
        pos = 0
        while pos < n:
            size = min(chunk, n - pos)
            yield gen.generate(size, start_position=pos)
            pos += size

    return compile_trace(chunks(), out, meta=meta)


def is_compiled_trace(path: str | os.PathLike) -> bool:
    """True when ``path`` looks like a compiled trace directory."""
    return os.path.isdir(path) and os.path.exists(_meta_path(path))


def describe(compiled: CompiledTrace) -> dict:
    """Summary statistics computed window-by-window (bounded memory)."""
    ops_count = np.zeros(3, dtype=np.int64)
    penalty_sum = 0.0
    penalty_max = 0.0
    value_bytes = 0
    tenant_ids: set[int] = set()
    for w in compiled.iter_windows():
        ops_count += np.bincount(w.ops, minlength=3)[:3]
        penalty_sum += float(w.penalties.sum())
        if len(w):
            penalty_max = max(penalty_max, float(w.penalties.max()))
        value_bytes += int(w.value_sizes.sum(dtype=np.int64))
        tenant_ids.update(np.unique(w.tenants).tolist())
    n = len(compiled)
    return {
        "path": compiled.path,
        "format": compiled.format,
        "rows": n,
        "bytes": compiled.nbytes,
        "gets": int(ops_count[0]),
        "sets": int(ops_count[1]),
        "deletes": int(ops_count[2]),
        "tenants": len(tenant_ids) if n else 0,
        "mean_penalty": (penalty_sum / n) if n else 0.0,
        "max_penalty": penalty_max,
        "total_value_bytes": value_bytes,
        "meta": dict(compiled.meta),
    }
