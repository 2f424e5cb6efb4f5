"""Trace persistence: binary (NPZ) and CSV formats.

Binary is the working format (compact, fast, lossless).  CSV exists for
interchange with external trace tooling and for eyeballing; it streams
in bounded memory in both directions.  For traces too large to hold in
RAM at all, see :mod:`repro.traces.compile` (the mmap-able columnar
format).

Trace ``meta`` is serialized as JSON inside the archive: values must be
JSON-representable (numpy scalars are unwrapped, tuples come back as
lists); anything else is stored as ``str(value)`` with a
``TraceMetaWarning``.  Archives written before the JSON scheme (object
-dtype ``meta`` pairs) are still readable.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from typing import Iterable, Iterator

import numpy as np

from repro.traces.record import Op, Request, Trace

CSV_HEADER = ["op", "key", "key_size", "value_size", "penalty", "timestamp"]
_OP_NAMES = {Op.GET: "GET", Op.SET: "SET", Op.DELETE: "DELETE"}
_OP_VALUES = {name: op for op, name in _OP_NAMES.items()}

#: rows buffered per chunk when building columns from request streams.
CHUNK_ROWS = 1 << 16


class TraceMetaWarning(UserWarning):
    """A trace meta value could not be stored faithfully."""


# -- meta (de)serialization --------------------------------------------------

def _jsonable_value(key: str, value):
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable_value(key, v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable_value(key, v) for k, v in value.items()}
    warnings.warn(
        f"trace meta[{key!r}] = {value!r} is not JSON-serializable; "
        f"storing str(value)", TraceMetaWarning, stacklevel=4)
    return str(value)


def meta_to_jsonable(meta: dict) -> dict:
    """Restrict a trace meta dict to JSON-representable values.

    Private keys (leading underscore: process-local handles a caller
    pins on ``meta``) are dropped; numpy scalars are unwrapped; values with no
    JSON form are stored as ``str(value)`` under a
    :class:`TraceMetaWarning`.
    """
    out = {}
    for key, value in meta.items():
        key = str(key)
        if key.startswith("_"):
            continue
        out[key] = _jsonable_value(key, value)
    return out


def _legacy_meta(path: str | os.PathLike) -> dict:
    """Meta from a pre-JSON archive (object-dtype ``(key, repr)`` pairs).

    Only this fallback opens the archive with ``allow_pickle``; new
    archives never need it.
    """
    import ast

    meta = {}
    with np.load(path, allow_pickle=True) as data:
        for key, value in data["meta"]:
            try:
                meta[key] = ast.literal_eval(value)
            except (ValueError, SyntaxError):
                meta[key] = value
    return meta


# -- binary ------------------------------------------------------------------

def save_npz(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace as a compressed ``.npz`` archive."""
    meta_json = json.dumps(meta_to_jsonable(trace.meta), sort_keys=True)
    columns = dict(
        ops=trace.ops, keys=trace.keys, key_sizes=trace.key_sizes,
        value_sizes=trace.value_sizes, penalties=trace.penalties,
        timestamps=trace.timestamps)
    if trace.tenants.any():
        # Only multi-tenant traces pay for the column; single-tenant
        # archives stay byte-identical to the pre-tenancy format.
        columns["tenants"] = np.ascontiguousarray(trace.tenants)
    np.savez_compressed(path, meta_json=np.asarray(meta_json), **columns)


def load_npz(path: str | os.PathLike) -> Trace:
    """Read a trace written by :func:`save_npz` (any meta scheme)."""
    legacy = False
    with np.load(path) as data:
        if "meta_json" in data.files:
            meta = json.loads(str(data["meta_json"][()]))
        else:
            legacy = "meta" in data.files
            meta = {}
        tenants = data["tenants"] if "tenants" in data.files else None
        trace = Trace(data["ops"], data["keys"], data["key_sizes"],
                      data["value_sizes"], data["penalties"],
                      data["timestamps"], meta, tenants)
    if legacy:
        trace.meta.update(_legacy_meta(path))
    return trace


# -- CSV --------------------------------------------------------------------

def save_csv(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace as CSV with a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(len(trace)):
            req = trace[i]
            writer.writerow([_OP_NAMES[req.op], req.key, req.key_size,
                             req.value_size, f"{req.penalty:.6g}",
                             f"{req.timestamp:.6f}"])


def iter_csv(path: str | os.PathLike) -> Iterator[Request]:
    """Stream requests from a CSV trace in bounded memory."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(
                f"unexpected CSV header {header!r}; expected {CSV_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"line {lineno}: expected "
                                 f"{len(CSV_HEADER)} fields, got {len(row)}")
            try:
                yield Request(_OP_VALUES[row[0]], int(row[1]), int(row[2]),
                              int(row[3]), float(row[4]), float(row[5]))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"line {lineno}: malformed row {row!r}") from exc


def load_csv(path: str | os.PathLike) -> Trace:
    """Read a full CSV trace into a columnar :class:`Trace`.

    Streams through :func:`from_requests`' chunked builder: per-request
    Python objects never accumulate beyond one chunk.
    """
    return from_requests(iter_csv(path))


_COLUMN_BUILD = (("ops", np.uint8), ("keys", np.int64),
                 ("key_sizes", np.int32), ("value_sizes", np.int32),
                 ("penalties", np.float64), ("timestamps", np.float64))


def from_requests(requests: Iterable[Request], meta: dict | None = None,
                  chunk_rows: int = CHUNK_ROWS) -> Trace:
    """Build a columnar trace from an iterable of Request objects.

    Consumes the iterable in ``chunk_rows``-sized chunks: scalars are
    buffered into plain lists, flushed to NumPy arrays per chunk, and
    concatenated once at the end — peak per-request Python object count
    is one chunk, not the whole trace, so streaming a multi-GB CSV
    through here holds columns (not objects) in memory.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    parts: list[list[np.ndarray]] = [[] for _ in _COLUMN_BUILD]
    bufs: list[list] = [[] for _ in _COLUMN_BUILD]

    def flush() -> None:
        if not bufs[0]:
            return
        for i, (_name, dtype) in enumerate(_COLUMN_BUILD):
            parts[i].append(np.array(bufs[i], dtype=dtype))
            bufs[i].clear()

    for r in requests:
        bufs[0].append(int(r.op))
        bufs[1].append(r.key)
        bufs[2].append(r.key_size)
        bufs[3].append(r.value_size)
        bufs[4].append(r.penalty)
        bufs[5].append(r.timestamp)
        if len(bufs[0]) >= chunk_rows:
            flush()
    flush()
    columns = [np.concatenate(p) if p else np.empty(0, dtype=dtype)
               for p, (_name, dtype) in zip(parts, _COLUMN_BUILD)]
    return Trace(*columns, meta=meta)


def iter_request_chunks(path: str | os.PathLike,
                        chunk_rows: int = CHUNK_ROWS) -> Iterator[Trace]:
    """Stream a CSV trace as columnar :class:`Trace` chunks.

    The compiler's CSV front end: each chunk is an independent bounded
    trace, so ``CSV -> compiled`` never materializes the full trace.
    """
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    buf: list[Request] = []
    for req in iter_csv(path):
        buf.append(req)
        if len(buf) >= chunk_rows:
            yield from_requests(buf, chunk_rows=chunk_rows)
            buf = []
    if buf:
        yield from_requests(buf, chunk_rows=chunk_rows)
