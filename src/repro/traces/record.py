"""Trace containers: single requests and columnar request streams."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

import numpy as np

#: column attributes of a Trace, in compiled-trace column order.
TRACE_COLUMNS = ("ops", "keys", "key_sizes", "value_sizes", "penalties",
                 "timestamps")

#: optional multi-tenant column (uint16 tenant ids); kept out of
#: TRACE_COLUMNS so single-tenant code paths (and the compiled-trace v1
#: format) stay untouched, and threaded explicitly where it matters.
TENANT_COLUMN = "tenants"

#: every column a multi-tenant trace carries (compiled-trace v2 order).
TRACE_COLUMNS_V2 = TRACE_COLUMNS + (TENANT_COLUMN,)


class Op(IntEnum):
    """Request types (the paper's GET / SET / DEL primitives)."""

    GET = 0
    SET = 1
    DELETE = 2


@dataclass(frozen=True)
class Request:
    """One trace record.

    ``penalty`` is the key's miss penalty in seconds (what a GET miss on
    it costs); ``timestamp`` is seconds since trace start (0.0 when the
    trace carries no timing).
    """

    op: Op
    key: int
    key_size: int
    value_size: int
    penalty: float
    timestamp: float = 0.0


class Trace:
    """Columnar request stream (NumPy-backed, memory-flat).

    Columns: ``ops`` (uint8), ``keys`` (int64), ``key_sizes`` (int32),
    ``value_sizes`` (int32), ``penalties`` (float64), ``timestamps``
    (float64), ``tenants`` (uint16, all-zero for single-tenant traces).
    ``meta`` carries provenance (workload name, seed, ...).
    """

    __slots__ = ("ops", "keys", "key_sizes", "value_sizes", "penalties",
                 "timestamps", "tenants", "meta")

    def __init__(self, ops: np.ndarray, keys: np.ndarray,
                 key_sizes: np.ndarray, value_sizes: np.ndarray,
                 penalties: np.ndarray, timestamps: np.ndarray | None = None,
                 meta: dict | None = None,
                 tenants: np.ndarray | None = None) -> None:
        n = len(ops)
        arrays = dict(ops=ops, keys=keys, key_sizes=key_sizes,
                      value_sizes=value_sizes, penalties=penalties)
        for name, arr in arrays.items():
            if len(arr) != n:
                raise ValueError(
                    f"column {name!r} has {len(arr)} rows, expected {n}")
        self.ops = np.asarray(ops, dtype=np.uint8)
        self.keys = np.asarray(keys, dtype=np.int64)
        self.key_sizes = np.asarray(key_sizes, dtype=np.int32)
        self.value_sizes = np.asarray(value_sizes, dtype=np.int32)
        self.penalties = np.asarray(penalties, dtype=np.float64)
        if timestamps is None:
            timestamps = np.zeros(n, dtype=np.float64)
        elif len(timestamps) != n:
            raise ValueError("timestamps length mismatch")
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if tenants is None:
            # Zero-copy all-zero view: single-tenant traces pay no
            # per-row memory for the column they never look at.
            tenants = np.broadcast_to(np.zeros(1, dtype=np.uint16), (n,))
        elif len(tenants) != n:
            raise ValueError(
                f"column 'tenants' has {len(tenants)} rows, expected {n}")
        self.tenants = np.asarray(tenants, dtype=np.uint16)
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, i: int) -> Request:
        return Request(Op(int(self.ops[i])), int(self.keys[i]),
                       int(self.key_sizes[i]), int(self.value_sizes[i]),
                       float(self.penalties[i]), float(self.timestamps[i]))

    def iter_rows(self) -> Iterator[tuple[int, int, int, int, float]]:
        """Fast row iterator yielding ``(op, key, key_size, value_size,
        penalty)`` as plain Python scalars (the simulator hot path)."""
        return zip(self.ops.tolist(), self.keys.tolist(),
                   self.key_sizes.tolist(), self.value_sizes.tolist(),
                   self.penalties.tolist())

    # -- composition ------------------------------------------------------
    def slice(self, start: int, stop: int | None = None) -> "Trace":
        sl = np.s_[start:stop]
        return Trace(self.ops[sl], self.keys[sl], self.key_sizes[sl],
                     self.value_sizes[sl], self.penalties[sl],
                     self.timestamps[sl], dict(self.meta),
                     self.tenants[sl])

    def concat(self, other: "Trace") -> "Trace":
        if len(other) and len(self):
            shift = self.timestamps[-1]
        else:
            shift = 0.0
        meta = dict(self.meta)
        meta["concatenated"] = True
        return Trace(
            np.concatenate([self.ops, other.ops]),
            np.concatenate([self.keys, other.keys]),
            np.concatenate([self.key_sizes, other.key_sizes]),
            np.concatenate([self.value_sizes, other.value_sizes]),
            np.concatenate([self.penalties, other.penalties]),
            np.concatenate([self.timestamps, other.timestamps + shift]),
            meta,
            np.concatenate([self.tenants, other.tenants]))

    def repeat(self, times: int) -> "Trace":
        """Replay the trace ``times`` times back-to-back.

        The paper repeats the APP trace "to highlight the performance
        difference among the schemes" once cold misses are out.
        """
        if times < 1:
            raise ValueError("times must be >= 1")
        out = self
        for _ in range(times - 1):
            out = out.concat(self)
        out.meta["repeats"] = times
        return out

    @property
    def num_gets(self) -> int:
        return int(np.count_nonzero(self.ops == Op.GET))

    @property
    def num_tenants(self) -> int:
        """Distinct tenant count implied by the tenant ids (>= 1).

        Tenant ids are dense by convention (``mix_tenants`` assigns
        0..T-1), so the count is ``max + 1``; an untagged trace is one
        tenant.
        """
        if not len(self):
            return 1
        return int(self.tenants.max()) + 1

    @property
    def unique_keys(self) -> int:
        return int(np.unique(self.keys).size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Trace(n={len(self)}, gets={self.num_gets}, "
                f"meta={self.meta})")


#: rows per window when an in-memory :class:`Trace` is replayed window
#: by window: bounds the per-window scratch, results do not depend on it.
WINDOW_ROWS = 1 << 14


def iter_windows(source) -> Iterator[Trace]:
    """The bounded-window view of any replay source, built lazily.

    ``source`` is a :class:`Trace` (zero-copy slices of
    :data:`WINDOW_ROWS` rows; one that fits is yielded as itself),
    anything with ``iter_windows()`` (a compiled trace), or an iterable
    of :class:`Trace` windows.
    """
    if isinstance(source, Trace):
        if len(source) <= WINDOW_ROWS:
            yield source
        else:
            for start in range(0, len(source), WINDOW_ROWS):
                yield source.slice(start, start + WINDOW_ROWS)
    elif hasattr(source, "iter_windows"):
        yield from source.iter_windows()
    else:
        yield from source

