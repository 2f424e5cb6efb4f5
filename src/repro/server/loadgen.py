"""memtier-style load generator for the memcached-protocol server.

Drives a server with ``connections`` concurrent asyncio connections,
each keeping ``pipeline`` requests on the wire, over a deterministic
op stream (every key choice, op choice, and value byte is a pure
splitmix64 function of ``(seed, connection, op index)`` — identical
seeds replay identical request streams).  Reports ops/s and batch
round-trip latency quantiles.

Used two ways:

* ``repro-kv loadgen`` — CLI against any host:port (or ``--spawn`` to
  self-host a server for a one-command smoke test);
* the loadgen e2e test, which replays a tiny run against the server
  and checks the accounting adds up.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.bloom.hashing import splitmix64

_GET_LINE = b"get %b\r\n"
_SET_LINE = b"set %b %d 0 %d\r\n"


@dataclass(frozen=True)
class LoadgenConfig:
    """Workload shape; every field has a memtier-ish counterpart."""

    connections: int = 64
    pipeline: int = 8
    ops: int = 50_000
    #: fraction of ops that are GETs (the rest are SETs).
    get_ratio: float = 0.9
    #: size of the key universe (keys are ``k<nnn>``).
    keys: int = 10_000
    #: value payload bytes for SETs (deterministic filler).
    value_size: int = 64
    #: penalty (seconds) encoded into the flags field of SETs.
    penalty: float = 0.001
    #: fraction of ops aimed at the hot 10% of the key universe
    #: (0.0 = uniform; 0.9 ≈ a memtier gaussian-ish skew).
    hot_fraction: float = 0.0
    seed: int = 0
    #: SET the whole key universe once before measuring, so GETs hit.
    preload: bool = True

    def __post_init__(self) -> None:
        if self.connections < 1 or self.pipeline < 1:
            raise ValueError("connections and pipeline must be >= 1")
        if not 0.0 <= self.get_ratio <= 1.0:
            raise ValueError("get_ratio must be in [0, 1]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.keys < 1 or self.ops < 1:
            raise ValueError("keys and ops must be >= 1")


@dataclass
class LoadgenResult:
    """Aggregated measurements of one loadgen run."""

    ops: int = 0
    gets: int = 0
    sets: int = 0
    hits: int = 0
    errors: int = 0
    elapsed: float = 0.0
    #: per-batch round-trip latencies, seconds (one batch = ``pipeline``
    #: requests written back-to-back, measured write→last reply).
    batch_latencies: list[float] = field(default_factory=list)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    def latency_quantile(self, q: float) -> float:
        """Batch round-trip latency quantile, seconds (0 if unmeasured)."""
        if not self.batch_latencies:
            return 0.0
        ordered = sorted(self.batch_latencies)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def format(self) -> str:
        p50 = self.latency_quantile(0.50) * 1e6
        p99 = self.latency_quantile(0.99) * 1e6
        return (f"{self.ops} ops in {self.elapsed:.3f}s = "
                f"{self.ops_per_sec:,.0f} ops/s | "
                f"gets {self.gets} (hit ratio {self.hit_ratio:.3f}), "
                f"sets {self.sets}, errors {self.errors} | "
                f"batch RTT p50 {p50:,.0f}us p99 {p99:,.0f}us")


def _value_for(key_idx: int, size: int, seed: int) -> bytes:
    """Deterministic filler payload for key ``key_idx``."""
    pattern = b"%016x" % splitmix64(seed ^ (key_idx * 0x9E37 + 1))
    return (pattern * (size // 16 + 1))[:size]


def _key_index(draw: int, cfg: LoadgenConfig) -> int:
    """Map a 64-bit draw to a key index, honouring ``hot_fraction``."""
    if cfg.hot_fraction and (draw >> 32) % 1000 < cfg.hot_fraction * 1000:
        hot = max(1, cfg.keys // 10)
        return (draw & 0xFFFFFFFF) % hot
    return (draw & 0xFFFFFFFF) % cfg.keys


async def _drive_connection(host: str, port: int, conn_id: int,
                            ops: int, cfg: LoadgenConfig,
                            result: LoadgenResult) -> None:
    """One connection's worth of pipelined batches."""
    reader, writer = await asyncio.open_connection(host, port)
    readline = reader.readline
    readexactly = reader.readexactly
    try:
        done = 0
        op_idx = 0
        base = cfg.seed ^ (conn_id * 0x9E3779B9)
        while done < ops:
            batch = min(cfg.pipeline, ops - done)
            expect: list[bool] = []  # per request: is it a GET?
            out = bytearray()
            for _ in range(batch):
                draw = splitmix64(base ^ op_idx)
                op_idx += 1
                key_idx = _key_index(draw, cfg)
                key = b"k%d" % key_idx
                if (draw >> 52) / 4096.0 < cfg.get_ratio:
                    out += _GET_LINE % key
                    expect.append(True)
                else:
                    value = _value_for(key_idx, cfg.value_size, cfg.seed)
                    flags = max(0, int(round(cfg.penalty * 1e6)))
                    out += _SET_LINE % (key, flags, len(value))
                    out += value + b"\r\n"
                    expect.append(False)
            started = time.perf_counter()
            writer.write(bytes(out))
            await writer.drain()
            for is_get in expect:
                if is_get:
                    result.gets += 1
                    line = await readline()
                    while line.startswith(b"VALUE "):
                        nbytes = int(line.split()[3])
                        await readexactly(nbytes + 2)
                        result.hits += 1
                        line = await readline()
                    if line != b"END\r\n":
                        result.errors += 1
                else:
                    result.sets += 1
                    if await readline() != b"STORED\r\n":
                        result.errors += 1
            result.batch_latencies.append(time.perf_counter() - started)
            done += batch
        result.ops += done
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def _preload(host: str, port: int, cfg: LoadgenConfig) -> None:
    """SET every key once (pipelined) so the measured GETs can hit."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        flags = max(0, int(round(cfg.penalty * 1e6)))
        batch = 256
        for start in range(0, cfg.keys, batch):
            out = bytearray()
            n = min(batch, cfg.keys - start)
            for key_idx in range(start, start + n):
                value = _value_for(key_idx, cfg.value_size, cfg.seed)
                out += _SET_LINE % (b"k%d" % key_idx, flags, len(value))
                out += value + b"\r\n"
            writer.write(bytes(out))
            await writer.drain()
            for _ in range(n):
                await reader.readline()  # STORED / NOT_STORED
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def run_loadgen(host: str, port: int,
                      cfg: LoadgenConfig) -> LoadgenResult:
    """Run the full workload; returns aggregated measurements."""
    if cfg.preload:
        await _preload(host, port, cfg)
    result = LoadgenResult()
    share, extra = divmod(cfg.ops, cfg.connections)
    started = time.perf_counter()
    await asyncio.gather(*(
        _drive_connection(host, port, conn_id,
                          share + (1 if conn_id < extra else 0), cfg, result)
        for conn_id in range(cfg.connections) if share or conn_id < extra))
    result.elapsed = time.perf_counter() - started
    return result


def run_loadgen_sync(host: str, port: int,
                     cfg: LoadgenConfig) -> LoadgenResult:
    """Blocking wrapper around :func:`run_loadgen`."""
    return asyncio.run(run_loadgen(host, port, cfg))
