"""A minimal memcached-protocol server over the slab cache.

Demonstrates the substrate is a functioning cache, not just an
accounting model: any memcached text client can set/get/delete against
it, with the allocation policy (PAMA by default) managing slabs.

The server is single-purpose and synchronous-per-connection (threaded);
it is an example vehicle, not a production network stack.  It is fully
instrumented through :mod:`repro.obs`: per-command latency histograms,
byte counters, and the cache's own registry metrics, all exposed over
the wire via ``stats`` and ``stats detail``.
"""

from __future__ import annotations

import socketserver
import threading
import time

from repro import __version__
from repro.cache.cache import SlabCache
from repro.obs import EventTrace, Registry, flat_items
from repro.server import protocol as p
from repro.server.shard import (INCR_STORE_FAILED_MSG, STORE_FAILED,
                                apply_incr_decr, apply_storage)

#: largest chunk drained at once when resyncing after a bad storage line.
_DRAIN_CHUNK = 64 * 1024


class CacheRequestHandler(socketserver.StreamRequestHandler):
    """Handles one client connection (line protocol + data blocks)."""

    server: "CacheServer"

    def handle(self) -> None:
        self.server.c_connections.inc()
        while True:
            line = self.rfile.readline()
            if not line:
                return
            self.server.c_bytes_read.inc(len(line))
            line = line.rstrip(b"\r\n")
            if not line:
                continue
            try:
                cmd = p.parse_command(line)
            except p.ProtocolError as exc:
                self.server.c_protocol_errors.inc()
                if exc.data_bytes is not None:
                    # Malformed storage line with a readable byte count:
                    # the client still sends the data block, so drain it
                    # (payload + CRLF) or the payload bytes would be
                    # parsed as commands.
                    if not self._drain(exc.data_bytes + 2):
                        return
                    self._reply(p.format_error(str(exc)))
                    continue
                if exc.fatal:
                    # Storage line whose data-block length is unknowable:
                    # the connection cannot be resynced.
                    self._reply(p.format_error(str(exc)))
                    return
                self._reply(p.format_error(str(exc)))
                continue
            if isinstance(cmd, p.QuitCommand):
                return
            started = time.perf_counter()
            try:
                keep_going = self._dispatch(cmd)
            except BrokenPipeError:  # pragma: no cover - client went away
                return
            except Exception as exc:  # noqa: BLE001 - reply, then close
                # An unexpected failure must not silently kill the
                # handler thread mid-conversation: tell the client
                # (SERVER_ERROR, per the memcached protocol) and close.
                self.server.c_server_errors.inc()
                try:
                    self._reply(p.format_server_error(
                        str(exc) or type(exc).__name__))
                except OSError:  # pragma: no cover - write raced close
                    pass
                return
            elapsed = time.perf_counter() - started
            self.server.latency_histogram(p.verb_of(cmd)).record(elapsed)
            tracer = self.server.tracer
            if tracer is not None:
                # One tick per completed command; record_single is the
                # thread-safe path (one deque append under the GIL).
                # The tick snapshot must happen under the cache lock:
                # `accesses` is mutated by every operation, and an
                # unlocked read here races the other handler threads.
                with self.server.lock:
                    tick = self.server.cache.accesses
                if tracer.sampled(tick):
                    tracer.record_single(p.verb_of(cmd), tick, tick,
                                         duration_s=elapsed)
            if not keep_going:
                return

    def _reply(self, data: bytes) -> None:
        self.server.c_bytes_written.inc(len(data))
        self.wfile.write(data)

    def _drain(self, nbytes: int) -> bool:
        """Consume ``nbytes`` from the stream; False means EOF."""
        remaining = nbytes
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, _DRAIN_CHUNK))
            if not chunk:
                return False
            self.server.c_bytes_read.inc(len(chunk))
            remaining -= len(chunk)
        return True

    def _dispatch(self, cmd: p.Command) -> bool:
        cache = self.server.cache
        lock = self.server.lock
        if isinstance(cmd, p.SetCommand):
            if cmd.nbytes > cache.size_classes.max_item_size:
                # no slab can hold it: discard the block in chunks
                # instead of reading it whole, then say so
                if not self._drain(cmd.nbytes + 2):
                    return False
                if not cmd.noreply:
                    self._reply(self._store(cache, cmd, None))
                return True
            data = self.rfile.read(cmd.nbytes)
            trailer = self.rfile.read(2)
            # Count what was actually read *before* bailing on a short
            # read, or a client hanging up mid-block leaves every byte
            # of its partial data block out of server_bytes_read_total.
            self.server.c_bytes_read.inc(len(data) + len(trailer))
            if len(data) != cmd.nbytes or len(trailer) != 2:
                return False  # short read: the client hung up mid-block
            if trailer != p.CRLF:
                # Framing is lost (we cannot know where the next command
                # starts), so reply and drop the connection.
                self._reply(p.format_error("bad data chunk"))
                return False
            with lock:
                reply = self._store(cache, cmd, data)
            if not cmd.noreply:
                self._reply(reply)
            return True
        if isinstance(cmd, p.IncrDecrCommand):
            with lock:
                result = self._incr_decr(cache, cmd)
            if not cmd.noreply:
                if result is None:
                    self._reply(p.format_not_found())
                elif result is STORE_FAILED:
                    # The computed number was NOT stored; claiming
                    # success would lie to the client.
                    self._reply(p.format_server_error(INCR_STORE_FAILED_MSG))
                elif isinstance(result, bytes):
                    self._reply(p.format_error(result.decode()))
                else:
                    self._reply(p.format_number(result))
            return True
        if isinstance(cmd, p.TouchCommand):
            with lock:
                found = cache.touch(
                    cmd.key, p.resolve_exptime(cmd.exptime, cache.clock()))
            if not cmd.noreply:
                self._reply(p.format_touched(found))
            return True
        if isinstance(cmd, p.FlushAllCommand):
            with lock:
                cache.flush_all()
            if not cmd.noreply:
                self._reply(p.format_ok())
            return True
        if isinstance(cmd, p.GetCommand):
            out = bytearray()
            with lock:
                for key in cmd.keys:
                    item = cache.get(key)
                    if item is not None and item.value is not None:
                        flags, data = item.value
                        out += p.format_value(
                            key, flags, data,
                            cas=item.cas if cmd.with_cas else None)
            out += p.format_get_tail()
            self._reply(bytes(out))
            return True
        if isinstance(cmd, p.DeleteCommand):
            with lock:
                found = cache.delete(cmd.key)
            if not cmd.noreply:
                self._reply(p.format_deleted(found))
            return True
        if isinstance(cmd, p.StatsCommand):
            self._reply(p.format_stats(self.server.gather_stats(cmd.arg)))
            return True
        if isinstance(cmd, p.VersionCommand):
            self._reply(p.format_version(f"repro-pama/{__version__}"))
            return True
        raise AssertionError(f"unhandled command {cmd!r}")  # pragma: no cover

    # Storage and incr/decr semantics are shared with the async sharded
    # server (repro.server.shard) so the two front ends cannot drift.
    _store = staticmethod(apply_storage)
    _incr_decr = staticmethod(apply_incr_decr)


class CacheServer(socketserver.ThreadingTCPServer):
    """TCP server wrapping one SlabCache (coarse-grained lock)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], cache: SlabCache,
                 registry: Registry | None = None,
                 events: EventTrace | None = None,
                 tracing=None) -> None:
        super().__init__(address, CacheRequestHandler)
        self.cache = cache
        #: optional SpanTracer; sampled commands are recorded as
        #: single-span traces with their wall-clock duration.
        self.tracer = tracing
        self.lock = threading.Lock()
        # The server always runs instrumented (it is not the simulate
        # hot path); reuse whatever the cache already has attached.
        # ``is not None``: an empty Registry or EventTrace is falsy (both
        # define ``__len__``) and a caller's fresh one must be kept.
        self.registry = (registry if registry is not None
                         else cache.obs if cache.obs is not None
                         else Registry())
        self.events = (events if events is not None
                       else cache.events if cache.events is not None
                       else EventTrace())
        if cache.obs is None:
            cache.attach_obs(self.registry, self.events)
        counter = self.registry.counter
        self.c_connections = counter(
            "server_connections_total", "client connections accepted")
        self.c_bytes_read = counter(
            "server_bytes_read_total", "bytes read from clients")
        self.c_bytes_written = counter(
            "server_bytes_written_total", "bytes written to clients")
        self.c_protocol_errors = counter(
            "server_protocol_errors_total", "malformed request lines")
        self.c_server_errors = counter(
            "server_errors_total", "unexpected errors answered SERVER_ERROR")
        self._latency: dict[str, object] = {}

    def latency_histogram(self, verb: str):
        """Per-command-verb latency histogram (created on first use)."""
        hist = self._latency.get(verb)
        if hist is None:
            hist = self.registry.histogram(
                "server_cmd_latency_seconds",
                "wall-clock time to serve one command", lo=1e-7,
                growth=1.5, cmd=verb)
            self._latency[verb] = hist
        return hist

    def gather_stats(self, arg: str | None) -> dict[str, object]:
        """The ``stats`` / ``stats detail`` payload."""
        with self.lock:
            self.cache.update_obs_gauges()
            stats: dict[str, object] = self.cache.stats.snapshot()
            stats["policy"] = self.cache.policy.name
            stats["items"] = len(self.cache)
            stats["slabs_total"] = self.cache.pool.total
            stats["slabs_free"] = self.cache.pool.free
            if arg == "detail":
                # every registry metric, histograms expanded to
                # count/sum/mean/min/max + quantiles
                stats.update(flat_items(self.registry))
                stats["events_recorded"] = self.events.recorded
                stats["events_dropped"] = self.events.dropped
            else:
                # registry counters/gauges only (flat quick view)
                stats.update(flat_items(self.registry, histograms=False))
        return stats

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_server(cache: SlabCache, host: str = "127.0.0.1",
                 port: int = 0, tracing=None) -> CacheServer:
    """Start a server on a background thread; returns it (bound port in
    ``server.port``).  Call ``server.shutdown()`` to stop."""
    server = CacheServer((host, port), cache, tracing=tracing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
