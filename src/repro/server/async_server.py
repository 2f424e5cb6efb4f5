"""The memcached-protocol server: one event loop, hash-partitioned shards.

* **one event loop** owns every connection — no thread per connection,
  no lock: each shard is only ever touched from the loop, so the hot
  path is plain function calls;
* **hash-partitioned shards** (:mod:`repro.server.shard`, splitmix64 on
  the key) bound per-shard state and map 1:1 onto a process-per-shard
  deployment on multi-core hosts;
* **one pass per request**: an :class:`asyncio.Protocol` per connection
  feeds a :class:`repro.server.protocol.StreamDecoder`; each command is
  decoded, routed, executed and timed once, and a plain ``get`` /
  ``set`` / ``delete`` line in one frame, with no call between decoding
  and executing it;
* **write coalescing**: the replies of a received chunk leave in one
  ``transport.write``, and a client that stops reading stops being read.

Storage and incr/decr semantics live in :mod:`repro.server.shard`.  The
differential suite (``tests/server/test_differential.py``) holds the
reply bytes of full protocol scripts to committed transcripts.
"""

from __future__ import annotations

import asyncio
import threading
import time
from math import nan

from repro import __version__
from repro.obs import EventTrace, Registry, flat_items
from repro.server import protocol as p
from repro.server.shard import (INCR_STORE_FAILED_MSG, STORE_FAILED,
                                ShardSet, apply_incr_decr, apply_storage)


class AsyncCacheServer:
    """Asyncio TCP server over a :class:`ShardSet` (no hot-path locks)."""

    def __init__(self, shards: ShardSet, registry: Registry | None = None,
                 events: EventTrace | None = None, tracing=None) -> None:
        self.shards = shards
        self.tracer = tracing
        first = shards.shards[0]
        # ``is not None``: an empty Registry or EventTrace is falsy (both
        # define ``__len__``) and a caller's fresh one must be kept.
        self.registry = (registry if registry is not None
                         else first.obs if first.obs is not None
                         else Registry())
        self.events = (events if events is not None
                       else first.events if first.events is not None
                       else EventTrace())
        shards.attach_obs(self.registry, self.events)
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
        self._latency: dict[tuple[str, str], object] = {}
        #: histogram label of each shard index
        self._labels = [str(i) for i in range(shards.nshards)]
        self._server: asyncio.Server | None = None
        self._transports: set[asyncio.Transport] = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port)

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening and drop every connection, unsent replies
        included (``close`` would wait for a client that never reads)."""
        if self._server is not None:
            self._server.close()
            for transport in list(self._transports):
                transport.abort()
            await self._server.wait_closed()

    # -- metrics -------------------------------------------------------
    def latency_histogram(self, verb: str, shard: str):
        """Latency histogram labelled by command verb *and* shard."""
        hist = self._latency.get((verb, shard))
        if hist is None:
            hist = self.registry.histogram(
                "server_cmd_latency_seconds",
                "wall-clock time to serve one command", lo=1e-7,
                growth=1.5, cmd=verb, shard=shard)
            self._latency[(verb, shard)] = hist
        return hist

    def _trace(self, verb: str, shard: str, elapsed: float) -> None:
        """Offer one served command to the tracer.  Per-shard ticks are
        only ever mutated from this loop, so the snapshot needs no
        lock."""
        tick = sum(cache.accesses for cache in self.shards.shards)
        if self.tracer.sampled(tick):
            self.tracer.record_single(verb, tick, tick, duration_s=elapsed,
                                      shard=shard)

    def gather_stats(self, arg: str | None) -> dict[str, object]:
        """The ``stats`` / ``stats detail`` payload (cross-shard)."""
        shards = self.shards
        shards.update_obs_gauges()
        stats: dict[str, object] = shards.stats_snapshot()
        stats["policy"] = shards.policy_name
        stats["items"] = shards.items
        stats["slabs_total"] = shards.slabs_total
        stats["slabs_free"] = shards.slabs_free
        stats["shards"] = shards.nshards
        if arg == "detail":
            stats.update(flat_items(self.registry))
            stats["events_recorded"] = self.events.recorded
            stats["events_dropped"] = self.events.dropped
        else:
            stats.update(flat_items(self.registry, histograms=False))
        return stats

    # -- command execution ---------------------------------------------
    def _execute(self, cmd: p.Command, data: bytes | None,
                 out: bytearray) -> str:
        """Apply one command against its shard; append reply bytes.

        Every key is routed once.  Returns the shard label the command
        is recorded under: its key's shard, the first key's for a
        multi-key ``get`` (the common single-key case is then exact),
        "-" for cross-shard and admin commands.
        """
        shards = self.shards
        route, caches = shards.shard_index, shards.shards
        if isinstance(cmd, p.GetCommand):
            first = -1
            for key in cmd.keys:
                idx = route(key)
                if first < 0:
                    first = idx
                cache = caches[idx]
                item = cache.get(key)
                if item is not None and item.value is not None:
                    flags, vdata = item.value
                    out += p.format_value(
                        key, flags, vdata,
                        cas=cache.cas_unique(item) if cmd.with_cas else None)
            out += p.format_get_tail()
            return self._labels[first]
        if isinstance(cmd, p.SetCommand):
            idx = route(cmd.key)
            reply = apply_storage(caches[idx], cmd, data)
        elif isinstance(cmd, p.DeleteCommand):
            idx = route(cmd.key)
            reply = p.format_deleted(caches[idx].delete(cmd.key))
        elif isinstance(cmd, p.IncrDecrCommand):
            idx = route(cmd.key)
            result = apply_incr_decr(caches[idx], cmd)
            if result is None:
                reply = p.format_not_found()
            elif result is STORE_FAILED:
                reply = p.format_server_error(INCR_STORE_FAILED_MSG)
            elif isinstance(result, bytes):
                reply = p.format_error(result.decode())
            else:
                reply = p.format_number(result)
        elif isinstance(cmd, p.TouchCommand):
            idx = route(cmd.key)
            cache = caches[idx]
            reply = p.format_touched(cache.touch(
                cmd.key, p.resolve_exptime(cmd.exptime, cache.clock())))
        elif isinstance(cmd, p.FlushAllCommand):
            shards.flush_all()
            if not cmd.noreply:
                out += p.format_ok()
            return "-"
        elif isinstance(cmd, p.StatsCommand):
            out += p.format_stats(self.gather_stats(cmd.arg))
            return "-"
        elif isinstance(cmd, p.VersionCommand):
            out += p.format_version(f"repro-pama/{__version__}")
            return "-"
        else:  # pragma: no cover
            raise AssertionError(f"unhandled command {cmd!r}")
        if not cmd.noreply:
            out += reply
        return self._labels[idx]


#: how a line :meth:`_Connection._serve_plain` may take begins
_PLAIN = (b"get ", b"set ", b"delete ")


class _Connection(asyncio.Protocol):
    """One client connection: received bytes in, reply bytes out."""

    def __init__(self, server: AsyncCacheServer) -> None:
        self.server = server
        self.decoder = p.StreamDecoder(server.shards.max_item_size)
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._transports.add(transport)
        self.server.c_connections.inc()

    def connection_lost(self, exc) -> None:
        self.server._transports.discard(self.transport)

    # Back-pressure: while the transport holds more unsent reply bytes
    # than its high-water mark, the client's requests are left unread.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def data_received(self, chunk: bytes) -> None:
        # Served on the loop's next pass, connections take turns in the
        # order their requests arrived.  Served here, a client quick to
        # answer its replies overtakes one already waiting (epoll lists
        # a socket it has just reported first) and the order of cache
        # operations varies from run to run (docs/serving.md).
        self.server.c_bytes_read.inc(len(chunk))
        self.decoder.feed(chunk)
        asyncio.get_running_loop().call_soon(self._serve)

    def _serve(self) -> None:
        """Execute every complete command received so far; their
        replies leave in one write.

        A run of plain lines is served by :meth:`_serve_plain`.  Every
        other item is an event of one :meth:`StreamDecoder.events` pass
        and is run by ``_execute``; since each step of the pass reads
        the decoder's position afresh, the pass goes on where
        :meth:`_serve_plain` stopped.  Only a line that starts like a
        plain one leaves the events loop, so a run of other commands
        costs what the events loop alone costs, plus one ``startswith``
        per command.
        """
        server, decoder = self.server, self.decoder
        execute, latency = server._execute, server._latency
        tracer, perf = server.tracer, time.perf_counter
        buf = decoder.buf
        out = bytearray()
        if buf.startswith(_PLAIN, decoder.pos) and decoder.idle:
            self._serve_plain(out)
        for event in decoder.events():
            if event[0] == p.EV_COMMAND:
                cmd = event[1]
                if isinstance(cmd, p.QuitCommand):
                    decoder.closed = True  # nothing after it is served
                    continue
                mark = len(out)
                started = perf()
                try:
                    shard = execute(cmd, event[2], out)
                except Exception as exc:  # noqa: BLE001
                    self._fail(exc, out, mark)
                    continue
                elapsed = perf() - started
                verb = p.verb_of(cmd)
                hist = latency.get((verb, shard))
                if hist is None:
                    hist = server.latency_histogram(verb, shard)
                hist.record(elapsed)
                if tracer is not None:
                    server._trace(verb, shard, elapsed)
            else:  # EV_ERROR; EV_FATAL has closed the decoder
                server.c_protocol_errors.inc()
                out += p.format_error(event[1])
            if buf.startswith(_PLAIN, decoder.pos) and decoder.idle:
                self._serve_plain(out)
        if out:
            server.c_bytes_written.inc(len(out))
            self.transport.write(out)
        if decoder.closed:
            self.transport.close()  # after the replies are flushed

    def _serve_plain(self, out: bytearray) -> None:
        """Serve the run of plain lines at the decoder's position, each
        in this frame: ``get <key>...``, ``set <key> <flags> <exptime>
        <bytes> [noreply]`` whose data block is buffered, and ``delete
        <key> [noreply]``.

        A line is taken only when ``parse_command`` and the decoder
        would accept it as that command, and is then executed, answered,
        timed and traced as ``_execute`` and :meth:`_serve` would.  The
        run ends at the first line this loop does not take, at the end
        of the complete lines, or at a command that fails (which closes
        the decoder).
        """
        server, decoder = self.server, self.decoder
        shards = server.shards
        caches, labels = shards.shards, server._labels
        route = shards.shard_index if shards.nshards > 1 else None
        latency, tracer = server._latency, server.tracer
        perf = time.perf_counter
        max_line, max_item = decoder.MAX_LINE, decoder.max_item_size
        buf, pos = decoder.buf, decoder.pos
        with memoryview(buf) as view:
            while True:
                # decode and check the line as parse_command would
                nl = buf.find(b"\n", pos)
                if nl < 0 or nl - pos > max_line:
                    break
                try:
                    parts = str(view[pos:nl], "utf-8").split()
                except UnicodeDecodeError:
                    break
                n = len(parts)
                if n < 2 or len(parts[1]) > p.MAX_KEY_LEN:
                    break
                verb, key = parts[0], parts[1]
                if verb == "get":
                    if n > 2 and max(map(len, parts)) > p.MAX_KEY_LEN:
                        break
                    end = nl + 1
                elif verb == "set":
                    if n == 5:
                        noreply = False
                    elif n == 6 and parts[5] == "noreply":
                        noreply = True
                    else:
                        break
                    try:
                        flags, exptime, nbytes = (
                            int(parts[2]), int(parts[3]), int(parts[4]))
                    except ValueError:
                        break
                    if flags < 0 or nbytes < 0 or nbytes > max_item:
                        break
                    start = nl + 1
                    end = start + nbytes
                    if len(buf) < end + 2 or buf[end] != 13 \
                            or buf[end + 1] != 10:
                        break
                    data = bytes(view[start:end])
                    end += 2
                elif verb == "delete":
                    if n == 2:
                        noreply = False
                    elif n == 3 and parts[2] == "noreply":
                        noreply = True
                    else:
                        break
                    end = nl + 1
                else:
                    break
                # route, execute and answer it as _execute would
                mark = len(out)
                started = perf()
                try:
                    if verb == "get":
                        idx = -1  # recorded under the first key's shard
                        for key in parts[1:]:
                            i = 0 if route is None else route(key)
                            if idx < 0:
                                idx = i
                            item = caches[i].lookup(key, -1, 0, nan)
                            if item is not None and item.value is not None:
                                flags, data = item.value
                                out += (f"VALUE {key} {flags} {len(data)}"
                                        "\r\n".encode())
                                out += data
                                out += b"\r\n"
                        out += p.END
                    else:
                        idx = 0 if route is None else route(key)
                        cache = caches[idx]
                        if verb == "set":
                            # apply_storage's plain set: resolve the
                            # expiry, probe (stats count it), store
                            now = cache.clock()
                            expires = (0.0 if exptime == 0
                                       else p.resolve_exptime(exptime, now))
                            cache.lookup(key, -1, 0, nan)
                            stored = cache.set(key, len(key), nbytes,
                                               flags / 1e6, (flags, data),
                                               expires)
                            if not noreply:
                                out += p.STORED if stored else p.NOT_STORED
                        else:
                            found = cache.delete(key)
                            if not noreply:
                                out += p.DELETED if found else p.NOT_FOUND
                except Exception as exc:  # noqa: BLE001
                    self._fail(exc, out, mark)
                    break
                elapsed = perf() - started
                pos = end
                shard = labels[idx]
                hist = latency.get((verb, shard))
                if hist is None:
                    hist = server.latency_histogram(verb, shard)
                hist.record(elapsed)
                if tracer is not None:
                    server._trace(verb, shard, elapsed)
        decoder.pos = pos

    def _fail(self, exc: Exception, out: bytearray, mark: int) -> None:
        """An unexpected failure answers SERVER_ERROR, then the
        connection closes.  The failing command's reply began at
        ``out[mark]``: what it had appended (the found keys of a
        multi-key ``get``) is dropped, so the error is all it answers."""
        self.server.c_server_errors.inc()
        del out[mark:]
        out += p.format_server_error(str(exc) or type(exc).__name__)
        self.decoder.closed = True


# -- background-thread harness (tests, examples, loadgen --spawn) ------------

class AsyncServerHandle:
    """A running :class:`AsyncCacheServer` on a background event loop.

    Synchronous code (tests, examples, ``loadgen --spawn``) gets a bound
    ``port`` immediately and calls :meth:`stop` when done.
    """

    def __init__(self, server: AsyncCacheServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def shards(self) -> ShardSet:
        return self.server.shards

    @property
    def registry(self) -> Registry:
        return self.server.registry

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "AsyncServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_async_server(shards: ShardSet, host: str = "127.0.0.1",
                       port: int = 0, tracing=None) -> AsyncServerHandle:
    """Start a server over ``shards`` on a background thread.

    Returns once the socket is bound; the bound port is
    ``handle.port``.  Call ``handle.stop()`` to shut down.
    """
    server = AsyncCacheServer(shards, tracing=tracing)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    startup_error: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start(host, port))
        except BaseException as exc:  # noqa: BLE001 - surfaced to caller
            startup_error.append(exc)
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_forever()
            loop.run_until_complete(server.stop())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True,
                              name="repro-async-server")
    thread.start()
    ready.wait()
    if startup_error:
        raise startup_error[0]
    return AsyncServerHandle(server, loop, thread)
