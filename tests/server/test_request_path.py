"""The async server's request path against the loop it replaced.

``ReferenceConnection`` is the body of the StreamReader/StreamWriter
front end's ``_handle`` coroutine and its ``_execute`` — decode, route
with ``shard_of`` once to execute and once more to label, look the verb
up with an isinstance chain, record the histogram — kept here without
its sockets.  The Protocol front end must send the same bytes, perform
the same cache operations in the same order and count every command
under the same ``(cmd, shard)``.

The stream has the shape of the benchmark's ``serve-miss-mixed``: a
``zippydb`` slice (values to 40 KB), a closed loop of 2 connections x
pipeline 16 taking turns, cache-aside (a missed GET is followed by a
SET of its value at the head of that connection's next batch), against
a cache small enough to evict and to migrate slabs.
"""

import asyncio
import socket
import time

import pytest

from repro.cache import SizeClassConfig
from repro.core import PamaPolicy
from repro.obs import EventTrace, Registry
from repro.server import ShardSet, protocol as p, shard_of, start_async_server
from repro.server.async_server import AsyncCacheServer, _Connection
from repro.server.shard import (INCR_STORE_FAILED_MSG, STORE_FAILED,
                                apply_incr_decr, apply_storage)
from repro.traces import get_profile
from repro.traces.synthetic import SyntheticTraceGenerator

CLASSES = SizeClassConfig(slab_size=64 << 10)
CAPACITY = 12 << 20
ROWS = 12_000
CONNECTIONS, PIPELINE = 2, 16
GET, SET, DELETE = 0, 1, 2
#: what a loopback socket delivers of a batch larger than one segment
SEGMENT = 65483


# -- the reference ---------------------------------------------------------

def reference_verb_of(cmd) -> str:
    if isinstance(cmd, p.SetCommand):
        return cmd.verb
    if isinstance(cmd, p.GetCommand):
        return "gets" if cmd.with_cas else "get"
    if isinstance(cmd, p.IncrDecrCommand):
        return "decr" if cmd.decrement else "incr"
    return {p.DeleteCommand: "delete", p.TouchCommand: "touch",
            p.FlushAllCommand: "flush_all", p.StatsCommand: "stats",
            p.VersionCommand: "version"}.get(type(cmd), "other")


class ReferenceConnection:
    def __init__(self, shards: ShardSet, registry: Registry) -> None:
        self.shards = shards
        self.registry = registry
        self.decoder = p.StreamDecoder()
        self.closed = False

    def shard_label(self, cmd) -> str:
        key = getattr(cmd, "key", None)
        if key is None:
            keys = getattr(cmd, "keys", None)
            if not keys:
                return "-"
            key = keys[0]
        return str(shard_of(key, self.shards.nshards))

    def receive(self, chunk: bytes) -> bytes:
        """One pass of the old ``while True`` loop: feed, execute every
        decoded command, return what ``writer.write`` was given."""
        self.decoder.feed(chunk)
        out = bytearray()
        for event in self.decoder.events():
            tag = event[0]
            if tag == p.EV_COMMAND:
                cmd = event[1]
                if isinstance(cmd, p.QuitCommand):
                    self.closed = True
                    break
                started = time.perf_counter()
                self.execute(cmd, event[2], out)
                elapsed = time.perf_counter() - started
                self.registry.histogram(
                    "server_cmd_latency_seconds",
                    "wall-clock time to serve one command", lo=1e-7,
                    growth=1.5, cmd=reference_verb_of(cmd),
                    shard=self.shard_label(cmd)).record(elapsed)
            elif tag == p.EV_ERROR:
                out += p.format_error(event[1])
            else:
                out += p.format_error(event[1])
                self.closed = True
                break
        return bytes(out)

    def execute(self, cmd, data, out: bytearray) -> None:
        shards = self.shards
        if isinstance(cmd, p.GetCommand):
            for key in cmd.keys:
                cache = shards.shards[shard_of(key, shards.nshards)]
                item = cache.get(key)
                if item is not None and item.value is not None:
                    flags, vdata = item.value
                    out += p.format_value(
                        key, flags, vdata,
                        cas=cache.cas_unique(item) if cmd.with_cas else None)
            out += p.format_get_tail()
            return
        if isinstance(cmd, p.VersionCommand):
            out += p.format_version("reference")
            return
        cache = shards.shards[shard_of(cmd.key, shards.nshards)]
        if isinstance(cmd, p.SetCommand):
            reply = apply_storage(cache, cmd, data)
        elif isinstance(cmd, p.IncrDecrCommand):
            result = apply_incr_decr(cache, cmd)
            if result is None:
                reply = p.format_not_found()
            elif result is STORE_FAILED:
                reply = p.format_server_error(INCR_STORE_FAILED_MSG)
            elif isinstance(result, bytes):
                reply = p.format_error(result.decode())
            else:
                reply = p.format_number(result)
        elif isinstance(cmd, p.DeleteCommand):
            reply = p.format_deleted(cache.delete(cmd.key))
        else:
            assert isinstance(cmd, p.TouchCommand), cmd
            reply = p.format_touched(cache.touch(
                cmd.key, p.resolve_exptime(cmd.exptime, cache.clock())))
        if not cmd.noreply:
            out += reply


# -- the new path, without sockets ------------------------------------------

class RecordingTransport:
    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False

    def write(self, data) -> None:
        self.written += data

    def close(self) -> None:
        self.closed = True


class ProtocolConnection:
    """A ``_Connection`` on a loop of its own, fed by hand."""

    def __init__(self, server: AsyncCacheServer, loop) -> None:
        self.loop = loop
        self.transport = RecordingTransport()
        self.conn = _Connection(server)
        self.conn.connection_made(self.transport)

    async def _deliver(self, chunk: bytes) -> None:
        self.conn.data_received(chunk)
        await asyncio.sleep(0)  # the pass on which the chunk is served

    def receive(self, chunk: bytes) -> bytes:
        self.loop.run_until_complete(self._deliver(chunk))
        out = bytes(self.transport.written)
        del self.transport.written[:]
        return out

    @property
    def closed(self) -> bool:
        return self.transport.closed


# -- the stream ------------------------------------------------------------

class Stream:
    def __init__(self, rows: int, seed: int = 1) -> None:
        profile = get_profile("zippydb").scaled(0.1)
        trace = SyntheticTraceGenerator(profile, seed=seed).generate(rows)
        self.ops = trace.ops.tolist()
        self.keys = [b"k%d" % k for k in trace.keys.tolist()]
        self.sizes = trace.value_sizes.tolist()
        self.flags = [min(int(round(x * 1e6)), 0xFFFFFFFF)
                      for x in trace.penalties.tolist()]
        self.filler = bytes(97 + (i * 2654435761 >> 7) % 26
                            for i in range(max(self.sizes) + 4096))

    def value(self, row: int) -> bytes:
        start = int(self.keys[row][1:]) % 4096
        return self.filler[start:start + self.sizes[row]]

    def wire(self, row: int, fill: bool = False) -> bytes:
        if fill or self.ops[row] == SET:
            return b"set %b %d 0 %d\r\n%b\r\n" % (
                self.keys[row], self.flags[row], self.sizes[row],
                self.value(row))
        verb = b"get" if self.ops[row] == GET else b"delete"
        return b"%b %b\r\n" % (verb, self.keys[row])


def missed_rows(reply: bytes, expect: list[tuple[int, int]]) -> list[int]:
    """Rows of ``expect`` (``(op, row)`` in request order, fills as SET)
    whose GET came back empty; asserts the reply is well formed."""
    pos, missed = 0, []
    for op, row in expect:
        end = reply.index(b"\r\n", pos)
        line = reply[pos:end]
        pos = end + 2
        if op != GET:
            assert line in (b"STORED", b"DELETED", b"NOT_FOUND"), line
        elif line == b"END":
            missed.append(row)
        else:
            nbytes = int(line.split()[3])
            assert reply[pos + nbytes:pos + nbytes + 7] == b"\r\nEND\r\n"
            pos += nbytes + 7
    assert pos == len(reply)
    return missed


def drive(stream: Stream, connections) -> list[bytes]:
    """The benchmark driver's closed loop; returns every batch's reply."""
    carry: list[list[int]] = [[] for _ in connections]
    replies = []
    batches = [range(a, min(a + PIPELINE, len(stream.ops)))
               for a in range(0, len(stream.ops), PIPELINE)]
    for step, rows in enumerate(batches):
        which = step % len(connections)
        expect = [(SET, row) for row in carry[which]]
        wire = [stream.wire(row, fill=True) for row in carry[which]]
        expect += [(stream.ops[row], row) for row in rows]
        wire += [stream.wire(row) for row in rows]
        data = b"".join(wire)
        reply = b"".join(connections[which].receive(data[at:at + SEGMENT])
                         for at in range(0, len(data), SEGMENT))
        carry[which] = missed_rows(reply, expect)
        replies.append(reply)
    return replies


def latency_counts(registry: Registry) -> dict:
    return {m.labels: m.count for m in registry.collect()
            if m.name == "server_cmd_latency_seconds"}


@pytest.fixture(scope="module")
def stream() -> Stream:
    return Stream(ROWS)


@pytest.mark.parametrize("nshards", [1, 4])
def test_protocol_path_matches_the_stream_loop(stream, nshards):
    old_shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=nshards)
    old_registry = Registry()
    old_shards.attach_obs(old_registry, EventTrace())
    expected = drive(stream, [ReferenceConnection(old_shards, old_registry)
                              for _ in range(CONNECTIONS)])

    new_shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=nshards)
    server = AsyncCacheServer(new_shards)
    loop = asyncio.new_event_loop()
    try:
        actual = drive(stream, [ProtocolConnection(server, loop)
                                for _ in range(CONNECTIONS)])
    finally:
        loop.close()

    assert actual == expected
    stats = new_shards.stats_snapshot()
    assert stats == old_shards.stats_snapshot()
    # the stream does what the benchmark's does: misses, fills,
    # evictions and slab migrations
    assert stats["misses"] > 0 and stats["evictions"] > 0
    assert stats["migrations"] > 0
    assert latency_counts(server.registry) == latency_counts(old_registry)
    gets = sum(count for labels, count in latency_counts(
        server.registry).items() if dict(labels)["cmd"] == "get")
    assert gets == stream.ops.count(GET)
    assert stats["gets"] == sum(latency_counts(server.registry).values()) \
        - stream.ops.count(DELETE)  # every SET probes before it stores
    assert new_shards.items == old_shards.items
    assert new_shards.slabs_free == old_shards.slabs_free
    new_shards.check_invariants()


def test_admin_and_error_events_match_the_stream_loop():
    script = (b"version\r\nbogus\r\nset k bad 0 3\r\nabc\r\n"
              b"set n 0 0 1\r\n5\r\nincr n 2\r\ntouch n 10\r\n"
              b"get n missing\r\ngets n\r\ndelete n noreply\r\n"
              b"set k 0 0 zzz\r\nversion\r\n")
    old_shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=4)
    old_registry = Registry()
    reference = ReferenceConnection(old_shards, old_registry)
    expected = reference.receive(script)

    server = AsyncCacheServer(ShardSet(CAPACITY, PamaPolicy, CLASSES,
                                       nshards=4))
    loop = asyncio.new_event_loop()
    try:
        connection = ProtocolConnection(server, loop)
        actual = connection.receive(script)
    finally:
        loop.close()
    # VERSION carries the package version; everything after it is equal
    assert actual.split(b"\r\n", 1)[1] == expected.split(b"\r\n", 1)[1]
    assert connection.closed and reference.closed  # the fatal set line
    assert latency_counts(server.registry) == latency_counts(old_registry)
    assert server.c_protocol_errors.value == 3


# -- back-pressure ---------------------------------------------------------

def wait_until(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def test_client_that_stops_reading_stops_being_read():
    """A client pipelines GETs of a large value and never reads.  Once
    its unsent replies pass the transport's high-water mark the server
    stops reading it: what is buffered for it stays within that mark
    plus the replies of the batches read before the pause, however much
    more it sends, and other connections are served meanwhile."""
    value = b"v" * (60 << 10)
    batch = b"get big\r\n" * PIPELINE
    batch_reply = PIPELINE * (len(value) + 64)
    shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=4)
    handle = start_async_server(shards)
    transports = handle.server._transports
    try:
        with socket.create_connection(("127.0.0.1", handle.port)) as polite, \
                socket.socket() as greedy:
            reader = polite.makefile("rb")
            polite.sendall(b"set big 0 0 %d\r\n%b\r\n" % (len(value), value))
            assert reader.readline() == b"STORED\r\n"
            (polite_transport,) = transports
            greedy.connect(("127.0.0.1", handle.port))
            assert wait_until(lambda: len(transports) == 2)
            (transport,) = transports - {polite_transport}

            def gets_served() -> int:
                return sum(latency_counts(handle.registry).values()) - 1

            def stuck() -> bool:
                """Paused, and the socket takes no more of the buffer."""
                before = transport.get_write_buffer_size()
                time.sleep(0.05)
                return (not transport.is_reading()
                        and transport.get_write_buffer_size() == before)

            # one batch at a time, each served before the next is sent,
            # so a batch is never split or merged by the socket
            sent = 0
            while not stuck():
                if transport.is_reading():
                    assert sent < 200, "the server never stopped reading"
                    greedy.sendall(batch)
                    sent += 1
                    assert wait_until(
                        lambda: gets_served() == sent * PIPELINE)
            low, high = transport.get_write_buffer_limits()
            buffered = transport.get_write_buffer_size()
            assert low < buffered <= high + batch_reply

            # whatever else it sends is left in the socket
            greedy.setblocking(False)
            try:
                for _ in range(50):
                    greedy.send(batch)
            except BlockingIOError:
                pass
            served = gets_served()
            polite.sendall(b"get big\r\n" + b"delete big\r\n")
            assert reader.readline().startswith(b"VALUE big 0 ")
            assert reader.read(len(value) + 2) == value + b"\r\n"
            assert reader.readline() == b"END\r\n"
            assert reader.readline() == b"DELETED\r\n"
            assert gets_served() == served + 2
            assert not transport.is_reading()
            assert transport.get_write_buffer_size() <= buffered
    finally:
        handle.stop()
