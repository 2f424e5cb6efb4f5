"""``_Connection._serve`` against the event path it serves most lines without.

``_serve`` decodes and executes a plain ``get <key>...``, ``set <key>
<flags> <exptime> <bytes> [noreply]`` with its block buffered and
``delete <key> [noreply]`` in its own frame; every other line goes
through ``StreamDecoder.events()`` and ``AsyncCacheServer._execute``.
``Reference`` is that event path alone — the loop ``_serve`` ran before
it served lines itself — fed the same chunks.  Pipelined streams mixing
lines of both kinds, cut at arbitrary points, must produce the same
reply bytes, the same cache state and statistics, the same count of
commands per ``(verb, shard)`` latency histogram and the same sampled
spans.

The two ``TestNothingServedAfterClose`` tests are the bug both loops
had: ``quit`` and an answered ``SERVER_ERROR`` stopped the pass but left
the decoder open, so a read already queued behind them was executed.
"""

import asyncio

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import SizeClassConfig
from repro.core import PamaPolicy
from repro.obs import SpanTracer
from repro.server import ShardSet, protocol as p
from repro.server.async_server import AsyncCacheServer, _Connection
from tests.server.test_request_path import RecordingTransport, latency_counts

CLASSES = SizeClassConfig(slab_size=1024)
CAPACITY = 16 << 10
#: a key whose lookup raises: the command is answered SERVER_ERROR
BOOM = "boom"


def make_server(nshards: int) -> AsyncCacheServer:
    server = AsyncCacheServer(
        ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=nshards),
        tracing=SpanTracer(sample=0.5, seed=3, capacity=1024))
    for cache in server.shards.shards:
        def lookup(key, *args, _lookup=cache.lookup):
            if key == BOOM:
                raise RuntimeError("lookup failed")
            return _lookup(key, *args)
        cache.lookup = lookup
    return server


class Reference:
    """The event path alone: every line decoded by ``events()`` and run
    by ``_execute``, the decoder closed where the pass stops, the
    tracer's sample taken as that loop took it."""

    def __init__(self, server: AsyncCacheServer) -> None:
        self.server = server
        self.decoder = p.StreamDecoder(server.shards.max_item_size)
        self.written = bytearray()

    def receive(self, chunk: bytes) -> None:
        server, decoder, out = self.server, self.decoder, self.written
        decoder.feed(chunk)
        for event in decoder.events():
            if event[0] == p.EV_COMMAND:
                cmd = event[1]
                if isinstance(cmd, p.QuitCommand):
                    decoder.closed = True
                    break
                mark = len(out)
                try:
                    shard = server._execute(cmd, event[2], out)
                except Exception as exc:  # noqa: BLE001
                    # a failing command answers the error alone
                    server.c_server_errors.inc()
                    del out[mark:]
                    out += p.format_server_error(str(exc))
                    decoder.closed = True
                    break
                verb = p.verb_of(cmd)
                server.latency_histogram(verb, shard).record(0.0)
                tick = sum(cache.accesses for cache in server.shards.shards)
                if server.tracer.sampled(tick):
                    server.tracer.record_single(verb, tick, tick,
                                                duration_s=0.0, shard=shard)
            else:
                server.c_protocol_errors.inc()
                out += p.format_error(event[1])
                if event[0] == p.EV_FATAL:
                    break


def serve_chunks(server: AsyncCacheServer, chunks) -> RecordingTransport:
    """Hand ``chunks`` to one ``_Connection`` as a socket would: each
    through ``data_received``, served on the loop's next pass."""
    transport = RecordingTransport()

    async def deliver() -> None:
        conn = _Connection(server)
        conn.connection_made(transport)
        for chunk in chunks:
            conn.data_received(chunk)
            await asyncio.sleep(0)

    asyncio.run(deliver())
    return transport


# -- the streams -------------------------------------------------------------

KEYS = ["a", "b", "c", "k1", "x" * 250, "y" * 251, BOOM]
keys = st.sampled_from(KEYS)
#: small values and values about a slab (1024 bytes): the largest item,
#: an item too large once its key is added, a block too large to read
values = st.one_of(st.binary(max_size=40), st.sampled_from(
    [1000, 1020, 1024, 1025, 1100]).map(lambda n: b"v" * n))
#: flags a storage line may carry; "-1" and "zz" are drained errors
flag_fields = st.sampled_from(["0", "5", "70000", "+5", "1_0", "-1", "zz"])
exptimes = st.sampled_from(["0", "0", "100", "-1", "x"])
noreply = st.sampled_from(["", "", " noreply", " junk"])


@st.composite
def storage(draw) -> bytes:
    """A storage line and its block, framed as the line says."""
    key, value = draw(keys), draw(values)
    verb = draw(st.sampled_from(["set"] * 6 + ["SET", "add", "append"]))
    line = (f"{verb} {key} {draw(flag_fields)} {draw(exptimes)} "
            f"{len(value)}{draw(noreply)}")
    return line.encode() + b"\r\n" + value + b"\r\n"


@st.composite
def retrieval(draw) -> bytes:
    verb = draw(st.sampled_from(["get"] * 6 + ["GET", "gets"]))
    count = draw(st.sampled_from([1] * 5 + [0, 2, 3]))
    line = " ".join([verb] + [draw(keys) for _ in range(count)])
    return line.encode() + b"\r\n"


@st.composite
def deletion(draw) -> bytes:
    verb = draw(st.sampled_from(["delete"] * 4 + ["DELETE"]))
    return f"{verb} {draw(keys)}{draw(noreply)}\r\n".encode()


other = st.sampled_from([
    b"bogus a\r\n", b"get \xff\xfe\r\n", b"\r\n", b"  \r\n",
    b"incr a 1\r\n", b"touch a 10\r\n", b"version\r\n",
])
#: lines after which nothing more is served
last = st.sampled_from([
    b"quit\r\n", b"get " + b"z" * 8200 + b"\r\n",
    b"get a" + b" " * 8200 + b"\r\n",
    b"set a 0 0 -1\r\n", b"set a 0 0 zz\r\nab\r\n",
    b"set a 0 0 2\r\nabXY", b"set a 0 0 2\r\nabX\n",
    b"set a 0 0 2\r\nab\rY", b"set a 0 0 2\r\nabc\r\n",
])
commands = st.lists(
    st.one_of(storage(), storage(), storage(), retrieval(), retrieval(),
              retrieval(), deletion(), other), min_size=1, max_size=40)


def cut(stream: bytes, points: list[int]) -> list[bytes]:
    bounds = [0, *sorted(set(points)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def state(server: AsyncCacheServer) -> dict:
    shards = server.shards
    shards.check_invariants()
    for cache in shards.shards:
        cache.policy.check_ghost_sync()
    return {
        "stats": shards.stats_snapshot(),
        "items": [sorted(map(str, cache.index)) for cache in shards.shards],
        "values": [{str(k): (i.value, i.expires_at > 0, i.cas)
                    for k, i in cache.index.items()}
                   for cache in shards.shards],
        "slabs_free": shards.slabs_free,
        "latency": latency_counts(server.registry),
        "protocol_errors": server.c_protocol_errors.value,
        "server_errors": server.c_server_errors.value,
        "spans": [(span.name, span.start_tick, span.attrs["shard"])
                  for (span,) in server.tracer.traces()],
    }


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=commands, end=st.one_of(st.just(b""), last),
       nshards=st.sampled_from([1, 4]), data=st.data())
def test_the_frame_serves_what_the_event_path_serves(lines, end, nshards,
                                                     data):
    lines.insert(data.draw(st.integers(0, len(lines))), end)
    stream = b"".join(lines)
    chunks = cut(stream, data.draw(
        st.lists(st.integers(1, max(1, len(stream) - 1)), max_size=8)))

    server = make_server(nshards)
    transport = serve_chunks(server, chunks)
    reference = Reference(make_server(nshards))
    for chunk in chunks:
        reference.receive(chunk)

    assert bytes(transport.written) == bytes(reference.written)
    assert transport.closed == reference.decoder.closed
    assert state(server) == state(reference.server)


def test_the_frame_takes_the_plain_lines_and_nothing_else():
    """The lines the frame serves reach no parser; the others do."""
    server = make_server(1)
    parsed = []
    events = p.StreamDecoder.events

    def counted(self):
        for event in events(self):
            parsed.append(event)
            yield event

    plain = (b"set a 0 0 1\r\nx\r\nset b 5 100 2 noreply\r\nyy\r\n"
             b"get a\r\nget b\r\ndelete a\r\ndelete b noreply\r\nget a\r\n")
    p.StreamDecoder.events = counted
    try:
        transport = serve_chunks(server, [plain])
        assert parsed == []
        assert transport.written == (b"STORED\r\nVALUE a 0 1\r\nx\r\nEND\r\n"
                                     b"VALUE b 5 2\r\nyy\r\nEND\r\n"
                                     b"DELETED\r\nEND\r\n")
        serve_chunks(server, [b"GET a\r\ngets a\r\nget a b\r\nget a\r\n"])
    finally:
        p.StreamDecoder.events = events
    assert [(type(e[1]).__name__, e[1].keys) for e in parsed] \
        == [("GetCommand", ("a",))] * 2


# -- the bug ---------------------------------------------------------------

class TestNothingServedAfterClose:
    def test_after_quit(self):
        server = make_server(1)
        transport = serve_chunks(
            server, [b"quit\r\nset k 0 0 1\r\nx\r\n", b"get k\r\n"])
        assert transport.written == b""
        assert transport.closed
        assert server.shards.items == 0
        assert latency_counts(server.registry) == {}

    def test_after_server_error(self):
        server = make_server(1)
        transport = serve_chunks(
            server, [b"get boom\r\nset k 0 0 1\r\nx\r\n", b"get k\r\n"])
        assert transport.written == b"SERVER_ERROR lookup failed\r\n"
        assert transport.closed
        assert server.shards.items == 0
        assert server.c_server_errors.value == 1
