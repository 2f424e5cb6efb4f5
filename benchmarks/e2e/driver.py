"""The benchmark's own load driver for the serving workload.

One process, one thread, :data:`CONNECTIONS` connections with
:data:`PIPELINE` requests in flight on each, **closed loop**: a
connection's next batch goes out only after every reply of its previous
one has been parsed and checked.  Batches alternate strictly between
the connections, so the server sees the same request order on every
run.  The driver is cache-aside: a GET miss is followed (at the head of
the connection's next batch) by a SET of the row's value whose
``flags`` carry the row's penalty in microseconds; those fill SETs are
not counted as operations.
"""

from __future__ import annotations

import socket
import time

import timebase
from host import proc_cpu_s

CONNECTIONS = 2
PIPELINE = 16
TIMEOUT_S = 10.0
FILLER_SPAN = 4096
GET, SET, DELETE, FILL = 0, 1, 2, 3

HIT, MISS, LINE, STATS = "hit", "miss", "line", "stats"
_MISS_REPLY = (MISS,)


def make_filler(max_value: int) -> bytes:
    """Deterministic lowercase bytes; a value is a slice of it that
    starts at an offset taken from the key, so a reply that carries
    another key's value (or a shifted one) fails the check."""
    return bytes(97 + (i * 2654435761 >> 7) % 26
                 for i in range(max_value + FILLER_SPAN))


def canned_hit(key: int) -> bool:
    """The echo server's fixed answer to ``get`` of ``key`` (~70% hits)."""
    return (key * 2654435761 >> 16) % 100 < 70


class Requests:
    """Trace rows pre-encoded as memcached text requests."""

    def __init__(self, ops, keys, value_sizes, penalties) -> None:
        self.kind = ops
        self.keys = keys
        self.size = value_sizes
        self.offset = [k % FILLER_SPAN for k in keys]
        self.filler = make_filler(max(value_sizes, default=0))
        self.key = [b"k%d" % k for k in keys]
        #: penalty of a missed GET, seconds (the paper's service cost)
        self.penalty = penalties
        self.line: list[bytes] = []      # get / delete line, or set header
        self.fill: list[bytes] = []      # set header of a GET's fill
        for op, key, size, penalty in zip(ops, self.key, value_sizes,
                                          penalties):
            flags = min(int(round(penalty * 1e6)), 0xFFFFFFFF)
            header = b"set %b %d 0 %d\r\n" % (key, flags, size)
            if op == GET:
                self.line.append(b"get %b\r\n" % key)
                self.fill.append(header)
            elif op == SET:
                self.line.append(header)
                self.fill.append(b"")
            else:
                self.line.append(b"delete %b\r\n" % key)
                self.fill.append(b"")

    def __len__(self) -> int:
        return len(self.kind)

    def value(self, row: int) -> bytes:
        start = self.offset[row]
        return self.filler[start:start + self.size[row]]

    def wire(self, row: int, fill: bool = False) -> bytes:
        """The bytes that go on the socket for ``row``."""
        if fill:
            return self.fill[row] + self.value(row) + b"\r\n"
        if self.kind[row] == SET:
            return self.line[row] + self.value(row) + b"\r\n"
        return self.line[row]


class ProtocolViolation(Exception):
    """The reply stream cannot be a memcached text reply stream."""


class ReplyParser:
    """Incremental parser for the replies the driver can receive.

    :meth:`next` returns one complete reply — ``(HIT, key, flags,
    data)``, ``(MISS,)``, ``(LINE, line)`` or ``(STATS, dict)`` — or
    ``None`` when the buffer holds no complete reply yet; whatever the
    chunk boundaries of :meth:`feed`, the reply sequence is the same.
    """

    def __init__(self) -> None:
        self.buf = bytearray()
        self.pos = 0

    def feed(self, data: bytes) -> None:
        self.buf += data

    def _advance(self, pos: int) -> None:
        if pos == len(self.buf):
            del self.buf[:]
            self.pos = 0
        else:
            self.pos = pos

    def next(self):
        buf, pos = self.buf, self.pos
        nl = buf.find(b"\r\n", pos)
        if nl < 0:
            return None
        line = bytes(buf[pos:nl])
        if line.startswith(b"VALUE "):
            parts = line.split()
            if len(parts) < 4:
                raise ProtocolViolation(f"bad VALUE line {line!r}")
            end = nl + 2 + int(parts[3])
            if len(buf) < end + 7:
                return None
            if buf[end:end + 7] != b"\r\nEND\r\n":
                raise ProtocolViolation("VALUE block not closed by END")
            data = bytes(buf[nl + 2:end])
            self._advance(end + 7)
            return (HIT, parts[1], int(parts[2]), data)
        if line == b"END":
            self._advance(nl + 2)
            return _MISS_REPLY
        if line.startswith(b"STAT "):
            stats = {}
            while True:
                nl = buf.find(b"\r\n", pos)
                if nl < 0:
                    return None
                line = bytes(buf[pos:nl])
                pos = nl + 2
                if line == b"END":
                    break
                _, name, value = line.split(b" ", 2)
                stats[name.decode()] = value.decode()
            self._advance(pos)
            return (STATS, stats)
        self._advance(nl + 2)
        return (LINE, line)


class DriverAbort(Exception):
    """Timeout, closed connection or unparseable reply: the run stops."""


class Driver:
    """Closed-loop driver over ``CONNECTIONS`` sockets."""

    def __init__(self, requests: Requests, port: int, spans) -> None:
        self.req = requests
        self.spans = spans
        self.socks = []
        self.parsers = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            self.parsers.append(ReplyParser())
        #: per connection: rows whose GET missed and still need a fill
        self.carry: list[list[int]] = [[] for _ in range(CONNECTIONS)]
        #: per connection: (span id, send time, [(kind, row)]) in flight
        self.inflight: list = [None] * CONNECTIONS
        self.gets = self.hits = self.sets = self.fills = 0
        self.deletes = 0
        self.failed = 0           # counted ops with a wrong reply
        self.bad_fills = 0        # fill SETs not answered STORED
        self.miss_penalty = 0.0   # sum of penalties of missed GETs, s
        self.wait_s = 0.0         # time blocked in recv
        self._parse_span = -1     # parent of the driver.wait spans

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    # -- one batch -----------------------------------------------------
    def _send(self, conn: int, rows: range, parent: int) -> None:
        req = self.req
        started = time.perf_counter()
        span = self.spans.begin("driver.batch", started, parent)
        expect = [(FILL, row) for row in self.carry[conn]]
        out = [req.wire(row, fill=True) for row in self.carry[conn]]
        self.carry[conn] = []
        kind = req.kind
        for row in rows:
            expect.append((kind[row], row))
            out.append(req.wire(row))
        self.socks[conn].sendall(b"".join(out))
        self.spans.add("driver.send", started, time.perf_counter(), span,
                       requests=len(out))
        self.inflight[conn] = (span, started, expect)

    def _reply(self, conn: int):
        """Next reply on ``conn``, receiving as needed."""
        parser = self.parsers[conn]
        perf = time.perf_counter
        while True:
            try:
                reply = parser.next()
            except (ProtocolViolation, ValueError) as exc:
                raise DriverAbort(f"unparseable reply: {exc}") from exc
            if reply is not None:
                return reply
            started = perf()
            try:
                data = self.socks[conn].recv(1 << 18)
            except OSError as exc:  # includes socket.timeout
                raise DriverAbort(f"recv failed: {exc}") from exc
            ended = perf()
            self.wait_s += ended - started
            self.spans.add("driver.wait", started, ended, self._parse_span)
            if not data:
                raise DriverAbort("server closed the connection")
            parser.feed(data)

    def _collect(self, conn: int) -> float:
        """Receive and check every reply of the in-flight batch;
        returns the batch's round-trip latency."""
        span, sent, expect = self.inflight[conn]
        self.inflight[conn] = None
        req = self.req
        started = time.perf_counter()
        self._parse_span = self.spans.begin("driver.parse", started, span)
        for kind, row in expect:
            reply = self._reply(conn)
            tag = reply[0]
            if kind == GET:
                self.gets += 1
                if tag == HIT:
                    if reply[1] == req.key[row] and reply[3] == req.value(row):
                        self.hits += 1
                    else:
                        self.failed += 1
                elif tag == MISS:
                    self.miss_penalty += req.penalty[row]
                    self.carry[conn].append(row)
                else:
                    self.failed += 1
            elif kind == DELETE:
                self.deletes += 1
                if tag != LINE or reply[1] not in (b"DELETED", b"NOT_FOUND"):
                    self.failed += 1
            else:
                stored = tag == LINE and reply[1] == b"STORED"
                if kind == SET:
                    self.sets += 1
                    self.failed += not stored
                else:
                    self.fills += 1
                    self.bad_fills += not stored
        ended = time.perf_counter()
        self.spans.finish(self._parse_span, ended, replies=len(expect))
        self.spans.finish(span, ended, rows=len(expect))
        return ended - sent

    # -- a phase -------------------------------------------------------
    def run(self, start: int, stop: int, rounds: int, server_pid: int,
            parent: int = -1) -> list[timebase.Round]:
        """Drive rows ``[start, stop)``; returns the phase's rounds.

        A round's wall time runs from its first send to the next
        round's first send (the last one to the last reply), and its
        CPU is the *server's*, read from /proc at the same instants.
        """
        batches = [range(a, min(a + PIPELINE, stop))
                   for a in range(start, stop, PIPELINE)]
        bounds = timebase.split_rounds(len(batches), rounds)
        starts = {lo: i for i, (lo, _) in enumerate(bounds)}
        out = [timebase.Round(rows=sum(len(batches[b]) for b in range(lo, hi)),
                              wall_s=0.0, cpu_s=0.0)
               for lo, hi in bounds]
        perf = time.perf_counter
        owner: list = [None] * CONNECTIONS    # round of the batch in flight
        marks = []
        current = 0
        for step in range(len(batches) + CONNECTIONS):
            conn = step % CONNECTIONS
            if self.inflight[conn] is not None:
                out[owner[conn]].latencies_s.append(self._collect(conn))
            if step < len(batches):
                if step in starts:
                    current = starts[step]
                    marks.append((perf(), proc_cpu_s(server_pid)))
                owner[conn] = current
                self._send(conn, batches[step], parent)
        marks.append((perf(), proc_cpu_s(server_pid)))
        for i, r in enumerate(out):
            r.wall_s = marks[i + 1][0] - marks[i][0]
            r.cpu_s = marks[i + 1][1] - marks[i][1]
        return out

    def flush_fills(self) -> None:
        """Send the fills still owed after the last batch."""
        for conn in range(CONNECTIONS):
            if self.carry[conn]:
                self._send(conn, range(0), -1)
                self._collect(conn)

    def command(self, line: bytes):
        """One admin command (``stats``) on connection 0."""
        self.socks[0].sendall(line + b"\r\n")
        self._parse_span = -1
        return self._reply(0)
