"""Differential testing: the server against committed reply transcripts.

Each script is a raw byte stream sent over a fresh connection; the
complete reply stream (read to EOF) must be **byte-identical** to the
transcript written under it.  The transcripts are the replies of the
thread-per-connection server this package used to ship (one cache, one
global cas counter, a blocking ``readline`` per command), recorded
before it was retired.  Unlike a live reference server, a transcript
shares no parser, storage semantics or reply formatting with the
server under test, so a defect in that shared code fails here too.
At ``shards=4`` cas ids are allocated per shard and legitimately differ
from one global counter's: the ``gets`` script masks them there.
"""

import re
import socket

import pytest

from repro import __version__
from repro.cache import SizeClassConfig
from repro.core import PamaPolicy
from repro.server import ShardSet, start_async_server

CLASSES = SizeClassConfig(slab_size=64 << 10)
CAPACITY = 8 << 20

VERSION = b"VERSION repro-pama/%b\r\n" % __version__.encode()


def replay(port: int, script: bytes, chunk: int = 0) -> bytes:
    """Send ``script`` on a fresh connection; return all reply bytes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        if chunk:
            for i in range(0, len(script), chunk):
                sock.sendall(script[i:i + chunk])
        else:
            sock.sendall(script)
        sock.shutdown(socket.SHUT_WR)
        reply = bytearray()
        while True:
            data = sock.recv(65536)
            if not data:
                return bytes(reply)
            reply += data


def differential(script: bytes, expected: bytes, nshards: int,
                 chunk: int = 0, mask_cas: bool = False) -> None:
    shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=nshards)
    handle = start_async_server(shards)
    try:
        actual = replay(handle.port, script, chunk=chunk)
    finally:
        handle.stop()
    if mask_cas:
        # VALUE <key> <flags> <bytes> <cas> -> cas id blanked
        blank = re.compile(rb"(VALUE \S+ \d+ \d+) \d+\r\n")
        expected = blank.sub(rb"\1 *\r\n", expected)
        actual = blank.sub(rb"\1 *\r\n", actual)
    assert actual == expected


BASIC_SCRIPT = (
    b"version\r\n"
    b"set alpha 7 0 3\r\nabc\r\n"
    b"get alpha\r\n"
    b"get alpha beta\r\n"
    b"add alpha 0 0 1\r\nx\r\n"
    b"replace alpha 9 0 5\r\nhello\r\n"
    b"append alpha 0 0 5\r\n-tail\r\n"
    b"prepend alpha 0 0 4\r\npre-\r\n"
    b"get alpha\r\n"
    b"delete alpha\r\n"
    b"delete alpha\r\n"
    b"get alpha\r\n"
    b"quit\r\n"
)
BASIC_REPLY = (
    VERSION
    + b"STORED\r\n"
    b"VALUE alpha 7 3\r\nabc\r\nEND\r\n"
    b"VALUE alpha 7 3\r\nabc\r\nEND\r\n"
    b"NOT_STORED\r\n"
    b"STORED\r\n"
    b"STORED\r\n"
    b"STORED\r\n"
    b"VALUE alpha 9 14\r\npre-hello-tail\r\nEND\r\n"
    b"DELETED\r\n"
    b"NOT_FOUND\r\n"
    b"END\r\n"
)

NUMERIC_SCRIPT = (
    b"set n 0 0 2\r\n10\r\n"
    b"incr n 5\r\n"
    b"decr n 100\r\n"
    b"incr n 18446744073709551615\r\n"
    b"incr missing 1\r\n"
    b"set word 0 0 3\r\nfoo\r\n"
    b"incr word 1\r\n"
    b"set padded 0 0 4\r\n+10 \r\n"
    b"incr padded 1\r\n"
    b"quit\r\n"
)
NUMERIC_REPLY = (
    b"STORED\r\n"
    b"15\r\n"
    b"0\r\n"
    b"18446744073709551615\r\n"
    b"NOT_FOUND\r\n"
    b"STORED\r\n"
    b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
    b"STORED\r\n"
    b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
)

NOREPLY_SCRIPT = (
    b"set a 0 0 1 noreply\r\nx\r\n"
    b"set b 0 0 1 noreply\r\ny\r\n"
    b"delete a noreply\r\n"
    b"incr q 1 noreply\r\n"
    b"get a b\r\n"
    b"flush_all noreply\r\n"
    b"get b\r\n"
    b"quit\r\n"
)
NOREPLY_REPLY = (
    b"VALUE b 0 1\r\ny\r\nEND\r\n"
    b"END\r\n"
)

CAS_SCRIPT = (
    b"set k 0 0 2\r\nv1\r\n"
    b"gets k\r\n"
    b"cas k 0 0 2 1\r\nv2\r\n"
    b"cas k 0 0 2 1\r\nv3\r\n"
    b"cas missing 0 0 1 7\r\nz\r\n"
    b"gets k\r\n"
    b"quit\r\n"
)
CAS_REPLY = (
    b"STORED\r\n"
    b"VALUE k 0 2 1\r\nv1\r\nEND\r\n"
    b"STORED\r\n"
    b"EXISTS\r\n"
    b"NOT_FOUND\r\n"
    b"VALUE k 0 2 2\r\nv2\r\nEND\r\n"
)

ERROR_SCRIPT = (
    b"bogus command\r\n"
    b"set k bad 0 7\r\nget k\r\n\r\n"   # recoverable: data block drained
    b"version\r\n"
    b"get\r\n"
    b"incr k notanumber\r\n"
    b"quit\r\n"
)
ERROR_REPLY = (
    b"CLIENT_ERROR unknown command 'bogus'\r\n"
    b"CLIENT_ERROR set numeric fields must be integers\r\n"
    + VERSION
    + b"CLIENT_ERROR get expects at least one key\r\n"
    b"CLIENT_ERROR incr delta must be an unsigned decimal integer\r\n"
)

FATAL_SCRIPT = (
    b"set ok 0 0 1\r\nx\r\n"
    b"set k 0 0 zzz\r\n"                # unknowable count: must close
    b"version\r\n"                      # never answered
)
FATAL_REPLY = (
    b"STORED\r\n"
    b"CLIENT_ERROR set numeric fields must be integers\r\n"
)

TOUCH_SCRIPT = (
    b"set k 3 0 5\r\nhello\r\n"
    b"touch k 100\r\n"
    b"touch missing 100\r\n"
    b"get k\r\n"
    b"quit\r\n"
)
TOUCH_REPLY = (
    b"STORED\r\n"
    b"TOUCHED\r\n"
    b"NOT_FOUND\r\n"
    b"VALUE k 3 5\r\nhello\r\nEND\r\n"
)

BINARY_SCRIPT = (
    b"set bin 0 0 12\r\na\r\nEND\r\nb\r\n\r\n"
    b"get bin\r\n"
    b"quit\r\n"
)
# the block is 12 bytes, so its trailer is "b\r": framing is lost and
# the connection closes after the error
BINARY_REPLY = b"CLIENT_ERROR bad data chunk\r\n"

# one byte more than a 64 KiB slab holds: answered SERVER_ERROR once the
# block has gone by, and the payload (which spells commands) is not run
_TOO_BIG = (b"flush_all\r\n" * 5958)[:(64 << 10) + 1]
OVERSIZED_SCRIPT = (
    b"set big 0 0 %d\r\n%b\r\n" % (len(_TOO_BIG), _TOO_BIG)
    + b"get big\r\n"
    b"set big 0 0 %d noreply\r\n%b\r\n" % (len(_TOO_BIG), _TOO_BIG)
    + b"set fits 0 0 %d\r\n%b\r\n" % (60 << 10, _TOO_BIG[:60 << 10])
    + b"version\r\n"
    b"quit\r\n"
)
OVERSIZED_REPLY = (
    b"SERVER_ERROR object too large for cache\r\n"
    b"END\r\n"
    b"STORED\r\n"
    + VERSION
)

MANY_KEYS_SCRIPT = (
    b"".join(b"set key-%d 0 0 4\r\nv%03d\r\n" % (i, i) for i in range(60))
    + b"".join(b"get key-%d\r\n" % i for i in range(60))
    + b"quit\r\n"
)
MANY_KEYS_REPLY = (
    b"STORED\r\n" * 60
    + b"".join(b"VALUE key-%d 0 4\r\nv%03d\r\nEND\r\n" % (i, i)
               for i in range(60))
)


class TestSingleShardByteIdentical:
    """shards=1: the full protocol, cas ids included, byte for byte."""

    @pytest.mark.parametrize("script,expected", [
        (BASIC_SCRIPT, BASIC_REPLY), (NUMERIC_SCRIPT, NUMERIC_REPLY),
        (NOREPLY_SCRIPT, NOREPLY_REPLY), (CAS_SCRIPT, CAS_REPLY),
        (ERROR_SCRIPT, ERROR_REPLY), (FATAL_SCRIPT, FATAL_REPLY),
        (TOUCH_SCRIPT, TOUCH_REPLY), (BINARY_SCRIPT, BINARY_REPLY),
        (OVERSIZED_SCRIPT, OVERSIZED_REPLY),
    ], ids=["basic", "numeric", "noreply", "cas", "error", "fatal",
            "touch", "binary", "oversized"])
    def test_replies_match(self, script, expected):
        differential(script, expected, nshards=1)

    def test_chunked_send_equals_one_shot(self):
        # drip-feed the bytes: the incremental decoder must produce the
        # transcript the blocking readline server produced (the first
        # script's quit is dropped, or nothing after it is answered)
        differential(BASIC_SCRIPT.removesuffix(b"quit\r\n") + NUMERIC_SCRIPT,
                     BASIC_REPLY + NUMERIC_REPLY, nshards=1, chunk=3)

    def test_error_script_chunked(self):
        differential(ERROR_SCRIPT, ERROR_REPLY, nshards=1, chunk=5)

    def test_oversized_reply(self):
        shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=1)
        handle = start_async_server(shards)
        try:
            reply = replay(handle.port, OVERSIZED_SCRIPT, chunk=4096)
        finally:
            handle.stop()
        assert reply == OVERSIZED_REPLY
        assert shards.stats_snapshot()["sets"] == 1


class TestMultiShard:
    """shards=4: the same transcripts, modulo per-shard cas ids."""

    @pytest.mark.parametrize("script,expected", [
        (BASIC_SCRIPT, BASIC_REPLY), (NUMERIC_SCRIPT, NUMERIC_REPLY),
        (NOREPLY_SCRIPT, NOREPLY_REPLY), (ERROR_SCRIPT, ERROR_REPLY),
        (TOUCH_SCRIPT, TOUCH_REPLY), (BINARY_SCRIPT, BINARY_REPLY),
        (OVERSIZED_SCRIPT, OVERSIZED_REPLY),
    ], ids=["basic", "numeric", "noreply", "error", "touch", "binary",
            "oversized"])
    def test_replies_match(self, script, expected):
        differential(script, expected, nshards=4)

    def test_gets_with_cas_masked(self):
        differential(CAS_SCRIPT, CAS_REPLY, nshards=4, mask_cas=True)

    def test_many_keys_across_shards(self):
        differential(MANY_KEYS_SCRIPT, MANY_KEYS_REPLY, nshards=4)
        differential(MANY_KEYS_SCRIPT, MANY_KEYS_REPLY, nshards=4, chunk=17)
