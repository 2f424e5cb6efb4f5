"""Differential testing: the async front end vs the legacy server.

Each script is a raw byte stream sent over a fresh connection; the
complete reply stream (read to EOF) must be **byte-identical** between
the two servers.  Scripts that exercise ``gets``/``cas`` run at
``shards=1`` only: the sharded server allocates cas ids per shard, so
multi-shard cas ids legitimately diverge from the legacy server's
single global counter — those scripts mask the cas field instead.
"""

import re
import socket

import pytest

from repro.cache import SizeClassConfig, SlabCache
from repro.core import PamaPolicy
from repro.server import ShardSet, start_async_server, start_server

CLASSES = SizeClassConfig(slab_size=64 << 10)
CAPACITY = 8 << 20


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


def differential(script: bytes, nshards: int, chunk: int = 0,
                 mask_cas: bool = False) -> None:
    cache = SlabCache(CAPACITY, PamaPolicy(), CLASSES)
    legacy = start_server(cache)
    shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=nshards)
    handle = start_async_server(shards)
    try:
        expected = replay(legacy.port, script, chunk=chunk)
        actual = replay(handle.port, script, chunk=chunk)
        if mask_cas:
            # VALUE <key> <flags> <bytes> <cas> -> cas id blanked
            blank = re.compile(rb"(VALUE \S+ \d+ \d+) \d+\r\n")
            expected = blank.sub(rb"\1 *\r\n", expected)
            actual = blank.sub(rb"\1 *\r\n", actual)
        assert actual == expected
    finally:
        handle.stop()
        legacy.shutdown()
        legacy.server_close()


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

CAS_SCRIPT = (
    b"set k 0 0 2\r\nv1\r\n"
    b"gets k\r\n"
    b"cas k 0 0 2 1\r\nv2\r\n"
    b"cas k 0 0 2 1\r\nv3\r\n"
    b"cas missing 0 0 1 7\r\nz\r\n"
    b"gets k\r\n"
    b"quit\r\n"
)

ERROR_SCRIPT = (
    b"bogus command\r\n"
    b"set k bad 0 7\r\nget k\r\n\r\n"   # recoverable: data block drained
    b"version\r\n"
    b"get\r\n"
    b"incr k notanumber\r\n"
    b"quit\r\n"
)

FATAL_SCRIPT = (
    b"set ok 0 0 1\r\nx\r\n"
    b"set k 0 0 zzz\r\n"                # unknowable count: must close
    b"version\r\n"                      # never answered
)

TOUCH_SCRIPT = (
    b"set k 3 0 5\r\nhello\r\n"
    b"touch k 100\r\n"
    b"touch missing 100\r\n"
    b"get k\r\n"
    b"quit\r\n"
)

BINARY_SCRIPT = (
    b"set bin 0 0 12\r\na\r\nEND\r\nb\r\n\r\n"
    b"get bin\r\n"
    b"quit\r\n"
)

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


class TestSingleShardByteIdentical:
    """shards=1: the full protocol, cas ids included, byte for byte."""

    @pytest.mark.parametrize("script", [
        BASIC_SCRIPT, NUMERIC_SCRIPT, NOREPLY_SCRIPT, CAS_SCRIPT,
        ERROR_SCRIPT, FATAL_SCRIPT, TOUCH_SCRIPT, BINARY_SCRIPT,
        OVERSIZED_SCRIPT,
    ], ids=["basic", "numeric", "noreply", "cas", "error", "fatal",
            "touch", "binary", "oversized"])
    def test_replies_match(self, script):
        differential(script, nshards=1)

    def test_chunked_send_equals_one_shot(self):
        # drip-feed the bytes: the incremental decoder must produce the
        # same replies as the blocking readline server
        differential(BASIC_SCRIPT + NUMERIC_SCRIPT, nshards=1, chunk=3)

    def test_error_script_chunked(self):
        differential(ERROR_SCRIPT, nshards=1, chunk=5)

    def test_oversized_reply(self):
        shards = ShardSet(CAPACITY, PamaPolicy, CLASSES, nshards=1)
        handle = start_async_server(shards)
        try:
            reply = replay(handle.port, OVERSIZED_SCRIPT, chunk=4096)
        finally:
            handle.stop()
        assert reply.startswith(
            b"SERVER_ERROR object too large for cache\r\nEND\r\nSTORED\r\n"
            b"VERSION ")
        assert shards.stats_snapshot()["sets"] == 1


class TestMultiShard:
    """shards=4: identical replies modulo per-shard cas ids."""

    @pytest.mark.parametrize("script", [
        BASIC_SCRIPT, NUMERIC_SCRIPT, NOREPLY_SCRIPT, ERROR_SCRIPT,
        TOUCH_SCRIPT, BINARY_SCRIPT, OVERSIZED_SCRIPT,
    ], ids=["basic", "numeric", "noreply", "error", "touch", "binary",
            "oversized"])
    def test_replies_match(self, script):
        differential(script, nshards=4)

    def test_gets_with_cas_masked(self):
        differential(CAS_SCRIPT, nshards=4, mask_cas=True)

    def test_many_keys_across_shards(self):
        script = bytearray()
        for i in range(60):
            script += b"set key-%d 0 0 4\r\nv%03d\r\n" % (i, i)
        for i in range(60):
            script += b"get key-%d\r\n" % i
        script += b"quit\r\n"
        differential(bytes(script), nshards=4)
        differential(bytes(script), nshards=4, chunk=17)
