"""Regression tests for the serving-path edge-case bugfixes.

Each test here fails on the pre-fix code:

* ``CacheClient`` returned a silently **truncated value** when the
  server died mid-data-block (``file.read(n)`` returns short at EOF).
* ``incr``/``decr`` replied the new number even when the resized
  payload **failed to store** — the server lied to the client.
* ``server_bytes_read_total`` never counted a **partial data block**
  (the handler returned before the counter increment).
* ``CacheClient.incr`` raised a bare ``ValueError`` on a
  ``SERVER_ERROR``/``ERROR`` reply (``int(b"SERVER_ERROR ...")``).
"""

import socket
import socketserver
import threading
import time

import pytest

from repro.cache import SizeClassConfig
from repro.core import PamaPolicy
from repro.obs import EventTrace, Registry
from repro.server import (AsyncCacheServer, CacheClient, ShardSet,
                          start_async_server)


class ScriptedServer:
    """A fake server that sends a canned reply per request line, then
    optionally closes — for driving the client's error paths."""

    def __init__(self, replies: list[bytes], close_after: bool = True):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                for reply in outer.replies:
                    if not self.rfile.readline():
                        return
                    self.wfile.write(reply)
                if outer.close_after:
                    return  # connection closes here

        self.replies = replies
        self.close_after = close_after
        self._srv = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        self.port = self._srv.server_address[1]
        self._thread = threading.Thread(target=self._srv.serve_forever,
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._srv.shutdown()
        self._srv.server_close()


class TestTruncatedValueRaises:
    def test_get_truncated_mid_value_raises_connection_error(self):
        # The server promises 10 bytes but dies after 3: the client must
        # raise, not hand back b"abc" as if it were the stored value.
        fake = ScriptedServer([b"VALUE k 0 10\r\nabc"])
        try:
            with pytest.raises(ConnectionError, match="mid-value"):
                with CacheClient(port=fake.port) as c:
                    c.get("k")
        finally:
            fake.stop()

    def test_gets_truncated_mid_value_raises_connection_error(self):
        fake = ScriptedServer([b"VALUE k 0 10 42\r\nabc"])
        try:
            with pytest.raises(ConnectionError, match="mid-value"):
                with CacheClient(port=fake.port) as c:
                    c.gets("k")
        finally:
            fake.stop()

    def test_get_truncated_mid_trailer_raises(self):
        # value complete but the connection dies inside the CRLF
        fake = ScriptedServer([b"VALUE k 0 3\r\nabc\r"])
        try:
            with pytest.raises(ConnectionError):
                with CacheClient(port=fake.port) as c:
                    c.get("k")
        finally:
            fake.stop()

    def test_intact_value_still_returned(self):
        fake = ScriptedServer([b"VALUE k 0 3\r\nabc\r\nEND\r\n"],
                              close_after=False)
        try:
            with CacheClient(port=fake.port) as c:
                assert c.get("k") == b"abc"
        finally:
            fake.stop()


class TestIncrStoreFailure:
    def _break_set(self, cache):
        cache.set = lambda *a, **k: False

    def test_async_server_replies_server_error(self):
        shards = ShardSet(2 << 20, PamaPolicy,
                          SizeClassConfig(slab_size=64 << 10), nshards=2)
        handle = start_async_server(shards)
        try:
            with CacheClient(port=handle.port) as c:
                c.set("n", b"10")
                self._break_set(shards.shard_for("n"))
                with pytest.raises(RuntimeError, match="SERVER_ERROR"):
                    c.incr("n", 5)
        finally:
            handle.stop()

    def test_store_failure_does_not_fake_the_counter(self, server, cache):
        with CacheClient(port=server.port) as c:
            c.set("n", b"10")
            self._break_set(cache)
            with pytest.raises(RuntimeError):
                c.decr("n", 1)


class TestBytesReadAccounting:
    def test_partial_data_block_is_counted(self, server):
        line = b"set k 0 0 10\r\n"
        partial = b"abc"
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(line + partial)
            sock.shutdown(socket.SHUT_WR)
            assert sock.makefile("rb").readline() == b""  # silent close
        counter = server.registry.get("server_bytes_read_total")
        deadline = time.time() + 5
        while counter.value < len(line) + len(partial):
            if time.time() > deadline:
                break
            time.sleep(0.01)
        # pre-fix: only the command line was counted (the handler
        # returned before the increment), leaving the 3 payload bytes out
        assert counter.value == len(line) + len(partial)


class TestClientIncrErrorReplies:
    @pytest.mark.parametrize("reply", [b"SERVER_ERROR boom\r\n",
                                       b"ERROR\r\n"])
    def test_error_reply_raises_runtime_error(self, reply):
        fake = ScriptedServer([reply], close_after=False)
        try:
            with CacheClient(port=fake.port) as c:
                # pre-fix this was int(b"SERVER_ERROR boom") -> a bare
                # ValueError that hid the server's message entirely.
                with pytest.raises(RuntimeError,
                                   match=reply.split()[0].decode()):
                    c.incr("n", 1)
        finally:
            fake.stop()


class TestCallerRegistryKept:
    """A fresh Registry / EventTrace is empty, hence falsy: the server
    must keep the caller's objects, not swap in new ones."""

    def test_async_server(self):
        shards = ShardSet(2 << 20, PamaPolicy,
                          SizeClassConfig(slab_size=64 << 10), nshards=2)
        registry, events = Registry(), EventTrace()
        server = AsyncCacheServer(shards, registry=registry, events=events)
        assert server.registry is registry
        assert server.events is events
        assert all(cache.obs is registry and cache.events is events
                   for cache in shards.shards)
