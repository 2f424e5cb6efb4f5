"""End-to-end tests for the server and client over real sockets."""

import socket

import pytest

from repro.cache import SizeClassConfig
from repro.policies import StaticMemcachedPolicy
from repro.server import CacheClient, ShardSet, start_async_server


class TestServerRoundTrip:
    def test_set_get_delete(self, client):
        assert client.set("alpha", b"value-1", penalty=0.2)
        assert client.get("alpha") == b"value-1"
        assert client.delete("alpha")
        assert client.get("alpha") is None
        assert not client.delete("alpha")

    def test_penalty_rides_in_flags(self, cache, client):
        client.set("k", b"data", penalty=0.25)
        item = cache.index["k"]
        assert item.penalty == pytest.approx(0.25)
        # penalty bin routed through PAMA's config
        assert item.bin_idx == cache.policy.bin_for(0.25)

    def test_binary_safe_values(self, client):
        payload = bytes(range(256)) + b"\r\nEND\r\n"
        client.set("bin", payload)
        assert client.get("bin") == payload

    def test_multiple_clients(self, server):
        with CacheClient(port=server.port) as a, \
                CacheClient(port=server.port) as b:
            a.set("shared", b"from-a")
            assert b.get("shared") == b"from-a"

    def test_stats_and_version(self, client):
        client.set("x", b"1")
        client.get("x")
        stats = client.stats()
        assert stats["policy"] == "pama"
        assert int(stats["hits"]) >= 1
        assert client.version().startswith("repro-pama/")

    def test_protocol_error_keeps_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            f = sock.makefile("rb")
            sock.sendall(b"nonsense\r\n")
            assert f.readline().startswith(b"CLIENT_ERROR")
            sock.sendall(b"version\r\n")
            assert f.readline().startswith(b"VERSION")

    def test_oversized_item_not_stored(self, server):
        with CacheClient(port=server.port) as c:
            with pytest.raises(
                    RuntimeError,
                    match="SERVER_ERROR object too large for cache"):
                c.set("big", b"x" * (128 << 10))  # > one 64KiB slab
            assert c.get("big") is None  # block discarded, stream in sync


class TestServerWithStaticPolicy:
    def test_static_policy_server(self):
        with start_async_server(ShardSet(
                1 << 20, StaticMemcachedPolicy,
                SizeClassConfig(slab_size=64 << 10))) as srv:
            with CacheClient(port=srv.port) as c:
                for i in range(50):
                    c.set(f"k{i}", b"y" * 100)
                assert int(c.stats()["sets"]) == 50
